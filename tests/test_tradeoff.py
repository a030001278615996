"""Tests for the accuracy-cost trade-off analysis and bundled fixture."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strforge.tradeoff import (
    REGULAR_WEIGHTS,
    IRREGULAR_WEIGHTS,
    ResultRow,
    TradeoffPoint,
    all_marginals,
    dominates,
    emit_report,
    frontier_chain,
    load_fixture,
    module_marginal,
    pareto_set,
    points_from_rows,
)


@pytest.fixture(scope="module")
def rows():
    return load_fixture()


# ---------------------------------------------------------------------------
# fixture integrity
# ---------------------------------------------------------------------------


def test_unified_weights_follow_evalkit():
    # the unified composition's fixture columns, in evalkit's dataset order
    assert list(REGULAR_WEIGHTS.items()) == [("iiit", 3000), ("svt", 647),
                                             ("ic03_867", 867), ("ic13_1015", 1015)]
    assert list(IRREGULAR_WEIGHTS.items()) == [("ic15_2077", 2077), ("sp", 645),
                                               ("ct", 288)]


def test_fixture_shape(rows):
    assert len(rows) == 24
    assert sorted(r.id for r in rows) == list(range(1, 25))
    assert len({r.name for r in rows}) == 24
    for r in rows:
        assert r.trans in ("None", "TPS")
        assert r.feat in ("VGG", "RCNN", "ResNet")
        assert r.seq in ("None", "BiLSTM")
        assert r.pred in ("CTC", "Attn")
        assert r.time_ms > 0 and r.params_m > 0 and r.flops_g > 0
        assert 0 < r.total <= 100


def test_fixture_group_sizes(rows):
    assert sum(r.trans == "TPS" for r in rows) == 12
    assert sum(r.feat == "VGG" for r in rows) == 8
    assert sum(r.feat == "RCNN" for r in rows) == 8
    assert sum(r.feat == "ResNet" for r in rows) == 8


def test_point_validation():
    with pytest.raises(ValueError):
        TradeoffPoint(id=1, name="x", accuracy=50.0, cost=0.0)
    with pytest.raises(ValueError):
        TradeoffPoint(id=1, name="x", accuracy=101.0, cost=1.0)


# ---------------------------------------------------------------------------
# Pareto sets
# ---------------------------------------------------------------------------


def _brute_force(points):
    out = []
    for p in points:
        dominated = False
        for q in points:
            if q is p:
                continue
            if (q.cost <= p.cost and q.accuracy >= p.accuracy
                    and (q.cost < p.cost or q.accuracy > p.accuracy)):
                dominated = True
                break
        if not dominated:
            out.append(p)
    return out


def test_single_point_is_its_own_frontier():
    p = TradeoffPoint(id=1, name="a", accuracy=50.0, cost=1.0)
    assert pareto_set([p]) == [p]


def test_accuracy_time_frontier_members(rows):
    front = {p.id for p in pareto_set(points_from_rows(rows, "time_ms"))}
    assert {1, 9, 11, 23, 24} <= front


def test_accuracy_params_frontier_members(rows):
    front = {p.id for p in pareto_set(points_from_rows(rows, "params_m"))}
    assert {5, 6, 18, 20, 24} <= front


def test_pareto_matches_brute_force_random_clouds():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        pts = [TradeoffPoint(id=i, name=str(i),
                             accuracy=float(rng.uniform(0, 100)),
                             cost=float(rng.uniform(0.1, 10)))
               for i in range(n)]
        assert pareto_set(pts) == _brute_force(pts)


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0.1, 100)),
                min_size=1, max_size=40))
@settings(max_examples=100, deadline=None)
def test_pareto_property(pairs):
    pts = [TradeoffPoint(id=i, name=str(i), accuracy=a, cost=c)
           for i, (a, c) in enumerate(pairs)]
    front = pareto_set(pts)
    assert front == _brute_force(pts)
    # nothing in the front dominates anything else in the front
    for p in front:
        assert not any(dominates(q, p) for q in front if q is not p)


def test_cost_scaling_invariance(rows):
    pts = points_from_rows(rows, "time_ms")
    base = {p.id for p in pareto_set(pts)}
    for k in (0.01, 3.5, 1000.0):
        scaled = [TradeoffPoint(id=p.id, name=p.name, accuracy=p.accuracy,
                                cost=p.cost * k) for p in pts]
        assert {p.id for p in pareto_set(scaled)} == base


def test_frontier_chain_strictly_monotone(rows):
    for cost in ("time_ms", "params_m"):
        chain = frontier_chain(points_from_rows(rows, cost))
        assert len(chain) >= 2
        for a, b in zip(chain, chain[1:]):
            assert b.cost > a.cost
            assert b.accuracy > a.accuracy
        # the chain ends at the most accurate combination (#24)
        assert chain[-1].id == 24


def test_chain_tie_break_by_accuracy_then_id():
    pts = [
        TradeoffPoint(id=2, name="hi", accuracy=90.0, cost=1.0),
        TradeoffPoint(id=1, name="lo", accuracy=80.0, cost=0.5),
        TradeoffPoint(id=3, name="far", accuracy=95.0, cost=2.0),
    ]
    chain = frontier_chain(pts)
    assert [p.id for p in chain] == [1, 2, 3]


# ---------------------------------------------------------------------------
# module marginals
# ---------------------------------------------------------------------------


def test_marginal_trans_totals(rows):
    none = module_marginal(rows, "trans", "None")
    tps = module_marginal(rows, "trans", "TPS")
    assert none["count"] == 12 and tps["count"] == 12
    assert abs(none["total"] - 78.6) <= 0.05
    assert abs(tps["total"] - 80.8) <= 0.05


def test_marginal_reference_table_size_weighted(rows):
    # Regular/irregular aggregates reported per module option.
    checks = [
        ("pred", "CTC", 85.5, None),
        ("pred", "Attn", 87.2, None),
        ("trans", "None", 85.6, 65.7),
        ("feat", "ResNet", 88.3, 71.0),
    ]
    for stage, opt, reg, irr in checks:
        m = module_marginal(rows, stage, opt)
        assert abs(m["regular_weighted"] - reg) <= 0.5, (stage, opt)
        if irr is not None:
            assert abs(m["irregular_weighted"] - irr) <= 0.5, (stage, opt)


def test_marginal_grand_mean_identity(rows):
    grand = sum(r.total for r in rows) / 24
    for stage, options in (("trans", ("None", "TPS")),
                           ("feat", ("VGG", "RCNN", "ResNet")),
                           ("seq", ("None", "BiLSTM")),
                           ("pred", ("CTC", "Attn"))):
        ms = [module_marginal(rows, stage, o) for o in options]
        weighted = sum(m["total"] * m["count"] for m in ms) / 24
        assert abs(weighted - grand) < 1e-9


def test_marginal_unknown_inputs(rows):
    with pytest.raises(ValueError):
        module_marginal(rows, "head", "CTC")
    with pytest.raises(ValueError):
        module_marginal(rows, "feat", "DenseNet")


def test_all_marginals_covers_nine_options(rows):
    ms = all_marginals(rows)
    assert len(ms) == 9
    assert sum(m["count"] for m in ms) == 12 * 2 + 8 * 3 + 12 * 2 + 12 * 2


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def test_emit_report_files(rows, tmp_path):
    out = emit_report(rows, out_dir=tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["frontiers"]) == {"time_ms", "params_m"}
    assert {1, 9, 11, 23, 24} <= set(report["frontiers"]["time_ms"]["pareto_ids"])
    assert len(report["marginals"]) == 9
    csv_text = (tmp_path / "marginals.csv").read_text()
    assert csv_text.splitlines()[0].startswith("stage,option,count,total")
    assert len(csv_text.splitlines()) == 10
    plot = json.loads((tmp_path / "plot_data.json").read_text())
    assert len(plot["time_ms"]) == 24
    point = plot["time_ms"][0]
    assert {"id", "name", "x", "y", "frontier", "color_key"} <= set(point)
    assert out["json"] == (tmp_path / "report.json").read_text()
