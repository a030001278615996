"""Accuracy-cost trade-off analysis over the 24 combinations.

Loads the bundled 24-row results fixture, computes strict Pareto
non-dominated sets for accuracy-vs-time and accuracy-vs-params, orders
frontiers into staircase chains, and computes per-module marginal means
(the mean over all combinations containing a given stage option). Emits
CSV/JSON/plot-data reports; no plot rendering here.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from importlib import resources

from .evalkit import IRREGULAR, REGULAR, UNIFIED_COMPOSITION
from .pipeline import FEAT_OPTIONS, PRED_OPTIONS, SEQ_OPTIONS, TRANS_OPTIONS

STAGES = ("trans", "feat", "seq", "pred")

_FLOAT_COLS = ("iiit", "svt", "ic03_860", "ic03_867", "ic13_857", "ic13_1015",
               "ic15_1811", "ic15_2077", "sp", "ct", "total", "time_ms",
               "params_m", "flops_g")


def _unified_columns(datasets):
    """Fixture column -> unified subset size, e.g. {"iiit": 3000, "ic03_867": 867}."""
    cols = {}
    for d in datasets:
        sized = f"{d.lower()}_{UNIFIED_COMPOSITION[d]}"
        cols[sized if sized in _FLOAT_COLS else d.lower()] = UNIFIED_COMPOSITION[d]
    return cols


REGULAR_WEIGHTS = _unified_columns(REGULAR)
IRREGULAR_WEIGHTS = _unified_columns(IRREGULAR)


@dataclass(frozen=True)
class ResultRow:
    id: int
    trans: str
    feat: str
    seq: str
    pred: str
    iiit: float
    svt: float
    ic03_860: float
    ic03_867: float
    ic13_857: float
    ic13_1015: float
    ic15_1811: float
    ic15_2077: float
    sp: float
    ct: float
    total: float
    time_ms: float
    params_m: float
    flops_g: float

    @property
    def name(self):
        return f"{self.trans}-{self.feat}-{self.seq}-{self.pred}"


@dataclass(frozen=True)
class TradeoffPoint:
    id: int
    name: str
    accuracy: float
    cost: float

    def __post_init__(self):
        if self.cost <= 0:
            raise ValueError(f"cost must be positive, got {self.cost}")
        if not 0.0 <= self.accuracy <= 100.0:
            raise ValueError(f"accuracy must be in [0, 100], got {self.accuracy}")


def load_fixture(path=None):
    """The bundled 24-row results table as a list of ResultRow."""
    if path is None:
        text = (resources.files("strforge") / "data" / "results24.csv").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = []
    for rec in csv.DictReader(lines):
        kwargs = {"id": int(rec["id"])}
        for s in STAGES:
            kwargs[s] = rec[s]
        for c in _FLOAT_COLS:
            kwargs[c] = float(rec[c])
        rows.append(ResultRow(**kwargs))
    if len(rows) != 24 or sorted(r.id for r in rows) != list(range(1, 25)):
        raise ValueError("results fixture must hold rows with ids 1..24")
    return rows


def points_from_rows(rows, cost: str = "time_ms"):
    """Project fixture rows to (accuracy, cost) trade-off points."""
    return [TradeoffPoint(id=r.id, name=r.name, accuracy=r.total,
                          cost=getattr(r, cost)) for r in rows]


def dominates(q: TradeoffPoint, p: TradeoffPoint) -> bool:
    """q dominates p: no worse in both axes and strictly better in one."""
    return (q.cost <= p.cost and q.accuracy >= p.accuracy
            and (q.cost < p.cost or q.accuracy > p.accuracy))


def pareto_set(points):
    """Strictly non-dominated points (order preserved)."""
    return [p for p in points if not any(dominates(q, p) for q in points if q is not p)]


def frontier_chain(points):
    """Pareto set sorted by ascending cost; accuracy strictly increases.

    Cost ties break toward higher accuracy, then lower id; a dominated-tie
    member never survives pareto_set, so the accuracy staircase is strict.
    """
    front = sorted(pareto_set(points), key=lambda p: (p.cost, -p.accuracy, p.id))
    chain = []
    for p in front:
        if chain and p.accuracy <= chain[-1].accuracy:
            continue  # equal-cost sibling already represented
        chain.append(p)
    return chain


def _weighted(row: ResultRow, weights) -> float:
    n = sum(weights.values())
    return sum(getattr(row, col) * w for col, w in weights.items()) / n


def _unweighted(row: ResultRow, weights) -> float:
    return sum(getattr(row, col) for col in weights) / len(weights)


def module_marginal(rows, stage: str, option: str):
    """Mean accuracies over the combinations containing one stage option.

    Returns a dict with the mean total accuracy and regular/irregular
    aggregates under both candidate weightings (per-dataset size weights and
    plain dataset means), plus mean time and params of the group.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    group = [r for r in rows if getattr(r, stage).lower() == option.lower()]
    if not group:
        raise ValueError(f"no combinations with {stage}={option!r}")
    n = len(group)
    return {
        "stage": stage,
        "option": option,
        "count": n,
        "total": sum(r.total for r in group) / n,
        "regular_weighted": sum(_weighted(r, REGULAR_WEIGHTS) for r in group) / n,
        "irregular_weighted": sum(_weighted(r, IRREGULAR_WEIGHTS) for r in group) / n,
        "regular_unweighted": sum(_unweighted(r, REGULAR_WEIGHTS) for r in group) / n,
        "irregular_unweighted": sum(_unweighted(r, IRREGULAR_WEIGHTS) for r in group) / n,
        "time_ms": sum(r.time_ms for r in group) / n,
        "params_m": sum(r.params_m for r in group) / n,
    }


_OPTIONS = dict(zip(STAGES, (TRANS_OPTIONS, FEAT_OPTIONS, SEQ_OPTIONS, PRED_OPTIONS)))


def all_marginals(rows):
    return [module_marginal(rows, stage, opt)
            for stage, opts in _OPTIONS.items() for opt in opts]


def emit_report(rows, out_dir=None):
    """Frontier memberships, chains, marginals, and scatter-plot data.

    Returns a dict {"json": str, "csv": str, "plot": dict}; when `out_dir`
    is given, also writes report.json, marginals.csv, and plot_data.json.
    """
    analyses = {}
    plot = {}
    for cost in ("time_ms", "params_m"):
        pts = points_from_rows(rows, cost)
        front = pareto_set(pts)
        chain = frontier_chain(pts)
        analyses[cost] = {
            "pareto_ids": sorted(p.id for p in front),
            "chain": [{"id": p.id, "name": p.name, "cost": p.cost,
                       "accuracy": p.accuracy} for p in chain],
        }
        plot[cost] = [{"id": p.id, "name": p.name, "x": p.cost, "y": p.accuracy,
                       "frontier": p in front,
                       "color_key": {s: getattr(rows[p.id - 1], s) for s in STAGES}}
                      for p in pts]
    marginals = all_marginals(rows)

    buf = io.StringIO()
    w = csv.writer(buf)
    header = ["stage", "option", "count", "total", "regular_weighted",
              "irregular_weighted", "regular_unweighted",
              "irregular_unweighted", "time_ms", "params_m"]
    w.writerow(header)
    for m in marginals:
        w.writerow([m[k] for k in header])
    csv_text = buf.getvalue()

    report = {"frontiers": analyses, "marginals": marginals}
    json_text = json.dumps(report, indent=2)

    if out_dir is not None:
        import os
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(json_text)
        with open(os.path.join(out_dir, "marginals.csv"), "w") as fh:
            fh.write(csv_text)
        with open(os.path.join(out_dir, "plot_data.json"), "w") as fh:
            json.dump(plot, fh, indent=2)
    return {"json": json_text, "csv": csv_text, "plot": plot}
