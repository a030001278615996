import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strforge.evalkit import (
    Entry,
    EvalConfigError,
    Manifest,
    UNIFIED_COMPOSITION,
    UNIFIED_TOTAL,
    dedupe_scan,
    filter_benchmark,
    normalize_label,
    timing_probe,
    unified_eval,
    word_accuracy,
)


def man(labels, dataset="IC03", prefix="img", scene_of=None, digest_of=None):
    entries = []
    for i, lbl in enumerate(labels):
        entries.append(Entry(image=f"{prefix}{i}", label=lbl, dataset=dataset,
                             scene=scene_of(i) if scene_of else f"s{i}",
                             digest=digest_of(i) if digest_of else ""))
    return Manifest(entries)


class TestNormalize:
    def test_examples(self):
        assert normalize_label("Hello-1!") == "hello1"
        assert normalize_label("ABC") == "abc"
        assert normalize_label("¥€$") == ""

    @given(st.text(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_in_range(self, s):
        out = normalize_label(s)
        assert normalize_label(out) == out
        assert all(c in "0123456789abcdefghijklmnopqrstuvwxyz" for c in out)


class TestWordAccuracy:
    def test_examples(self):
        assert word_accuracy(["a", "b"], ["a", "b"]) == 100.0
        assert word_accuracy(["hello1"], ["Hello-1"]) == 100.0
        assert word_accuracy(["a", "b", "c", "x"], ["a", "b", "c", "d"]) == 75.0


class TestFilters:
    def test_ic03_rules_fixture(self):
        m = man(["ab", "abc", "ab#c", "xyz1"])
        out, rep = filter_benchmark(m, "IC03", 867)
        assert sorted(e.label for e in out) == ["abc", "xyz1"]
        assert rep.before == 4 and rep.after == 2

    def test_ic03_1110_to_867(self):
        labels = (["word%03d" % i for i in range(867)]
                  + ["ab"] * 150 + ["a#b" * 2] * 93)
        m = man(labels)
        out, rep = filter_benchmark(m, "IC03", 867)
        assert rep.before == 1110 and rep.after == 867

    def test_ic13_1095_to_1015_to_857(self):
        labels = (["word%04d" % i for i in range(857)]
                  + ["ab"] * 158 + ["ééé"] * 80)
        m = man(labels, dataset="IC13")
        # the 1,095-entry raw set reduces to 1,015 by dropping non-alphanumeric
        # labels upstream; model that stage with the generic rule-free variant
        kept = Manifest([e for e in m
                         if all(ch.isalnum() and ch.isascii() for ch in e.label)])
        assert len(m) == 1095 and len(kept) == 1015
        out, rep = filter_benchmark(kept, "IC13", 857)
        assert rep.after == 857

    def test_ic15_2077_to_1811_with_exclusion(self):
        m = man(["w%04d" % i for i in range(2077)], dataset="IC15")
        excl = Manifest([Entry(image=f"img{i}", label="x", dataset="IC15")
                         for i in range(266)])
        out, rep = filter_benchmark(m, "IC15", 1811, exclusion=excl)
        assert rep.before == 2077 and rep.after == 1811
        assert rep.removed_by_exclusion == 266

    def test_exclusion_missing_is_config_error(self):
        m = man(["abc"], dataset="IC15")
        with pytest.raises(EvalConfigError):
            filter_benchmark(m, "IC15", 1811)

    @pytest.mark.parametrize("dataset, variant", [("IC03", 867), ("IC15", 2077), ("IIIT", None)])
    def test_exclusion_for_a_variant_that_takes_none_is_config_error(self, dataset, variant):
        m = man(["abc", "abcd"], dataset=dataset)
        with pytest.raises(EvalConfigError, match="takes no exclusion"):
            filter_benchmark(m, dataset, variant, exclusion=m)

    def test_invalid_variant(self):
        with pytest.raises(EvalConfigError):
            filter_benchmark(man(["abc"]), "IC03", 999)

    def test_idempotent(self):
        m = man(["ab", "abc", "ab#c", "xyz1"])
        once, _ = filter_benchmark(m, "IC03", 867)
        twice, _ = filter_benchmark(once, "IC03", 867)
        assert [e.image for e in once] == [e.image for e in twice]


class TestDedupe:
    def test_disjoint(self):
        a = man(["abc", "def"], prefix="a")
        b = man(["ghi"], prefix="b", scene_of=lambda i: f"t{i}")
        rep, clean = dedupe_scan(a, b)
        assert rep.duplicate_scenes == 0 and rep.duplicate_boxes == 0
        assert clean.entries == a.entries

    def test_single_shared_digest(self):
        a = man(["abc"], prefix="a", digest_of=lambda i: "d0")
        b = man(["zzz"], prefix="b", digest_of=lambda i: "d0")
        rep, clean = dedupe_scan(a, b)
        assert rep.duplicate_scenes == 1 and rep.duplicate_boxes == 1
        assert rep.by_digest == 1
        assert len(clean) == 0

    def test_34_scenes_215_boxes_fixture(self):
        # 34 shared scenes holding 215 shared word boxes, plus clean filler
        train_entries, eval_entries = [], []
        k = 0
        for s in range(34):
            boxes = 7 if s < 11 else 6  # 11*7 + 23*6 = 215
            for b in range(boxes):
                train_entries.append(Entry(image=f"tr{k}", label=f"w{k}",
                                           dataset="IC03", scene=f"scene{s}"))
                eval_entries.append(Entry(image=f"ev{k}", label=f"w{k}",
                                          dataset="IC03", scene=f"scene{s}"))
                k += 1
        for i in range(100):
            train_entries.append(Entry(image=f"trx{i}", label=f"u{i}",
                                       dataset="IC03", scene=f"trainonly{i}"))
        train_m, eval_m = Manifest(train_entries), Manifest(eval_entries)
        rep, clean = dedupe_scan(train_m, eval_m)
        assert (rep.duplicate_scenes, rep.duplicate_boxes) == (34, 215)
        assert len(clean) == 100
        swapped, _ = dedupe_scan(eval_m, train_m)
        assert (swapped.duplicate_scenes, swapped.duplicate_boxes) == (34, 215)

    def test_emit_clean_removes_duplicates(self):
        a = man(["abc", "def"], prefix="a", digest_of=lambda i: f"d{i}")
        b = man(["xyz"], prefix="b", digest_of=lambda i: "d0")
        rep, clean = dedupe_scan(a, b)
        assert len(clean) == 1 and clean.entries[0].label == "def"


class TestUnified:
    def test_composition_sums_to_8539(self):
        assert UNIFIED_TOTAL == 8539
        assert sum(UNIFIED_COMPOSITION.values()) == 8539

    def test_all_correct_gives_100(self):
        manifests = {d: man([f"w{i}" for i in range(5)], dataset=d)
                     for d in UNIFIED_COMPOSITION}
        preds = {d: [f"w{i}" for i in range(5)] for d in UNIFIED_COMPOSITION}
        rec = unified_eval(preds, manifests)
        assert rec.total == 100.0 and rec.regular == 100.0 == rec.irregular
        assert rec.warnings  # counts deviate from the declared composition

    def test_constant_accuracy_is_weight_free(self):
        manifests, preds = {}, {}
        for j, d in enumerate(UNIFIED_COMPOSITION):
            n = 5 + j
            labels = [f"w{i}" for i in range(n)]
            wrong = max(1, n // 5)
            manifests[d] = man(labels, dataset=d)
            preds[d] = labels[:-wrong] + ["#" * 3] * wrong
        rec = unified_eval(preds, manifests)
        accs = list(rec.per_dataset.values())
        weighted = sum(rec.counts[d] * rec.per_dataset[d]
                       for d in rec.per_dataset) / sum(rec.counts.values())
        assert np.isclose(rec.total, weighted)

    def test_constant_80_total(self):
        manifests, preds = {}, {}
        for d in UNIFIED_COMPOSITION:
            labels = [f"w{i}" for i in range(5)]
            manifests[d] = man(labels, dataset=d)
            preds[d] = labels[:4] + ["###"]
        rec = unified_eval(preds, manifests)
        assert np.isclose(rec.total, 80.0)
        assert np.isclose(rec.regular, 80.0) and np.isclose(rec.irregular, 80.0)


class TestManifestIO:
    def test_json_lines_round_trip(self, tmp_path):
        m = man(["abc", "def"], digest_of=lambda i: f"d{i}")
        p = tmp_path / "m.jsonl"
        m.save(p)
        loaded = Manifest.load(p)
        assert [e.label for e in loaded] == ["abc", "def"]
        assert loaded.entries[0].digest == "d0"

    def test_duplicate_image_rejected(self):
        with pytest.raises(ValueError):
            Manifest([Entry(image="a", label="x"), Entry(image="a", label="y")])

    def test_timing_probe(self):
        x = np.zeros((4, 3))
        ms, env = timing_probe(lambda b: b.sum(), x, repetitions=2)
        assert ms >= 0.0 and "python=" in env
