"""End-to-end tests for the command-line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

import strforge.cli as cli
from strforge.checkpoint import MAGIC, save_params
from strforge.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from strforge.pipeline import PipelineConfig, assemble
from strforge.tensor import Tensor
from strforge.toydata import synth_toydata
from strforge.tps import DegenerateFiducialsError


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe", "--pipeline", "CRNN", "--bogus-flag"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_invalid_pipeline_token_exits_2(tmp_path, capsys):
    code = main(["describe", "--pipeline", "TPS-DenseNet-BiLSTM-Attn",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--batch", "--iters", "--val-every",
                                  "--train-size", "--val-size"])
def test_train_zero_count_exits_2(tmp_path, capsys, flag):
    args = {"--batch": "4", "--iters": "2", "--val-every": "2", flag: "0"}
    code = main(["train", "--pipeline", "None-VGG-None-CTC", "--scale", "0.125",
                 "--train-size", "4", "--val-size", "4", "--max-len", "2",
                 "--out", str(tmp_path)] + [t for kv in args.items() for t in kv])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    named = {"--batch": "batch_size", "--iters": "iterations", "--val-every": "val_interval",
             "--train-size": "training set", "--val-size": "validation set"}[flag]
    assert "error:" in err and named in err
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("flag, value", [("--clip", "-1"), ("--clip", "0"),
                                         ("--rho", "1.5"), ("--rho", "-0.5"),
                                         ("--stop-accuracy", "nan")])
def test_train_hyperparameter_that_fails_silently_exits_2(tmp_path, capsys, monkeypatch,
                                                          flag, value):
    # clip <= 0 flips or zeroes every update; a rho outside [0, 1) takes the root of a negative;
    # a NaN stop accuracy never stops
    def no_assemble(*args, **kwargs):
        raise AssertionError("a model was assembled for an invalid recipe")

    monkeypatch.setattr("strforge.cli.assemble", no_assemble)
    code = main(["train", "--pipeline", "CRNN", "--iters", "40", "--val-every", "20",
                 "--batch", "8", "--train-size", "64", "--val-size", "16", flag, value,
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and f"{flag[2:].replace('-', '_')} must be" in err
    assert not (tmp_path / "checkpoint.bin").exists()


@pytest.mark.parametrize("argv", [["train", "--pipeline", "CRNN", "--train-size", "-5"],
                                  ["train", "--pipeline", "CRNN", "--val-size", "-1"],
                                  ["train", "--pipeline", "CRNN", "--max-len", "0"],
                                  ["eval", "--val-size", "-3"],
                                  ["eval", "--max-len", "0"],
                                  ["synthgen", "--n", "-2"],
                                  ["synthgen", "--max-len", "0"],
                                  ["train", "--pipeline", "None-VGG-None-CTC", "--seed", "-1"],
                                  ["eval", "--seed", "-1"],
                                  ["synthgen", "--n", "2", "--seed", "-4"],
                                  ["train", "--pipeline", "CRNN", "--max-len", "9"],
                                  ["eval", "--max-len", "9"],
                                  ["synthgen", "--max-len", "9"]])
def test_negative_size_or_empty_label_length_exits_2_naming_the_flag(tmp_path, capsys, argv):
    # a label longer than 8 characters does not fit the image
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    bound = "at most 8" if int(argv[-1]) > 8 else "at least"
    assert f"argument {argv[-2]}: must be {bound}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["train", "--pipeline", "None-VGG-None-CTC", "--iters", "2",
                                   "--scale", "0"],
                                  ["train", "--pipeline", "None-VGG-None-CTC", "--iters", "2",
                                   "--scale", "nan"],
                                  ["describe", "--pipeline", "CRNN", "--scale", "3"]])
def test_scale_outside_unit_interval_exits_2_naming_the_scale(tmp_path, capsys, argv):
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "error: scale must be in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.bin").exists()


def test_eval_checkpoint_on_an_empty_set_exits_2(tmp_path, capsys):
    model = assemble(PipelineConfig.from_string("None-VGG-None-CTC", scale=0.125))
    data = synth_toydata(4, max_len=2, seed=0)
    model.loss(Tensor(data.images), data.labels)  # a train-mode forward fills the BN statistics
    model.save(tmp_path / "m.bin")
    code = main(["eval", "--checkpoint", str(tmp_path / "m.bin"), "--val-size", "0",
                 "--out", str(tmp_path / "ev")])
    assert code == EXIT_USAGE
    assert "validation set is empty" in capsys.readouterr().err
    assert not (tmp_path / "ev" / "record.json").exists()


def test_missing_file_exits_3(tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)])
    assert code == EXIT_DATA
    assert "data error" in capsys.readouterr().err


def test_magic_only_checkpoint_exits_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "magic.bin"
    path.write_bytes(MAGIC)
    code = main(["eval", "--checkpoint", str(path), "--val-size", "4", "--out", str(tmp_path / "ev")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "data error" in err


@pytest.mark.parametrize("edit", [
    lambda h: h.update(extra=[1]),
    lambda h: h.update(extra="None-VGG-None-CTC"),
    lambda h: h["params"].update(a=[2, 3]),
    lambda h: h["params"]["a"].update(shape=6),
    lambda h: h["params"]["a"].update(shape=[2.0, 3.0]),
    lambda h: h["extra"].update(config=7),
    lambda h: h["extra"].update(scale="0.125"),
    lambda h: h["extra"].update(num_fiducials="20"),
], ids=["extra-list", "extra-string", "entry-list", "shape-int", "shape-floats", "config-int",
        "scale-string", "num_fiducials-string"])
def test_checkpoint_header_field_of_the_wrong_type_exits_3_with_one_line(tmp_path, capsys, edit):
    # a valid container whose header, not its payload, is edited: the CRC-32 still matches;
    # a TPS combination, so that num_fiducials is read
    path = tmp_path / "ck.bin"
    save_params(path, {"a": np.ones((2, 3), dtype=np.float32)},
                extra={"config": "TPS-VGG-None-CTC", "scale": 0.125, "num_fiducials": 20})
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + n])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + n:])
    code = main(["eval", "--checkpoint", str(path), "--val-size", "4", "--out", str(tmp_path / "ev")])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "data error" in err
    assert not (tmp_path / "ev" / "record.json").exists()


def test_numeric_failure_exits_4(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise DegenerateFiducialsError("collinear fiducials")

    monkeypatch.setattr(cli, "cmd_frontier", boom)
    code = main(["frontier", "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert "numeric failure" in capsys.readouterr().err


def test_numeric_beats_data_classification(tmp_path, capsys, monkeypatch):
    # DegenerateFiducialsError is a ValueError subclass; it must still map to
    # exit code 4, not the generic data-error code 3.
    assert issubclass(DegenerateFiducialsError, ValueError)
    monkeypatch.setattr(cli, "cmd_frontier",
                        lambda a: (_ for _ in ()).throw(
                            DegenerateFiducialsError("x")))
    assert main(["frontier", "--out", str(tmp_path)]) == EXIT_NUMERIC
    capsys.readouterr()


def test_checkpoint_without_bn_statistics_exits_3(tmp_path, capsys):
    # Saved before any train-mode forward: the batch-norm layers hold no
    # statistics, so eval-mode decoding cannot run.
    path = tmp_path / "fresh.bin"
    assemble(PipelineConfig.from_string("None-VGG-None-CTC", scale=0.125)).save(path)
    code = main(["eval", "--checkpoint", str(path), "--val-size", "4",
                 "--out", str(tmp_path / "ev")])
    assert code == EXIT_DATA
    assert "statistics" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# describe / frontier
# ---------------------------------------------------------------------------


def test_describe_writes_report(tmp_path, capsys):
    code = main(["describe", "--pipeline", "CRNN", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "None-VGG-BiLSTM-CTC" in out
    assert "total pipeline params" in out
    assert (tmp_path / "describe.txt").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "describe"
    assert "wall_time_s" in manifest


def test_describe_tps_grid_export(tmp_path, capsys):
    code = main(["describe", "--pipeline", "TPS-VGG-None-CTC", "--scale",
                 "0.125", "--tps", "--out", str(tmp_path)])
    assert code == EXIT_OK
    grid = json.loads((tmp_path / "tps_grid.json").read_text())
    src = np.asarray(grid["source"], dtype=float)
    assert src.shape == (grid["height"] * grid["width"], 2)
    # identity transform: sampling points equal the target pixel grid
    tgt = np.asarray(grid["target"], dtype=float)
    assert np.allclose(src, tgt, atol=1e-5)
    capsys.readouterr()


def test_frontier_report(tmp_path, capsys):
    code = main(["frontier", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "time_ms frontier ids" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert {1, 9, 11, 23, 24} <= set(
        report["frontiers"]["time_ms"]["pareto_ids"])
    assert (tmp_path / "marginals.csv").exists()
    assert (tmp_path / "plot_data.json").exists()


def test_frontier_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["frontier", "--out", str(a)]) == EXIT_OK
    assert main(["frontier", "--out", str(b)]) == EXIT_OK
    assert (a / "report.json").read_text() == (b / "report.json").read_text()
    assert (a / "marginals.csv").read_text() == (b / "marginals.csv").read_text()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# synthgen -> audit -> eval flow
# ---------------------------------------------------------------------------


def test_synthgen_outputs(tmp_path, capsys):
    code = main(["synthgen", "--n", "12", "--seed", "3", "--max-len", "3",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    images = np.load(tmp_path / "images.npy")
    assert images.shape == (12, 1, 32, 100)
    lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
    assert len(lines) == 12
    entry = json.loads(lines[0])
    assert {"image", "label", "dataset", "scene", "digest"} <= set(entry)
    capsys.readouterr()


def test_synthgen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["synthgen", "--n", "6", "--seed", "9", "--out", str(a)])
    main(["synthgen", "--n", "6", "--seed", "9", "--out", str(b)])
    assert np.array_equal(np.load(a / "images.npy"), np.load(b / "images.npy"))
    assert ((a / "manifest.jsonl").read_text()
            == (b / "manifest.jsonl").read_text())
    capsys.readouterr()


def test_audit_flags_overlap(tmp_path, capsys):
    tr, ev, out = tmp_path / "tr", tmp_path / "ev", tmp_path / "out"
    # same seed -> identical images -> every eval digest appears in training
    main(["synthgen", "--n", "8", "--seed", "5", "--out", str(tr)])
    main(["synthgen", "--n", "8", "--seed", "5", "--out", str(ev)])
    code = main(["audit", "--train-manifest", str(tr / "manifest.jsonl"),
                 "--eval-manifest", str(ev / "manifest.jsonl"),
                 "--emit-clean", "--out", str(out)])
    assert code == EXIT_OK
    audit = json.loads((out / "audit.json").read_text())
    assert audit["by_digest"] == 8
    clean = (out / "train_clean.jsonl").read_text().splitlines()
    assert len(clean) == 0  # everything overlapped
    capsys.readouterr()


def test_audit_disjoint_sets(tmp_path, capsys):
    tr, ev, out = tmp_path / "tr", tmp_path / "ev", tmp_path / "out"
    main(["synthgen", "--n", "6", "--seed", "1", "--out", str(tr)])
    main(["synthgen", "--n", "6", "--seed", "2", "--out", str(ev)])
    code = main(["audit", "--train-manifest", str(tr / "manifest.jsonl"),
                 "--eval-manifest", str(ev / "manifest.jsonl"),
                 "--out", str(out)])
    assert code == EXIT_OK
    audit = json.loads((out / "audit.json").read_text())
    assert audit["by_digest"] == 0
    capsys.readouterr()


def test_eval_manifest_mode(tmp_path, capsys):
    gt = tmp_path / "iiit.jsonl"
    entries = [{"image": f"img{i}.png", "label": lbl, "dataset": "IIIT",
                "scene": f"s{i}", "digest": f"d{i}"}
               for i, lbl in enumerate(["apple", "kiwi", "42"])]
    gt.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
    preds = tmp_path / "preds.jsonl"
    preds.write_text("\n".join(json.dumps({"pred": e["label"]})
                               for e in entries) + "\n")
    out = tmp_path / "out"
    code = main(["eval", "--manifest", f"IIIT={gt}", "--preds",
                 f"IIIT={preds}", "--out", str(out)])
    assert code == EXIT_OK
    record = json.loads((out / "record.json").read_text())
    assert record["total"] == 100.0
    assert record["counts"]["IIIT"] == 3
    capsys.readouterr()


def test_eval_missing_preds_exits_2(tmp_path, capsys):
    gt = tmp_path / "iiit.jsonl"
    gt.write_text(json.dumps({"image": "i.png", "label": "a",
                              "dataset": "IIIT", "scene": "s",
                              "digest": "d"}) + "\n")
    code = main(["eval", "--manifest", f"IIIT={gt}", "--out",
                 str(tmp_path / "out")])
    assert code == EXIT_USAGE
    capsys.readouterr()


def write_iiit_set(tmp_path):
    """A one-entry IIIT manifest and a matching prediction file."""
    gt, preds = tmp_path / "iiit.jsonl", tmp_path / "preds.jsonl"
    gt.write_text(json.dumps({"image": "i.png", "label": "a", "dataset": "IIIT",
                              "scene": "s", "digest": "d"}) + "\n")
    preds.write_text(json.dumps({"pred": "a"}) + "\n")
    return ["--manifest", f"IIIT={gt}", "--preds", f"IIIT={preds}"]


def test_eval_subset_that_is_not_an_integer_exits_2(tmp_path, capsys):
    code = main(["eval"] + write_iiit_set(tmp_path) + ["--subset", "IIIT=abc",
                                                        "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "--subset expects DATASET=integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "record.json").exists()


@pytest.mark.parametrize("flag, value", [("--subset", "IC99=867"), ("--exclusion", "IC03=x.jsonl")])
def test_eval_subset_or_exclusion_without_a_manifest_exits_2(tmp_path, capsys, flag, value):
    code = main(["eval"] + write_iiit_set(tmp_path) + [flag, value,
                                                        "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "that have a --manifest" in capsys.readouterr().err
    assert not (tmp_path / "out" / "record.json").exists()


@pytest.mark.parametrize("mode", [[], ["--checkpoint", "m.bin"]], ids=["manifest", "checkpoint"])
def test_eval_preds_without_a_manifest_exits_2(tmp_path, capsys, mode):
    args = write_iiit_set(tmp_path) if not mode else []
    code = main(["eval"] + args + mode + ["--preds", f"SVT={tmp_path / 'svt.jsonl'}",
                                          "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "that have a --manifest" in capsys.readouterr().err
    assert not (tmp_path / "out" / "record.json").exists()


def test_eval_dataset_named_twice_exits_2(tmp_path, capsys, monkeypatch):
    # both pairs exist; kept, the last would silently replace the first
    for name in ("gt.jsonl", "gt2.jsonl", "p.jsonl", "p2.jsonl"):
        (tmp_path / name).write_text("")
    monkeypatch.chdir(tmp_path)
    code = main(["eval", "--manifest", "IIIT=gt.jsonl", "--manifest", "IIIT=gt2.jsonl",
                 "--preds", "IIIT=p.jsonl", "--preds", "IIIT=p2.jsonl", "--out", "out"])
    assert code == EXIT_USAGE
    assert "--manifest names dataset 'IIIT' twice" in capsys.readouterr().err
    assert not (tmp_path / "out" / "record.json").exists()


@pytest.mark.parametrize("flag, value", [("--preds", "IIIT=p.jsonl"), ("--subset", "IIIT=3000"),
                                         ("--exclusion", "IIIT=x.jsonl")])
def test_eval_dataset_named_twice_in_any_flag_exits_2(tmp_path, capsys, flag, value):
    code = main(["eval"] + write_iiit_set(tmp_path) + [flag, value, flag, value,
                                                        "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"{flag} names dataset 'IIIT' twice" in capsys.readouterr().err
    assert not (tmp_path / "out" / "record.json").exists()


def write_ic03_set(tmp_path):
    """A two-entry IC03 manifest, both kept by the 867 rule, and its predictions."""
    gt, preds = tmp_path / "ic03.jsonl", tmp_path / "preds.jsonl"
    gt.write_text("".join(json.dumps({"image": f"{w}.png", "label": w, "dataset": "IC03",
                                      "scene": "s", "digest": w}) + "\n"
                          for w in ("abc", "word")))
    preds.write_text("".join(json.dumps({"pred": w}) + "\n" for w in ("abc", "word")))
    return str(gt), ["--manifest", f"IC03={gt}", "--preds", f"IC03={preds}"]


@pytest.mark.parametrize("subset, message", [
    ([], "--exclusion takes only datasets that have a --subset"),
    (["--subset", "IC03=867"], "IC03/867 takes no exclusion-list manifest"),
], ids=["no-subset", "variant-takes-none"])
def test_eval_exclusion_that_would_be_dropped_exits_2(tmp_path, capsys, subset, message):
    # the exclusion equals the manifest: honoured, it would remove every entry
    gt, args = write_ic03_set(tmp_path)
    code = main(["eval"] + args + subset + ["--exclusion", f"IC03={gt}",
                                            "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "record.json").exists()


# ---------------------------------------------------------------------------
# train -> eval round trip (tiny budget)
# ---------------------------------------------------------------------------


def test_train_then_eval_checkpoint(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--pipeline", "None-VGG-None-CTC",
                 "--scale", "0.125", "--iters", "4", "--val-every", "2",
                 "--batch", "8", "--train-size", "24", "--val-size", "8",
                 "--max-len", "2", "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "checkpoint.bin").exists()
    log = (out / "train_log.csv").read_text().splitlines()
    assert log[0] == "step,loss,val_accuracy"
    assert len(log) == 3  # validations at steps 2 and 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 0

    ev = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--pipeline", "None-VGG-None-CTC", "--scale", "0.125",
                 "--val-size", "8", "--max-len", "2", "--out", str(ev)])
    assert code == EXIT_OK
    record = json.loads((ev / "record.json").read_text())
    assert 0.0 <= record["total"] <= 100.0
    capsys.readouterr()


def test_eval_checkpoint_takes_its_config_from_the_header(tmp_path, capsys):
    model = assemble(PipelineConfig.from_string("TPS-VGG-None-CTC", scale=0.125))
    data = synth_toydata(4, max_len=2, seed=0)
    model.loss(Tensor(data.images), data.labels)  # a train-mode forward fills the BN statistics
    path = tmp_path / "tps.bin"
    model.save(path)
    ev = tmp_path / "ev"
    code = main(["eval", "--checkpoint", str(path), "--val-size", "4", "--out", str(ev)])
    assert code == EXIT_OK
    assert json.loads((ev / "record.json").read_text())["name"] == "TPS-VGG-None-CTC"
    capsys.readouterr()
    for flags in (["--pipeline", "None-VGG-None-CTC"], ["--scale", "0.25"]):
        code = main(["eval", "--checkpoint", str(path), *flags, "--val-size", "4",
                     "--out", str(ev)])
        assert code == EXIT_USAGE
        assert "does not match" in capsys.readouterr().err


def test_train_fraction_sweep(tmp_path, capsys, monkeypatch):
    # fraction_sweep assembles one model per fraction; the command itself builds none
    def no_assemble(*args, **kwargs):
        raise AssertionError("cmd_train assembled a model the sweep does not use")

    monkeypatch.setattr("strforge.cli.assemble", no_assemble)
    out = tmp_path / "sweep"
    code = main(["train", "--pipeline", "None-VGG-None-CTC",
                 "--scale", "0.125", "--iters", "2", "--val-every", "2",
                 "--batch", "8", "--train-size", "16", "--val-size", "8",
                 "--max-len", "2", "--fractions", "0.5,1.0",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = (out / "fraction_sweep.csv").read_text().splitlines()
    assert lines[0] == "fraction,val_accuracy"
    assert len(lines) == 3
    capsys.readouterr()


@pytest.mark.parametrize("fractions", ["0.5,x", "0.5,1.5"])
def test_train_bad_fractions_exit_2_before_training(tmp_path, capsys, monkeypatch,
                                                   fractions):
    def no_assemble(*args, **kwargs):
        raise AssertionError("a model was assembled before every fraction was checked")

    monkeypatch.setattr("strforge.cli.assemble", no_assemble)
    monkeypatch.setattr("strforge.pipeline.assemble", no_assemble)
    code = main(["train", "--pipeline", "None-VGG-None-CTC", "--scale", "0.125",
                 "--iters", "2", "--batch", "8", "--train-size", "16",
                 "--val-size", "8", "--fractions", fractions,
                 "--out", str(tmp_path / "sweep")])
    assert code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_train_fraction_and_fractions_conflict_exits_2(tmp_path, capsys, monkeypatch):
    def no_assemble(*args, **kwargs):
        raise AssertionError("a model was assembled for conflicting fraction flags")

    monkeypatch.setattr("strforge.cli.assemble", no_assemble)
    monkeypatch.setattr("strforge.pipeline.assemble", no_assemble)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--pipeline", "None-VGG-None-CTC", "--scale", "0.125",
              "--iters", "2", "--batch", "8", "--train-size", "16", "--val-size", "8",
              "--fraction", "0.5", "--fractions", "0.5,1.0",
              "--out", str(tmp_path / "sweep")])
    assert exc.value.code == EXIT_USAGE
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_describe_tps_runs_without_scipy(tmp_path):
    script = ("import sys; sys.modules['scipy'] = None; "
              "from strforge.cli import main; "
              "sys.exit(main(['describe', '--pipeline', 'TPS-VGG-None-CTC', "
              f"'--scale', '0.125', '--tps', '--out', {str(tmp_path)!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert (tmp_path / "tps_grid.json").exists()


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


def test_console_script_version():
    proc = subprocess.run([sys.executable, "-m", "strforge.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()
