"""CLI: the composed pipeline, reproducibility, and role enforcement."""

import base64
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quakebox
from quakebox import bench
from quakebox.cli import main
from quakebox.features import read_matrix, standardize_apply
from quakebox.model import load_model, predict_proba
from quakebox.seeds import derive_seed
from quakebox.selection import load_selection_report


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def unanimity_warning(tied, runs, fraction=0.9):
    """select's warning that ``rule.min_fraction_nonzero`` keeps only the codes
    nonzero in every tied run; at 0.9 it is due for 2 to 9 tied runs."""
    return (f"warning: the tie-set holds {tied} of {runs} runs, so rule.min_fraction_nonzero="
            f"{fraction} keeps only the codes nonzero in all {tied}\n")


@pytest.fixture
def tiny_pipeline(workdir):
    """synth -> split -> extract(train/validation/test) on a small corpus."""
    synth_cfg = write_config(
        workdir,
        "synth.json",
        {
            "master_seed": 7,
            "synthetic": {
                "n_events": 10,
                "traces_per_event": [3, 4],
                "n_noise": 120,
                "fs": 200.0,
                "window_len": 400,
                "snr_range": [3.0, 12.0],
            },
            "output": str(workdir / "waves.jsonl"),
        },
    )
    assert run(["synth", "-c", synth_cfg]) == 0
    split_cfg = write_config(
        workdir,
        "split.json",
        {
            "master_seed": 7,
            "input": str(workdir / "waves.jsonl"),
            "output_dir": str(workdir / "splits"),
        },
    )
    assert run(["split", "-c", split_cfg]) == 0
    for part in ("train", "validation", "test"):
        cfg = write_config(
            workdir,
            f"extract_{part}.json",
            {
                "input": str(workdir / "splits" / f"{part}.jsonl"),
                "output": str(workdir / f"{part}.tsv"),
                "features": "selected8",
                "preprocess": {"window_len": 192},
            },
        )
        assert run(["extract", "-c", cfg]) == 0
    return workdir


class TestSynth:
    def test_same_seed_byte_identical(self, workdir):
        cfg = write_config(
            workdir,
            "synth.json",
            {
                "master_seed": 3,
                "synthetic": {"n_events": 3, "traces_per_event": [2, 3], "n_noise": 6,
                               "window_len": 64},
                "output": str(workdir / "w.jsonl"),
            },
        )
        assert run(["synth", "-c", cfg]) == 0
        first = (workdir / "w.jsonl").read_bytes()
        assert run(["synth", "-c", cfg]) == 0
        assert (workdir / "w.jsonl").read_bytes() == first

    def test_seed_override_changes_output(self, workdir):
        cfg = write_config(
            workdir,
            "synth.json",
            {
                "master_seed": 3,
                "synthetic": {"n_events": 3, "traces_per_event": [2, 3], "n_noise": 6,
                               "window_len": 64},
                "output": str(workdir / "w.jsonl"),
            },
        )
        assert run(["synth", "-c", cfg]) == 0
        first = (workdir / "w.jsonl").read_bytes()
        assert run(["synth", "-c", cfg, "--seed", "99"]) == 0
        assert (workdir / "w.jsonl").read_bytes() != first

    def test_invalid_field_is_field_qualified(self, workdir, capsys):
        cfg = write_config(
            workdir,
            "synth.json",
            {"synthetic": {"fs": 0.0}, "output": str(workdir / "w.jsonl")},
        )
        assert run(["synth", "-c", cfg]) == 2
        err = capsys.readouterr().err
        assert "synthetic" in err and "fs" in err


def test_commands_that_do_not_filter_never_import_scipy(workdir):
    # importing scipy.signal is most of a fresh process's start-up, and only
    # extract filters: synth and split, run in a fresh interpreter, leave
    # scipy unimported
    synth = write_config(workdir, "synth.json", {
        "synthetic": {"n_events": 3, "traces_per_event": [2, 2], "n_noise": 6, "window_len": 64},
        "output": str(workdir / "w.jsonl")})
    split = write_config(workdir, "split.json", {"input": str(workdir / "w.jsonl"),
                                                 "output_dir": str(workdir / "splits"),
                                                 "fractions": [0.34, 0.34, 0.32]})  # one event each
    probe = ("import sys\n"
             "from quakebox.cli import main\n"
             "for command, config in zip(sys.argv[1::2], sys.argv[2::2]):\n"
             "    print('probe', command, main([command, '-c', config]), 'scipy' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(quakebox.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", probe, "synth", synth, "split", split],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    probed = [line for line in done.stdout.splitlines() if line.startswith("probe ")]
    assert probed == ["probe synth 0 False", "probe split 0 False"]
    assert (workdir / "splits" / "test.jsonl").exists()


class TestPipeline:
    def test_extract_produces_expected_columns(self, tiny_pipeline):
        matrix, role = read_matrix(tiny_pipeline / "train.tsv")
        assert role == "train"
        assert matrix.codes == ("W1", "W2", "W3", "W4", "C10", "C11", "C14", "C15")

    def test_extract_keeps_the_features_list_order(self, tiny_pipeline):
        wd = tiny_pipeline
        cfg = write_config(wd, "extract_order.json", {
            "input": str(wd / "splits" / "train.jsonl"), "output": str(wd / "order.tsv"),
            "features": ["C15", "W1"], "preprocess": {"window_len": 192}})
        assert run(["extract", "-c", cfg]) == 0
        assert (wd / "order.tsv").read_text().splitlines()[1] == "trace_id\tlabel\tC15\tW1"
        profiled, _ = read_matrix(wd / "train.tsv")
        ordered, _ = read_matrix(wd / "order.tsv")
        assert ordered.X.tolist() == profiled.columns(("C15", "W1")).X.tolist()

    def test_train_select_eval_sweep(self, tiny_pipeline):
        wd = tiny_pipeline
        train_cfg = write_config(
            wd,
            "train.json",
            {
                "master_seed": 7,
                "input": str(wd / "train.tsv"),
                "output": str(wd / "model.json"),
                "model": {"alpha": 0.5, "lambda": 0.002},
            },
        )
        assert run(["train", "-c", train_cfg]) == 0

        select_cfg = write_config(
            wd,
            "select.json",
            {
                "master_seed": 7,
                "train_input": str(wd / "train.tsv"),
                "validation_input": str(wd / "validation.tsv"),
                "output": str(wd / "selection.json"),
                "distribution_output": str(wd / "dist.tsv"),
                "ensemble": {"n_runs": 20},
                "base_features": ["W1", "W2", "W3", "W4"],
            },
        )
        assert run(["select", "-c", select_cfg]) == 0
        report = load_selection_report(wd / "selection.json")
        assert set(report.selected) >= {"W1", "W2", "W3", "W4"}
        dist_lines = (wd / "dist.tsv").read_text().splitlines()
        assert dist_lines[0].startswith("code\t")
        assert len(dist_lines) == 9  # header + 8 features

        eval_cfg = write_config(
            wd,
            "eval.json",
            {
                "input": str(wd / "test.tsv"),
                "models": {"lr": str(wd / "model.json")},
                "output": str(wd / "eval_report.json"),
            },
        )
        assert run(["eval", "-c", eval_cfg]) == 0
        payload = json.loads((wd / "eval_report.json").read_text())
        assert "lr" in payload["sources"]
        assert -1.0 <= payload["sources"]["lr"]["mcc"] <= 1.0

        sweep_cfg = write_config(
            wd,
            "sweep.json",
            {
                "master_seed": 7,
                "positives_input": str(wd / "test.tsv"),
                "noise_pool_input": str(wd / "train.tsv"),
                "models": {"lr": str(wd / "model.json")},
                "ratios": [1.0, 2.0],
                "output": str(wd / "sweep.json.out"),
                "text_output": str(wd / "sweep.txt"),
            },
        )
        assert run(["sweep", "-c", sweep_cfg]) == 0
        grid = json.loads((wd / "sweep.json.out").read_text())
        assert grid["ratios"] == [1.0, 2.0]
        assert len(grid["cells"]) == 2
        assert (wd / "sweep.txt").read_text().startswith("source")

    def test_select_warns_on_unconverged_runs(self, tiny_pipeline, capsys):
        wd = tiny_pipeline
        for max_iters, lambda_grid in ((1, [0.01, 0.001]), (500, [0.05])):
            select_cfg = write_config(wd, "select.json", {
                "master_seed": 7,
                "train_input": str(wd / "train.tsv"),
                "validation_input": str(wd / "validation.tsv"),
                "output": str(wd / f"selection{max_iters}.json"),
                "ensemble": {"n_runs": 6, "max_iters": max_iters, "lambda_grid": lambda_grid},
                "base_features": ["W1", "W2", "W3", "W4"],
            })
            capsys.readouterr()
            assert run(["select", "-c", select_cfg]) == 0
            err = capsys.readouterr().err
            report = json.loads((wd / f"selection{max_iters}.json").read_text())
            # each run records its solver diagnostics and its fit's certificate
            assert {key for r in report["runs"] for key in r} == {
                "run_id", "val_mcc", "config_used", "weights", "iterations", "converged",
                "objective", "kkt_residual", "nnz"}
            tied = len(report["tie_set_ids"])
            top = max(r["val_mcc"] for r in report["runs"])
            expected = "" if tied < 6 else (  # see test_select_warns_when_every_run_ties
                f"warning: all 6 runs tie at validation MCC {top:.4f}: "
                "the validation split does not rank them\n")
            if max_iters == 1:
                expected = (f"warning: 6 of 6 ensemble runs stopped at ensemble.max_iters=1 "
                            f"unconverged ({tied} in the tie-set)\n") + expected
            assert err == expected + (unanimity_warning(tied, 6) if tied > 1 else "")

    def test_train_warns_when_it_stops_unconverged(self, tiny_pipeline, capsys):
        # stderr says so; the model file records converged=false either way
        wd = tiny_pipeline
        for max_iters in (1, 10_000):
            cfg = write_config(wd, "train_iters.json", {
                "input": str(wd / "train.tsv"), "output": str(wd / f"model{max_iters}.json"),
                "optimizer": {"max_iters": max_iters}})
            capsys.readouterr()
            assert run(["train", "-c", cfg]) == 0
            meta = json.loads((wd / f"model{max_iters}.json").read_text())["training_meta"]
            assert meta["converged"] is (max_iters > 1)
            assert capsys.readouterr().err == ("" if meta["converged"] else (
                "warning: training stopped at optimizer.max_iters=1 outer steps unconverged: "
                "its last step moved more than optimizer.tol=1e-08\n"))

    @pytest.mark.parametrize("lambda_grid,all_tie", [([0.05], True), ([0.05, 100.0], False)])
    def test_select_warns_when_every_run_ties(self, tiny_pipeline, capsys, lambda_grid, all_tie):
        # at lambda 100 every weight is zero, so those runs score below the
        # others and the tie-set excludes them
        wd = tiny_pipeline
        select_cfg = write_config(wd, "select_ties.json", {
            "master_seed": 7,
            "train_input": str(wd / "train.tsv"),
            "validation_input": str(wd / "validation.tsv"),
            "output": str(wd / "selection_ties.json"),
            "ensemble": {"n_runs": 4, "lambda_grid": lambda_grid},
        })
        capsys.readouterr()
        assert run(["select", "-c", select_cfg]) == 0
        err = capsys.readouterr().err
        report = json.loads((wd / "selection_ties.json").read_text())
        assert (len(report["tie_set_ids"]) == 4) == all_tie
        scores = {r["val_mcc"] for r in report["runs"]}
        assert len(scores) == (1 if all_tie else 2)
        warning = (f"warning: all 4 runs tie at validation MCC {max(scores):.4f}: "
                   "the validation split does not rank them\n")
        tied = len(report["tie_set_ids"])
        assert err == (warning if all_tie else "") + (unanimity_warning(tied, 4) if tied > 1 else "")

    @pytest.mark.parametrize("n_runs,lambda_grid,fraction,warned", [
        (4, [0.05, 100.0], 0.9, True),  # a tie-set of 2: both runs must agree
        (20, [0.05], 0.9, False),  # every run ties, and 19 of 20 is enough
        (20, [0.05], 0.95, False),  # 19 of 20 is 0.95, as the distribution computes it
        (20, [0.05], 0.96, True),
    ])
    def test_select_warns_when_the_rule_demands_unanimity(self, tiny_pipeline, capsys, n_runs,
                                                          lambda_grid, fraction, warned):
        wd = tiny_pipeline
        select_cfg = write_config(wd, "select_unanimity.json", {
            "master_seed": 7,
            "train_input": str(wd / "train.tsv"),
            "validation_input": str(wd / "validation.tsv"),
            "output": str(wd / "selection_unanimity.json"),
            "ensemble": {"n_runs": n_runs, "lambda_grid": lambda_grid},
            "rule": {"min_fraction_nonzero": fraction},
        })
        capsys.readouterr()
        assert run(["select", "-c", select_cfg]) == 0
        err = capsys.readouterr().err
        tied = len(json.loads((wd / "selection_unanimity.json").read_text())["tie_set_ids"])
        assert tied == (2 if n_runs == 4 else n_runs)
        assert (unanimity_warning(tied, n_runs, fraction) in err) == warned
        assert ("tie-set holds" in err) == warned

    def test_sweep_with_all_noise_predictions(self, tiny_pipeline):
        wd = tiny_pipeline
        pos_vecs, _ = read_matrix(wd / "test.tsv")
        pool_vecs, _ = read_matrix(wd / "train.tsv")
        with open(wd / "allnoise.tsv", "w") as fh:
            fh.write("trace_id\tlabel\n")
            for trace_id in pos_vecs.trace_ids + pool_vecs.trace_ids:
                fh.write(f"{trace_id}\tnoise\n")
        sweep_cfg = write_config(
            wd,
            "sweep_lazy.json",
            {
                "master_seed": 7,
                "positives_input": str(wd / "test.tsv"),
                "noise_pool_input": str(wd / "train.tsv"),
                "predictions": {"lazy": str(wd / "allnoise.tsv")},
                "ratios": [1.0, 2.0, 3.0],
                "output": str(wd / "sweep_lazy.json.out"),
            },
        )
        assert run(["sweep", "-c", sweep_cfg]) == 0
        grid = json.loads((wd / "sweep_lazy.json.out").read_text())
        assert all(cell["mcc"] == 0.0 for cell in grid["cells"])

    def test_eval_with_prediction_file_and_mcnemar(self, tiny_pipeline):
        wd = tiny_pipeline
        vecs, _ = read_matrix(wd / "test.tsv")
        with open(wd / "oracle.tsv", "w") as fh:
            fh.write("trace_id\tlabel\n")
            for trace_id, label in zip(vecs.trace_ids, vecs.labels):
                fh.write(f"{trace_id}\t{label}\n")
        with open(wd / "lazy.tsv", "w") as fh:
            fh.write("trace_id\tlabel\n")
            for trace_id in vecs.trace_ids:
                fh.write(f"{trace_id}\tnoise\n")
        eval_cfg = write_config(
            wd,
            "eval2.json",
            {
                "input": str(wd / "test.tsv"),
                "predictions": {"oracle": str(wd / "oracle.tsv"), "lazy": str(wd / "lazy.tsv")},
                "output": str(wd / "eval2.json.out"),
            },
        )
        assert run(["eval", "-c", eval_cfg]) == 0
        payload = json.loads((wd / "eval2.json.out").read_text())
        assert payload["sources"]["oracle"]["mcc"] == pytest.approx(1.0)
        assert payload["sources"]["lazy"]["mcc"] == 0.0
        assert len(payload["mcnemar"]) == 1
        assert payload["mcnemar"][0]["significant"]


class TestRoleEnforcement:
    def test_train_refuses_test_matrix(self, tiny_pipeline, capsys):
        wd = tiny_pipeline
        cfg = write_config(
            wd,
            "bad_train.json",
            {
                "input": str(wd / "test.tsv"),
                "output": str(wd / "model.json"),
            },
        )
        assert run(["train", "-c", cfg]) == 2
        assert "test-partition" in capsys.readouterr().err

    def test_select_refuses_test_matrix(self, tiny_pipeline, capsys):
        wd = tiny_pipeline
        cfg = write_config(
            wd,
            "bad_select.json",
            {
                "train_input": str(wd / "train.tsv"),
                "validation_input": str(wd / "test.tsv"),
                "output": str(wd / "selection.json"),
                "ensemble": {"n_runs": 2},
            },
        )
        assert run(["select", "-c", cfg]) == 2
        assert "test-partition" in capsys.readouterr().err


    def test_eval_and_sweep_warn_on_fitting_roles(self, tiny_pipeline, capsys):
        # scores on a train or validation matrix are not held out; the
        # artifact is the same either way, only stderr says so
        wd = tiny_pipeline
        cfg = write_config(wd, "extract_all.json", {
            "input": str(wd / "waves.jsonl"), "output": str(wd / "all.tsv"), "features": "selected8",
            "preprocess": {"window_len": 192}})
        assert run(["extract", "-c", cfg]) == 0
        with open(wd / "lazy.tsv", "w") as fh:
            fh.write("trace_id\tlabel\n")
            for trace_id in read_matrix(wd / "all.tsv")[0].trace_ids:
                fh.write(f"{trace_id}\tnoise\n")
        lazy = {"lazy": str(wd / "lazy.tsv")}

        def warning(field, part):
            path = wd / f"{part}.tsv"
            return f"warning: {field}: {path} is tagged role={part}, so its scores are not held out\n"

        for part in ("train", "validation", "test", "all"):
            cfg = write_config(wd, "eval_role.json", {
                "input": str(wd / f"{part}.tsv"), "predictions": lazy,
                "output": str(wd / "eval_role.json.out")})
            capsys.readouterr()
            assert run(["eval", "-c", cfg]) == 0
            expected = warning("input", part) if part in ("train", "validation") else ""
            assert capsys.readouterr().err == expected
        for positives, pool in (("test", "all"), ("train", "validation"), ("test", "train")):
            cfg = write_config(wd, "sweep_role.json", {
                "master_seed": 7, "positives_input": str(wd / f"{positives}.tsv"),
                "noise_pool_input": str(wd / f"{pool}.tsv"), "predictions": lazy, "ratios": [1.0],
                "output": str(wd / "sweep_role.json.out")})
            capsys.readouterr()
            assert run(["sweep", "-c", cfg]) == 0
            inputs = (("positives_input", positives), ("noise_pool_input", pool))
            expected = [warning(field, part) for field, part in inputs if part in ("train", "validation")]
            assert capsys.readouterr().err == "".join(expected)


class TestErrors:
    def test_missing_config_file(self, capsys):
        # named as every missing file is, by its path
        assert run(["train", "-c", "/nonexistent/cfg.json"]) == 2
        assert capsys.readouterr().err == "error: /nonexistent/cfg.json: No such file or directory\n"

    def test_config_not_utf8_names_file_and_line(self, workdir, capsys):
        path = workdir / "cfg.json"
        path.write_bytes(b'{"input": "m.tsv",\n "output": "o\xffjson"}\n')
        assert run(["train", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line 2: {path}: invalid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("text,named", [
        ("[" * 100000, "invalid JSON (maximum recursion depth exceeded"),
        ('{"input": ', "invalid JSON (Expecting value: line 1 column 11 (char 10))"),
        ("[1, 2]", "not a JSON object"),
    ], ids=["nested", "truncated", "array"])
    def test_config_not_a_json_object_names_file(self, workdir, capsys, text, named):
        path = workdir / "cfg.json"
        path.write_text(text)
        assert run(["train", "-c", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {named}")
        assert "Traceback" not in err

    def test_empty_waveform_input(self, workdir, capsys):
        (workdir / "empty.jsonl").write_text(
            '{"format": "quakebox-waveforms-v1", "role": "all"}\n'
        )
        cfg = write_config(
            workdir,
            "extract.json",
            {"input": str(workdir / "empty.jsonl"), "output": str(workdir / "m.tsv")},
        )
        assert run(["extract", "-c", cfg]) == 2
        assert "no records" in capsys.readouterr().err

    def test_unknown_profile(self, workdir, capsys):
        (workdir / "w.jsonl").write_text('{"format": "quakebox-waveforms-v1", "role": "all"}\n')
        cfg = write_config(
            workdir,
            "extract.json",
            {
                "input": str(workdir / "w.jsonl"),
                "output": str(workdir / "m.tsv"),
                "features": "everything",
            },
        )
        assert run(["extract", "-c", cfg]) == 2
        assert "features" in capsys.readouterr().err


MODEL = {
    "format": "quakebox-model-v1",
    "bias": 0.1,
    "weights": {"f": 1.0, "g": -0.5},
    "threshold": 0.5,
    "standardization": {"means": {"f": 0.0, "g": 0.45}, "stds": {"f": 1.8, "g": 0.35}},
}


def _model_file(**changes):
    """MODEL as JSON text, with top-level fields replaced (None removes one)."""
    model = {**MODEL, **changes}
    return json.dumps({k: v for k, v in model.items() if v is not None})


def _random_matrix(path, role, n_events, n_noise, seed):
    """A two-column matrix file of ``n_events`` event rows, then ``n_noise`` noise rows."""
    rng = np.random.default_rng(seed)
    lines = [f"# quakebox-features-v1 role={role}", "trace_id\tlabel\tf\tg"]
    for i in range(n_events + n_noise):
        label = "event" if i < n_events else "noise"
        f, g = rng.normal(0.8 if label == "event" else -0.4, 1.0, 2).tolist()
        lines.append(f"t{i:02d}\t{label}\t{f!r}\t{g!r}")
    path.write_text("\n".join(lines) + "\n")
    return read_matrix(path)[0]


def test_a_predictions_file_of_a_models_labels_scores_as_the_model(workdir):
    # a model and a file holding its labels are one kind of source: eval and
    # sweep label both through predict_labels, so their metrics and cells agree
    matrix = _random_matrix(workdir / "m.tsv", "test", 12, 48, seed=11)
    (workdir / "lr.json").write_text(_model_file())
    labels = load_model(workdir / "lr.json").predict_labels(matrix)
    assert 0 < labels.count("event") < len(labels) and labels != list(matrix.labels)
    (workdir / "lr.tsv").write_text(
        "trace_id\tlabel\n" + "".join(f"{t}\t{lab}\n" for t, lab in zip(matrix.trace_ids, labels)))
    sources = {"models": {"lr": str(workdir / "lr.json")}, "predictions": {"file": str(workdir / "lr.tsv")}}

    cfg = write_config(workdir, "eval.json", {"input": str(workdir / "m.tsv"), **sources,
                                              "output": str(workdir / "eval.out")})
    assert run(["eval", "-c", cfg]) == 0
    payload = json.loads((workdir / "eval.out").read_text())
    assert payload["sources"]["file"] == payload["sources"]["lr"]
    assert (payload["mcnemar"][0]["b"], payload["mcnemar"][0]["c"]) == (0, 0)

    cfg = write_config(workdir, "sweep.json", {
        "positives_input": str(workdir / "m.tsv"), "noise_pool_input": str(workdir / "m.tsv"), **sources,
        "ratios": [1.0, 2.5, 4.0], "output": str(workdir / "sweep.out")})
    assert run(["sweep", "-c", cfg]) == 0
    cells = json.loads((workdir / "sweep.out").read_text())["cells"]
    by_source = {name: [{k: v for k, v in c.items() if k != "source"} for c in cells if c["source"] == name]
                 for name in ("lr", "file")}
    assert len(by_source["lr"]) == 3 and by_source["file"] == by_source["lr"]


def _labels_file(path, trace_ids):
    path.write_text("trace_id\tlabel\n" + "".join(f"{t}\tnoise\n" for t in trace_ids))
    return str(path)


def test_eval_refuses_a_predictions_file_lacking_a_row(workdir, capsys):
    matrix = _random_matrix(workdir / "m.tsv", "test", 3, 5, seed=2)
    preds = _labels_file(workdir / "p.tsv", matrix.trace_ids[:4] + matrix.trace_ids[5:])
    cfg = write_config(workdir, "e.json", {"input": str(workdir / "m.tsv"), "predictions": {"x": preds},
                                           "output": str(workdir / "eval.out")})
    assert run(["eval", "-c", cfg]) == 2
    assert capsys.readouterr().err == f"error: {preds}: missing 1 trace id(s): {matrix.trace_ids[4]}\n"
    assert not (workdir / "eval.out").exists()


def test_sweep_needs_predictions_only_for_the_rows_its_ladder_draws(workdir, capsys):
    # ratio 2.0 on 6 events draws 12 of the pool's 40 noise rows
    matrix = _random_matrix(workdir / "m.tsv", "test", 6, 40, seed=3)
    spec = bench.RatioSpec(ratios=(1.0, 2.0), seed=derive_seed(7, "sweep"))
    positives, pool = matrix.take(matrix.is_event), matrix.take(~matrix.is_event)
    drawn = bench.build_ratio_dataset(positives, pool, max(spec.ratios), spec.seed).items.trace_ids
    assert len(drawn) == 6 + 12

    def sweep(name, trace_ids):
        out = workdir / f"{name}.json"
        cfg = write_config(workdir, "s.json", {
            "master_seed": 7, "positives_input": str(workdir / "m.tsv"), "noise_pool_input": str(workdir / "m.tsv"),
            "predictions": {"x": _labels_file(workdir / f"{name}.tsv", trace_ids)}, "ratios": list(spec.ratios),
            "output": str(out)})
        return run(["sweep", "-c", cfg]), out

    code, complete = sweep("complete", matrix.trace_ids)
    assert code == 0
    code, drawn_only = sweep("drawn-only", drawn)
    assert code == 0 and drawn_only.read_bytes() == complete.read_bytes()
    capsys.readouterr()
    code, _ = sweep("lacks-a-drawn-row", [t for t in matrix.trace_ids if t != drawn[-1]])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {workdir / 'lacks-a-drawn-row.tsv'}: "
                                       f"missing 1 trace id(s): {drawn[-1]}\n")


def test_train_writes_its_threshold_and_eval_labels_at_it(workdir):
    matrix = _random_matrix(workdir / "m.tsv", "train", 15, 25, seed=3)
    base = {"input": str(workdir / "m.tsv"), "model": {"alpha": 0.5, "lambda": 0.01}}
    assert run(["train", "-c", write_config(workdir, "t0.json", {**base, "output": str(workdir / "m0.json")})]) == 0
    plain = load_model(workdir / "m0.json")
    probs = np.sort(predict_proba(plain.model, standardize_apply(matrix, plain.standardization)))
    threshold = float((probs[-6] + probs[-5]) / 2)  # five rows reach it, where 0.5 labels more
    assert plain.model.threshold == 0.5 and (probs >= 0.5).sum() > 5
    cfg = write_config(workdir, "t.json", {**base, "threshold": threshold, "output": str(workdir / "m.json")})
    assert run(["train", "-c", cfg]) == 0
    assert json.loads((workdir / "m.json").read_text())["threshold"] == threshold
    assert load_model(workdir / "m.json") == replace(plain, model=replace(plain.model, threshold=threshold))
    cfg = write_config(workdir, "e.json", {"input": str(workdir / "m.tsv"), "models": {"lr": str(workdir / "m.json")},
                                           "output": str(workdir / "eval.out")})
    assert run(["eval", "-c", cfg]) == 0
    cell = json.loads((workdir / "eval.out").read_text())["sources"]["lr"]
    assert cell["tp"] + cell["fp"] == 5


def test_eval_writes_null_noise_ratio_without_event_rows(workdir):
    # n_neg / n_pos has no value without positives; the file must stay JSON
    # that a strict parser reads, as every other artifact is
    matrix = _random_matrix(workdir / "m.tsv", "test", 0, 6, seed=4)
    (workdir / "p.tsv").write_text("trace_id\tlabel\n" + "".join(f"{t}\tnoise\n" for t in matrix.trace_ids))
    cfg = write_config(workdir, "e.json", {"input": str(workdir / "m.tsv"), "predictions": {"x": str(workdir / "p.tsv")},
                                           "output": str(workdir / "eval.out")})
    assert run(["eval", "-c", cfg]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    cell = json.loads((workdir / "eval.out").read_text(), parse_constant=refuse)["sources"]["x"]
    assert (cell["n_pos"], cell["n_neg"], cell["noise_ratio"], cell["mcc"]) == (0, 6, None, 0.0)


@pytest.mark.parametrize("command", ["synth", "split", "extract", "train", "select", "eval", "sweep"])
def test_each_command_takes_only_a_config_and_a_seed(workdir, capsys, command):
    with pytest.raises(SystemExit) as done:
        run([command, "--help"])
    assert done.value.code == 0
    assert set(re.findall(r"--?\w[\w-]*", capsys.readouterr().out)) == {"-h", "--help", "-c", "--config", "--seed"}
    with pytest.raises(SystemExit) as done:
        run([command, "-c", "cfg.json", "--out-dir", str(workdir)])
    assert done.value.code == 2 and "unrecognized arguments: --out-dir" in capsys.readouterr().err


def test_select_reads_validation_input_on_the_columns_of_train_input(workdir):
    # extra columns, in any order, are dropped: the report equals the one on
    # a validation matrix with exactly train_input's columns
    rng = np.random.default_rng(5)
    rows = {part: [(f"{part}{i}", "event" if i % 2 else "noise", rng.normal(0.6 * (i % 2), 1.0, 3).tolist())
                   for i in range(30)] for part in ("t", "v")}

    def write(name, part, header, pick):
        lines = ["# quakebox-features-v1 role=validation", "trace_id\tlabel\t" + "\t".join(header)]
        lines += [f"{tid}\t{label}\t" + "\t".join(repr(vals[j]) for j in pick)
                  for tid, label, vals in rows[part]]
        (workdir / name).write_text("\n".join(lines) + "\n")

    write("t.tsv", "t", ["f", "g"], [0, 1])
    write("v.tsv", "v", ["f", "g"], [0, 1])
    write("vx.tsv", "v", ["h", "g", "f"], [2, 1, 0])
    for name in ("v", "vx"):
        cfg = write_config(workdir, f"{name}.json", {
            "train_input": str(workdir / "t.tsv"), "validation_input": str(workdir / f"{name}.tsv"),
            "output": str(workdir / f"{name}.out"), "base_features": [], "ensemble": {"n_runs": 4}})
        assert run(["select", "-c", cfg]) == 0
    assert (workdir / "vx.out").read_bytes() == (workdir / "v.out").read_bytes()


MATRIX = (
    "# quakebox-features-v1 role=train\n"
    "trace_id\tlabel\tf\tg\n"
    "e1\tevent\t1.0\t0.5\n"
    "e2\tevent\t2.0\t0.1\n"
    "n1\tnoise\t-1.0\t0.3\n"
    "n2\tnoise\t-2.0\t0.9\n"
)

MATRIX_WITHOUT_G = "".join(line.rsplit("\t", 1)[0] + "\n" if "\t" in line else line
                           for line in MATRIX.splitlines(keepends=True))

WAVES_HEADER = '{"format": "quakebox-waveforms-v1", "role": "all"}\n'
RECORD = {"trace_id": "n1", "event_id": None, "station": "s01", "channel": "GPZ",
          "sample_rate": 200.0, "label": "noise", "magnitude": None, "samples": [0.1, -0.2, 0.3]}


def _waves(**changes):
    """A waveform file of one RECORD line, with fields replaced."""
    return WAVES_HEADER + json.dumps({**RECORD, **changes}) + "\n"


def _f64le(*values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


def _waves_v2(**changes):
    """A quakebox-waveforms-v2 file of one RECORD line, with fields replaced (``...`` drops one)."""
    row = {**RECORD, "samples": ..., "samples_f64le": _f64le(*RECORD["samples"]), **changes}
    return (WAVES_HEADER.replace("-v1", "-v2")
            + json.dumps({k: v for k, v in row.items() if v is not ...}) + "\n")


PREDICTIONS = "trace_id\tlabel\n" + "".join(f"{t}\t{lab}\n" for t, lab in (
    ("e1", "event"), ("e2", "event"), ("n1", "noise"), ("n2", "noise")))


def _case(id, command, build, files, named):
    return pytest.param(command, build, files, named, id=id)


def _malformed_cases():
    """(subcommand, config builder, files to write, text the error must name)."""
    m = "m.tsv"
    preds = "trace_id\tprobability\tthreshold\n"

    def inputs(d):
        return {"input": d(m), "train_input": d(m), "validation_input": d(m), "output": d("o")}

    return [
        _case("synth-bool-int", "synth",
              lambda d: {"synthetic": {"n_events": True}, "output": d("w.jsonl")}, {},
              "synthetic.n_events"),
        _case("synth-short-traces-per-event", "synth",
              lambda d: {"synthetic": {"traces_per_event": [5]}, "output": d("w.jsonl")}, {},
              "synthetic.traces_per_event"),
        _case("synth-short-snr-range", "synth",
              lambda d: {"synthetic": {"snr_range": [3.0]}, "output": d("w.jsonl")}, {},
              "synthetic.snr_range"),
        _case("split-null-fraction", "split",
              lambda d: {"input": d("w.jsonl"), "output_dir": d("s"),
                         "fractions": [None, 0.2, 0.2]},
              {"w.jsonl": '{"format": "quakebox-waveforms-v1", "role": "all"}\n'}, "fractions[0]"),
        # a partition split again would relabel its traces: test traces would reach train
        _case("split-partition-input", "split",
              lambda d: {"input": d("w.jsonl"), "output_dir": d("s")},
              {"w.jsonl": _waves().replace('"role": "all"', '"role": "test"')},
              "error: input: "),
        _case("train-bool-float", "train",
              lambda d: {"input": d(m), "output": d("o.json"), "model": {"lambda": True}},
              {m: MATRIX}, "model.lambda"),
        _case("train-threshold-above-1", "train",
              lambda d: {"input": d(m), "output": d("o.json"), "threshold": 1.5},
              {m: MATRIX}, "threshold"),
        _case("matrix-bad-label", "train",
              lambda d: {"input": d(m), "output": d("o.json")},
              {m: MATRIX.replace("n1\tnoise", "n1\tquake")}, "line 5"),
        _case("matrix-repeated-code", "train",
              lambda d: {"input": d(m), "output": d("o.json")},
              {m: MATRIX.replace("\tf\tg\n", "\tf\tf\n")}, "line 2"),
        _case("matrix-non-finite-cell", "train",
              lambda d: {"input": d(m), "output": d("o.json")},
              {m: MATRIX.replace("2.0\t0.1", "2.0\tnan")},
              ("error: line 4: ", f"{m}: trace e2: feature g is not finite (nan)\n")),
        # select reads two matrices: the error names the one at fault
        _case("select-bad-validation-input", "select",
              lambda d: {"train_input": d(m), "validation_input": d("v.tsv"), "output": d("o.json")},
              {m: MATRIX, "v.tsv": MATRIX.replace("n1\tnoise", "n1\tquake")},
              ("error: line 5: ", "v.tsv: label must be one of")),
        *(
            # a second matrix must hold every column of the first, and is named with its file
            _case(f"{command}-{field}-lacks-a-column", command,
                  lambda d, c=config: {**c(d), "output": d("o.json")},
                  {m: MATRIX, "v.tsv": MATRIX_WITHOUT_G},
                  (f"error: {field}: ", f"v.tsv lacks feature(s) g of {first}\n"))
            for command, field, first, config in (
                ("select", "validation_input", "train_input",
                 lambda d: {"train_input": d(m), "validation_input": d("v.tsv"), "base_features": []}),
                ("sweep", "noise_pool_input", "positives_input",
                 lambda d: {"positives_input": d(m), "noise_pool_input": d("v.tsv"),
                            "predictions": {"x": d("p.tsv")}}),
            )
        ),
        _case("sweep-repeated-ratio", "sweep",
              lambda d: {"positives_input": d(m), "noise_pool_input": d(m), "ratios": [1.0, 1.0],
                         "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
              {m: MATRIX, "p.tsv": PREDICTIONS}, "error: ratios[1]: 1.0 repeats ratios[0]\n"),
        *(
            # a trace id names one row of a data file: a repeat names its line and the first
            _case(f"{id}-repeated-trace-id", command, build, files, named)
            for id, command, build, files, named in (
                ("matrix", "eval",
                 lambda d: {"input": d(m), "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
                 {m: MATRIX.replace("n2\tnoise", "n1\tnoise"), "p.tsv": PREDICTIONS},
                 ("error: line 6: ", f"{m}: trace_id n1 repeats line 5\n")),
                ("waves", "extract", lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
                 {"w.jsonl": _waves() + json.dumps(RECORD) + "\n"},
                 ("error: line 3: ", "w.jsonl: trace_id n1 repeats line 2\n")),
            )
        ),
        # the rule's own check names its field
        _case("select-rule-fraction-above-1", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "rule": {"min_fraction_nonzero": 1.5}}, {m: MATRIX},
              "error: rule.min_fraction_nonzero: must lie in [0, 1], got 1.5\n"),
        _case("select-rule-negative-median-abs", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "rule": {"min_median_abs": -1.0}}, {m: MATRIX},
              "error: rule.min_median_abs: must be nonnegative, got -1.0\n"),
        _case("train-optimizer-tol-0", "train",
              lambda d: {**inputs(d), "optimizer": {"tol": 0}}, {m: MATRIX},
              "error: optimizer.tol: must be positive, got 0.0\n"),
        _case("select-n-runs-0", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "ensemble": {"n_runs": 0}}, {m: MATRIX},
              "error: ensemble: n_runs must be at least 1\n"),
        _case("select-tol-0", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "ensemble": {"tol": 0}}, {m: MATRIX},
              "error: ensemble.tol: must be positive, got 0.0\n"),
        # no column is correlated with the label, so the default penalty grid is empty
        _case("select-lambda-max-0", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "base_features": []},
              {m: "# quakebox-features-v1 role=train\ntrace_id\tlabel\tf\n"
                  "e1\tevent\t1.0\ne2\tevent\t-1.0\nn1\tnoise\t1.0\nn2\tnoise\t-1.0\n"},
              ("error: train_input: ", f"{m}: lambda_max is 0 (no column is correlated with the label), "
               "so there is no default grid; set ensemble.lambda_grid\n")),
        *(
            # an empty matrix file is refused where it is read, naming the file
            _case(f"matrix-{id}-{command}", command, config, {m: text}, named)
            for id, text, named in (
                ("no-feature-columns",
                 "# quakebox-features-v1 role=train\ntrace_id\tlabel\ne1\tevent\nn1\tnoise\n",
                 ("error: line 2: ", f"{m}: header has no feature columns\n")),
                ("no-data-rows", MATRIX[: MATRIX.index("e1")], f"{m}: no data rows\n"),
            )
            for command, config in (
                ("train", lambda d: {"input": d(m), "output": d("o.json")}),
                ("select", lambda d: {"train_input": d(m), "validation_input": d(m),
                                      "output": d("o.json"), "base_features": []}),
            )
        ),
        *(
            # the label filter must leave rows in each sweep input
            _case(f"sweep-no-{kind}-rows", "sweep",
                  lambda d: {"positives_input": d(m), "noise_pool_input": d(m),
                             "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
                  {m: MATRIX.replace(drop, "")}, (f"error: {field}: ", f"{m} holds no {kind} rows\n"))
            for kind, drop, field in (
                ("event", "e1\tevent\t1.0\t0.5\ne2\tevent\t2.0\t0.1\n", "positives_input"),
                ("noise", "n1\tnoise\t-1.0\t0.3\nn2\tnoise\t-2.0\t0.9\n", "noise_pool_input"),
            )
        ),
        *(
            # of several models, the one that cannot score the input is named with its file
            _case(f"{command}-model-lacks-a-feature", command,
                  lambda d, inputs=inputs: {**inputs(d), "models": {"ok": d("ok.json"), "miss": d("miss.json")},
                                            "output": d("o.json")},
                  {m: MATRIX, "ok.json": _model_file(),
                   "miss.json": _model_file(weights={"f": 1.0, "h": -0.5},
                                            standardization={"means": {"f": 0.0, "h": 0.45},
                                                             "stds": {"f": 1.8, "h": 0.35}})},
                  ("error: models.miss: ", "miss.json: feature matrix lacks feature(s) h\n"))
            for command, inputs in (
                ("eval", lambda d: {"input": d(m)}),
                ("sweep", lambda d: {"positives_input": d(m), "noise_pool_input": d(m), "ratios": [1.0]}),
            )
        ),
        _case("select-base-feature-not-str", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "base_features": ["f", 5]}, {m: MATRIX}, "base_features[1]: expected str"),
        _case("select-base-feature-not-a-column", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "base_features": ["W9"]}, {m: MATRIX},
              "base_features[0]: W9 is not a column of train_input"),
        _case("select-base-feature-repeated", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "base_features": ["f", "f"]}, {m: MATRIX},
              "error: base_features[1]: f repeats base_features[0]\n"),
        _case("eval-significance-level-7", "eval",
              lambda d: {"input": d(m), "predictions": {"x": d("p.tsv")}, "output": d("o.json"),
                         "significance_level": 7}, {m: MATRIX}, "significance_level: must lie in (0, 1)"),
        _case("eval-no-sources", "eval", lambda d: {"input": d(m), "output": d("o.json")}, {m: MATRIX},
              "error: models: need at least one model or prediction source\n"),
        _case("eval-missing-input", "eval",
              lambda d: {"input": d("absent.tsv"), "predictions": {"x": d("p.tsv")},
                         "output": d("o.json")}, {}, "absent.tsv: No such file or directory"),
        _case("eval-missing-model", "eval",
              lambda d: {"input": d(m), "models": {"a": d("absent.json")}, "output": d("o.json")},
              {m: MATRIX}, "absent.json: No such file or directory"),
        *(
            # a source named twice is refused before any file is opened
            _case(f"{command}-source-in-models-and-predictions", command,
                  lambda d, c=config: {**c(d), "models": {"x": d("absent.json")},
                                       "predictions": {"x": d("absent.tsv")}, "output": d("o.json")},
                  {}, "error: predictions.x: names a source already in models\n")
            for command, config in (
                ("eval", lambda d: {"input": d("absent.tsv")}),
                ("sweep", lambda d: {"positives_input": d("absent.tsv"),
                                     "noise_pool_input": d("absent.tsv")}),
            )
        ),
        _case("extract-missing-waveforms", "extract",
              lambda d: {"input": d("absent.jsonl"), "output": d("o.tsv")}, {},
              "absent.jsonl: No such file or directory"),
        _case("train-output-dir-missing", "train",
              lambda d: {"input": d(m), "output": d("absent/o.json")}, {m: MATRIX},
              "absent/o.json: No such file or directory"),
        _case("extract-no-records", "extract", lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
              {"w.jsonl": WAVES_HEADER}, "error: input: waveform file contains no records\n"),
        *(
            # a trace id a matrix row cannot hold is refused before the matrix is written
            _case(f"extract-trace-id-with-{id}", "extract",
                  lambda d: {"input": d("w.jsonl"), "output": d("o.tsv"), "features": ["W1"]},
                  {"w.jsonl": _waves(trace_id=f"n{char}1", samples=np.linspace(-1.0, 1.0, 400).tolist())},
                  ("error: ", f"o.tsv: trace {f'n{char}1'!r}: a trace_id with a tab, CR or LF would break its row\n"))
            for id, char in (("tab", "\t"), ("cr", "\r"), ("lf", "\n"))
        ),
        # "\ud800" is a valid JSON escape, but a lone surrogate has no UTF-8 form for the matrix
        _case("extract-trace-id-with-a-lone-surrogate", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv"), "features": ["W1"]},
              {"w.jsonl": _waves_v2(trace_id="n\ud8001", samples_f64le=_f64le(*np.linspace(-1.0, 1.0, 400)))},
              ("error: ", "o.tsv: trace 'n\\ud8001': a trace_id with a surrogate has no UTF-8 form\n")),
        _case("extract-feature-code-not-str", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv"), "features": ["W1", 5]},
              {"w.jsonl": _waves()}, "error: features[1]: expected str, got int\n"),
        *(
            _case(f"extract-features-{id}", "extract",
                  lambda d, f=features: {"input": d("w.jsonl"), "output": d("o.tsv"), "features": f},
                  {"w.jsonl": _waves()}, f"error: {message}\n")
            for id, features, message in (
                ("empty", [], "features: must list at least one feature code"),
                ("repeated", ["W1", "W2", "W1"], "features[2]: W1 repeats features[0]"),
            )
        ),
        # an unregistered code is refused while the config is read, before the input is opened
        _case("extract-features-unregistered", "extract",
              lambda d: {"input": d("absent.jsonl"), "output": d("o.tsv"), "features": ["W1", "W99"]},
              {}, "error: features[1]: W99 is not a registered feature code\n"),
        _case("unknown-top-level", "train",
              lambda d: {"input": d(m), "output": d("o.json"), "treshold": 0.4}, {m: MATRIX},
              "error: treshold: unknown field\n"),
        *(
            # a key that names no field, the command's seeds included, is refused by its dotted path
            _case(f"unknown-{id}", command, lambda d, c=config: {**inputs(d), **c}, {m: MATRIX},
                  f"error: {message}\n")
            for id, command, config, message in (
                ("model-lamda", "train", {"model": {"lamda": 5.0}}, "model.lamda: unknown field"),
                # the bias is never penalized: there is no switch for it
                ("model-penalize-bias", "train", {"model": {"penalize_bias": True}},
                 "model.penalize_bias: unknown field"),
                ("ensemble-vary", "select", {"ensemble": {"vary": {"lambda": False}}},
                 "ensemble.vary: unknown field"),
                ("synthetic-seed", "synth", {"synthetic": {"seed": 3}}, "synthetic.seed: unknown field"),
                ("optimizer-seed", "train", {"optimizer": {"seed": 3}}, "optimizer.seed: unknown field"),
                ("ensemble-seed", "select", {"ensemble": {"seed": 3}}, "ensemble.seed: unknown field"),
                ("eval-text-master-seed", "eval", {"master_seed": "7", "predictions": {"x": "p.tsv"}},
                 "master_seed: expected int, got str"),
            )
        ),
        _case("select-alpha-above-1", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "ensemble": {"alpha": 2.0}}, {m: MATRIX}, "alpha"),
        _case("select-null-lambda", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "ensemble": {"lambda_grid": [None]}}, {m: MATRIX},
              "ensemble.lambda_grid[0]"),
        # an empty grid would silently run the default one
        _case("select-empty-lambda-grid", "select",
              lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json"),
                         "ensemble": {"lambda_grid": []}}, {m: MATRIX},
              "error: ensemble.lambda_grid: must list at least one penalty, or be left out for the default grid\n"),
        _case("sweep-null-ratio", "sweep",
              lambda d: {"positives_input": d(m), "noise_pool_input": d(m), "ratios": [None],
                         "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
              {m: MATRIX}, "ratios[0]"),
        _case("predictions-text-threshold", "eval",
              lambda d: {"input": d(m), "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
              {m: MATRIX, "p.tsv": preds + "e1\t0.4\thigh\n"}, "line 2"),
        _case("predictions-threshold-7", "eval",
              lambda d: {"input": d(m), "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
              {m: MATRIX, "p.tsv": preds + "e1\t0.4\t0.5\ne2\t0.4\t7\n"}, "line 3"),
        *(
            # the whole error line, so a doubled prefix ("preprocess: preprocess.…") fails
            _case(f"dotted-{id}", command, lambda d, c=config: {**inputs(d), **c}, {m: MATRIX},
                  f"error: {message}\n")
            for id, command, config, message in (
                ("model-alpha", "train", {"model": {"alpha": "high"}},
                 "model.alpha: expected float, got str"),
                ("ensemble-alpha", "select", {"ensemble": {"alpha": "high"}},
                 "ensemble.alpha: expected float, got str"),
                # the ensemble has no variation switches: a ``vary`` section names no field
                ("ensemble-vary-seed", "select", {"ensemble": {"vary": {"seed": 1}}},
                 "ensemble.vary: unknown field"),
                ("ensemble-vary-not-object", "select", {"ensemble": {"vary": 3}},
                 "ensemble.vary: unknown field"),
                ("synthetic-n-events", "synth", {"synthetic": {"n_events": 2.5}},
                 "synthetic.n_events: expected int, got float"),
                ("preprocess-window-len", "extract", {"preprocess": {"window_len": "512"}},
                 "preprocess.window_len: expected int, got str"),
            )
        ),
        *(
            # a non-finite number is refused where it is read, naming its dotted path
            _case(f"non-finite-{field}-{value}", command,
                  lambda d, c=config, v=value: {**inputs(d), **c(d, v)}, {m: MATRIX},
                  f"error: {field}: must be finite, got {value}\n")
            for command, field, config in (
                ("train", "model.lambda", lambda d, v: {"model": {"lambda": v}}),
                ("train", "optimizer.tol", lambda d, v: {"optimizer": {"tol": v, "max_iters": 20}}),
                ("select", "ensemble.lambda_grid[0]",
                 lambda d, v: {"ensemble": {"lambda_grid": [v], "n_runs": 2}}),
                ("sweep", "ratios[0]", lambda d, v: {"positives_input": d(m), "noise_pool_input": d(m),
                                                     "predictions": {"x": d("p.tsv")}, "ratios": [v]}),
                ("synth", "synthetic.fs", lambda d, v: {"synthetic": {"fs": v}}),
                ("synth", "synthetic.snr_range[1]", lambda d, v: {"synthetic": {"snr_range": [1.0, v]}}),
            )
            for value in (math.nan, math.inf)
        ),
        _case("train-int-beyond-float-range", "train",
              lambda d: {**inputs(d), "model": {"lambda": 10**400}}, {m: MATRIX},
              "error: model.lambda: must be finite, got inf\n"),
        *(
            # each record field has one JSON type; the error names the line, the file and the field
            _case(f"waves-{id}", "extract",
                  lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")}, {"w.jsonl": text},
                  ("error: line 2: ", f"w.jsonl: {named}\n"))
            for id, text, named in (
                ("bool-sample-rate", _waves(sample_rate=True), "sample_rate: expected float, got bool"),
                ("text-sample-rate", _waves(sample_rate="200"), "sample_rate: expected float, got str"),
                ("int-trace-id", _waves(trace_id=5), "trace_id: expected str, got int"),
                ("null-station", _waves(station=None), "station: expected str, got NoneType"),
                ("infinite-magnitude", _waves(magnitude=math.inf), "magnitude: must be finite, got inf"),
            )
        ),
        *(
            # a v2 record's samples are base64 of little-endian float64 bytes, read strictly
            _case(f"waves-v2-{id}", "extract",
                  lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")}, {"w.jsonl": text},
                  ("error: line 2: ", f"w.jsonl: samples_f64le: {named}"))
            for id, text, named in (
                ("bad-base64", _waves_v2(samples_f64le="AAAA*AAAAAAAAAA="), "invalid base64 ("),
                ("length-7", _waves_v2(samples_f64le="AAAAAAAAAA=="),
                 "7 bytes is not a whole number of float64 values (8 bytes each)\n"),
                ("empty", _waves_v2(samples_f64le=""), "n1: samples must be a non-empty 1-D array\n"),
                ("nan", _waves_v2(samples_f64le=_f64le(0.1, math.nan)),
                 "n1: samples contain NaN or infinity\n"),
                ("inf", _waves_v2(samples_f64le=_f64le(math.inf)), "n1: samples contain NaN or infinity\n"),
                ("minus-inf", _waves_v2(samples_f64le=_f64le(0.1, -math.inf)),
                 "n1: samples contain NaN or infinity\n"),
                ("both-keys", _waves_v2(samples=[0.1]), "a quakebox-waveforms-v2 record holds its samples "
                                                       "in samples_f64le only, and this one has samples\n"),
                ("v1-array", _waves_v2(samples=[0.1], samples_f64le=...),
                 "a quakebox-waveforms-v2 record holds its samples in samples_f64le only, and this one "
                 "has samples\n"),
                ("both-keys-in-v1", _waves(samples_f64le=_f64le(0.1)), "a quakebox-waveforms-v1 record holds "
                                                                      "its samples in samples only, and this "
                                                                      "one has samples_f64le\n"),
            )
        ),
        *(
            # a sample rate so small that the time axis (5e-324) or the wavelet's phase (1e-305) overflows
            _case(f"synth-fs-{fs}", "synth",
                  lambda d, f=fs: {"synthetic": {"fs": f}, "output": d("w.jsonl")}, {},
                  f"error: synthetic: fs {fs} is too small for window_len 600: "
                  "an event wavelet's phase overflows\n")
            for fs in (5e-324, 1e-305)
        ),
        # a trace too long to allocate, or too long for numpy to shape at all
        *(
            _case(f"synth-window-len-{id}", "synth",
                  lambda d, n=n: {"synthetic": {"n_events": 1, "traces_per_event": [1, 1], "n_noise": 0,
                                                "window_len": n},
                                  "output": d("w.jsonl")}, {},
                  f"error: synthetic: window_len {n} is above the cap of 10000000 samples\n")
            for id, n in (("1e15", 10**15), ("1e400", 10**400))
        ),
        # a factor whose anti-alias low-pass has no stable design names the trace and the field
        *(
            _case(f"extract-downsample-factor-{id}", "extract",
                  lambda d, f=factor: {"input": d("w.jsonl"), "output": d("o.tsv"),
                                       "preprocess": {"downsample_factor": f}},
                  {"w.jsonl": _waves()},
                  (f"error: n1: preprocess.downsample_factor: factor {factor} has no order-8 anti-alias "
                   "Butterworth design (", ")\n"))
            for id, factor in (("1e30", 10**30), ("1e308", 10**308))
        ),
        _case("extract-downsample-factor-beyond-float-range", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv"),
                         "preprocess": {"downsample_factor": 10**400}},
              {"w.jsonl": _waves()},
              "error: preprocess: downsample_factor must lie within the float range\n"),
        # a band the trace's sample rate cannot carry names the trace
        _case("waves-band-above-nyquist", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")}, {"w.jsonl": _waves(sample_rate=40.0)},
              "error: n1: band_high_hz 25.0 must lie below Nyquist 20.0 (fs=40.0)\n"),
        # one sample of 1.2e154 among small ones: its spectrum's power sums beyond the float range
        _case("waves-sample-whose-energy-overflows", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv"), "features": "selected8"},
              {"w.jsonl": _waves(samples=[1.2e154 if i == 20 else 0.1 * (-1) ** i for i in range(48)])},
              "error: 1 trace(s) failed feature extraction: trace n1: W1 is undefined: "
              "the series' energy leaves the float range\n"),
        _case("waves-unknown-role", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
              {"w.jsonl": _waves().replace('"role": "all"', '"role": "Train"')},
              ("error: line 1: ", "w.jsonl: role must be one of")),
        # a format line with a second role, or a misspelt one, would read as train or all
        *(
            _case(f"matrix-format-line-{id}-{command}", command, config, {m: MATRIX.replace("role=train", tokens)},
                  ("error: line 1: ", f"{m}: format line token {token!r}: the line takes one role=<role>"))
            for id, tokens, token in (("two-roles", "role=test role=train", "role=train"),
                                      ("misspelt-role", "rol=test", "rol=test"))
            for command, config in (
                ("train", lambda d: {"input": d(m), "output": d("o.json")}),
                ("select", lambda d: {"train_input": d(m), "validation_input": d(m), "output": d("o.json")}),
            )
        ),
        _case("matrix-TEST-role", "train",
              lambda d: {"input": d(m), "output": d("o.json")},
              {m: MATRIX.replace("role=train", "role=TEST")},
              ("error: line 1: ", f"{m}: role must be one of")),
        *(
            _case(f"model-{id}", "eval",
                  lambda d: {"input": d(m), "models": {"a": d("a.json")}, "output": d("o.json")},
                  {m: MATRIX, "a.json": text}, named)
            for id, text, named in (
                ("missing-bias", _model_file(bias=None), "a.json: bias: missing"),
                ("missing-weights", _model_file(weights=None), "a.json: weights: missing"),
                ("missing-threshold", _model_file(threshold=None), "a.json: threshold: missing"),
                ("missing-standardization", _model_file(standardization=None),
                 "a.json: standardization: missing"),
                ("missing-stds", _model_file(standardization={"means": {"f": 0.0, "g": 0.0}}),
                 "standardization.stds: missing"),
                ("text-weight", _model_file(weights={"f": "1.0", "g": 0.5}), "weights.f"),
                ("bool-bias", _model_file(bias=True), "bias"),
                ("list-weights", _model_file(weights=[1.0, 0.5]), "weights: expected dict"),
                ("zero-std", _model_file(standardization={"means": MODEL["standardization"]["means"],
                                                          "stds": {"f": 1.0, "g": 0.0}}),
                 "standardization.stds.g"),
                ("nan-std", _model_file(standardization={"means": MODEL["standardization"]["means"],
                                                         "stds": {"f": float("nan"), "g": 1.0}}),
                 "standardization.stds.f"),
                # the standardization's keys must be exactly the weight codes
                ("stds-lack-weight", _model_file(standardization={"means": MODEL["standardization"]["means"],
                                                                  "stds": {"f": 1.8}}),
                 "a.json: standardization.stds.g: missing required field\n"),
                ("means-lack-weight", _model_file(standardization={"means": {"g": 0.45},
                                                                   "stds": MODEL["standardization"]["stds"]}),
                 "a.json: standardization.means.f: missing required field\n"),
                ("means-extra-code", _model_file(standardization={"means": {"f": 0.0, "g": 0.45, "h": 0.0},
                                                                  "stds": MODEL["standardization"]["stds"]}),
                 "a.json: standardization.means.h: is not a code of weights\n"),
                # finite parameters whose z-score or score leaves the float range name the
                # model, its file and field, and the trace
                ("subnormal-std", _model_file(standardization={"means": MODEL["standardization"]["means"],
                                                               "stds": {"f": 5e-324, "g": 0.35}}),
                 ("error: models.a: ", "a.json: standardization.stds.f: 5e-324 takes the z-score of trace e1 "
                                       "beyond the float range (value 1.0, mean 0.0)\n")),
                ("score-overflow", _model_file(weights={"f": 1.7e308, "g": 0.5}),
                 ("error: models.a: ", "a.json: trace e2: score inf is beyond the float range\n")),
                ("threshold-1", _model_file(threshold=1.0), "threshold: must lie in (0, 1)"),
                ("threshold-negative", _model_file(threshold=-0.2), "threshold"),
                ("not-an-object", "[1, 2]", "not a quakebox-model-v1 file"),
                # a bad byte names its line, counted from the leading blank lines
                ("not-utf8", b"\n\n" + _model_file().encode().replace(b"bias", b"bi\xe9s"),
                 ("error: line 3: ", "a.json: invalid UTF-8 (invalid continuation byte)\n")),
                ("nested", "[" * 100000, "a.json: invalid JSON (maximum recursion depth exceeded"),
            )
        ),
        *(
            # every reader opens its file as UTF-8 text: a bad byte names the file and its line
            _case(f"not-utf8-{id}", command, build, files, named)
            for id, command, build, files, named in (
                ("waves", "extract", lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
                 {"w.jsonl": _waves().encode() + b'{"trace_id": "n\xff2"}\n'},
                 ("error: line 3: ", "w.jsonl: invalid UTF-8 (invalid start byte)\n")),
                ("matrix", "train", lambda d: {"input": d(m), "output": d("o.json")},
                 {m: MATRIX.encode().replace(b"n2\t", b"n\xff2\t")},
                 ("error: line 6: ", f"{m}: invalid UTF-8 (invalid start byte)\n")),
                ("predictions", "eval",
                 lambda d: {"input": d(m), "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
                 {m: MATRIX, "p.tsv": PREDICTIONS.encode().replace(b"n1\tnoise", b"n1\tno\xc3se")},
                 ("error: line 4: ", "p.tsv: invalid UTF-8 (invalid continuation byte)\n")),
            )
        ),
        _case("waves-nested-record", "extract", lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
              {"w.jsonl": WAVES_HEADER + "[" * 100000 + "\n"},
              ("error: line 2: ", "w.jsonl: invalid JSON (maximum recursion depth exceeded")),
        _case("waves-record-not-an-object", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")}, {"w.jsonl": WAVES_HEADER + "[1]\n"},
              ("error: line 2: ", "w.jsonl: not a JSON object\n")),
        _case("waves-sample-beyond-float-range", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
              {"w.jsonl": _waves(samples=[0.1, 10**400, 0.3])},
              ("error: line 2: ", "w.jsonl: samples[1]: must be finite, got inf\n")),
        *(
            # a ratio whose noise count overflows is refused naming the ratio, without the count
            _case(f"sweep-ratio-1e308-{n}-positives", "sweep",
                  lambda d: {"positives_input": d(m), "noise_pool_input": d(m), "ratios": [1e308],
                             "predictions": {"x": d("p.tsv")}, "output": d("o.json")},
                  {m: text, "p.tsv": PREDICTIONS},
                  "error: ratio 1e+308 needs more than the pool's 2 noise items\n")
            for n, text in ((2, MATRIX), (1, MATRIX.replace("e2\tevent\t2.0\t0.1\n", "")))
        ),
        # a trace too short to detrend, after a valid one, is named
        _case("extract-one-sample-trace", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
              {"w.jsonl": _waves(trace_id="n0") + json.dumps({**RECORD, "samples": [0.1]}) + "\n"},
              "error: n1: linear detrend needs at least 2 samples\n"),
        # finite samples whose detrend leaves the float range name the trace, not a traceback
        _case("extract-samples-overflow-preprocessing", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv")},
              {"w.jsonl": _waves(samples=[1.7e308, -1.7e308, 1.7e308])},
              "error: n1: samples overflow the float range during preprocessing\n"),
        _case("extract-band-without-stable-design", "extract",
              lambda d: {"input": d("w.jsonl"), "output": d("o.tsv"), "preprocess": {"band_low_hz": 1e-10}},
              {"w.jsonl": _waves()},
              "error: n1: band [1e-10, 25.0] has no order-4 Butterworth design at fs=200.0 (Singular matrix)\n"),
    ]


@pytest.mark.parametrize("command,build,files,named", _malformed_cases())
def test_malformed_input_exits_2_naming_field(workdir, capsys, command, build, files, named):
    for name, text in files.items():
        (workdir / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    cfg = write_config(workdir, "cfg.json", build(lambda name: str(workdir / name)))
    assert run([command, "-c", cfg]) == 2
    err = capsys.readouterr().err
    for text in (named,) if isinstance(named, str) else named:
        assert text in err
    assert "Traceback" not in err



def _select_on_columns(workdir, extra, **ensemble):
    """select on a 30-row matrix of two varying columns and ``extra``'s
    (code, per-row values) column: (exit code, report payload, stderr lines)."""
    rng = np.random.default_rng(5)
    code, values = extra
    for part in ("t", "v"):
        lines = ["# quakebox-features-v1 role=train", f"trace_id\tlabel\tf\tg\t{code}"]
        lines += [f"{part}{i}\t{'event' if i % 2 else 'noise'}\t" + "\t".join(map(repr, [
            *rng.normal(0.6 * (i % 2), 1.0, 2).tolist(), values[i]])) for i in range(30)]
        (workdir / f"{part}.tsv").write_text("\n".join(lines) + "\n")
    cfg = write_config(workdir, "select.json", {
        "train_input": str(workdir / "t.tsv"), "validation_input": str(workdir / "v.tsv"),
        "output": str(workdir / "selection.json"), "base_features": [],
        "ensemble": {"n_runs": 20, **ensemble}})
    return run(["select", "-c", cfg]), json.loads((workdir / "selection.json").read_text())


def test_select_sets_aside_a_column_constant_in_train_input(workdir, capsys):
    code, payload = _select_on_columns(workdir, ("k", [2.0] * 30))
    assert code == 0
    assert (f"warning: train_input: k constant in all 30 rows of {workdir / 't.tsv'}; "
            "set aside, weight 0.0 in every run\n") in capsys.readouterr().err
    assert [r["weights"]["k"] for r in payload["runs"]] == [0.0] * 20
    assert payload["distribution"]["k"]["fraction_nonzero"] == 0.0 and "k" not in payload["selected"]


def test_select_sets_aside_a_column_constant_only_within_a_draw(workdir, capsys):
    code, payload = _select_on_columns(workdir, ("r", [1.0] + [0.0] * 29), subsample_fraction=0.5)
    assert code == 0
    assert "set aside" not in capsys.readouterr().err  # r varies across train_input
    weights = [r["weights"]["r"] for r in payload["runs"]]
    assert weights.count(0.0) >= 10  # the draws without the one row where r is 1
