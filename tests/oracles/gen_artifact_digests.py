"""Regenerate tests/fixtures/artifact_digests.json: the sha256 of every file
the CLI campaign writes at a fixed seed.

The campaign is criterion 8's recipe (``_run_recipe`` in
``tests/test_acceptance.py``: synth, split, extract of all 26 codes on each
part, select, extract of the selected codes, train and sweep) at seed
424242, then an ``eval`` of the recipe's model on ``test_selected.tsv``.
Criterion 8 compares two runs of one tree with each other; the digests
compare a run with the bytes frozen here, so an artifact change between
commits fails the suite.  The fixture also records the Python, numpy and
scipy versions it was written on, since a float kernel of another release
may move a last bit.

Criterion 8's corpus is easy: all 40 runs tie at validation MCC 1.0, and
its ``eval`` and every sweep ratio score 1.0, so a change to how runs are
ranked, or to a label near the threshold, would move none of its bytes.  A
second, ranked case runs a corpus of weak events (SNR 0.3 to 1) through
synth, split, extract, select, train, eval and a sweep of the held-out test
split; the generator asserts that its tie-set is smaller than its run count,
that its eval MCC is below 1, and that its sweep MCC differs across ratios.

A change that moves artifact bytes on purpose regenerates the fixture in
the same commit.

Run from the repo root:  PYTHONPATH=src python3 tests/oracles/gen_artifact_digests.py [OUT]
OUT, when given, is written instead of the fixture, so a regenerated copy
can be compared with the fixture by ``cmp``.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

TESTS = Path(__file__).resolve().parents[1]
if str(TESTS) not in sys.path:  # run as a script: test_acceptance is a sibling of oracles/
    sys.path.insert(0, str(TESTS))

from test_acceptance import _run_recipe  # noqa: E402

from quakebox.cli import main as cli_main  # noqa: E402

OUT = TESTS / "fixtures" / "artifact_digests.json"
SEED = 424242


def artifacts(base: Path) -> list[Path]:
    """Run the recipe and the ``eval`` in ``base``; every file they write, in order."""
    written = _run_recipe(base, seed=SEED)
    config = base / "eval_config.json"
    config.write_text(json.dumps({
        "input": str(base / "test_selected.tsv"),
        "models": {"lr": str(base / "model.json")},
        "output": str(base / "eval.json"),
    }))
    assert cli_main(["eval", "-c", str(config)]) == 0
    return [*written, base / "eval.json"]


def ranked_artifacts(base: Path) -> list[Path]:
    """Run the ranked case in ``base``, check that it ranks, and return every file it writes, in order."""
    base.mkdir()

    def run(command: str, config: dict) -> None:
        path = base / f"{command}_config.json"
        path.write_text(json.dumps({"master_seed": SEED, **config}))
        assert cli_main([command, "-c", str(path)]) == 0, command

    run("synth", {"output": str(base / "waves.jsonl"), "synthetic": {
        "n_events": 10, "traces_per_event": [3, 4], "n_noise": 140, "fs": 200.0, "window_len": 400,
        "snr_range": [0.3, 1.0]}})
    run("split", {"input": str(base / "waves.jsonl"), "output_dir": str(base / "splits")})
    for part in ("train", "validation", "test"):
        run("extract", {"input": str(base / "splits" / f"{part}.jsonl"), "output": str(base / f"{part}26.tsv"),
                        "features": "discovery26", "preprocess": {"window_len": 192}})
    run("select", {"train_input": str(base / "train26.tsv"), "validation_input": str(base / "validation26.tsv"),
                   "output": str(base / "selection.json"), "ensemble": {"n_runs": 40}})
    run("train", {"input": str(base / "train26.tsv"), "output": str(base / "model.json"),
                  "model": {"alpha": 0.5, "lambda": 0.002}})
    models = {"models": {"lr": str(base / "model.json")}}
    run("eval", {"input": str(base / "test26.tsv"), **models, "output": str(base / "eval.json")})
    run("sweep", {"positives_input": str(base / "test26.tsv"), "noise_pool_input": str(base / "test26.tsv"),
                  **models, "ratios": [1.0, 2.0, 3.0], "output": str(base / "sweep.json.out")})
    report, evaluation, sweep = (json.loads((base / name).read_text())
                                 for name in ("selection.json", "eval.json", "sweep.json.out"))
    assert len(report["tie_set_ids"]) < len(report["runs"]), "every run ties"
    assert evaluation["sources"]["lr"]["mcc"] < 1, "eval scores MCC 1"
    assert len({cell["mcc"] for cell in sweep["cells"]}) > 1, "every sweep ratio scores one MCC"
    return [base / name for name in ("waves.jsonl", "splits/train.jsonl", "splits/validation.jsonl",
                                     "splits/test.jsonl", "train26.tsv", "validation26.tsv", "test26.tsv",
                                     "selection.json", "model.json", "eval.json", "sweep.json.out")]


def digests(base: Path, paths: list[Path]) -> dict:
    return {p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def build(base: Path) -> dict:
    return {
        "description": "sha256 of each file of criterion 8's recipe and an eval of its model, and of the "
                       "ranked case; written by tests/oracles/gen_artifact_digests.py.",
        "seed": SEED,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "sha256": digests(base, artifacts(base)),
        "ranked_sha256": digests(base / "ranked", ranked_artifacts(base / "ranked")),
    }


def main(out: Path = OUT) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        payload = build(Path(tmp))
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['sha256'])} + {len(payload['ranked_sha256'])} digests to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
