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

A change that moves artifact bytes on purpose regenerates the fixture in
the same commit.

Run from the repo root:  PYTHONPATH=src python3 tests/oracles/gen_artifact_digests.py
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


def build(base: Path) -> dict:
    return {
        "description": "sha256 of each file of criterion 8's recipe and an eval of its model; "
                       "written by tests/oracles/gen_artifact_digests.py.",
        "seed": SEED,
        "versions": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "sha256": {p.relative_to(base).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in artifacts(base)},
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        payload = build(Path(tmp))
    OUT.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['sha256'])} digests to {OUT}")


if __name__ == "__main__":
    main()
