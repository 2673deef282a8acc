"""The CLI campaign's artifacts, frozen byte for byte.

``fixtures/artifact_digests.json`` holds the sha256 of every file that
criterion 8's recipe and an ``eval`` of its model write at seed 424242,
and of every file of a ranked case, whose runs, eval and sweep do not all
score MCC 1 (``oracles/gen_artifact_digests.py``).  Here the recipe runs once more, in
process, and every file must hash as frozen.  A failure names each file
whose bytes moved and the versions the fixture was written on.
"""

import json
from pathlib import Path

import pytest

from oracles.gen_artifact_digests import build

FROZEN = json.loads((Path(__file__).parent / "fixtures" / "artifact_digests.json").read_text())


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    return build(tmp_path_factory.mktemp("campaign"))


def test_every_artifact_keeps_its_frozen_bytes(rerun):
    got, frozen = rerun["sha256"], FROZEN["sha256"]
    moved = [name for name in frozen if got.get(name) != frozen[name]]
    assert (moved, list(got)) == ([], list(frozen)), (
        f"bytes moved in {moved}; frozen on {FROZEN['versions']}, run on {rerun['versions']}")


def test_every_ranked_artifact_keeps_its_frozen_bytes(rerun):
    got, frozen = rerun["ranked_sha256"], FROZEN["ranked_sha256"]
    moved = [name for name in frozen if got.get(name) != frozen[name]]
    assert (moved, list(got)) == ([], list(frozen)), (
        f"bytes moved in ranked/{moved}; frozen on {FROZEN['versions']}, run on {rerun['versions']}")


def test_fixture_is_what_its_generator_writes(rerun):
    assert {**rerun, "versions": FROZEN["versions"]} == FROZEN
    assert len(FROZEN["sha256"]) == 15 and "eval.json" in FROZEN["sha256"]
