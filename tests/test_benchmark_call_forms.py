"""The benchmark's workloads, shrunk, run through one round each.

``perfbench/workloads.py`` calls quakebox in its own forms (vector lists,
``extract_vector``, ``predict_label``, the CLI).  A call form that breaks
would otherwise show only as a failed benchmark run; here it fails the
suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


class SmallCampaign(workloads.Campaign):
    CORPORA = 1
    N_EVENTS, TRACES_PER_EVENT, N_NOISE = 6, 2, 12
    WINDOW, WINDOW_LEN = 300, 128
    PREPROCESS = {**workloads.Campaign.PREPROCESS, "window_len": WINDOW_LEN}
    N_POOL = 24
    N_RUNS = 10


class SmallDetect(workloads.Detect):
    N_EVENTS, TRACES_PER_EVENT, N_NOISE = 4, 2, 8
    TRAIN_EVENTS, TRAIN_NOISE = 6, 12
    WINDOW, WINDOW_LEN = 600, 256


class SmallStress(workloads.Stress):
    N_TRAIN, N_POS = 200, 20
    RATIOS = [1.73, 5.0]


@pytest.mark.parametrize("workload", [SmallCampaign(), SmallDetect(), SmallStress()], ids=lambda w: w.name)
def test_one_round_runs_and_checks(tmp_path, workload):
    state = workload.setup(tmp_path / "setup", seed=1)
    done = workload.round(state, tmp_path / "round", workloads.Context())
    assert done.failed == 0
    assert done.ops > 0 and done.digest != "failed"
    for name, ok, detail in workload.check(state, [done]):
        assert ok, f"{name}: {detail}"
