"""``model.train`` against frozen fits, bit for bit, and the solver's
silent refusal of a singular system.

The expectations in ``fixtures/solver_frozen.json`` were written by
``oracles/gen_solver_fixture.py``, whose docstring describes the fits.  A
change to the solver that reorders a floating-point operation moves the
last bits of a fit and fails here, though every tolerance-based test of
the trainer would still pass.
"""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from quakebox import model
from quakebox.features import FeatureMatrix
from quakebox.model import PenaltyConfig, TrainOptions, train

FROZEN = json.loads((Path(__file__).parent / "fixtures" / "solver_frozen.json").read_text())


def _matrix(entry: dict) -> FeatureMatrix:
    n, p = entry["shape"]
    X = np.frombuffer(base64.b64decode(entry["X_f64le"]), "<f8").reshape(n, p).astype(float)
    return FeatureMatrix(X, tuple(f"c{j:02d}" for j in range(p)), tuple(f"t{i}" for i in range(n)),
                         tuple("event" if e == "1" else "noise" for e in entry["is_event"]))


MATRICES = {name: _matrix(entry) for name, entry in FROZEN["matrices"].items()}


@pytest.mark.parametrize("case", FROZEN["fits"], ids=lambda case: case["name"])
def test_fit_is_bit_for_bit_frozen(case):
    history = []
    start = None if case["start"] is None else [float.fromhex(v) for v in case["start"]]
    model = train(MATRICES[case["matrix"]],
                  PenaltyConfig(alpha=case["alpha"], lam=float.fromhex(case["lam"])),
                  TrainOptions(max_iters=case["max_iters"], tol=case["tol"]),
                  sweep_callback=history.append, start=start)
    meta = model.training_meta
    assert model.bias.hex() == case["bias"]
    assert [w.hex() for w in model.weights.values()] == case["weights"]
    assert float(meta["objective"]).hex() == case["objective"]
    assert float(meta["kkt_residual"]).hex() == case["kkt_residual"]
    assert (meta["iterations"], meta["converged"]) == (case["iterations"], case["converged"])
    assert [v.hex() for v in history] == case["objectives"]


def test_path_starts_from_the_fit_before_it():
    path = [case for case in FROZEN["fits"] if case["name"].startswith("path-")]
    assert len(path) == 10 and path[0]["start"] is None
    for before, case in zip(path, path[1:]):
        assert case["start"] == [before["bias"], *before["weights"]]


def test_fixture_covers_every_kind_of_fit():
    fits = FROZEN["fits"]
    assert {case["alpha"] for case in fits if case["name"].startswith("cold-")} == {0.0, 0.5, 0.9, 1.0}
    assert any(case["lam"] == (0.0).hex() for case in fits)
    assert any(not case["converged"] and case["iterations"] == case["max_iters"] for case in fits)


def test_a_singular_system_is_refused_silently():
    # the exact solve's Cholesky fails on this singular system, and the sweeps
    # take over; pytest turns a RuntimeWarning into an error, so the failure
    # must make none
    G, zero = np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2)
    got = model._quadratic_minimiser(G, np.array([1.0, 1.0]), zero, zero, zero, 1e-12)
    assert got.tolist() == [1.0, 0.0]  # the first coordinate's sweep solves G t = c
