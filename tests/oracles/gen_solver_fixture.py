"""Regenerate tests/fixtures/solver_frozen.json: fits of ``model.train``,
bit for bit.

The solver's result is decided by the order of its floating-point
operations: which coordinate a sweep moves first, whether an exact
active-set solve is accepted, which backtracking halving lands.  A change
that keeps every operation in its order keeps every bit, and the tests'
tolerances cannot see one that does not.  The fits are:

- cold fits at alpha 0, 0.5, 0.9 and 1 on a noisy planted matrix;
- one warm-started path down the default lambda grid (alpha 0.9) on a
  planted split of the campaign's shape (38 rows by 26 columns), each fit
  starting from the one before it, with the ensemble's stopping rule
  (500 outer steps, tol 1e-6), as ``selection.run_ensemble`` walks a draw;
- a duplicated column at lambda 0, whose singular active-set system is
  refused, so coordinate sweeps carry the fit;
- lambda 0 on the noisy planted matrix;
- a separable fit at lambda 0, capped unconverged at ``max_iters``.

Each matrix is stored as base64 of its little-endian float64 bytes (rows
first) with its labels as a string of 0s and 1s, and each fit's inputs and
outputs as ``float.hex``, so the expectations never depend on RNG stream
stability across numpy versions.  ``objectives`` are the values that
``sweep_callback`` receives, one per outer step.

Run from the repo root:  PYTHONPATH=src python3 tests/oracles/gen_solver_fixture.py [OUT]
OUT, when given, is written instead of the fixture, so a regenerated copy
can be compared with the fixture by ``cmp``.
"""

from __future__ import annotations

import base64
import json
import sys
from pathlib import Path

import numpy as np

from quakebox.bench import generate_planted_features
from quakebox.features import FeatureMatrix, standardize_apply, standardize_fit
from quakebox.model import PenaltyConfig, TrainOptions, train
from quakebox.selection import _stratified_subsample, default_lambda_grid
from quakebox.seeds import derive_rng

OUT = Path(__file__).resolve().parents[1] / "fixtures" / "solver_frozen.json"


def _standardized(vecs) -> FeatureMatrix:
    return standardize_apply(vecs, standardize_fit(vecs))


def _matrix(X: np.ndarray, is_event: np.ndarray) -> FeatureMatrix:
    n, p = X.shape
    return FeatureMatrix(X, tuple(f"c{j:02d}" for j in range(p)), tuple(f"t{i}" for i in range(n)),
                         tuple("event" if e else "noise" for e in is_event))


def matrices() -> dict[str, FeatureMatrix]:
    """Every matrix a fit reads, by name; all but ``split`` are standardized
    as ``train`` receives them, and ``split`` is standardized by the path."""
    noisy, _ = generate_planted_features(120, n_nuisance=10, label_noise=0.1, seed=31)
    campaign, _ = generate_planted_features(48, n_nuisance=24, label_noise=0.05, seed=32)
    split = _stratified_subsample(FeatureMatrix.from_rows(campaign), 0.8, derive_rng(32, "split"))
    rng = np.random.default_rng(13)
    X = rng.standard_normal((150, 3))
    logit = X[:, :2] @ np.array([1.0, -0.5]) + 0.3
    is_event = rng.random(150) < 1.0 / (1.0 + np.exp(-logit))
    separable, _ = generate_planted_features(60, n_nuisance=2, margin=1.0, seed=12)
    return {
        "noisy": _standardized(noisy),
        "split": _standardized(split),
        "duplicated": _matrix(np.column_stack([X, X[:, 0]]), is_event),
        "separable": _standardized(separable),
    }


def fits(data: dict[str, FeatureMatrix]) -> list[dict]:
    """(matrix, alpha, lambda, max_iters, tol, start) of every fit, in fixture
    order; ``start`` is None or the bias and weights as floats."""
    cases = [{"name": f"cold-alpha-{alpha}", "matrix": "noisy", "alpha": alpha, "lam": 0.02,
              "max_iters": 500, "tol": 1e-8, "start": None} for alpha in (0.0, 0.5, 0.9, 1.0)]
    start = None
    for k, lam in enumerate(default_lambda_grid(data["split"], 0.9)):
        cases.append({"name": f"path-{k}", "matrix": "split", "alpha": 0.9, "lam": lam,
                      "max_iters": 500, "tol": 1e-6, "start": start})
        fit = train(data["split"], PenaltyConfig(alpha=0.9, lam=lam), TrainOptions(max_iters=500, tol=1e-6),
                    start=start)
        start = (fit.bias, *fit.weights.values())
    cases += [
        {"name": "duplicated-column", "matrix": "duplicated", "alpha": 0.5, "lam": 0.0,
         "max_iters": 200, "tol": 1e-10, "start": None},
        {"name": "lambda-0", "matrix": "noisy", "alpha": 0.9, "lam": 0.0,
         "max_iters": 200, "tol": 1e-10, "start": None},
        {"name": "separable-capped", "matrix": "separable", "alpha": 0.5, "lam": 0.0,
         "max_iters": 40, "tol": 1e-10, "start": None},
    ]
    return cases


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def build() -> dict:
    data = matrices()
    entries = []
    for case in fits(data):
        history: list[float] = []
        model = train(data[case["matrix"]], PenaltyConfig(alpha=case["alpha"], lam=case["lam"]),
                      TrainOptions(max_iters=case["max_iters"], tol=case["tol"]),
                      sweep_callback=history.append, start=case["start"])
        meta = model.training_meta
        entries.append({
            **case,
            "lam": float(case["lam"]).hex(),
            "start": None if case["start"] is None else _hex(case["start"]),
            "bias": model.bias.hex(),
            "weights": _hex(model.weights.values()),
            "objective": float(meta["objective"]).hex(),
            "kkt_residual": float(meta["kkt_residual"]).hex(),
            "iterations": meta["iterations"],
            "converged": meta["converged"],
            "objectives": _hex(history),
        })
    return {
        "description": "model.train fits, bit for bit; written by tests/oracles/gen_solver_fixture.py, "
                       "whose docstring describes the fits.",
        "matrices": {
            name: {
                "X_f64le": base64.b64encode(np.ascontiguousarray(m.X, dtype="<f8").tobytes()).decode(),
                "shape": list(m.X.shape),
                "is_event": "".join("1" if e else "0" for e in m.is_event),
            }
            for name, m in data.items()
        },
        "fits": entries,
    }


def main(out: Path = OUT) -> None:
    payload = build()
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['fits'])} fits to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
