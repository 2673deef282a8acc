"""Elastic-net-penalized logistic regression.

The trainer is cyclic coordinate descent with a per-coordinate quadratic
majorizer of the logistic loss (curvature bound 1/4) and soft-thresholding
for the L1 part.  Majorize-minimize updates make the penalized objective
non-increasing at every step, and the proximal step produces exact zeros,
which downstream feature discovery reads as "this input was deselected".

Objective, for labels y in {0, 1} and mixing alpha in [0, 1]:

    mean_i NLL_i  +  lambda * (alpha * sum|w_j| + (1 - alpha) * sum w_j^2)

The bias is excluded from the penalty unless ``penalize_bias`` is set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np

from . import fields
from .errors import DegenerateLabels, FormatError
from .features.vectors import FeatureMatrix, FeatureVector, Rows, StandardizationParams, zscore


@dataclass(frozen=True)
class PenaltyConfig:
    """Elastic net penalty: ``alpha`` mixes L1 vs L2, ``lam`` scales both."""

    alpha: float = 0.9
    lam: float = 0.01
    penalize_bias: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class TrainOptions:
    """Stopping rule for coordinate descent."""

    max_iters: int = 10_000
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")


@dataclass(frozen=True)
class LinearModel:
    """Bias plus per-feature weights with a decision threshold."""

    bias: float
    weights: Mapping[str, float]
    threshold: float = 0.5
    training_meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        object.__setattr__(self, "weights", dict(self.weights))

    def codes(self) -> tuple[str, ...]:
        return tuple(self.weights)


def soft_threshold(z: float, gamma: float) -> float:
    """sign(z) * max(|z| - gamma, 0), the L1 proximal operator."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    return math.copysign(max(abs(z) - gamma, 0.0), z)


def penalty(weights: Sequence[float], cfg: PenaltyConfig) -> float:
    """Elastic net penalty value for a weight vector (bias not included)."""
    w = np.asarray(weights, dtype=float)
    return float(cfg.lam * (cfg.alpha * np.abs(w).sum() + (1.0 - cfg.alpha) * (w**2).sum()))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # never overflows: exp of a non-positive number
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _proba(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Event probabilities for a standardized matrix with columns in ``model.codes()`` order."""
    # summed column by column, each row's score is exactly the scalar
    # bias + w_1 x_1 + ... + w_p x_p; bias + X @ w may differ in the last bits
    z = np.full(X.shape[0], model.bias, dtype=float)
    for j, w in enumerate(model.weights.values()):
        z += w * X[:, j]
    return _sigmoid(z)


def _labels(probs: np.ndarray, threshold: float) -> list[str]:
    return ["event" if hit else "noise" for hit in (probs >= threshold).tolist()]


def predict_proba(model: LinearModel, rows: Rows) -> np.ndarray:
    """Event probability for each standardized row, in row order."""
    return _proba(model, FeatureMatrix.from_rows(rows).columns(model.codes()).X)


def classify(model: LinearModel, rows: Rows, threshold: Optional[float] = None) -> list[str]:
    """Label each standardized row; a probability exactly at threshold counts as event."""
    return _labels(predict_proba(model, rows), model.threshold if threshold is None else threshold)


_CLAMP = 1e-12


def _nll(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def loss(model: LinearModel, data: Rows, cfg: PenaltyConfig) -> float:
    """Mean negative log-likelihood plus the elastic net penalty."""
    m = FeatureMatrix.from_rows(data).columns(model.codes())
    w = np.array(list(model.weights.values()))
    return _objective(m.X, m.is_event.astype(float), w, model.bias, cfg)


def _objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, cfg: PenaltyConfig) -> float:
    value = _nll(y, _sigmoid(b + X @ w)) + penalty(w, cfg)
    if cfg.penalize_bias:
        value += penalty([b], cfg)
    return value


def train(
    data: Rows,
    cfg: PenaltyConfig,
    opt: TrainOptions = TrainOptions(),
    sweep_callback=None,
) -> LinearModel:
    """Fit by cyclic coordinate descent on standardized training rows.

    Convergence is declared when no coordinate (bias included) moves more
    than ``opt.tol`` in a full sweep; hitting ``opt.max_iters`` instead is
    recorded as ``converged=False`` in the training metadata, not an error.
    ``sweep_callback(objective)`` is invoked once per sweep (used by the
    monotonicity property suite).
    """
    m = FeatureMatrix.from_rows(data)
    X, y = m.X, m.is_event.astype(float)
    if len(set(y.tolist())) < 2:
        raise DegenerateLabels("training data contains a single class")
    n, p = X.shape

    w = np.zeros(p)
    b = 0.0
    activation = np.zeros(n)  # b + X @ w, maintained incrementally
    # Fixed per-coordinate curvature bound of the logistic NLL: sigma'(z) <= 1/4.
    curvature = (X**2).sum(axis=0) / (4.0 * n)
    l1 = cfg.lam * cfg.alpha
    l2 = cfg.lam * (1.0 - cfg.alpha)

    converged = False
    sweeps = 0
    for sweeps in range(1, opt.max_iters + 1):
        max_step = 0.0
        probs = _sigmoid(activation)

        # bias first: plain (or penalized) quadratic-bound step
        grad_b = float(np.mean(probs - y))
        if cfg.penalize_bias:
            new_b = soft_threshold(0.25 * b - grad_b, l1) / (0.25 + 2.0 * l2)
        else:
            new_b = b - grad_b / 0.25
        if new_b != b:
            activation += new_b - b
            max_step = max(max_step, abs(new_b - b))
            b = new_b
            probs = _sigmoid(activation)

        for j in range(p):
            xj = X[:, j]
            grad = float(xj @ (probs - y)) / n
            zj = curvature[j] * w[j] - grad
            new_w = soft_threshold(zj, l1) / (curvature[j] + 2.0 * l2)
            if new_w != w[j]:
                activation += (new_w - w[j]) * xj
                max_step = max(max_step, abs(new_w - w[j]))
                w[j] = new_w
                probs = _sigmoid(activation)

        if sweep_callback is not None:
            sweep_callback(_objective(X, y, w, b, cfg))
        if max_step < opt.tol:
            converged = True
            break

    meta = {
        "alpha": cfg.alpha,
        "lambda": cfg.lam,
        "seed": opt.seed,
        "iterations": sweeps,
        "converged": converged,
    }
    return LinearModel(
        bias=float(b),
        weights={c: float(v) for c, v in zip(m.codes, w)},
        threshold=0.5,
        training_meta=meta,
    )


def lambda_max(data: Rows, alpha: float) -> float:
    """Smallest penalty scale that zeroes every weight (for grid construction).

    At the intercept-only optimum the coordinate gradients are
    x_j . (p_bar - y) / n; the L1 threshold kills all of them when
    lambda * alpha exceeds their largest magnitude.
    """
    m = FeatureMatrix.from_rows(data)
    X, y = m.X, m.is_event.astype(float)
    p_bar = y.mean()
    grads = np.abs(X.T @ (p_bar - y)) / X.shape[0]
    top = float(grads.max())
    if alpha <= 0:
        return top  # pure ridge never produces exact zeros; return scale anyway
    return top / alpha


# ---------------------------------------------------------------------------
# model artifact (model + its standardization) and file round-trip


@dataclass(frozen=True)
class ModelArtifact:
    """A trained model bundled with the standardization fitted alongside it."""

    model: LinearModel
    standardization: StandardizationParams

    def predict_labels(self, raws: Rows) -> list[str]:
        """Standardize raw rows with the training-time params and classify them."""
        codes = self.model.codes()
        X = FeatureMatrix.from_rows(raws).columns(codes).X
        probs = _proba(self.model, zscore(X, self.standardization, codes))
        return _labels(probs, self.model.threshold)

    def predict_label(self, raw: FeatureVector) -> str:
        """Label one raw vector: ``predict_labels`` on a batch of one."""
        return self.predict_labels([raw])[0]


MODEL_FORMAT = "quakebox-model-v1"


def save_model(path: str | Path, artifact: ModelArtifact) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "bias": artifact.model.bias,
        "weights": dict(artifact.model.weights),
        "threshold": artifact.model.threshold,
        "standardization": {
            "means": dict(artifact.standardization.means),
            "stds": dict(artifact.standardization.stds),
        },
        "training_meta": dict(artifact.model.training_meta),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ModelArtifact:
    """Read a model file.  A missing or malformed field raises
    :class:`FormatError` naming the file and the field's dotted path."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid model JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise FormatError(f"{path}: not a {MODEL_FORMAT} file")

    fail = fields.in_file(path)
    threshold = fields.get(payload, "threshold", float, fail)
    if not 0.0 < threshold < 1.0:
        raise fail("threshold", f"must lie in (0, 1), got {threshold}")
    meta = fields.get(payload, "training_meta", dict, fail, {})
    stds = fields.table(payload, "standardization.stds", float, fail)
    for code, value in stds.items():
        if not value > 0:
            raise fail(f"standardization.stds.{code}", f"must be positive, got {value}")
    return ModelArtifact(
        model=LinearModel(
            bias=fields.get(payload, "bias", float, fail),
            weights=fields.table(payload, "weights", float, fail),
            threshold=threshold,
            training_meta=meta,
        ),
        standardization=StandardizationParams(
            means=fields.table(payload, "standardization.means", float, fail), stds=stds
        ),
    )
