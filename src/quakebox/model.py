"""Elastic-net-penalized logistic regression.

The trainer is proximal Newton (Friedman, Hastie & Tibshirani, J. Stat.
Softw. 2010).  Each outer step forms the IRLS quadratic model of the
logistic loss at the current fit (row weights p(1 - p), floored so that
separable data stays finite), minimises it plus the penalty by cyclic
coordinate sweeps with soft-thresholding and an exact solve on the active
set, and backtracks by halving until the penalized objective does not
increase.  ``TrainOptions.max_iters`` counts these outer steps.  The
soft-threshold produces exact zeros, which downstream feature discovery
reads as "this input was deselected"; :func:`kkt_residual` certifies a fit.

Objective, for labels y in {0, 1} and mixing alpha in [0, 1]:

    mean_i NLL_i  +  lambda * (alpha * sum|w_j| + (1 - alpha) * sum w_j^2)

The bias is never penalized (glmnet's convention).
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
from .features.vectors import FeatureMatrix, FeatureVector, StandardizationParams, standardize_apply


@dataclass(frozen=True)
class PenaltyConfig:
    """Elastic net penalty: ``alpha`` mixes L1 vs L2, ``lam`` scales both."""

    alpha: float = 0.9
    lam: float = field(default=0.01, metadata={"json": "lambda"})

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not self.lam >= 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


@dataclass(frozen=True)
class TrainOptions:
    """Stopping rule for the trainer: at most ``max_iters`` outer steps, and
    converged once a step moves no coordinate more than ``tol``."""

    max_iters: int = 10_000
    tol: float = 1e-8

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


def predict_proba(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """Event probability for each standardized row, in row order."""
    X = rows.columns(model.codes()).X
    # summed column by column, each row's score is exactly the scalar
    # bias + w_1 x_1 + ... + w_p x_p; bias + X @ w may differ in the last bits
    z = np.full(X.shape[0], model.bias, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a score beyond the float range is refused below
        for j, w in enumerate(model.weights.values()):
            z += w * X[:, j]
    if not np.isfinite(z).all():
        i = int(np.argmin(np.isfinite(z)))
        raise FormatError(f"trace {rows.trace_ids[i]}: score {z[i]} is beyond the float range")
    return _sigmoid(z)


def classify(model: LinearModel, rows: FeatureMatrix) -> list[str]:
    """Label each standardized row; a probability exactly at the model's threshold counts as event."""
    return ["event" if hit else "noise" for hit in (predict_proba(model, rows) >= model.threshold).tolist()]


_CLAMP = 1e-12


def _nll(y: np.ndarray, p: np.ndarray) -> float:
    p = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def loss(model: LinearModel, data: FeatureMatrix, cfg: PenaltyConfig) -> float:
    """Mean negative log-likelihood plus the elastic net penalty."""
    m = data.columns(model.codes())
    w = np.array(list(model.weights.values()))
    return _objective(m.X, m.is_event.astype(float), w, model.bias, cfg)


def _objective(X: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, cfg: PenaltyConfig) -> float:
    return _nll(y, _sigmoid(b + X @ w)) + penalty(w, cfg)


# Floor on the IRLS weights p(1 - p): the quadratic model keeps a positive
# curvature, so steps stay finite on separable data where p saturates.
_MIN_CURVATURE = 1e-5
_MAX_SWEEPS = 500  # coordinate sweeps on one quadratic model when no exact solve fits
_MAX_HALVINGS = 60
_KKT_SLACK = 1e-12  # an inactive coordinate may exceed its L1 threshold by roundoff


def _penalty_weights(cfg: PenaltyConfig, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate L1 and L2 scales for (bias, w_1, ..., w_p); the bias's are 0."""
    l1 = np.full(p + 1, cfg.lam * cfg.alpha)
    l2 = np.full(p + 1, cfg.lam * (1.0 - cfg.alpha))
    l1[0] = l2[0] = 0.0
    return l1, l2


def _with_bias(X: np.ndarray) -> np.ndarray:
    return np.column_stack([np.ones(X.shape[0]), X])


def _kkt(A: np.ndarray, y: np.ndarray, theta: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> float:
    grad = A.T @ (_sigmoid(A @ theta) - y) / A.shape[0] + 2.0 * l2 * theta
    violation = np.where(
        theta != 0,
        np.abs(grad + l1 * np.sign(theta)),
        np.maximum(np.abs(grad) - l1, 0.0),
    )
    return float(violation.max())


def kkt_residual(model: LinearModel, data: FeatureMatrix, cfg: PenaltyConfig) -> float:
    """Largest violation of the elastic-net optimality conditions, bias included.

    For a coordinate away from zero the penalized gradient must vanish; at
    zero the smooth gradient must lie within the L1 threshold.  An exact
    optimum gives 0.
    """
    m = data.columns(model.codes())
    theta = np.array([model.bias, *model.weights.values()])
    l1, l2 = _penalty_weights(cfg, len(model.weights))
    return _kkt(_with_bias(m.X), m.is_event.astype(float), theta, l1, l2)


def _active_solve(G, c, l1, l2, theta) -> Optional[np.ndarray]:
    """Exact minimiser of the quadratic model on the support of ``theta``.

    None when the system is singular, a penalized coordinate leaves its sign,
    or a coordinate held at zero would move.
    """
    active = (theta != 0) | (l1 == 0)
    idx = np.flatnonzero(active)
    sign = np.sign(theta[idx])
    out = np.zeros_like(theta)
    if idx.size:
        M = G[np.ix_(idx, idx)] + np.diag(2.0 * l2[idx])
        try:
            pivots = np.linalg.cholesky(M).diagonal() ** 2
        except np.linalg.LinAlgError:
            return None
        if pivots.min() <= 1e-12 * M.diagonal().max():
            return None
        out[idx] = np.linalg.solve(M, c[idx] - l1[idx] * sign)
        held = l1[idx] > 0
        if np.any(out[idx][held] * sign[held] <= 0):
            return None
    rest = ~active
    if np.any(np.abs(c[rest] - G[rest] @ out) > l1[rest] + _KKT_SLACK):
        return None
    return out


def _quadratic_minimiser(G, c, l1, l2, theta, tol) -> np.ndarray:
    """Minimise 1/2 t'Gt - c't + sum_j (l1_j |t_j| + l2_j t_j^2), starting at ``theta``.

    Cyclic coordinate sweeps find the active set and its signs; an exact
    solve on each new sign pattern ends the search once it passes its
    checks.  Without one the sweeps run until no coordinate moves more than
    ``tol``.
    """
    theta = theta.copy()
    residual = c - G @ theta  # kept current as coordinates move
    diag = np.diag(G)
    denom = (diag + 2.0 * l2).tolist()
    diag, thresholds = diag.tolist(), l1.tolist()
    copysign = math.copysign
    tried = set()
    for sweep in range(_MAX_SWEEPS + 1):
        support = np.sign(theta).tobytes()
        if support not in tried:
            tried.add(support)
            exact = _active_solve(G, c, l1, l2, theta)
            if exact is not None:
                return exact
        if sweep == _MAX_SWEEPS:
            break
        max_change = 0.0
        for j, old in enumerate(theta.tolist()):
            z = float(residual[j]) + diag[j] * old
            # soft_threshold(z, thresholds[j]) inlined, bit for bit: the dead
            # zone keeps z's sign, so a zeroed coordinate may be -0.0
            shrunk = abs(z) - thresholds[j]
            new = (copysign(0.0, z) if shrunk <= 0.0 else copysign(shrunk, z)) / denom[j]
            if new != old:
                residual -= (new - old) * G[j]
                theta[j] = new
                max_change = max(max_change, abs(new - old))
        if max_change <= tol:
            break
    return theta


def _start_point(start: Sequence[float], p: int) -> np.ndarray:
    theta = np.array(start, dtype=float)
    if theta.shape != (p + 1,):
        raise ValueError(f"start must hold {p + 1} values (the bias, then {p} weights), "
                         f"got shape {theta.shape}")
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        raise ValueError(f"start[{bad[0]}] must be finite, got {theta[bad[0]]}")
    return theta


def train(
    data: FeatureMatrix,
    cfg: PenaltyConfig,
    opt: TrainOptions = TrainOptions(),
    sweep_callback=None,
    start: Optional[Sequence[float]] = None,
) -> LinearModel:
    """Fit by proximal Newton on standardized training rows.

    Each outer step minimises the IRLS quadratic model plus the penalty and
    backtracks until the objective does not increase.  Convergence is
    declared when no coordinate (bias included) of a step exceeds
    ``opt.tol``; hitting ``opt.max_iters`` outer steps instead is recorded
    as ``converged=False`` in the training metadata, not an error.
    ``sweep_callback(objective)`` is invoked once per outer step (used by
    the monotonicity property suite).

    ``start`` is the point the first step starts from: p + 1 finite values,
    the bias first, then the weights in ``data.codes`` order (a neighbouring
    penalty's fit, for a warm-started path).  None starts from zero.  The
    start changes the route to the optimum, so the number of steps and the
    last bits of the fit, not the optimum itself.
    """
    X, y = data.X, data.is_event.astype(float)
    if len(set(y.tolist())) < 2:
        raise DegenerateLabels("training data contains a single class")
    n, p = X.shape
    A = _with_bias(X)
    l1, l2 = _penalty_weights(cfg, p)

    def objective_at(theta: np.ndarray) -> float:
        return _objective(X, y, theta[1:], theta[0], cfg)

    theta = np.zeros(p + 1) if start is None else _start_point(start, p)
    objective = objective_at(theta)
    converged = False
    steps = 0
    for steps in range(1, opt.max_iters + 1):
        probs = _sigmoid(A @ theta)
        h = np.maximum(probs * (1.0 - probs), _MIN_CURVATURE)
        G = (A.T * h) @ A / n
        c = G @ theta - A.T @ (probs - y) / n
        target = _quadratic_minimiser(G, c, l1, l2, theta, 0.1 * opt.tol)
        step = target - theta
        taken = 0.0  # no move when every halving raises the objective (the roundoff floor)
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            candidate = target if scale == 1.0 else theta + scale * step
            value = objective_at(candidate)
            if value <= objective:
                taken = float(np.abs(candidate - theta).max())
                theta, objective = candidate, value
                break
            scale *= 0.5

        if sweep_callback is not None:
            sweep_callback(objective)
        if taken < opt.tol:
            converged = True
            break

    meta = {
        "alpha": cfg.alpha,
        "lambda": cfg.lam,
        "iterations": steps,
        "converged": converged,
        "objective": objective,
        "kkt_residual": _kkt(A, y, theta, l1, l2),
    }
    return LinearModel(
        bias=float(theta[0]),
        weights={c: float(v) for c, v in zip(data.codes, theta[1:])},
        threshold=0.5,
        training_meta=meta,
    )


def lambda_max(data: FeatureMatrix, alpha: float) -> float:
    """Smallest penalty scale that zeroes every weight (for grid construction).

    At the intercept-only optimum the coordinate gradients are
    x_j . (p_bar - y) / n; the L1 threshold kills all of them when
    lambda * alpha exceeds their largest magnitude.
    """
    X, y = data.X, data.is_event.astype(float)
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

    def predict_labels(self, raws: FeatureMatrix) -> list[str]:
        """Standardize raw rows with the training-time params and classify them."""
        return classify(self.model, standardize_apply(raws.columns(self.model.codes()), self.standardization))

    def predict_label(self, raw: FeatureVector) -> str:
        """Label one raw vector: ``predict_labels`` on a batch of one."""
        return self.predict_labels(FeatureMatrix.from_rows([raw]))[0]


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
    with fields.text_file(path) as fh:
        payload = fields.document(fh.read(), path, MODEL_FORMAT)

    fail = fields.in_file(path)
    threshold = fields.get(payload, "threshold", float, fail)
    if not 0.0 < threshold < 1.0:
        raise fail("threshold", f"must lie in (0, 1), got {threshold}")
    meta = fields.get(payload, "training_meta", dict, fail, {})
    weights = fields.table(payload, "weights", float, fail)
    means = fields.table(payload, "standardization.means", float, fail)
    stds = fields.table(payload, "standardization.stds", float, fail)
    for code, value in stds.items():
        if not value > 0:
            raise fail(f"standardization.stds.{code}", f"must be positive, got {value}")
    for name, params in (("means", means), ("stds", stds)):  # keyed by exactly the weight codes
        for code in {**weights, **params}:
            if (code in weights) != (code in params):
                why = "missing required field" if code in weights else "is not a code of weights"
                raise fail(f"standardization.{name}.{code}", why)
    return ModelArtifact(
        model=LinearModel(
            bias=fields.get(payload, "bias", float, fail),
            weights=weights,
            threshold=threshold,
            training_meta=meta,
        ),
        standardization=StandardizationParams(means=means, stds=stds),
    )
