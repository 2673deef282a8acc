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

A fit's problems are small (tens of rows and columns in a campaign), so
the cost of a step is mostly the count of numpy calls, not arithmetic.
What a fit reuses ([1, X], the penalty scales, 1 - y) is made once per
fit; each step tries the exact solve on its start's sign pattern before
it builds any sweep state; and the Cholesky factor and the solve call
numpy's LAPACK gufuncs directly (``numpy.linalg._umath_linalg``, a
private module whose names are the same from numpy 1.23 on).  Each of
these keeps the floating-point operations and their order, so fits are
the same bits as those of the plainer form they replace
(``tests/fixtures/solver_frozen.json`` holds such fits).

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
from numpy.linalg import _umath_linalg

from . import fields
from .errors import DegenerateLabels, FormatError, QuakeboxError
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
    """Elastic net penalty value for a weight vector (bias not included).

    It is +inf where it leaves the float range, as a neighbouring penalty's
    fit can when it warm-starts a far larger ``lam``: the sums are combined
    as Python floats, whose arithmetic overflows quietly, not as numpy's.
    """
    w = np.asarray(weights, dtype=float)
    return cfg.lam * (cfg.alpha * float(np.add.reduce(np.abs(w))) + (1.0 - cfg.alpha) * float(np.add.reduce(w * w)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(z))  # never overflows: exp of a non-positive number
    # 1 / (1 + ez) where z >= 0, else ez / (1 + ez): ez lies in [0, 1]
    return np.maximum(ez, z >= 0) / (1.0 + ez)


@np.errstate(over="ignore", invalid="ignore")  # a score beyond the float range is refused below
def predict_proba(model: LinearModel, rows: FeatureMatrix) -> np.ndarray:
    """Event probability for each standardized row, in row order."""
    X = rows.columns(model.codes()).X
    # summed column by column, each row's score is exactly the scalar
    # bias + w_1 x_1 + ... + w_p x_p; bias + X @ w may differ in the last bits
    w = np.fromiter(model.weights.values(), float, X.shape[1])
    terms = np.multiply(X.T, w[:, None], order="C")  # row j: w_j x_j of every row, contiguous
    z = np.full(len(X), model.bias, dtype=float)
    for term in terms:
        z = z + term  # numpy adds a small array in place more slowly
    if not np.isfinite(z).all():
        i = int(np.argmin(np.isfinite(z)))
        raise FormatError(f"trace {rows.trace_ids[i]}: score {z[i]} is beyond the float range")
    return _sigmoid(z)


def classify(model: LinearModel, rows: FeatureMatrix) -> list[str]:
    """Label each standardized row; a probability exactly at the model's threshold counts as event."""
    return ["event" if hit else "noise" for hit in (predict_proba(model, rows) >= model.threshold).tolist()]


_CLAMP = 1e-12


def _objective_of(X: np.ndarray, y: np.ndarray, cfg: PenaltyConfig):
    """The penalized objective on rows ``X`` and 0/1 labels ``y``, as a
    function of theta = (bias, w_1, ..., w_p).

    1 - y is made once, for every point the trainer evaluates.  The mean
    NLL is the sum over n, which is how ``np.mean`` computes it.
    """
    n, not_y = len(y), 1.0 - y

    def objective(theta: np.ndarray) -> float:
        w = theta[1:]
        # np.clip's order: the floor, then the ceiling
        p = np.minimum(np.maximum(_sigmoid(theta[0] + X @ w), _CLAMP), 1.0 - _CLAMP)
        nll = -(np.add.reduce(y * np.log(p) + not_y * np.log(1.0 - p)) / n)
        return float(nll) + penalty(w, cfg)

    return objective


def loss(model: LinearModel, data: FeatureMatrix, cfg: PenaltyConfig) -> float:
    """Mean negative log-likelihood plus the elastic net penalty."""
    m = data.columns(model.codes())
    return _objective_of(m.X, m.is_event.astype(float), cfg)(np.array([model.bias, *model.weights.values()]))


# Floor on the IRLS weights p(1 - p): the quadratic model keeps a positive
# curvature, so steps stay finite on separable data where p saturates.
_MIN_CURVATURE = 1e-5
_MAX_SWEEPS = 500  # coordinate sweeps on one quadratic model when no exact solve fits
_MAX_HALVINGS = 60
_KKT_SLACK = 1e-12  # an inactive coordinate may exceed its L1 threshold by roundoff

# numpy's LAPACK gufuncs, called without the ``np.linalg`` wrappers' checks
# and dispatch: the minimiser builds every system square, float64 and 2-D.
# The module is private, but it has had these names since numpy 1.x.
_cholesky, _solve = _umath_linalg.cholesky_lo, _umath_linalg.solve1


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


def _active_solve(G, M, c, l1, free, theta) -> Optional[np.ndarray]:
    """Exact minimiser of the quadratic model on the support of ``theta``.

    ``M`` is ``G`` with the L2 curvature 2 l2 added to its diagonal, and
    ``free`` marks the coordinates with no L1 penalty.  None when the system
    is singular, a penalized coordinate leaves its sign, or a coordinate
    held at zero would move.
    """
    active = (theta != 0.0) | free
    idx = active.nonzero()[0]
    out = np.zeros(theta.size)
    if idx.size:
        sign = np.sign(theta[idx])
        M = M.take(idx, 0).take(idx, 1)
        # a matrix that is not positive definite comes back as NaNs, silently
        with np.errstate(invalid="ignore"):
            L = _cholesky(M)
        # the pivots are the squares of L's positive diagonal, so the smallest
        # is the square of its smallest entry; a failed factor's NaN fails too
        pivot = np.minimum.reduce(L.diagonal())
        if not pivot * pivot > 1e-12 * np.maximum.reduce(M.diagonal()):
            return None
        x = _solve(M, c[idx] - l1[idx] * sign)
        if np.count_nonzero((x * sign <= 0) & ~free[idx]):
            return None
        out[idx] = x
    if idx.size < theta.size:
        rest = ~active
        if np.count_nonzero(np.abs(c[rest] - G.compress(rest, 0) @ out) > l1[rest] + _KKT_SLACK):
            return None
    return out


def _quadratic_minimiser(G, c, l1, l2, theta, tol) -> np.ndarray:
    """Minimise 1/2 t'Gt - c't + sum_j (l1_j |t_j| + l2_j t_j^2), starting at ``theta``.

    An exact solve on the start's sign pattern is tried first, and it ends
    most searches.  Only when it fails are the sweep state (the residual
    c - Gt, the diagonal and Python lists of both scales) built: cyclic
    coordinate sweeps then find the active set and its signs, and an exact
    solve on each new sign pattern ends the search once it passes its
    checks.  Without one the sweeps run until no coordinate moves more than
    ``tol``.
    """
    M = G + np.diag(2.0 * l2)
    free = l1 == 0.0
    exact = _active_solve(G, M, c, l1, free, theta)
    if exact is not None:
        return exact
    tried = {np.sign(theta).tobytes()}
    theta = theta.copy()
    residual = c - G @ theta  # kept current as coordinates move
    diag, denom, thresholds = G.diagonal().tolist(), M.diagonal().tolist(), l1.tolist()
    copysign = math.copysign
    for _ in range(_MAX_SWEEPS):
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
        support = np.sign(theta).tobytes()
        if support not in tried:
            tried.add(support)
            exact = _active_solve(G, M, c, l1, free, theta)
            if exact is not None:
                return exact
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

    What does not change between steps is made once per fit: the design
    [1, X] and its transpose, the per-coordinate penalty scales and the
    objective's constants.  A step evaluates the full step first, and forms
    the step vector only when a halving must run.

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
    AT = A.T
    l1, l2 = _penalty_weights(cfg, p)
    objective_at = _objective_of(X, y, cfg)
    inner_tol = 0.1 * opt.tol

    theta = np.zeros(p + 1) if start is None else _start_point(start, p)
    objective = objective_at(theta)
    converged = False
    steps = 0
    for steps in range(1, opt.max_iters + 1):
        probs = _sigmoid(A @ theta)
        h = np.maximum(probs * (1.0 - probs), _MIN_CURVATURE)
        G = (AT * h) @ A / n
        c = G @ theta - AT @ (probs - y) / n
        target = _quadratic_minimiser(G, c, l1, l2, theta, inner_tol)
        # the full step, then halvings; no move when every halving raises
        # the objective (the roundoff floor)
        candidate, value = target, objective_at(target)
        if not value <= objective:
            step, scale = target - theta, 0.5
            for _ in range(_MAX_HALVINGS - 1):
                candidate = theta + scale * step
                value = objective_at(candidate)
                if value <= objective:
                    break
                scale *= 0.5
        taken = 0.0
        if value <= objective:
            taken = float(np.maximum.reduce(np.abs(candidate - theta)))
            theta, objective = candidate, value

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
    source: str = field(default="", compare=False)  # prefixed to a scoring error, e.g. "models.lr: lr.json"

    def predict_labels(self, raws: FeatureMatrix) -> list[str]:
        """Standardize raw rows with the training-time params and classify them."""
        try:
            standardized = standardize_apply(raws.columns(self.model.codes()), self.standardization)
            return classify(self.model, standardized)
        except QuakeboxError as exc:
            if self.source:
                exc.args = (f"{self.source}: {exc}",)
            raise

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
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


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
