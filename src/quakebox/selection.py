"""Ensemble feature discovery.

Train the penalized model many times over the two axes of stability
selection, the penalty scale and the training subsample; keep the runs
tied at the best validation MCC, summarize each feature's weight
distribution over that tie-set, and select features by an explicit
two-threshold rule: kept in at least ``min_fraction_nonzero`` of tied runs
and with median absolute weight of at least ``min_median_abs`` (on
standardized inputs).

Run ``r`` fits ``grid[r % len(grid)]`` on the stratified subsample drawn
by ``r // len(grid)``, so the runs of one draw share its rows: each draw is
subsampled and standardized once, and its runs walk the grid in run order
as one warm-started path (Friedman, Hastie & Tibshirani, J. Stat. Softw.
2010, section 2.5).  A draw's first run starts from zero, and every later
run starts from the fit of the grid point before it on the same draw, so
a run's fit depends on the earlier runs of its draw: it is the same
optimum as a cold fit, up to the solver's tolerance, not the same bits.
The solver is deterministic, so reruns stay byte-identical.  A one-entry
``lambda_grid`` fixes the penalty, and ``subsample_fraction = 1.0`` fits
every run on the whole training set.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, field
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from . import fields
from .errors import ConfigError, DegenerateInput, QuakeboxError
from .features.vectors import FeatureMatrix, constant_codes, standardize_apply, standardize_fit
from .metrics import confusion, mcc
from .model import PenaltyConfig, TrainOptions, classify, lambda_max, train
from .seeds import derive_rng


@dataclass(frozen=True)
class EnsembleConfig:
    n_runs: int = 200
    alpha: float = 0.9
    lambda_grid: Tuple[float, ...] | None = None
    tie_tolerance: float = 0.0
    subsample_fraction: float = 0.8
    seed: int = 0
    max_iters: int = 500
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError("n_runs must be at least 1")
        if not self.tie_tolerance >= 0:
            raise ValueError("tie_tolerance must be nonnegative")
        if not 0 < self.subsample_fraction <= 1:
            raise ValueError("subsample_fraction must lie in (0, 1]")
        # every run's own penalty and stopping checks, made before the first run
        PenaltyConfig(alpha=self.alpha)
        for lam in self.lambda_grid or ():
            PenaltyConfig(alpha=self.alpha, lam=lam)
        TrainOptions(max_iters=self.max_iters, tol=self.tol)


@dataclass(frozen=True)
class EnsembleRunResult:
    # a report's run object holds these fields, in this order
    run_id: int
    val_mcc: float
    config_used: Mapping[str, object]
    weights: Mapping[str, float]
    # the fit's certificate: its outer steps, whether it met its tolerance
    # within ``max_iters``, its penalized objective and optimality residual
    # (as in a model's ``training_meta``) and its count of nonzero weights
    iterations: int
    converged: bool
    objective: float
    kkt_residual: float
    nnz: int


@dataclass(frozen=True)
class FeatureWeightStats:
    minimum: float = field(metadata={"json": "min"})
    maximum: float = field(metadata={"json": "max"})
    median: float
    median_abs: float
    mean_abs: float
    fraction_nonzero: float


@dataclass(frozen=True)
class WeightDistribution:
    """Per-feature weight summary over a tie-set of runs."""

    stats: Mapping[str, FeatureWeightStats]
    n_models: int

    def table(self) -> List[Tuple[str, float, float, float, float, float, float]]:
        """Plot-data rows: (code, min, max, median, median|w|, mean|w|, frac nonzero)."""
        return [(c, *astuple(s)) for c, s in self.stats.items()]


@dataclass(frozen=True)
class SelectionRule:
    """Quantitative replacement for selecting features by eye."""

    min_fraction_nonzero: float = 0.9
    min_median_abs: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_fraction_nonzero <= 1.0:
            raise ConfigError("min_fraction_nonzero", f"must lie in [0, 1], got {self.min_fraction_nonzero}")
        if not self.min_median_abs >= 0.0:
            raise ConfigError("min_median_abs", f"must be nonnegative, got {self.min_median_abs}")


def default_lambda_grid(train_data: FeatureMatrix, alpha: float) -> Tuple[float, ...]:
    """Ten log-spaced values below the all-zero threshold ``lambda_max``.

    Spans half of lambda_max down two decades, which brackets the useful
    sparsity range for standardized inputs; a constant column is left out.
    """
    (varying,) = _varying(train_data)
    top = lambda_max(standardize_apply(varying, standardize_fit(varying)), alpha)
    return tuple(float(v) for v in np.geomspace(0.5 * top, 0.005 * top, 10))


def _varying(fit: FeatureMatrix, *others: FeatureMatrix) -> List[FeatureMatrix]:
    """``fit`` and ``others`` without the columns constant in ``fit``, which
    standardization cannot scale; when no column varies, all are kept, for
    :func:`standardize_fit` to refuse."""
    constant = constant_codes(fit)
    if len(constant) == len(fit.codes):
        constant = []
    return [m.columns([c for c in m.codes if c not in constant]) for m in (fit, *others)]


def _stratified_subsample(
    matrix: FeatureMatrix, fraction: float, rng: np.random.Generator
) -> FeatureMatrix:
    """Per-class subsample without replacement; keeps at least one of each class."""
    labels = np.array(matrix.labels)
    chosen = []
    for label in sorted(set(matrix.labels)):
        idx = np.flatnonzero(labels == label)
        k = max(1, int(fraction * len(idx)))
        chosen.append(idx[rng.permutation(len(idx))[:k]])
    return matrix.take(np.sort(np.concatenate(chosen)))


def run_ensemble(
    train_data: FeatureMatrix, val_data: FeatureMatrix, cfg: EnsembleConfig
) -> List[EnsembleRunResult]:
    """Train ``cfg.n_runs`` models and score each on the validation set.

    Runs cycle through the penalty grid fastest, so ``n_runs = len(grid) *
    n_draws`` covers every (grid point, subsample draw) pair.  The loop walks
    one draw at a time: each draw's training subsample is drawn, fitted with
    its own standardization (validation data never leaks into the scaling)
    and standardized once, with the validation set, for all of its runs.
    The draw's runs are fitted in run order, each starting from the previous
    run's fit on the same draw (the first from zero), so a run depends on
    the earlier runs of its draw; the default grid descends, from sparse
    fits to dense ones.  A column constant in the draw is set aside: its
    runs fit the other columns and give it weight 0.0.  A failed run, or a
    draw in which no column varies, aborts the ensemble with the run id
    attached.
    """
    grid = cfg.lambda_grid or default_lambda_grid(train_data, cfg.alpha)
    opt = TrainOptions(max_iters=cfg.max_iters, tol=cfg.tol)

    results: List[EnsembleRunResult] = []
    for first in range(0, cfg.n_runs, len(grid)):
        run_id = first
        try:
            rng = derive_rng(cfg.seed, "ensemble-subsample", first // len(grid))
            subset, val = _varying(_stratified_subsample(train_data, cfg.subsample_fraction, rng), val_data)
            params = standardize_fit(subset)
            strain, sval = standardize_apply(subset, params), standardize_apply(val, params)
            start = None
            for k, lam in enumerate(grid[: cfg.n_runs - first]):
                run_id = first + k
                model = train(strain, PenaltyConfig(alpha=cfg.alpha, lam=lam), opt, start=start)
                start = (model.bias, *model.weights.values())
                meta = model.training_meta
                results.append(
                    EnsembleRunResult(
                        run_id=run_id,
                        weights={c: model.weights.get(c, 0.0) for c in train_data.codes},
                        val_mcc=mcc(confusion(val_data.labels, classify(model, sval))),
                        config_used={"lambda": lam, "n_train": len(subset)},
                        iterations=meta["iterations"],
                        converged=meta["converged"],
                        objective=meta["objective"],
                        kkt_residual=meta["kkt_residual"],
                        nnz=sum(w != 0.0 for w in model.weights.values()),
                    )
                )
        except QuakeboxError as exc:
            raise type(exc)(f"ensemble run {run_id}: {exc}") from exc
    return results


def best_models(
    results: Sequence[EnsembleRunResult], tie_tolerance: float = 0.0
) -> List[EnsembleRunResult]:
    """Runs within ``tie_tolerance`` of the best validation MCC, by run id."""
    if not results:
        raise DegenerateInput("no ensemble results to rank")
    top = max(r.val_mcc for r in results)
    tied = [r for r in results if r.val_mcc >= top - tie_tolerance]
    return sorted(tied, key=lambda r: r.run_id)


def weight_distributions(tie_set: Sequence[EnsembleRunResult]) -> WeightDistribution:
    """Per-feature weight statistics over the tie-set."""
    if not tie_set:
        raise DegenerateInput("empty tie-set")
    codes = tuple(tie_set[0].weights)
    stats = {}
    for code in codes:
        w = np.array([r.weights[code] for r in tie_set])
        stats[code] = FeatureWeightStats(
            minimum=float(w.min()),
            maximum=float(w.max()),
            median=float(np.median(w)),
            median_abs=float(np.median(np.abs(w))),
            mean_abs=float(np.abs(w).mean()),
            fraction_nonzero=_fraction_nonzero(w),
        )
    return WeightDistribution(stats=stats, n_models=len(tie_set))


def _fraction_nonzero(weights: np.ndarray) -> float:
    """The share of ``weights`` that are nonzero, as a distribution reports it."""
    return float(np.mean(weights != 0.0))


def demands_unanimity(rule: SelectionRule, n_tied: int) -> bool:
    """Whether ``rule`` keeps only the codes that are nonzero in every one
    of ``n_tied`` > 1 tied runs: a code that one of them zeroes falls below
    ``min_fraction_nonzero``."""
    return n_tied > 1 and _fraction_nonzero(np.arange(n_tied, dtype=float)) < rule.min_fraction_nonzero


def select_features(
    dist: WeightDistribution,
    rule: SelectionRule = SelectionRule(),
    base: Sequence[str] = (),
) -> Tuple[str, ...]:
    """Features passing both rule thresholds, unioned with the base set.

    The base set (the prior model's inputs, in the reproduction profile) is
    always kept; rule-selected features follow in distribution order.
    """
    picked = [
        c
        for c, s in dist.stats.items()
        if s.fraction_nonzero >= rule.min_fraction_nonzero
        and s.median_abs >= rule.min_median_abs
    ]
    out = list(base)
    out.extend(c for c in picked if c not in out)
    return tuple(out)


@dataclass(frozen=True)
class SelectionReport:
    """Everything the discovery workflow produced, for audit and plotting."""

    runs: List[EnsembleRunResult]
    tie_set_ids: List[int]
    distribution: WeightDistribution
    selected: Tuple[str, ...]
    rule: SelectionRule


def discover_features(
    train_data: FeatureMatrix,
    val_data: FeatureMatrix,
    cfg: EnsembleConfig,
    rule: SelectionRule = SelectionRule(),
    base: Sequence[str] = (),
) -> SelectionReport:
    """Run the full discovery workflow: ensemble, tie-set, distribution, rule."""
    results = run_ensemble(train_data, val_data, cfg)
    tie_set = best_models(results, cfg.tie_tolerance)
    dist = weight_distributions(tie_set)
    selected = select_features(dist, rule, base)
    return SelectionReport(
        runs=results,
        tie_set_ids=[r.run_id for r in tie_set],
        distribution=dist,
        selected=selected,
        rule=rule,
    )


# ---------------------------------------------------------------------------
# report file


REPORT_FORMAT = "quakebox-selection-v1"


def save_selection_report(path: str | Path, report: SelectionReport) -> None:
    payload = {
        "format": REPORT_FORMAT,
        "rule": fields.record(report.rule),
        "selected": list(report.selected),
        "tie_set_ids": report.tie_set_ids,
        "n_tie_models": report.distribution.n_models,
        "distribution": {c: fields.record(s) for c, s in report.distribution.stats.items()},
        "runs": [fields.record(r) for r in report.runs],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def save_distribution_table(path: str | Path, dist: WeightDistribution) -> None:
    """The tie-set's weight statistics as a TSV table, one row per code, its
    columns headed by the report's names for them."""
    lines = ["\t".join(["code", *map(fields.json_name, dataclass_fields(FeatureWeightStats))])]
    lines += ["\t".join([code, *map(repr, values)]) for code, *values in dist.table()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_selection_report(path: str | Path) -> SelectionReport:
    """Read a report file.  A missing or malformed field raises
    :class:`FormatError` naming the file and the field (``runs[3].val_mcc``)."""
    with fields.text_file(path) as fh:
        payload = fields.document(fh.read(), path, REPORT_FORMAT)

    fail = fields.in_file(path)
    runs = [fields.spec(EnsembleRunResult, r, "", fields.under(f"runs[{i}]", fail))
            for i, r in enumerate(fields.listed(payload, "runs", dict, fail))]
    stats = {code: fields.spec(FeatureWeightStats, s, "", fields.under(f"distribution.{code}", fail))
             for code, s in fields.table(payload, "distribution", dict, fail).items()}
    n_models = fields.get(payload, "n_tie_models", int, fail)
    return SelectionReport(
        runs=runs,
        tie_set_ids=list(fields.listed(payload, "tie_set_ids", int, fail)),
        distribution=WeightDistribution(stats=stats, n_models=n_models),
        selected=fields.listed(payload, "selected", str, fail),
        rule=_read_rule(payload, fail),
    )


def _read_rule(payload: Mapping[str, object], fail: fields.Fail) -> SelectionRule:
    try:
        return SelectionRule(
            min_fraction_nonzero=fields.get(payload, "rule.min_fraction_nonzero", float, fail),
            min_median_abs=fields.get(payload, "rule.min_median_abs", float, fail),
        )
    except ConfigError as exc:  # the rule's own check, named as a field of the file
        raise fail(f"rule.{exc.field}", exc.reason) from None
