"""Classification metrics robust to class imbalance, plus paired significance.

The event class is the positive class throughout.  The Matthews correlation
coefficient is the primary score because accuracy saturates as the noise
share grows; both are reported.  Model pairs are compared with the exact
(binomial) McNemar test on their disagreements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DegenerateInput, ShapeMismatch
from .fields import record

EVENT = "event"


@dataclass(frozen=True)
class ConfusionMatrix:
    """TP/TN/FP/FN counts with events as positives."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        for name in ("tp", "tn", "fp", "fn"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {v!r}")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class EvalReport:
    """Confusion matrix with derived metrics for one evaluation set."""

    matrix: ConfusionMatrix
    mcc: float
    accuracy: float
    n_pos: int
    n_neg: int
    noise_ratio: float | None  # None (JSON null) without positives

    def to_dict(self) -> dict:
        cell = record(self)
        return {**record(cell.pop("matrix")), **cell}


def confusion(labels: Sequence[str], preds: Sequence[str]) -> ConfusionMatrix:
    """Tally a confusion matrix from paired label/prediction sequences."""
    if len(labels) != len(preds):
        raise ShapeMismatch(
            f"labels ({len(labels)}) and predictions ({len(preds)}) differ in length"
        )
    if not labels:
        raise DegenerateInput("cannot build a confusion matrix from empty sequences")
    tp = tn = fp = fn = 0
    for lab, pred in zip(labels, preds):
        if lab == EVENT:
            if pred == EVENT:
                tp += 1
            else:
                fn += 1
        else:
            if pred == EVENT:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)


def mcc(m: ConfusionMatrix) -> float:
    """Matthews correlation coefficient in [-1, 1].

    The numerator and the denominator product are formed in exact integer
    arithmetic before the single floating square root; large-count matrices
    from high noise-ratio sweeps would otherwise lose precision.  When any
    marginal (TP+FP, TP+FN, TN+FP, TN+FN) is zero the coefficient is defined
    as 0, the score of a single-class assignment.
    """
    if m.total == 0:
        raise DegenerateInput("confusion matrix is empty")
    num = m.tp * m.tn - m.fp * m.fn
    den_sq = (m.tp + m.fp) * (m.tp + m.fn) * (m.tn + m.fp) * (m.tn + m.fn)
    if den_sq == 0:
        return 0.0
    return num / math.sqrt(den_sq)


def accuracy(m: ConfusionMatrix) -> float:
    """Fraction of correct assignments."""
    if m.total == 0:
        raise DegenerateInput("confusion matrix is empty")
    return (m.tp + m.tn) / m.total


def report(labels: Sequence[str], preds: Sequence[str]) -> EvalReport:
    """Confusion matrix plus derived metrics for one labeled evaluation set."""
    return summarize(confusion(labels, preds))


def summarize(m: ConfusionMatrix) -> EvalReport:
    """A confusion matrix with its derived metrics."""
    n_pos = m.tp + m.fn
    n_neg = m.tn + m.fp
    return EvalReport(
        matrix=m,
        mcc=mcc(m),
        accuracy=accuracy(m),
        n_pos=n_pos,
        n_neg=n_neg,
        noise_ratio=n_neg / n_pos if n_pos else None,
    )


def mcnemar_test(
    labels: Sequence[str],
    preds_a: Sequence[str],
    preds_b: Sequence[str],
    level: float = 0.05,
) -> Mapping[str, object]:
    """Exact two-sided McNemar test for two classifiers on the same examples.

    Only discordant pairs inform the test: ``b`` counts examples A got right
    and B got wrong, ``c`` the reverse.  Under the null both kinds of
    disagreement are equally likely, so the p-value is the exact two-sided
    binomial tail of min(b, c) in b + c trials at rate 1/2 (computed with
    integer binomial coefficients, capped at 1).
    """
    if not (len(labels) == len(preds_a) == len(preds_b)):
        raise ShapeMismatch(
            "labels/preds_a/preds_b lengths differ: "
            f"{len(labels)}/{len(preds_a)}/{len(preds_b)}"
        )
    b = c = 0
    for lab, pa, pb in zip(labels, preds_a, preds_b):
        a_ok = pa == lab
        b_ok = pb == lab
        if a_ok and not b_ok:
            b += 1
        elif b_ok and not a_ok:
            c += 1
    n = b + c
    if n == 0:
        p = 1.0
    else:
        k = min(b, c)
        tail = sum(math.comb(n, i) for i in range(k + 1))
        p = min(1.0, 2.0 * tail / 2**n)
    return {"b": b, "c": c, "p_value": p, "significant": p <= level}
