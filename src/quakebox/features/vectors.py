"""Feature vectors, matrices, standardization, and the matrix file format.

A :class:`FeatureVector` holds one trace's extracted values as an ordered
code -> value map.  Collections of vectors act as the feature matrix;
helpers convert them to numpy arrays for the model, and standardization
parameters are always fitted on training data only (sample standard
deviation, ddof=1 — the repo-wide estimator convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from ..errors import (
    DegenerateInput,
    DegenerateSeries,
    FormatError,
    MissingFeature,
    MissingParams,
    ZeroVariance,
)
from ..waveform import LABELS, WaveformRecord
from .registry import FeatureRegistry


@dataclass(frozen=True)
class FeatureVector:
    """Extracted feature values for one trace."""

    trace_id: str
    values: Mapping[str, float]
    label: str

    def __post_init__(self) -> None:
        clean = {}
        for code, v in self.values.items():
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"{self.trace_id}: feature {code} is not finite ({v})")
            clean[str(code)] = v
        object.__setattr__(self, "values", clean)

    def codes(self) -> tuple[str, ...]:
        return tuple(self.values)


def extract_vector(
    record: WaveformRecord,
    registry: FeatureRegistry,
    selected: Sequence[str] | None = None,
) -> FeatureVector:
    """Extract the selected features (registry order) from one record.

    Extraction failures are re-raised with the failing code and trace id
    attached.  ``selected=None`` means the whole registry.
    """
    if selected is None:
        codes = registry.codes()
    else:
        wanted = set(selected)
        for code in wanted:
            registry.get(code)  # UnknownFeature for unregistered codes
        codes = tuple(c for c in registry.codes() if c in wanted)
    try:
        values = registry.extract_values(codes, record.samples)
    except DegenerateSeries as exc:
        raise DegenerateSeries(f"trace {record.trace_id}: {exc}") from exc
    return FeatureVector(trace_id=record.trace_id, values=values, label=record.label)


def extract_matrix(
    records: Iterable[WaveformRecord],
    registry: FeatureRegistry,
    selected: Sequence[str] | None = None,
) -> List[FeatureVector]:
    """Extract vectors for many records; all-or-nothing.

    Degenerate traces are collected and reported together so a single bad
    trace cannot silently shrink a dataset.
    """
    vectors: List[FeatureVector] = []
    failures: List[str] = []
    for rec in records:
        try:
            vectors.append(extract_vector(rec, registry, selected))
        except DegenerateSeries as exc:
            failures.append(f"{rec.trace_id} ({exc})")
    if failures:
        raise DegenerateSeries(
            f"{len(failures)} trace(s) failed feature extraction: " + "; ".join(failures)
        )
    return vectors


# ---------------------------------------------------------------------------
# standardization


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature location/scale fitted on training data."""

    means: Mapping[str, float]
    stds: Mapping[str, float]

    def codes(self) -> tuple[str, ...]:
        return tuple(self.means)


def standardize_fit(vectors: Sequence[FeatureVector]) -> StandardizationParams:
    """Fit per-feature mean and standard deviation (ddof=1).

    Every vector must share the same code set; features constant across the
    collection are reported together by code in a :class:`ZeroVariance`
    error, since a zero scale cannot standardize anything.
    """
    matrix, _, codes = to_arrays(vectors)
    means = matrix.mean(axis=0)
    stds = matrix.std(axis=0, ddof=1) if matrix.shape[0] > 1 else np.zeros(len(codes))
    constant = [c for c, s in zip(codes, stds) if not s > 0]
    if constant:
        raise ZeroVariance(f"feature(s) constant across collection: {', '.join(constant)}")
    return StandardizationParams(
        means={c: float(m) for c, m in zip(codes, means)},
        stds={c: float(s) for c, s in zip(codes, stds)},
    )


def zscore(X: np.ndarray, params: StandardizationParams, codes: Sequence[str]) -> np.ndarray:
    """Z-score the columns of ``X``, which hold ``codes`` in order."""
    missing = [c for c in codes if c not in params.means]
    if missing:
        raise MissingParams(f"no standardization params for {', '.join(missing)}")
    means = np.array([params.means[c] for c in codes])
    stds = np.array([params.stds[c] for c in codes])
    return (X - means) / stds


def standardize_apply(
    vectors: Sequence[FeatureVector], params: StandardizationParams
) -> List[FeatureVector]:
    """Z-score every vector (all with one code set) with previously fitted parameters."""
    if not vectors:
        return []
    codes = vectors[0].codes()
    for vec in vectors:
        if vec.codes() != codes:
            raise FormatError(f"trace {vec.trace_id}: inconsistent feature codes in collection")
    X, _, _ = to_arrays(vectors, codes)
    return [
        FeatureVector(trace_id=vec.trace_id, values=dict(zip(codes, row)), label=vec.label)
        for vec, row in zip(vectors, zscore(X, params, codes).tolist())
    ]


def to_arrays(
    vectors: Sequence[FeatureVector], codes: Sequence[str] | None = None
) -> Tuple[np.ndarray, np.ndarray, Tuple[str, ...]]:
    """(X, y01, codes) arrays for model fitting; y is 1 for events.  A vector
    lacking one of ``codes`` (default: the first vector's) raises MissingFeature."""
    if not vectors:
        raise DegenerateInput("empty feature collection")
    codes = vectors[0].codes() if codes is None else tuple(codes)
    try:
        X = np.array([[vec.values[c] for c in codes] for vec in vectors], dtype=float)
    except KeyError as exc:
        bad = next(vec for vec in vectors if any(c not in vec.values for c in codes))
        raise MissingFeature(f"trace {bad.trace_id}: vector lacks feature {exc}") from exc
    y = np.array([1.0 if v.label == "event" else 0.0 for v in vectors])
    return X, y, codes


# ---------------------------------------------------------------------------
# matrix file format (see docs/formats.md)


FORMAT_LINE_PREFIX = "# quakebox-features-v1"


def write_matrix(path: str | Path, vectors: Sequence[FeatureVector], role: str = "all") -> None:
    """Write vectors as a TSV matrix at full float precision."""
    if not vectors:
        raise DegenerateInput("refusing to write an empty feature matrix")
    codes = vectors[0].codes()
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{FORMAT_LINE_PREFIX} role={role}\n")
        fh.write("\t".join(("trace_id", "label") + codes) + "\n")
        for vec in vectors:
            if vec.codes() != codes:
                raise FormatError(
                    f"trace {vec.trace_id}: inconsistent feature codes in collection"
                )
            row = [vec.trace_id, vec.label] + [repr(vec.values[c]) for c in codes]
            fh.write("\t".join(row) + "\n")


def read_matrix(path: str | Path) -> Tuple[List[FeatureVector], str]:
    """Read a TSV feature matrix; returns (vectors, role)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if not first.startswith(FORMAT_LINE_PREFIX):
            raise FormatError(f"{path}: not a quakebox feature matrix", line=1)
        role = "all"
        for token in first.split():
            if token.startswith("role="):
                role = token.split("=", 1)[1]
        header = fh.readline().rstrip("\n").split("\t")
        if header[:2] != ["trace_id", "label"]:
            raise FormatError("header must start with trace_id<TAB>label", line=2)
        codes = tuple(header[2:])
        repeated = sorted({c for c in codes if codes.count(c) > 1})
        if repeated:
            raise FormatError(f"feature code(s) repeated in header: {', '.join(repeated)}", line=2)
        vectors: List[FeatureVector] = []
        for lineno, line in enumerate(fh, start=3):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise FormatError(
                    f"expected {len(header)} columns, found {len(parts)}", line=lineno
                )
            if parts[1] not in LABELS:
                raise FormatError(f"label must be one of {LABELS}, got {parts[1]!r}", line=lineno)
            try:
                values = {c: float(v) for c, v in zip(codes, parts[2:])}
                vectors.append(
                    FeatureVector(trace_id=parts[0], values=values, label=parts[1])
                )
            except ValueError as exc:
                raise FormatError(str(exc), line=lineno) from exc
    return vectors, role
