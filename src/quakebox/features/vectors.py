"""Feature vectors, the feature matrix, standardization, and the matrix file format.

A :class:`FeatureVector` holds one trace's extracted values as an ordered
code -> value map; rows exist only where one trace is extracted or scored.
Every collection is a :class:`FeatureMatrix`.  Only :func:`standardize_fit`,
:func:`standardize_apply` and :func:`write_matrix`, which callers hand the
vector lists of :func:`extract_matrix`, also take a sequence of vectors; they
convert it once with :meth:`FeatureMatrix.from_rows`.  Standardization
parameters are always fitted on training data only (sample standard
deviation, ddof=1 — the repo-wide estimator convention).

Records reach feature values by one path: :func:`extract_matrix` stacks
them into blocks for :meth:`FeatureRegistry.extract_block`, and
:func:`extract_vector` is :func:`extract_matrix` on one record.

:func:`read_header` and :func:`read_table` read every tab-separated input,
matrices and ``bench.ingest_predictions``' files alike.  The rows are read
line by line, never as one string split afterwards, and parsed a column block
at a time: the numeric columns of all rows in one ``np.loadtxt`` call.  Whole
columns are checked; only a file that fails a check is walked line by line,
to name its first bad line, and a repeated trace id is refused naming both lines.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import compress, repeat
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, TextIO, Tuple, Union

import numpy as np

from ..errors import (
    DegenerateInput,
    DegenerateSeries,
    FormatError,
    MissingFeature,
    MissingParams,
    ShapeMismatch,
    ZeroVariance,
)
from ..fields import text_file, unique_ids
from ..waveform import LABELS, WaveformRecord, blocks, check_role
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


def extract_vector(
    record: WaveformRecord,
    registry: FeatureRegistry,
    selected: Sequence[str] | None = None,
) -> FeatureVector:
    """Extract the selected features, in ``selected`` order, from one record:
    :func:`extract_matrix` on a list of one, failures included.
    ``selected=None`` means the whole registry."""
    return extract_matrix([record], registry, selected)[0]


def extract_matrix(
    records: Iterable[WaveformRecord],
    registry: FeatureRegistry,
    selected: Sequence[str] | None = None,
) -> List[FeatureVector]:
    """Extract vectors of the ``selected`` codes, in that order (``None``: the
    whole registry), for many records, in record order; all-or-nothing.

    Records of one sample count are stacked into the (traces x samples)
    blocks of :func:`~quakebox.waveform.blocks`, and each block goes through
    one :meth:`FeatureRegistry.extract_block` call: one length, variance and
    finiteness check, one z-score, and one kernel call per feature.  A
    trace's values and failure message do not depend on the records beside
    it.  Degenerate traces are collected and reported together, in record
    order, so a single bad trace cannot silently shrink a dataset.
    """
    records = list(records)
    codes = registry.codes() if selected is None else tuple([registry.get(c).code for c in selected])
    vectors: List[FeatureVector | None] = [None] * len(records)
    failures: dict[int, str] = {}
    for rows in blocks(rec.samples.size for rec in records):
        values, failed = registry.extract_block(codes, np.array([records[i].samples for i in rows]))
        for k, (i, row) in enumerate(zip(rows, values.tolist())):
            rec = records[i]
            if k in failed:
                failures[i] = f"trace {rec.trace_id}: {failed[k]}"
            else:
                vectors[i] = FeatureVector(rec.trace_id, dict(zip(codes, row)), rec.label)
    if failures:
        raise DegenerateSeries(
            f"{len(failures)} trace(s) failed feature extraction: "
            + "; ".join(failures[i] for i in sorted(failures))
        )
    return vectors


# ---------------------------------------------------------------------------
# the feature matrix


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature values of many traces: ``X[i, j]`` is feature ``codes[j]`` of
    trace ``trace_ids[i]``, labelled ``labels[i]``.  ``X`` is a private
    float64 copy, read-only, finite and C-contiguous, so that column
    reductions always sum in one order."""

    X: np.ndarray
    codes: Tuple[str, ...]
    trace_ids: Tuple[str, ...]
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float, order="C")
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        if X.shape != (len(self.trace_ids), len(self.codes)) or len(self.labels) != len(X):
            raise ShapeMismatch(f"{X.shape} matrix for {len(self.trace_ids)} trace ids, "
                                f"{len(self.labels)} labels and {len(self.codes)} codes")
        if not np.isfinite(X).all():
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise FormatError(f"trace {self.trace_ids[i]}: feature {self.codes[j]} is not finite ({X[i, j]})")

    def __len__(self) -> int:
        return len(self.trace_ids)

    @property
    def is_event(self) -> np.ndarray:
        """Boolean mask of the rows labelled ``event``."""
        return np.fromiter(map("event".__eq__, self.labels), dtype=bool, count=len(self.labels))

    @classmethod
    def from_rows(cls, rows: Rows) -> FeatureMatrix:
        """The matrix of ``rows``, columns in the first row's order; the identity on a matrix.

        A row with more or fewer codes than the first raises FormatError (as
        a matrix line with the wrong column count does); a row with as many
        that lacks one of them raises MissingFeature.  Both name the trace.
        """
        if not rows:
            raise DegenerateInput("empty feature collection")
        if isinstance(rows, cls):
            return rows
        codes = tuple(rows[0].values)
        values = []
        for row in rows:
            if len(row.values) != len(codes):
                differ = ", ".join(sorted(set(codes).symmetric_difference(row.values)))
                raise FormatError(f"trace {row.trace_id}: inconsistent feature codes in collection ({differ})")
            try:
                values.append([row.values[c] for c in codes])
            except KeyError as exc:
                raise MissingFeature(f"trace {row.trace_id}: vector lacks feature {exc}") from exc
        return cls(values, codes, tuple([r.trace_id for r in rows]), tuple([r.label for r in rows]))

    def columns(self, codes: Sequence[str]) -> FeatureMatrix:
        """The matrix restricted to ``codes``, in that order."""
        codes = tuple(codes)
        if codes == self.codes:
            return self
        missing = [c for c in codes if c not in self.codes]
        if missing:
            raise MissingFeature(f"feature matrix lacks feature(s) {', '.join(missing)}")
        return replace(self, X=self.X[:, [self.codes.index(c) for c in codes]], codes=codes)

    def take(self, index) -> FeatureMatrix:
        """The rows picked by ``index``: integer positions or a boolean mask;
        ``self`` when they are every row, in order."""
        positions = np.arange(len(self))
        rows = positions[index]
        if np.array_equal(rows, positions):
            return self
        picked = rows.tolist()
        return replace(self, X=self.X[rows], trace_ids=tuple(map(self.trace_ids.__getitem__, picked)),
                       labels=tuple(map(self.labels.__getitem__, picked)))


Rows = Union[FeatureMatrix, Sequence[FeatureVector]]


# ---------------------------------------------------------------------------
# standardization


@dataclass(frozen=True)
class StandardizationParams:
    """Per-feature location/scale fitted on training data."""

    means: Mapping[str, float]
    stds: Mapping[str, float]


def _stds(m: FeatureMatrix) -> np.ndarray:
    return m.X.std(axis=0, ddof=1) if len(m) > 1 else np.zeros(len(m.codes))


def constant_codes(m: FeatureMatrix) -> List[str]:
    """The codes whose column is constant across ``m`` (a sample standard
    deviation that is not positive): those :func:`standardize_fit` refuses."""
    return [c for c, s in zip(m.codes, _stds(m)) if not s > 0]


def standardize_fit(data: Rows) -> StandardizationParams:
    """Fit per-feature mean and standard deviation (ddof=1).

    Features constant across the collection are reported together by code
    in a :class:`ZeroVariance` error, since a zero scale cannot
    standardize anything.
    """
    m = FeatureMatrix.from_rows(data)
    constant = constant_codes(m)
    if constant:
        raise ZeroVariance(f"feature(s) constant across collection: {', '.join(constant)}")
    return StandardizationParams(
        means={c: float(v) for c, v in zip(m.codes, m.X.mean(axis=0))},
        stds={c: float(s) for c, s in zip(m.codes, _stds(m))},
    )


@np.errstate(over="ignore")  # a z-score beyond the float range is refused below, naming the std
def standardize_apply(data: Rows, params: StandardizationParams) -> FeatureMatrix:
    """Z-score every row with previously fitted parameters."""
    m = FeatureMatrix.from_rows(data)
    missing = [c for c in m.codes if c not in params.means or c not in params.stds]
    if missing:
        raise MissingParams(f"no standardization params for {', '.join(missing)}")
    means = np.array([params.means[c] for c in m.codes])
    stds = np.array([params.stds[c] for c in m.codes])
    z = (m.X - means) / stds
    try:
        return FeatureMatrix(z, m.codes, m.trace_ids, m.labels)
    except FormatError:  # the one check FeatureMatrix makes of a matrix of the right shape
        i, j = np.argwhere(~np.isfinite(z))[0]
        raise FormatError(f"standardization.stds.{m.codes[j]}: {stds[j].item()!r} takes the z-score of trace "
                          f"{m.trace_ids[i]} beyond the float range (value {m.X[i, j].item()!r}, "
                          f"mean {means[j].item()!r})") from None


# ---------------------------------------------------------------------------
# matrix file format (see docs/formats.md)


FORMAT_LINE_PREFIX = "# quakebox-features-v1"
_ROW_BREAKS = frozenset("\t\r\n")  # a name or cell holding one of these breaks its row
_SURROGATE = re.compile("[\ud800-\udfff]")  # a name holding one has no UTF-8 form


def write_matrix(path: str | Path, data: Rows, role: str = "all") -> None:
    """Write a matrix as TSV at full float precision; one that :func:`read_matrix`
    would refuse is refused before the file opens, naming the code or trace at fault."""
    m = FeatureMatrix.from_rows(data)
    path = Path(path)
    check_role(path, role)
    header = ("trace_id", "label") + m.codes
    for code in m.codes:
        if not code or header.count(code) > 1 or not _ROW_BREAKS.isdisjoint(code):
            raise FormatError(f"{path}: code {code!r}: a column needs a name of its own, with no tab, CR or LF")
        if _SURROGATE.search(code):
            raise FormatError(f"{path}: code {code!r}: a code with a surrogate has no UTF-8 form")
    seen = set()
    for tid, label in zip(m.trace_ids, m.labels):
        if not _ROW_BREAKS.isdisjoint(tid):
            raise FormatError(f"{path}: trace {tid!r}: a trace_id with a tab, CR or LF would break its row")
        if not tid.isascii() and _SURROGATE.search(tid):
            raise FormatError(f"{path}: trace {tid!r}: a trace_id with a surrogate has no UTF-8 form")
        if tid in seen:
            raise FormatError(f"{path}: trace {tid!r}: trace_id repeats an earlier row's")
        if label not in LABELS:
            raise FormatError(f"{path}: trace {tid!r}: label must be one of {LABELS}, got {label!r}")
        seen.add(tid)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{FORMAT_LINE_PREFIX} role={role}\n")
        fh.write("\t".join(header) + "\n")
        # repr of Python floats: repr(np.float64(x)) is "np.float64(x)" under numpy 2
        for trace_id, label, row in zip(m.trace_ids, m.labels, m.X.tolist()):
            fh.write("\t".join([trace_id, label, *map(repr, row)]) + "\n")


def table_error(path: str | Path, line: int, message: str) -> FormatError:
    """A FormatError naming the file and the line of a tab-separated input."""
    return FormatError(f"{path}: {message}", line=line)


def number(cell: str) -> float:
    """``cell`` as a number of the grammar ``np.loadtxt`` reads: an ASCII literal
    ``float`` parses, padded with any whitespace ``str.strip`` removes; else
    (an underscore, a non-ASCII digit) a ValueError worded as ``float``'s."""
    core = cell.strip()
    if core.isascii() and "_" not in core:
        try:
            return float(core)
        except ValueError:
            pass
    raise ValueError(f"could not convert string to float: {cell!r}")


def read_header(path: str | Path, fh: TextIO, lineno: int) -> List[str]:
    """The header at line ``lineno`` of ``fh``; an empty or repeated column
    name is refused before the caller's own header checks."""
    header = fh.readline().rstrip("\n").split("\t")
    if "" in header:
        raise table_error(path, lineno, f"header column {header.index('') + 1} has an empty name")
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise table_error(path, lineno, f"column(s) repeated in header: {', '.join(repeated)}")
    return header


@dataclass(frozen=True)
class Table:
    """The checked non-blank rows below a header: row ``i`` is on line
    ``linenos[i]``; ``text`` holds the text columns asked for, and ``values``
    the numeric ones as a (rows x columns) array."""

    linenos: List[int]
    text: Dict[str, List[str]]
    values: np.ndarray


def read_table(path: str | Path, fh: TextIO, header: List[str], lineno: int,
               text: Sequence[str], numeric: Sequence[str], within: Tuple[float, float] | None = None) -> Table:
    """The rows below the header at line ``lineno`` of ``fh``, read line by line;
    one ``np.loadtxt`` call reads the ``numeric`` columns and rounds as ``float``
    does.  A line keeps its newline except in a cell of the header's last
    column, and blank lines are skipped but counted.

    Every row must hold one cell per header column; a ``label`` column among
    ``text`` must hold one of LABELS; each ``numeric`` cell must be a
    :func:`number`, and lie in the closed range ``within`` when one is given.
    Whole columns are checked at once; a table that fails is walked in line
    order and its first bad line is refused naming it, whatever its fault (a
    bad cell names its column).  Then a ``trace_id`` that repeats an earlier
    row's is refused by :func:`~quakebox.fields.unique_ids`.
    """
    lines = fh.readlines()  # each keeps its newline, but a last one may lack it
    linenos = list(range(lineno + 1, lineno + 1 + len(lines)))
    if any(map(str.isspace, lines)):  # a blank line is skipped but counted
        keep = [not line.isspace() for line in lines]
        linenos, lines = list(compress(linenos, keep)), list(compress(lines, keep))
    columns: Dict[str, List[str]] = {}
    values = None
    last = len(header) - 1
    # loadtxt(usecols=...) would drop an extra column silently
    if set(map(str.count, lines, repeat("\t"))) <= {last}:
        # one column at a time, so that no list of rows is kept for the collector to walk
        for name, j in zip(text, map(header.index, text)):
            cells = [line.split("\t", j + 1)[j] for line in lines]
            columns[name] = [cell.rstrip("\n") for cell in cells] if j == last else cells
        values = np.empty((len(lines), len(numeric)))
        if lines and numeric:
            try:
                values = np.loadtxt(lines, delimiter="\t", usecols=[header.index(c) for c in numeric],
                                    ndmin=2, comments=None, quotechar=None)
            except ValueError:
                values = None
    label = header.index("label") if "label" in text else None
    if (values is None or (label is not None and not set(columns["label"]) <= set(LABELS))
            or (within is not None and not np.all((within[0] <= values) & (values <= within[1])))):  # NaN fails
        for n, line in zip(linenos, lines):
            cells = line.rstrip("\n").split("\t")
            if len(cells) != len(header):
                raise table_error(path, n, f"expected {len(header)} columns, found {len(cells)}")
            if label is not None and cells[label] not in LABELS:
                raise table_error(path, n, f"label must be one of {LABELS}, got {cells[label]!r}")
            for column in numeric:
                try:
                    value = number(cells[header.index(column)])
                except ValueError as exc:
                    raise table_error(path, n, f"{column}: {exc}") from None
                if within is not None and not within[0] <= value <= within[1]:
                    raise table_error(path, n, f"{column} {value} outside [{within[0]:g}, {within[1]:g}]")
    unique_ids(path, columns["trace_id"], linenos)
    return Table(linenos, columns, values)


def read_matrix(path: str | Path) -> Tuple[FeatureMatrix, str]:
    """Read a TSV feature matrix; returns (matrix, role).  A bad row, or one
    that repeats an earlier row's trace id, fails naming the file and line."""
    with text_file(path) as fh:
        tokens = fh.readline().split()
        if tokens[:2] != FORMAT_LINE_PREFIX.split():
            raise FormatError(f"{path}: not a quakebox feature matrix", line=1)
        role = "all"
        for k, token in enumerate(tokens[2:]):
            if k or not token.startswith("role="):
                raise FormatError(f"{path}: format line token {token!r}: the line takes one role=<role> "
                                  "and nothing else", line=1)
            role = token[len("role="):]
        check_role(path, role)
        header = read_header(path, fh, 2)
        if header[:2] != ["trace_id", "label"]:
            raise table_error(path, 2, "header must start with trace_id<TAB>label")
        codes = tuple(header[2:])
        if not codes:
            raise table_error(path, 2, "header has no feature columns")
        table = read_table(path, fh, header, 2, ("trace_id", "label"), codes)
    trace_ids, X = table.text["trace_id"], table.values
    if not trace_ids:
        raise FormatError(f"{path}: no data rows")
    try:
        return FeatureMatrix(X, codes, tuple(trace_ids), tuple(table.text["label"])), role
    except FormatError as exc:  # a non-finite cell: name its line too
        raise table_error(path, table.linenos[np.argwhere(~np.isfinite(X))[0, 0]], str(exc)) from None
