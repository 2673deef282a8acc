"""Seismogram traces and the preprocessing chain.

A trace enters as a :class:`WaveformRecord` and is detrended, demeaned,
band-pass filtered (zero phase), and decimated, in that order.
:func:`preprocess_records` runs the chain over the (traces x samples) blocks
of :func:`blocks`, which feature extraction uses too: the line fit and the
mean are removed row by row, and the filter passes, the decimation and the
window crop each run once per block.  Every row is bit-identical to the chain
on that record alone; :func:`preprocess` is the same path on one record.  All
operations are pure functions: they never mutate their inputs and are safe to
run concurrently.  The only module state is a cache of Butterworth designs
(sections and initial filter state) keyed by (order, corners, btype, fs) and a
cache of line-fit design matrices keyed by length; each depends on nothing
else, the cached arrays are read-only, and each filter call gets its own copy
of the sections, so the functions stay pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np
from scipy import signal

from .errors import DegenerateInput, FormatError, InvalidBand, InvalidFactor

LABELS = ("event", "noise")
ROLES = ("all", "train", "validation", "test")  # which partition a data file holds


def check_role(path: str | Path, role: str) -> str:
    """``role`` if it is one of ROLES; a FormatError on line 1 (the header) otherwise."""
    if role not in ROLES:
        raise FormatError(f"{path}: role must be one of {ROLES}, got {role!r}", line=1)
    return role


class SamplesError(ValueError):
    """A record's samples are empty, not 1-D, or hold NaN or infinity."""


@dataclass(frozen=True, eq=False)
class WaveformRecord:
    """One seismogram trace with sampling metadata and provenance.

    ``event_id`` groups traces recorded by different stations for the same
    earthquake and is required exactly when ``label == "event"``; noise
    traces carry only their own ``trace_id``.  ``magnitude`` is the local
    magnitude from the catalog (at least 0.2 when present on an event).
    """

    trace_id: str
    station: str
    channel: str
    sample_rate: float
    samples: np.ndarray
    label: str
    event_id: Optional[str] = None
    magnitude: Optional[float] = None

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise SamplesError(f"{self.trace_id}: samples must be a non-empty 1-D array")
        if not np.all(np.isfinite(samples)):
            raise SamplesError(f"{self.trace_id}: samples contain NaN or infinity")
        samples = samples.copy()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if not self.sample_rate > 0:
            raise ValueError(f"{self.trace_id}: sample_rate must be positive")
        if self.label not in LABELS:
            raise ValueError(f"{self.trace_id}: label must be one of {LABELS}")
        if self.label == "event" and not self.event_id:
            raise ValueError(f"{self.trace_id}: event records require an event_id")
        if self.label == "noise" and self.event_id is not None:
            raise ValueError(f"{self.trace_id}: noise records must not carry an event_id")
        if self.label == "event" and self.magnitude is not None and not self.magnitude >= 0.2:
            raise ValueError(
                f"{self.trace_id}: event magnitude {self.magnitude} below catalog floor 0.2"
            )


@dataclass(frozen=True)
class PreprocessConfig:
    """Parameters of the preprocessing chain.

    ``window_len`` (optional) is the common post-decimation trace length in
    samples: longer traces are center-cropped to it and shorter ones are
    rejected, so every record in an experiment yields a comparable feature
    vector.
    """

    band_low_hz: float = 5.0
    band_high_hz: float = 25.0
    downsample_factor: int = 2
    filter_order: int = 4
    window_len: Optional[int] = None

    def __post_init__(self) -> None:
        if not (0 < self.band_low_hz < self.band_high_hz):
            raise InvalidBand(
                f"band must satisfy 0 < low < high, got [{self.band_low_hz}, {self.band_high_hz}]"
            )
        if not (isinstance(self.downsample_factor, int) and self.downsample_factor >= 1):
            raise InvalidFactor(f"downsample_factor must be a positive integer, got {self.downsample_factor!r}")
        if self.downsample_factor > sys.float_info.max:  # the rates and corners it divides are floats
            raise InvalidFactor("downsample_factor must lie within the float range")
        if not (isinstance(self.filter_order, int) and self.filter_order >= 1):
            raise ValueError(f"filter_order must be a positive integer, got {self.filter_order!r}")
        if self.window_len is not None and self.window_len < 1:
            raise ValueError(f"window_len must be positive, got {self.window_len}")

    def validate_against(self, fs: float) -> None:
        """Check the band against the Nyquist frequency of a concrete trace."""
        if not self.band_high_hz < fs / 2:
            raise InvalidBand(
                f"band_high_hz {self.band_high_hz} must lie below Nyquist {fs / 2} (fs={fs})"
            )


def demean(samples: np.ndarray) -> np.ndarray:
    """Remove the arithmetic mean."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise DegenerateInput("cannot demean an empty sequence")
    return x - x.mean()


@lru_cache(maxsize=64)
def _line_design(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``np.polyfit(t, x, deg=1)``'s time axis ``t``, its scaled Vandermonde
    matrix, the column scales and ``rcond`` for ``n`` samples, built once per
    length; the cached arrays are read-only."""
    t = np.arange(n, dtype=float)
    lhs = np.vander(t, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    t.flags.writeable = lhs.flags.writeable = scale.flags.writeable = False
    return t, lhs, scale, n * np.finfo(float).eps


def detrend_linear(samples: np.ndarray) -> np.ndarray:
    """Remove the least-squares straight line.

    The fit is ``np.polyfit(t, x, deg=1)`` step for step, with the design
    matrix cached per length instead of rebuilt on every call; the result is
    bit-identical.
    """
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise DegenerateInput("linear detrend needs at least 2 samples")
    t, lhs, scale, rcond = _line_design(x.size)
    slope, intercept = np.linalg.lstsq(lhs, x + 0.0, rcond)[0] / scale
    return x - (slope * t + intercept)


@lru_cache(maxsize=64)
def _butter_sos(
    order: int, corners, btype: str, fs: Optional[float] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Butterworth second-order sections and their step-response initial
    state (``sosfilt_zi``), designed once per argument set.

    The cached arrays are read-only so that no caller can change them;
    scipy's ``sosfilt`` refuses read-only coefficients, so filter with a
    ``.copy()``.
    """
    sos = signal.butter(order, corners, btype=btype, fs=fs, output="sos")
    zi = signal.sosfilt_zi(sos)
    sos.flags.writeable = zi.flags.writeable = False
    return sos, zi


def _filtfilt(design: tuple[np.ndarray, np.ndarray], x: np.ndarray, padlen: int) -> np.ndarray:
    """``signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)`` along
    the last axis of a trace or of a (traces x samples) block, step for step,
    with the cached initial state broadcast over the rows instead of a fresh
    ``sosfilt_zi`` on every call; every row is bit-identical to
    ``sosfiltfilt`` on that row alone."""
    sos, zi = design
    sos, zi = sos.copy(), zi[:, None, :]
    shape, x = x.shape, x.reshape(-1, x.shape[-1])
    if padlen > 0:  # mirror ``padlen`` samples at each end, edge samples not repeated
        x = np.concatenate((x[:, padlen:0:-1], x, x[:, -2 : -(padlen + 2) : -1]), axis=1)
    y, _ = signal.sosfilt(sos, x, zi=zi * x[None, :, :1])
    y, _ = signal.sosfilt(sos, y[:, ::-1], zi=zi * y[None, :, -1:])
    y = y[:, ::-1]
    return (y[:, padlen:-padlen] if padlen > 0 else y).reshape(shape)


def bandpass(samples: np.ndarray, fs: float, cfg: PreprocessConfig) -> np.ndarray:
    """Zero-phase Butterworth band-pass of a trace, or of each row of a
    (traces x samples) block.

    The filter runs forward and backward (``sosfiltfilt``), which squares the
    magnitude response and cancels the phase, so arrival times survive for
    feature extraction.  Edges are mirror-padded by one settling length
    (three periods of the low corner) to keep transients out of short traces.
    A band too narrow or too low for a stable design raises InvalidBand.
    """
    cfg.validate_against(fs)
    x = np.asarray(samples, dtype=float)
    if x.size < 2 or x.shape[-1] < 2:
        raise DegenerateInput("bandpass needs at least 2 samples")
    try:
        design = _butter_sos(cfg.filter_order, (cfg.band_low_hz, cfg.band_high_hz), "bandpass", fs)
    except ValueError as exc:  # numpy's LinAlgError is a ValueError
        raise InvalidBand(f"band [{cfg.band_low_hz}, {cfg.band_high_hz}] has no order-{cfg.filter_order} "
                          f"Butterworth design at fs={fs} ({exc})") from None
    settle = int(round(3 * fs / cfg.band_low_hz))
    return _filtfilt(design, x, min(x.shape[-1] - 1, settle))


def downsample(
    samples: np.ndarray, factor: int, *, assume_bandlimited: bool = False
) -> np.ndarray:
    """Keep every ``factor``-th sample of a trace, or of each row of a
    (traces x samples) block; output length is ceil(n / factor).

    Unless the caller guarantees the signal is already band-limited below the
    new Nyquist (the preprocessing chain does, via its band-pass), a
    zero-phase order-8 Butterworth low-pass at 0.8x the new Nyquist is
    applied first to prevent aliasing.
    """
    if not (isinstance(factor, int) and factor >= 1):
        raise InvalidFactor(f"factor must be a positive integer, got {factor!r}")
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise DegenerateInput("cannot downsample an empty sequence")
    if factor == 1:
        return x.copy()
    if not assume_bandlimited:
        try:
            design = _butter_sos(8, 0.8 / factor, "lowpass")
        except ValueError as exc:  # numpy's LinAlgError is a ValueError
            raise InvalidFactor(f"factor {factor} has no order-8 anti-alias Butterworth design "
                                f"({exc})") from None
        x = _filtfilt(design, x, min(x.shape[-1] - 1, 30 * factor))
    return x[..., ::factor].copy()


# rows per block, in preprocessing and extraction alike: a block's temporaries (the
# filter's padded copies, the autocorrelation's padded spectrum at up to 4n values a
# row, C19's window sums at about 10n) stay a few times one block's size, and a
# call's fixed cost is already spread over a few dozen rows
BLOCK_ROWS = 64


def blocks(keys: Iterable[Hashable]) -> Iterator[list[int]]:
    """Runs of at most BLOCK_ROWS positions of ``keys`` that share a key, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for group in groups.values():
        yield from (group[s : s + BLOCK_ROWS] for s in range(0, len(group), BLOCK_ROWS))


def _preprocess_block(group: Sequence[WaveformRecord], cfg: PreprocessConfig) -> np.ndarray:
    """The chain on records of one sample rate and one length, as one
    (traces x samples) block; the caller names the trace an error applies to."""
    fs = group[0].sample_rate
    # row by row: one line fit over the whole block rounds differently
    x = bandpass(np.array([demean(detrend_linear(r.samples)) for r in group]), fs, cfg)
    factor = cfg.downsample_factor
    bandlimited = cfg.band_high_hz < fs / 2 / factor  # 2 * factor may pass the float range
    try:
        x = downsample(x, factor, assume_bandlimited=bandlimited)
    except InvalidFactor as exc:
        raise InvalidFactor(f"preprocess.downsample_factor: {exc}") from None
    if cfg.window_len is not None:
        n = x.shape[1]
        if n < cfg.window_len:
            raise DegenerateInput(f"{n} samples after preprocessing, need {cfg.window_len}")
        start = (n - cfg.window_len) // 2
        x = x[:, start : start + cfg.window_len]
    return x


def preprocess_records(records: Sequence[WaveformRecord], cfg: PreprocessConfig) -> list[WaveformRecord]:
    """Detrend, demean, band-pass and decimate each record; results in input order.

    Records that share a sample rate and a length are filtered together in
    the blocks of :func:`blocks`; every row is bit-identical to the chain on
    that record alone.  An output's sample rate is its input's divided by
    ``cfg.downsample_factor``.  Decimation skips its own anti-alias filter
    only when the band-pass has already confined the signal below the
    post-decimation Nyquist.  When the config fixes a window length, each
    result is center-cropped to it.  Every error names the first trace, in
    input order, that it applies to: a trace too short to detrend or for the
    window, or whose samples overflow (:class:`DegenerateInput`), a band at
    or above its Nyquist frequency or without a stable design
    (:class:`InvalidBand`), and a factor without an anti-alias design
    (:class:`InvalidFactor`).
    """
    out: list = [None] * len(records)
    errors: dict[int, Exception] = {}  # each error, by the position of the trace it names
    for members in blocks((r.sample_rate, r.samples.size) for r in records):
        group = [records[i] for i in members]
        try:
            # samples near the float maximum may leave the float range: reported below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                block = _preprocess_block(group, cfg)
        except (DegenerateInput, InvalidBand, InvalidFactor) as exc:  # it applies to every trace of the block
            errors[members[0]] = type(exc)(f"{group[0].trace_id}: {exc}")
            continue
        for i, r, row in zip(members, group, block):
            try:
                out[i] = replace(r, samples=row, sample_rate=r.sample_rate / cfg.downsample_factor)
            except SamplesError:  # finite input, but the chain's arithmetic left the float range
                errors[i] = DegenerateInput(f"{r.trace_id}: samples overflow the float range during preprocessing")
    if errors:
        raise errors[min(errors)]
    return out


def preprocess(record: WaveformRecord, cfg: PreprocessConfig) -> WaveformRecord:
    """:func:`preprocess_records` on one record."""
    return preprocess_records([record], cfg)[0]
