"""The 22 canonical time-series features.

Each function is a block kernel: it maps the rows of a
:class:`~quakebox.features.registry.SeriesBlock` to one value per row, each
independent of the other rows.  The canonical values are defined on
standardized input, so every kernel here reads the block's z-scored rows
(sample standard deviation, ddof=1), which also makes every one of them
invariant to affine transforms ``x -> a*x + b`` with ``a > 0``.  Constant
series are rejected by the registry before dispatch, so kernels here may
assume nonzero variance.

Intermediates that several features share (the successive differences,
C14's and C15's values, from one integer walk of prefix medians per row and
sign in :func:`outlier_timings`, the autocorrelation and its first zero
crossing, the periodogram) are computed once per block by the block object.
Every reduction runs along one row, never across rows, so a row's value does
not depend on the rows beside it; where a statistic sums a per-row selection
of entries (a compressed array whose length varies by row), the kernel sums
that row alone.  Formula notes live on each kernel.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .registry import SeriesBlock


# ---------------------------------------------------------------------------
# shared intermediates and helpers


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def autocorrelation(rows: np.ndarray) -> np.ndarray:
    """Linear autocorrelation of each row at lags 0..n-1, normalized by lag 0.

    Computed by FFT with zero padding to twice the next power of two, which
    makes the circular correlation exact for all linear lags.  The power
    spectrum is formed one row at a time: numpy's complex multiply rounds a
    2-D operand differently from a 1-D one, and a row's value must not
    depend on its block.
    """
    n = rows.shape[1]
    nfft = 2 * _next_pow2(n)
    # rows.sum(...) / n is rows.mean(...), bit for bit, without its Python overhead
    spec = np.fft.rfft(rows - rows.sum(axis=1, keepdims=True) / n, nfft)
    for row in spec:
        row[:] = row * np.conj(row)
    acov = np.fft.irfft(spec, nfft)[:, :n]
    return acov / acov[:, :1]


def first_zero_crossing(acf: np.ndarray) -> np.ndarray:
    """Per row, the smallest positive lag where the autocorrelation is <= 0
    (n if none)."""
    below = acf[:, 1:] <= 0
    return np.where(below.any(axis=1), below.argmax(axis=1) + 1, acf.shape[1])


def one_sided_power_spectrum(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular-window periodogram of each row, zero-padded to the next
    power of two.

    Returns (angular frequencies, spectral density per row), one-sided with
    interior bins doubled, normalized for unit sampling rate.
    """
    n = rows.shape[1]
    nfft = _next_pow2(n)
    pxx = np.abs(np.fft.rfft(rows, nfft)) ** 2 / n
    pxx[:, 1:-1] *= 2.0
    freqs = np.arange(pxx.shape[1]) / nfft
    return 2.0 * np.pi * freqs, pxx / (2.0 * np.pi)


def _first(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a boolean matrix: whether any entry is set, and the index
    of the first set entry (0 where none is)."""
    return mask.any(axis=1), mask.argmax(axis=1)


def _row_bincount(idx: np.ndarray, nbins: int) -> np.ndarray:
    """Per row of an integer matrix with entries in [0, nbins): the count of
    each value, as a (rows x nbins) float matrix."""
    offsets = nbins * np.arange(len(idx))[:, None]
    return np.bincount((idx + offsets).ravel(), minlength=nbins * len(idx)).reshape(-1, nbins).astype(float)


def _coarse_grain_3(rows: np.ndarray) -> np.ndarray:
    """Symbolize each row into 3 near-equiprobable groups 0, 1, 2 split at
    its 1/3 and 2/3 quantiles.

    The quantiles use plotting positions (k + 0.5)/n with linear
    interpolation (Hazen).  Values equal to a split point go to the lower group.
    """
    q1, q2 = np.quantile(rows, [1.0 / 3.0, 2.0 / 3.0], axis=1, method="hazen")[:, :, None]
    return (rows > q1).astype(np.int64) + (rows > q2)


def _longest_run(mask: np.ndarray) -> np.ndarray:
    """Per row: length of the longest run of True values."""
    pos = np.arange(1, mask.shape[1] + 1)
    last_false = np.maximum.accumulate(np.where(mask, 0, pos), axis=1)
    return (pos - last_false).max(axis=1)


# ---------------------------------------------------------------------------
# distribution shape


def histogram_mode_5(block: SeriesBlock) -> np.ndarray:
    """Mode of the value distribution over a 5-bin equal-width histogram.

    Ties between equally full bins are resolved by averaging their centers.
    """
    return _histogram_mode(block.z, 5)


def histogram_mode_10(block: SeriesBlock) -> np.ndarray:
    """Mode of the value distribution over a 10-bin equal-width histogram."""
    return _histogram_mode(block.z, 10)


def _histogram_mode(z: np.ndarray, nbins: int) -> np.ndarray:
    lo = z.min(axis=1, keepdims=True)
    width = (z.max(axis=1, keepdims=True) - lo) / nbins
    counts = _row_bincount(np.clip(((z - lo) / width).astype(np.int64), 0, nbins - 1), nbins)
    edges = lo + width * np.arange(nbins + 1)
    centers = 0.5 * (edges[:, :-1] + edges[:, 1:])
    top = counts == counts.max(axis=1, keepdims=True)
    out = centers[np.arange(len(z)), top.argmax(axis=1)]
    for k in np.flatnonzero(top.sum(axis=1) > 1).tolist():
        out[k] = centers[k][top[k]].mean()
    return out


# ---------------------------------------------------------------------------
# linear autocorrelation structure


def acf_first_1e_crossing(block: SeriesBlock) -> np.ndarray:
    """First crossing of the autocorrelation below 1/e, linearly interpolated.

    Scans lags 1..n-2; returns n when the autocorrelation never drops that
    far.
    """
    ac = block.acf
    n = ac.shape[1]
    thresh = 1.0 / np.e
    hit, first = _first(ac[:, 1 : n - 1] < thresh)
    out = np.full(len(ac), float(n))
    rows = np.flatnonzero(hit)
    k = first[rows] + 1
    out[rows] = (k - 1) + (thresh - ac[rows, k - 1]) / (ac[rows, k] - ac[rows, k - 1])
    return out


def acf_first_minimum(block: SeriesBlock) -> np.ndarray:
    """Lag of the first local minimum of the autocorrelation (n if none)."""
    ac = block.acf
    mid = ac[:, 1:-1]
    hit, first = _first((mid < ac[:, :-2]) & (mid < ac[:, 2:]))
    return np.where(hit, first + 1, ac.shape[1]).astype(float)


def histogram_ami_even_2_5(block: SeriesBlock) -> np.ndarray:
    """Automutual information at lag 2 over a 5-bin even-width histogram.

    Bin edges span [min - 0.1, max + 0.1]; the joint distribution of
    (x_t, x_{t+2}) gives I = sum p_ij * ln(p_ij / (p_i * p_j)).
    """
    z = block.z
    tau, nbins = 2, 5
    lo = z.min(axis=1, keepdims=True) - 0.1
    step = (z.max(axis=1, keepdims=True) + 0.1 - lo) / nbins
    edges = lo + step * np.arange(nbins + 1)
    # a value's bin is the number of edges at or below it, less one
    bins = np.clip((z[:, :, None] >= edges[:, None, :]).sum(axis=2) - 1, 0, nbins - 1)
    joint = _row_bincount(bins[:, :-tau] * nbins + bins[:, tau:], nbins * nbins)
    joint = joint.reshape(-1, nbins, nbins) / (z.shape[1] - tau)
    pi = joint.sum(axis=2)
    pj = joint.sum(axis=1)
    nz = joint > 0
    ratio = np.where(nz, joint, 1.0) / np.where(nz, pi[:, :, None] * pj[:, None, :], 1.0)
    terms = joint * np.log(ratio)
    return np.array([t[m].sum() for t, m in zip(terms, nz)])


def time_reversal_asymmetry(block: SeriesBlock) -> np.ndarray:
    """Mean cubed successive difference, a time-reversibility statistic."""
    return np.mean(block.diff**3, axis=1)


# ---------------------------------------------------------------------------
# successive-difference statistics


def high_delta_fraction(block: SeriesBlock) -> np.ndarray:
    """Fraction of successive differences exceeding 0.04 in magnitude (pNN40)."""
    return np.mean(np.abs(block.diff) * 1000.0 > 40.0, axis=1)


# ---------------------------------------------------------------------------
# binary symbolization


def longest_stretch_above_mean(block: SeriesBlock) -> np.ndarray:
    """Longest run of consecutive values strictly above the mean."""
    z = block.z
    return _longest_run(z > z.mean(axis=1, keepdims=True)).astype(float)


def longest_stretch_decreasing(block: SeriesBlock) -> np.ndarray:
    """Longest run of consecutive strict decreases."""
    return _longest_run(block.diff < 0).astype(float)


def motif_three_pair_entropy(block: SeriesBlock) -> np.ndarray:
    """Shannon entropy (nats) of consecutive symbol pairs in a 3-letter
    quantile alphabet."""
    s = _coarse_grain_3(block.z)
    p = _row_bincount(s[:, :-1] * 3 + s[:, 1:], 9) / (s.shape[1] - 1)
    nz = p > 0
    terms = p * np.log(np.where(nz, p, 1.0))
    # a row that lacks some pair sums its nonzero terms alone: a sum over a
    # shorter array rounds differently from one padded with zeros
    full = nz.all(axis=1)
    out = np.empty(len(p))
    out[full] = -terms[full].sum(axis=1)
    for k in np.flatnonzero(~full).tolist():
        out[k] = -terms[k][nz[k]].sum()
    return out


def transition_matrix_trace_cov(block: SeriesBlock) -> np.ndarray:
    """Trace of the covariance of the 3-symbol transition matrix.

    The series is decimated at the first zero crossing of its
    autocorrelation, symbolized into 3 quantile groups, and the first-order
    transition probability matrix T formed; the statistic is the summed
    variance (ddof=1) of T's columns.  Rows that share a decimation lag are
    symbolized together.
    """
    z, lags = block.z, block.acf_zero
    out = np.zeros(len(z))
    for tau in np.unique(lags).tolist():
        rows = np.flatnonzero(lags == tau)
        ds = z[rows, ::tau]
        s = _coarse_grain_3(ds)
        counts = _row_bincount(s[:, :-1] * 3 + s[:, 1:], 9)
        T = counts.reshape(-1, 3, 3) / (ds.shape[1] - 1)
        out[rows] = np.var(T, axis=1, ddof=1).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# periodicity and embedding


@lru_cache(maxsize=64)
def _spline_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the least-squares cubic splines with one
    interior knot on n samples, computed once per n (read-only).

    The knot sits at floor(n/2) - 1, giving a 5-parameter C2 piecewise cubic
    over [0, n-1] in a scaled truncated-power basis, orthonormalized by QR.
    """
    t = np.arange(n, dtype=float) / (n - 1)
    knot = (n // 2 - 1) / (n - 1)
    basis = np.column_stack([np.ones(n), t, t**2, t**3, np.clip(t - knot, 0.0, None) ** 3])
    q = np.ascontiguousarray(np.linalg.qr(basis)[0].T)
    q.flags.writeable = False
    return q


def periodicity_wang(block: SeriesBlock) -> np.ndarray:
    """First significant autocorrelation peak after spline detrending.

    Each row loses its projection on the cubic spline space; the residual's
    autocovariance (mean lagged product) is scanned up to n/3 lags for the
    first peak that follows a trough, rises at least 0.01 above it, and is
    positive; its lag is returned (1 when no peak qualifies).  The
    projection's five coefficients come from one product summed along each
    row, not a matrix product, so that a row's value does not depend on its
    block; they are subtracted one basis row at a time.  The lagged products
    are the lags 1..ceil(n/3) of ``np.correlate(s, s, "same")``, the same
    dot products as those of the "full" correlation without its longest
    lags.
    """
    z = block.z
    n = z.shape[1]
    basis = _spline_basis(n)
    coef = (z[:, None, :] * basis).sum(axis=2)
    sub = z.copy()
    for c, q in zip(coef.T, basis):
        sub -= c[:, None] * q
    acmax = int(np.ceil(n / 3))
    lags = np.arange(1, acmax + 1)
    acf = np.array([np.correlate(s, s, "same")[n // 2 + 1 : n // 2 + 1 + acmax] for s in sub]) / (n - lags)

    slopes = acf[:, 1:] - acf[:, :-1]
    rise_in, rise_out = slopes[:, :-1], slopes[:, 1:]
    troughs = (rise_in < 0) & (rise_out > 0)
    peaks = (rise_in > 0) & (rise_out < 0)
    # each position's nearest trough at or before it (-1 before the first)
    pos = np.arange(1, acmax - 1)
    trough = np.maximum.accumulate(np.where(troughs, pos, -1), axis=1)
    peak = acf[:, 1:-1]
    rise = peak - acf[np.arange(len(z))[:, None], trough]
    hit, first = _first(peaks & (trough >= 0) & (rise >= 0.01) & (peak >= 0))
    return np.where(hit, first + 2, 1).astype(float)


def embedding_distance_expfit_diff(block: SeriesBlock) -> np.ndarray:
    """Mismatch between successive embedding distances and an exponential fit.

    The series is embedded as (x_t, x_{t+tau}) with tau the first zero
    crossing of the autocorrelation (capped at n/10).  Distances between
    successive embedded points are histogrammed (equal-width bins by the
    3.5*sigma/n^(1/3) rule) and compared against the density of an
    exponential distribution with the empirical mean; the statistic is the
    mean absolute density difference over the bins.  Near-constant distance
    distributions score 0.

    Rows that share tau are embedded together.  Each row has its own number
    of bins, so all bins of a group are laid end to end, row after row, and
    only the last mean runs row by row.
    """
    z = block.z
    n = z.shape[1]
    lags = np.minimum(block.acf_zero, n // 10)
    out = np.zeros(len(z))
    for tau in sorted(set(lags.tolist())):
        rows = (lags == tau).nonzero()[0]
        y = z[rows]
        m = n - tau - 1
        d = np.sqrt((y[:, 1 : n - tau] - y[:, :m]) ** 2 + (y[:, tau + 1 :] - y[:, tau:-1]) ** 2)
        # d.mean(axis=1) and d.std(axis=1, ddof=1), in numpy's own order of operations
        mean_d = d.sum(axis=1, keepdims=True) / m
        dev = d - mean_d
        sd = np.sqrt((dev * dev).sum(axis=1) / (m - 1))
        live = sd >= 1e-3
        if not live.all():
            rows, d, mean_d, sd = rows[live], d[live], mean_d[live], sd[live]
            if not len(rows):
                continue
        lo, hi = d.min(axis=1), d.max(axis=1)
        nbins = np.ceil((hi - lo) / (3.5 * sd / m ** (1.0 / 3.0))).astype(np.int64)
        width = (hi - lo) / nbins
        # (d - lo) / width is never negative, so only the top needs clipping
        idx = np.minimum(((d - lo[:, None]) / width[:, None]).astype(np.int64), nbins[:, None] - 1)
        ends = nbins.cumsum()
        starts = ends - nbins
        counts = np.bincount((idx + starts[:, None]).ravel(), minlength=ends[-1])
        # per bin: its row, and its index within the row
        row = np.arange(len(d)).repeat(nbins)
        k = np.arange(ends[-1]) - starts[row]
        lo_b, width_b, mean_b = lo[row], width[row], mean_d[row, 0]
        centers = 0.5 * ((lo_b + width_b * k) + (lo_b + width_b * (k + 1)))
        emp_density = counts / m / ((lo + width) - lo)[row]
        exp_density = np.exp(-centers / mean_b) / mean_b
        mismatch = np.abs(emp_density - exp_density)
        out[rows] = [mismatch[s:e].sum() / (e - s) for s, e in zip(starts.tolist(), ends.tolist())]
    return out


@np.errstate(divide="ignore", invalid="ignore")
def ami_gaussian_first_minimum(block: SeriesBlock) -> np.ndarray:
    """Lag of the first minimum of Gaussian automutual information.

    AMI(k) = -ln(1 - rho_k^2)/2 with rho_k the Pearson correlation between
    the series and its k-lagged copy, over lags 1..min(40, ceil(n/2));
    returns the maximum lag when no interior minimum exists.  All lags come
    at once: the pairs' product sum is the autocorrelation times the row's
    sum of squares, and each side's sums are differences of prefix sums of
    z and z^2.  An exactly (anti-)correlated lag has an infinite AMI and one
    with a constant side an undefined one (NaN, which compares false); as
    the closed form leaves rounding noise there, 1 - rho^2 <= 1e-12 counts
    as exact, and a side's variance at most 1e-12 of its sum of squares as
    constant, which gives exact arithmetic's value on integer-valued rows.
    """
    z = block.z
    r, n = z.shape
    max_lag = min(40, int(np.ceil(n / 2)))
    lags = np.arange(1, max_lag + 1)
    count = n - lags
    sums = np.zeros((2, r, n + 1))
    np.cumsum(np.stack([z, z * z]), axis=2, out=sums[:, :, 1:])
    s_head, q_head = sums[:, :, count]
    s_tail, q_tail = sums[:, :, n:] - sums[:, :, lags]
    cov = block.acf[:, lags] * sums[1, :, n:] - s_head * s_tail / count
    var_head = q_head - s_head * s_head / count
    var_tail = q_tail - s_tail * s_tail / count
    gap = 1.0 - cov * cov / (var_head * var_tail)
    ami = np.where(gap <= 1e-12, np.inf, -0.5 * np.log(gap))
    ami[(var_head <= 1e-12 * q_head) | (var_tail <= 1e-12 * q_tail)] = np.nan
    # first strict interior minimum; ami[:, j] belongs to lag j + 1
    mid = ami[:, 1:-1]
    hit, first = _first((mid < ami[:, :-2]) & (mid < ami[:, 2:]))
    return np.where(hit, first + 2, max_lag).astype(float)


# ---------------------------------------------------------------------------
# simple forecasting


def forecast_mean1_decorrelation_ratio(block: SeriesBlock) -> np.ndarray:
    """Change in decorrelation lag after removing lag-1 persistence.

    Ratio of the autocorrelation first-zero lag of the differenced series to
    that of the original.
    """
    residual_lag = first_zero_crossing(autocorrelation(block.diff))
    return residual_lag / block.acf_zero


def forecast_mean3_residual_spread(block: SeriesBlock) -> np.ndarray:
    """Standard deviation (ddof=1) of rolling 3-sample-mean forecast errors.

    The rolling means come from one convolution over the concatenated rows;
    each output is the same 3-term dot product a row alone would give, and
    the ones that straddle two rows are dropped.
    """
    z = block.z
    window, n = 3, z.shape[1]
    flat = np.convolve(z.ravel(), np.ones(window) / window, mode="valid")
    means = np.append(flat, np.zeros(window - 1)).reshape(z.shape)[:, : n - window]
    return np.std(z[:, window:] - means, axis=1, ddof=1)


# ---------------------------------------------------------------------------
# extreme-event timing


def outlier_timing_positive(block: SeriesBlock) -> np.ndarray:
    """Median timing of positive deviations across thresholds: for each
    threshold kept on z (see :func:`outlier_timings`), the median position
    (counted from 1) of the samples that reach it, relative to the series
    center, median / (n/2) - 1; then the median of that over the kept
    thresholds.  It reads the block's C14/C15 array, so asking for C14
    alone runs C15's pass too."""
    return block.outlier_timings[0]


def outlier_timing_negative(block: SeriesBlock) -> np.ndarray:
    """As :func:`outlier_timing_positive` for negative deviations (on -z),
    and likewise runs C14's pass when asked for alone."""
    return block.outlier_timings[1]


def outlier_timings(z: np.ndarray) -> np.ndarray:
    """C14 ([0]) and C15 ([1]) of each row of z.

    C14 sweeps a row w = z, and C15 the row w = -z, with the thresholds 0,
    0.01, 0.02, ..., ``int(max(w) / 0.01 + 1)`` of them.  Each keeps the
    thresholds that more than 2% of the samples reach (are at or above), or
    threshold 0 alone if none does; the kept thresholds are a prefix of the
    sweep, and for n >= 10 each has at least two exceedances.

    One ascending argsort of z orders both signs' values, largest first.
    Every row's thresholds are a prefix of one grid, so one searchsorted of
    all values into it counts the thresholds each value reaches; exactly k
    samples reach the thresholds that the k-th largest value reaches and the
    (k+1)-th does not.  Those samples are the first k positions by
    descending value (ties may come in any order: a threshold never splits
    them).  So one pass of prefix medians serves every threshold, as far as
    threshold 0's count, by a walk in integers (:func:`_twice_prefix_medians`).
    The median over thresholds is the middle one, or the mean of the middle
    two, as ``np.median`` takes it.
    """
    rows, n = z.shape
    order = np.argsort(z, axis=1)
    # each row's values and positions, largest first: z for C14, and -z (by ascending z) for C15
    descending = np.empty((2, rows, n))
    descending[1] = z[np.arange(rows)[:, None], order]
    descending[0] = descending[1, :, ::-1]
    np.negative(descending[1], out=descending[1])
    descending = descending.reshape(2 * rows, n)
    positions = np.concatenate([order[:, ::-1], order])
    n_thresh = (descending[:, 0] / 0.01 + 1).astype(int)
    reached = np.searchsorted(np.arange(n_thresh.max()) * 0.01, descending, side="right")
    del descending  # freed before the subtract below copies its overlapping operand
    fewest = n // 50 + 2  # a kept threshold's least count: (count - 1) * 100 / n > 2
    n_kept = np.maximum(np.minimum(n_thresh, reached[:, fewest - 1]), 1)
    longest = (reached > 0).sum(axis=1)  # the values at or above 0: threshold 0's count
    np.minimum(reached, n_kept[:, None], out=reached)
    reached[:, :-1] -= reached[:, 1:]  # per k, the kept thresholds exactly k samples reach
    out = np.empty(2 * rows)
    for k, length in enumerate(longest.tolist()):
        twice = _twice_prefix_medians(positions[k, :length].tolist(), n)
        picks = np.fromiter(twice, np.int64, length).repeat(reached[k, :length])  # one per kept threshold
        picks.sort()
        middle = picks[[(len(picks) - 1) // 2, len(picks) // 2]].tolist()
        a, b = (0.5 * (t + 2) / (n / 2) - 1 for t in middle)
        out[k] = (a + b) / 2
    return out.reshape(2, rows)


def _twice_prefix_medians(positions: list[int], n: int) -> list[int]:
    """Twice the median of each prefix of ``positions`` (distinct, in [0, n)),
    and one more for the pad n after an odd number.  A position joining an
    odd count moves the median (lo, hi) on its side to the next one marked in
    ``present``; one joining an even count, clamped to [lo, hi], is both."""
    present, lo, hi = bytearray(n + 1), 0, n
    twice: list[int] = []
    pairs = iter(positions + [n])
    for p, q in zip(pairs, pairs):  # an odd prefix length, then an even one
        present[p] = 1
        lo = hi = lo if p < lo else hi if p > hi else p
        twice.append(2 * lo)
        present[q] = 1
        if q > lo:
            hi = present.find(1, lo + 1)
        else:
            lo = present.rfind(1, 0, hi)
        twice.append(lo + hi)
    return twice


# ---------------------------------------------------------------------------
# power spectrum


def spectral_power_lowest_fifth(block: SeriesBlock) -> np.ndarray:
    """Integrated spectral density over the lowest fifth of frequencies."""
    w, s = block.periodogram
    dw = w[1] - w[0]
    return s[:, : s.shape[1] // 5].sum(axis=1) * dw


def spectral_centroid_welch(block: SeriesBlock) -> np.ndarray:
    """Angular frequency splitting the spectral density mass in half."""
    w, s = block.periodogram
    cumulative = np.cumsum(s, axis=1)
    hit, first = _first(cumulative > 0.5 * cumulative[:, -1:])
    return np.where(hit, w[first], 0.0)


# ---------------------------------------------------------------------------
# scaling / fluctuation analysis


# A window whose closed-form residual sum of squares is at most this share of
# its own sum of squares about the mean fits its line to rounding level, and
# one whose sum of squares about the mean is at most this share of its sum of
# squares is constant to rounding level.
_EXACT_FIT = 1e-9
# at least this many sizes on each side of a split in the two-segment fit
_MIN_SEGMENT = 6


class _Scales(NamedTuple):
    """The window layout and split-search constants of one series length and
    decimation lag (read-only, cached by :func:`_scales`)."""

    sizes: np.ndarray  # distinct window sizes, ascending
    count: np.ndarray  # windows of each size: the lagged length // size
    first: np.ndarray  # first index of every window, size by size
    last: np.ndarray  # one past the last index of every window
    width: np.ndarray  # size of every window, as float
    centre: np.ndarray  # mid index of every window
    sxx: np.ndarray  # sum of squares of a window's centred positions
    groups: np.ndarray  # where each size's windows begin in ``first``
    splits: np.ndarray  # candidate splits: sizes in the first segment
    lo: np.ndarray  # first size of each segment, first segments then second ones
    hi: np.ndarray  # one past the last size of each segment
    k: np.ndarray  # sizes in each segment
    x: np.ndarray  # log sizes, centred
    sx: np.ndarray  # sum of ``x`` over each segment
    sxx_seg: np.ndarray  # sum of squares of ``x`` about its segment mean


@lru_cache(maxsize=64)
def _scales(n: int, lag: int) -> _Scales:
    grid = np.exp(np.linspace(np.log(5.0), np.log(n // 2), 50))
    sizes = np.unique(np.round(grid).astype(np.int64))
    count = len(range(0, n, lag)) // sizes
    width = np.repeat(sizes, count)
    first = np.concatenate([np.arange(c) * s for s, c in zip(sizes, count)])
    w = width.astype(float)
    ntt = sizes.size
    splits = np.arange(_MIN_SEGMENT, ntt - _MIN_SEGMENT + 1)
    lo = np.concatenate([np.zeros_like(splits), splits - 1])
    hi = np.concatenate([splits, np.full_like(splits, ntt)])
    log_t = np.log(sizes.astype(float))
    x = log_t - log_t.mean()
    cx = np.concatenate([[0.0], np.cumsum(x)])
    cxx = np.concatenate([[0.0], np.cumsum(x * x)])
    k = (hi - lo).astype(float)
    sx = cx[hi] - cx[lo]
    scales = _Scales(
        sizes, count, first, first + width, w, first + (w - 1) / 2, w * (w * w - 1) / 12,
        np.concatenate([[0], np.cumsum(count)[:-1]]), splits, lo, hi, k, x, sx,
        cxx[hi] - cxx[lo] - sx * sx / k,
    )
    for a in scales:
        a.flags.writeable = False
    return scales


def _fluctuation_split_fraction(block: np.ndarray, lag: int, mode: str) -> np.ndarray:
    """Self-similarity breakpoint of detrended fluctuations in log-log scale,
    for every row of a (traces x samples) block.

    The lagged cumulative sum is cut into windows of 50 log-spaced sizes
    (5 .. n/2, deduplicated); per size, windows are linearly detrended and a
    fluctuation magnitude computed ("dfa": RMS residual, "rsrangefit": RMS
    residual range).  Two lines are fitted to log F vs log size around every
    split point with at least 6 sizes per side; the statistic is the
    fraction of sizes in the first segment at the split minimizing the
    summed residual norms.  Fewer than 12 distinct sizes score 0, and a row
    with a zero fluctuation at some size (log F = -inf) scores the first
    split, as every split's norm is then undefined.

    The statistic is a split index, so the fluctuations only have to rank
    the splits as the direct computation does.  Both modes fit every
    window's line in closed form, from cumulative sums of y, i*y and y^2
    differenced at the edges of every window of every size
    (:func:`_window_fits`).  "dfa" takes each window's residual sum of
    squares from them and sums the windows of each size with
    ``np.add.reduceat`` (:func:`_dfa_fluctuation`).  "rsrangefit" takes
    each window's slope from them; its residuals less the intercept have the
    same range, so each size needs one multiply-subtract and a max and a min
    (:func:`_range_fluctuation`).  On a window that its line fits exactly (a
    step's or a square wave's flat stretches make the lagged cumulative sum
    exactly linear), the closed and the direct form both give rounding
    noise, but different noise, and when every window of a size fits, that
    noise is the size's whole fluctuation and decides the split.  The same
    holds where z is exactly 0 for a stretch, whose windows are constant and
    have a fluctuation of exactly 0 in the direct form.  So in both modes a
    size with any window whose closed-form residual sum of squares is at or
    below the relative floor ``_EXACT_FIT`` of its own sum of squares, or
    whose sum of squares about its mean is at or below that floor of its sum
    of squares, is recomputed for that row from direct residuals
    (:func:`_window_residuals`), summed as one (windows x size) array is,
    which keeps those values what the direct computation gives.

    The split search fits both segments of every split from cumulative sums
    of y, y^2 and x*y over the size axis (:func:`_split_fraction`), with
    the sizes' own sums cached per length.

    Every sum runs over one row's values alone (a cumulative sum adds in
    order in any layout, every other sum runs along one row of one array),
    which makes a row's value independent of the other rows in its block; a
    BLAS matrix-vector product would not, as it may sum a row differently
    depending on the row's position.
    """
    scales = _scales(block.shape[1], lag)
    if scales.sizes.size < 12:
        return np.zeros(block.shape[0])
    cs = np.cumsum(block[:, ::lag], axis=1)
    fluct = _dfa_fluctuation(cs, scales) if mode == "dfa" else _range_fluctuation(cs, scales)
    with np.errstate(divide="ignore"):  # a zero fluctuation: see above
        log_f = np.log(fluct)
    return _split_fraction(log_f, scales)


@lru_cache(maxsize=256)
def _line_basis(size: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Positions 1..size as a column, centred, their sum of squares and mean."""
    x = np.arange(1, size + 1, dtype=float)
    xc = x - x.mean()
    x.flags.writeable = xc.flags.writeable = False
    return x[:, None], xc, xc @ xc, x.mean()


def _window_fits(cs: np.ndarray, scales: _Scales) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every window's least-squares line, from window sums: ``y``, the rows
    less their means, as (samples x rows); per window (in ``scales.first``
    order) x rows, its slope and its residual sum of squares; and per row
    and size, whether a window fits its line or is constant to rounding
    level (``_EXACT_FIT``)."""
    rows, m = cs.shape
    y = np.ascontiguousarray((cs - cs.mean(axis=1, keepdims=True)).T)

    def window_sums(v: np.ndarray) -> np.ndarray:
        total = np.zeros((m + 1, rows))
        np.cumsum(v, axis=0, out=total[1:])
        sums = total[scales.last]
        sums -= total[scales.first]
        return sums

    # the largest arrays of an extraction, so each is freed once it is read
    s0, s2 = window_sums(y), window_sums(y * y)
    spread = s2 - s0 * s0 / scales.width[:, None]  # sum of squares about the window mean
    constant = spread <= _EXACT_FIT * s2
    del s2
    sxy = window_sums(y * np.arange(m)[:, None]) - scales.centre[:, None] * s0
    del s0
    ss = spread - sxy * sxy / scales.sxx[:, None]
    exact = np.logical_or.reduceat(constant | (ss <= _EXACT_FIT * spread), scales.groups).T
    sxy /= scales.sxx[:, None]  # the slope
    return y, sxy, ss, exact


def _window_residuals(row: np.ndarray, size: int, count: int) -> np.ndarray:
    """Residuals of one row's ``count`` windows of ``size`` samples from
    their least-squares lines at positions 1..size, as (size x windows).

    Each window's slope and mean are sums along its own row; the residuals
    are then elementwise, and transposed so that a per-window max or min is
    an elementwise reduction over contiguous rows (both are exact in any
    order)."""
    seg = row[: count * size].reshape(count, size)
    x, xc, sxx, x_mean = _line_basis(size)
    slope = (seg * xc).sum(axis=1) / sxx
    intercept = seg.sum(axis=1) / size - slope * x_mean  # the mean, as np.mean divides
    line = x * slope
    line += intercept
    return np.subtract(seg.T, line, out=line)


def _dfa_fluctuation(cs: np.ndarray, scales: _Scales) -> np.ndarray:
    """RMS residual of every window size, per row, from window sums."""
    _, _, ss, exact = _window_fits(cs, scales)
    total = np.add.reduceat(np.ascontiguousarray(ss.T), scales.groups, axis=1)
    for r, i in np.argwhere(exact).tolist():
        resid = _window_residuals(cs[r], int(scales.sizes[i]), int(scales.count[i]))
        total[r, i] = np.square(resid.T).reshape(-1).sum()
    return np.sqrt(total / (scales.count * scales.sizes))


def _range_fluctuation(cs: np.ndarray, scales: _Scales) -> np.ndarray:
    """RMS residual range of every window size, per row, from each window's
    closed-form slope: y - slope * position has the residuals' range."""
    rows = cs.shape[0]
    y, slope, _, exact = _window_fits(cs, scales)
    ranges = np.empty_like(slope)
    for size, count, start in zip(*(a.tolist() for a in (scales.sizes, scales.count, scales.groups))):
        resid = _line_basis(size)[0][:, :, None] * slope[start : start + count]
        np.subtract(y[: count * size].reshape(count, size, rows).transpose(1, 0, 2), resid, out=resid)
        np.subtract(resid.max(axis=0), resid.min(axis=0), out=ranges[start : start + count])
    ranges *= ranges
    fluct = np.sqrt(np.add.reduceat(np.ascontiguousarray(ranges.T), scales.groups, axis=1) / scales.count)
    for r, i in np.argwhere(exact).tolist():
        size, count = int(scales.sizes[i]), int(scales.count[i])
        resid = _window_residuals(cs[r], size, count)
        fluct[r, i] = np.sqrt(((resid.max(axis=0) - resid.min(axis=0)) ** 2).sum() / count)
    return fluct


def _split_fraction(log_f: np.ndarray, scales: _Scales) -> np.ndarray:
    """Fraction of sizes in the first segment at the split whose two line
    fits to (log size, ``log_f``) have the least summed residual norm."""
    rows, ntt = log_f.shape
    defined = np.isfinite(log_f).all(axis=1)
    y = np.where(defined[:, None], log_f, 0.0)
    y -= y.mean(axis=1, keepdims=True)
    sums = np.zeros((3, rows, ntt + 1))
    np.cumsum(np.stack([y, y * y, scales.x * y]), axis=2, out=sums[:, :, 1:])
    sy, syy, sxy = sums[:, :, scales.hi] - sums[:, :, scales.lo]
    sxy -= scales.sx * sy / scales.k
    ss = syy - sy * sy / scales.k - sxy * sxy / scales.sxx_seg
    norm = np.sqrt(np.maximum(ss, 0.0))
    half = scales.splits.size
    best = np.where(defined, np.argmin(norm[:, :half] + norm[:, half:], axis=1), 0)
    return scales.splits[best] / ntt


def dfa_scaling_split(block: SeriesBlock) -> np.ndarray:
    """Fluctuation-scaling breakpoint for DFA at decimation lag 2, per row."""
    return _fluctuation_split_fraction(block.z, 2, "dfa")


def range_fit_scaling_split(block: SeriesBlock) -> np.ndarray:
    """Fluctuation-scaling breakpoint for rescaled-range fits at lag 1, per row."""
    return _fluctuation_split_fraction(block.z, 1, "rsrangefit")
