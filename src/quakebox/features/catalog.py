"""The 22 canonical time-series features.

Each function is a block kernel: it maps the rows of a
:class:`~quakebox.features.registry.SeriesBlock` to one value per row, each
independent of the other rows.  The canonical values are defined on
standardized input, so every kernel here reads the block's z-scored rows
(sample standard deviation, ddof=1), which also makes every one of them
invariant to affine transforms ``x -> a*x + b`` with ``a > 0``.  Constant
series are rejected by the registry before dispatch, so kernels here may
assume nonzero variance.

Intermediates that several features share (the autocorrelation and its
first zero crossing, the one-sided periodogram) are computed once per block
by the block object, with the functions at the top of this module.  Every
reduction runs along one row, never across rows, so a row's value does not
depend on the rows beside it; where a statistic sums a per-row selection of
entries (a compressed array whose length varies by row), the kernel sums
that row alone.  Formula notes live on each kernel.
"""

from __future__ import annotations

import bisect
from functools import lru_cache
from typing import TYPE_CHECKING

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
    return np.mean(np.diff(block.z, axis=1) ** 3, axis=1)


# ---------------------------------------------------------------------------
# successive-difference statistics


def high_delta_fraction(block: SeriesBlock) -> np.ndarray:
    """Fraction of successive differences exceeding 0.04 in magnitude (pNN40)."""
    return np.mean(np.abs(np.diff(block.z, axis=1)) * 1000.0 > 40.0, axis=1)


# ---------------------------------------------------------------------------
# binary symbolization


def longest_stretch_above_mean(block: SeriesBlock) -> np.ndarray:
    """Longest run of consecutive values strictly above the mean."""
    z = block.z
    return _longest_run(z > z.mean(axis=1, keepdims=True)).astype(float)


def longest_stretch_decreasing(block: SeriesBlock) -> np.ndarray:
    """Longest run of consecutive strict decreases."""
    return _longest_run(np.diff(block.z, axis=1) < 0).astype(float)


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
    variance (ddof=1) of T's columns.  Degenerate decimations (fewer than
    two points) score 0.  Rows that share a decimation lag are symbolized
    together.
    """
    z, lags = block.z, block.acf_zero
    out = np.zeros(len(z))
    for tau in np.unique(lags).tolist():
        rows = np.flatnonzero(lags == tau)
        ds = z[rows, ::tau]
        if ds.shape[1] < 2:
            continue
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
    projection's coefficients are row sums, not a matrix product, so that a
    row's value does not depend on its block.
    """
    z = block.z
    n = z.shape[1]
    sub = z.copy()
    for q in _spline_basis(n):
        sub -= (z * q).sum(axis=1)[:, None] * q
    acmax = int(np.ceil(n / 3))
    lags = np.arange(1, acmax + 1)
    acf = np.stack([np.correlate(s, s, "full")[n : n + acmax] for s in sub]) / (n - lags)

    slopes = np.diff(acf, axis=1)
    rise_in, rise_out = slopes[:, :-1], slopes[:, 1:]
    troughs = (rise_in < 0) & (rise_out > 0)
    peaks = (rise_in > 0) & (rise_out < 0)
    # each position's nearest trough at or before it (-1 before the first)
    pos = np.arange(1, acmax - 1)
    trough = np.maximum.accumulate(np.where(troughs, pos, -1), axis=1)
    peak = acf[:, 1:-1]
    rise = peak - acf[np.arange(len(z))[:, None], trough]
    hit, first = _first(peaks & (trough >= 0) & ~((rise < 0.01) | (peak < 0)))
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
    for tau in np.unique(lags).tolist():
        rows = np.flatnonzero(lags == tau)
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
        ends = np.cumsum(nbins)
        starts = ends - nbins
        counts = np.bincount((idx + starts[:, None]).ravel(), minlength=ends[-1])
        # per bin: its row, and its index within the row
        row = np.repeat(np.arange(len(d)), nbins)
        k = np.arange(ends[-1]) - starts[row]
        lo_b, width_b, mean_b = lo[row], width[row], mean_d[row, 0]
        centers = 0.5 * ((lo_b + width_b * k) + (lo_b + width_b * (k + 1)))
        emp_density = counts / m / ((lo + width) - lo)[row]
        exp_density = np.exp(-centers / mean_b) / mean_b
        mismatch = np.abs(emp_density - exp_density)
        out[rows] = [mismatch[s:e].sum() / (e - s) for s, e in zip(starts.tolist(), ends.tolist())]
    return out


def ami_gaussian_first_minimum(block: SeriesBlock) -> np.ndarray:
    """Lag of the first minimum of Gaussian automutual information.

    AMI(k) = -ln(1 - rho_k^2)/2 with rho_k the Pearson correlation between
    the series and its k-lagged copy, over lags 1..min(40, ceil(n/2));
    returns the maximum lag when no interior minimum exists.  Lag k's pairs
    fill the first n - k entries of length-n rows padded with zeros, and
    every sum runs over the whole padded row, one lag at a time.
    """
    z = block.z
    r, n = z.shape
    max_lag = min(40, int(np.ceil(n / 2)))
    head = z.copy()
    padded = np.zeros((r, 2 * n))
    padded[:, :n] = z
    rho = np.empty((r, max_lag))
    for k in range(1, max_lag + 1):
        count = n - k
        head[:, count] = 0.0
        tail = padded[:, k : k + n]
        hc = head - head.sum(axis=1, keepdims=True) / count
        tc = tail - tail.sum(axis=1, keepdims=True) / count
        hc[:, count:] = 0.0
        tc[:, count:] = 0.0
        cov = (hc * tc).sum(axis=1)
        rho[:, k - 1] = cov / np.sqrt((hc * hc).sum(axis=1) * (tc * tc).sum(axis=1))
    rho = np.clip(rho, -1.0, 1.0)
    ami = -0.5 * np.log(1.0 - rho * rho)
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
    residual_lag = first_zero_crossing(autocorrelation(np.diff(block.z, axis=1)))
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
    """Median relative position of above-threshold events, swept over
    thresholds (positive deviations)."""
    return np.array([_outlier_timing(y, +1.0) for y in block.z])


def outlier_timing_negative(block: SeriesBlock) -> np.ndarray:
    """As :func:`outlier_timing_positive` for negative deviations."""
    return np.array([_outlier_timing(y, -1.0) for y in block.z])


def _outlier_timing(y: np.ndarray, sign: float) -> float:
    """Sweep thresholds 0, 0.01, 0.02, ... over sign*y and, per threshold,
    locate the median timing of exceedances relative to the series center.

    Thresholds are trimmed to those keeping more than 2% exceedances and at
    least two exceedances (gap statistics defined); the statistic is the
    median over kept thresholds of median(position)/(n/2) - 1.

    The exceedance sets are nested as the threshold rises, so the medians
    for every kept threshold come from one pass of prefix medians over the
    positions ordered by descending value, run only as far as the largest
    kept exceedance count.
    """
    inc = 0.01
    w = sign * y
    n = w.size
    n_thresh = int(w.max() / inc + 1)
    thresholds = np.arange(n_thresh) * inc
    counts = n - np.searchsorted(np.sort(w), thresholds, side="left")
    # cap at the last threshold any sample still exceeds
    nonempty = counts >= 1
    if not nonempty.all():
        n_thresh = int(np.flatnonzero(~nonempty)[0])
        counts = counts[:n_thresh]

    pct_kept = (counts - 1) * 100.0 / n
    above = np.flatnonzero(pct_kept > 2.0)
    mj = int(above[-1]) if above.size else 0
    undefined = np.flatnonzero(counts < 2)
    fbi = int(undefined[0]) if undefined.size else n_thresh - 1
    kept = counts[: min(mj, fbi) + 1]

    # counts fall as the threshold rises, so kept[0] is the longest prefix
    order = np.argsort(-w, kind="stable")[: kept[0]] + 1
    prefix: list[int] = []
    prefix_median = np.empty(kept[0])
    for k, pos in enumerate(order.tolist()):
        bisect.insort(prefix, pos)
        prefix_median[k] = 0.5 * (prefix[k // 2] + prefix[(k + 1) // 2])

    rel_pos = prefix_median[kept - 1] / (n / 2) - 1
    return float(np.median(rel_pos))


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


def _fluctuation_split_fraction(block: np.ndarray, lag: int, mode: str) -> np.ndarray:
    """Self-similarity breakpoint of detrended fluctuations in log-log scale,
    for every row of a (traces x samples) block.

    The lagged cumulative sum is cut into windows of 50 log-spaced sizes
    (5 .. n/2, deduplicated); per size, windows are linearly detrended and a
    fluctuation magnitude computed ("dfa": RMS residual, "rsrangefit": RMS
    residual range).  Two lines are fitted to log F vs log size around every
    split point with at least 6 sizes per side; the statistic is the
    fraction of sizes in the first segment at the split minimizing the
    summed residual norms.  Fewer than 12 distinct sizes score 0.

    Every row has the same window sizes, so each size is one reshape of the
    whole block's windows into (traces * windows, size) rows.  Every sum runs
    along one row of one array, which makes a row's value independent of the
    other rows in its block; a BLAS matrix-vector product would not, as it
    may sum a row differently depending on the row's position.
    """
    n_rows, n = block.shape
    grid = np.exp(np.linspace(np.log(5.0), np.log(n // 2), 50))
    sizes = np.unique(np.round(grid).astype(np.int64))
    if sizes.size < 12:
        return np.zeros(n_rows)
    cs = np.cumsum(block[:, ::lag], axis=1)
    fluct = np.empty((n_rows, sizes.size))
    for i, tau in enumerate(sizes):
        nwin = cs.shape[1] // tau
        seg = cs[:, : nwin * tau].reshape(n_rows * nwin, tau)
        x = np.arange(1, tau + 1, dtype=float)
        xc = x - x.mean()
        slope = (seg * xc).sum(axis=1) / (xc @ xc)
        intercept = seg.mean(axis=1) - slope * x.mean()
        resid = seg - (slope[:, None] * x[None, :] + intercept[:, None])
        if mode == "dfa":
            fluct[:, i] = np.sqrt((resid**2).reshape(n_rows, -1).sum(axis=1) / (nwin * tau))
        else:
            ranges = resid.max(axis=1) - resid.min(axis=1)
            fluct[:, i] = np.sqrt((ranges**2).reshape(n_rows, nwin).sum(axis=1) / nwin)
    log_t = np.log(sizes.astype(float))
    log_f = np.log(fluct)[:, None, :]
    ntt = sizes.size
    min_points = 6
    splits = np.arange(min_points, ntt - min_points + 1)[:, None]
    i = np.arange(ntt)
    err = _masked_line_residual_norm(log_t, log_f, i < splits) + _masked_line_residual_norm(
        log_t, log_f, i >= splits - 1
    )
    return splits[np.argmin(err, axis=1), 0] / ntt


def _masked_line_residual_norm(x: np.ndarray, y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per row of ``mask``: residual norm of the least-squares line through
    the points (x, y) that the row selects; ``y`` may stack several series
    on leading axes, and the result then has one row of norms per series."""
    count = mask.sum(axis=-1, keepdims=True)
    xm = np.where(mask, x, 0.0).sum(axis=-1, keepdims=True) / count
    ym = np.where(mask, y, 0.0).sum(axis=-1, keepdims=True) / count
    dx = np.where(mask, x - xm, 0.0)
    slope = (dx * (y - ym)).sum(axis=-1, keepdims=True) / (dx * dx).sum(axis=-1, keepdims=True)
    resid = np.where(mask, slope * x + (ym - slope * xm) - y, 0.0)
    return np.sqrt((resid * resid).sum(axis=-1))


def dfa_scaling_split(block: SeriesBlock) -> np.ndarray:
    """Fluctuation-scaling breakpoint for DFA at decimation lag 2, per row."""
    return _fluctuation_split_fraction(block.z, 2, "dfa")


def range_fit_scaling_split(block: SeriesBlock) -> np.ndarray:
    """Fluctuation-scaling breakpoint for rescaled-range fits at lag 1, per row."""
    return _fluctuation_split_fraction(block.z, 1, "rsrangefit")
