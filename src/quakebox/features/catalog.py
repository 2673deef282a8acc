"""The 22 canonical time-series features.

Each function maps a 1-D float array to one scalar, except the two
fluctuation-scaling features (C19, C20), which map a (traces x samples)
block to one value per row.  The canonical values
are defined on standardized input: the registry z-scores a series (sample
standard deviation, ddof=1) before dispatching to any function in this
module, which also makes every one of them invariant to affine transforms
``x -> a*x + b`` with ``a > 0``.  Constant series are rejected by the
registry before dispatch, so functions here may assume nonzero variance.

Formula notes live on each function; shared machinery (autocorrelation,
equal-width histograms, Hazen quantiles) sits at the top.
"""

from __future__ import annotations

import bisect

import numpy as np


# ---------------------------------------------------------------------------
# shared helpers


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def autocorrelation(y: np.ndarray) -> np.ndarray:
    """Linear autocorrelation at lags 0..n-1, normalized by lag 0.

    Computed by FFT with zero padding to twice the next power of two, which
    makes the circular correlation exact for all linear lags.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    nfft = 2 * _next_pow2(n)
    spec = np.fft.rfft(y - y.mean(), nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    return acov / acov[0]


def first_zero_crossing_ac(y: np.ndarray) -> int:
    """Smallest positive lag where the autocorrelation is <= 0 (n if none)."""
    ac = autocorrelation(y)
    below = np.nonzero(ac[1:] <= 0)[0]
    if below.size == 0:
        return int(y.size)
    return int(below[0]) + 1


def _histcounts_equal(y: np.ndarray, nbins: int) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges for equal-width bins spanning [min, max].

    Bin index is floor((v - min) / width), clipped into range, so the
    maximum lands in the last bin.
    """
    lo = float(y.min())
    hi = float(y.max())
    width = (hi - lo) / nbins
    idx = ((y - lo) / width).astype(np.int64)
    idx = np.clip(idx, 0, nbins - 1)
    counts = np.bincount(idx, minlength=nbins)
    edges = lo + width * np.arange(nbins + 1)
    return counts, edges


def _coarse_grain_3(y: np.ndarray) -> np.ndarray:
    """Symbolize into 3 near-equiprobable groups split at the 1/3, 2/3 quantiles.

    The quantiles use plotting positions (k + 0.5)/n with linear
    interpolation (Hazen).  Values equal to a split point go to the lower group.
    """
    q1, q2 = np.quantile(y, [1.0 / 3.0, 2.0 / 3.0], method="hazen")
    return 1 + (y > q1).astype(np.int64) + (y > q2).astype(np.int64)


def _longest_run(mask: np.ndarray) -> int:
    """Length of the longest run of True values."""
    if mask.size == 0:
        return 0
    padded = np.concatenate(([False], mask, [False]))
    change = np.flatnonzero(padded[1:] != padded[:-1])
    if change.size == 0:
        return 0
    starts = change[0::2]
    ends = change[1::2]
    return int((ends - starts).max())


# ---------------------------------------------------------------------------
# distribution shape


def histogram_mode_5(y: np.ndarray) -> float:
    """Mode of the value distribution over a 5-bin equal-width histogram.

    Ties between equally full bins are resolved by averaging their centers.
    """
    return _histogram_mode(y, 5)


def histogram_mode_10(y: np.ndarray) -> float:
    """Mode of the value distribution over a 10-bin equal-width histogram."""
    return _histogram_mode(y, 10)


def _histogram_mode(y: np.ndarray, nbins: int) -> float:
    counts, edges = _histcounts_equal(np.asarray(y, dtype=float), nbins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(centers[counts == counts.max()].mean())


# ---------------------------------------------------------------------------
# linear autocorrelation structure


def acf_first_1e_crossing(y: np.ndarray) -> float:
    """First crossing of the autocorrelation below 1/e, linearly interpolated.

    Scans lags 1..n-2; returns n when the autocorrelation never drops that
    far.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    ac = autocorrelation(y)
    thresh = 1.0 / np.e
    below = np.nonzero(ac[1 : n - 1] < thresh)[0]
    if below.size == 0:
        return float(n)
    k = int(below[0]) + 1
    return (k - 1) + (thresh - ac[k - 1]) / (ac[k] - ac[k - 1])


def acf_first_minimum(y: np.ndarray) -> float:
    """Lag of the first local minimum of the autocorrelation (n if none)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    ac = autocorrelation(y)
    for i in range(1, n - 1):
        if ac[i] < ac[i - 1] and ac[i] < ac[i + 1]:
            return float(i)
    return float(n)


def histogram_ami_even_2_5(y: np.ndarray) -> float:
    """Automutual information at lag 2 over a 5-bin even-width histogram.

    Bin edges span [min - 0.1, max + 0.1]; the joint distribution of
    (x_t, x_{t+2}) gives I = sum p_ij * ln(p_ij / (p_i * p_j)).
    """
    y = np.asarray(y, dtype=float)
    tau, nbins = 2, 5
    y1 = y[:-tau]
    y2 = y[tau:]
    lo = float(y.min()) - 0.1
    step = (float(y.max()) + 0.1 - lo) / nbins
    edges = lo + step * np.arange(nbins + 1)
    b1 = np.searchsorted(edges, y1, side="right") - 1
    b2 = np.searchsorted(edges, y2, side="right") - 1
    b1 = np.clip(b1, 0, nbins - 1)
    b2 = np.clip(b2, 0, nbins - 1)
    joint = np.bincount(b1 * nbins + b2, minlength=nbins * nbins).astype(float)
    joint = joint.reshape(nbins, nbins) / joint.sum()
    pi = joint.sum(axis=1)
    pj = joint.sum(axis=0)
    nz = joint > 0
    return float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pi, pj)[nz])))


def time_reversal_asymmetry(y: np.ndarray) -> float:
    """Mean cubed successive difference, a time-reversibility statistic."""
    d = np.diff(np.asarray(y, dtype=float))
    return float(np.mean(d**3))


# ---------------------------------------------------------------------------
# successive-difference statistics


def high_delta_fraction(y: np.ndarray) -> float:
    """Fraction of successive differences exceeding 0.04 in magnitude (pNN40)."""
    d = np.abs(np.diff(np.asarray(y, dtype=float)))
    return float(np.mean(d * 1000.0 > 40.0))


# ---------------------------------------------------------------------------
# binary symbolization


def longest_stretch_above_mean(y: np.ndarray) -> float:
    """Longest run of consecutive values strictly above the mean."""
    y = np.asarray(y, dtype=float)
    return float(_longest_run(y > y.mean()))


def longest_stretch_decreasing(y: np.ndarray) -> float:
    """Longest run of consecutive strict decreases."""
    y = np.asarray(y, dtype=float)
    return float(_longest_run(np.diff(y) < 0))


def motif_three_pair_entropy(y: np.ndarray) -> float:
    """Shannon entropy (nats) of consecutive symbol pairs in a 3-letter
    quantile alphabet."""
    s = _coarse_grain_3(np.asarray(y, dtype=float)) - 1
    pairs = s[:-1] * 3 + s[1:]
    counts = np.bincount(pairs, minlength=9).astype(float)
    p = counts / counts.sum()
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def transition_matrix_trace_cov(y: np.ndarray) -> float:
    """Trace of the covariance of the 3-symbol transition matrix.

    The series is decimated at the first zero crossing of its
    autocorrelation, symbolized into 3 quantile groups, and the first-order
    transition probability matrix T formed; the statistic is the summed
    variance (ddof=1) of T's columns.  Degenerate decimations (fewer than
    two points) score 0.
    """
    y = np.asarray(y, dtype=float)
    tau = first_zero_crossing_ac(y)
    ds = y[::tau]
    if ds.size < 2:
        return 0.0
    s = _coarse_grain_3(ds) - 1
    counts = np.bincount(s[:-1] * 3 + s[1:], minlength=9).astype(float)
    T = counts.reshape(3, 3) / (ds.size - 1)
    return float(np.var(T, axis=0, ddof=1).sum())


# ---------------------------------------------------------------------------
# periodicity and embedding


def _spline_detrend(y: np.ndarray) -> np.ndarray:
    """Residual of a least-squares cubic spline with one interior knot.

    The knot sits at floor(n/2) - 1, giving a 5-parameter C2 piecewise cubic
    over [0, n-1]; the fit is solved in a scaled truncated-power basis.
    """
    n = y.size
    t = np.arange(n, dtype=float) / (n - 1)
    knot = (n // 2 - 1) / (n - 1)
    basis = np.column_stack(
        [
            np.ones(n),
            t,
            t**2,
            t**3,
            np.clip(t - knot, 0.0, None) ** 3,
        ]
    )
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return y - basis @ coef


def periodicity_wang(y: np.ndarray) -> float:
    """First significant autocorrelation peak after spline detrending.

    The detrended series' autocovariance (mean lagged product) is scanned up
    to n/3 lags for the first peak that follows a trough, rises at least
    0.01 above it, and is positive; its lag is returned (1 when no peak
    qualifies).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    sub = _spline_detrend(y)
    acmax = int(np.ceil(n / 3))
    lags = np.arange(1, acmax + 1)
    acf = np.correlate(sub, sub, "full")[n : n + acmax] / (n - lags)

    slopes = np.diff(acf)
    rise_in, rise_out = slopes[:-1], slopes[1:]
    troughs = np.flatnonzero((rise_in < 0) & (rise_out > 0)) + 1
    peaks = np.flatnonzero((rise_in > 0) & (rise_out < 0)) + 1
    # each peak's nearest preceding trough (peaks before the first have none)
    before = np.searchsorted(troughs, peaks) - 1
    peaks, it = peaks[before >= 0], troughs[before[before >= 0]]
    qualifies = ~((acf[peaks] - acf[it] < 0.01) | (acf[peaks] < 0))
    hits = peaks[qualifies]
    return float(hits[0] + 1) if hits.size else 1.0


def embedding_distance_expfit_diff(y: np.ndarray) -> float:
    """Mismatch between successive embedding distances and an exponential fit.

    The series is embedded as (x_t, x_{t+tau}) with tau the first zero
    crossing of the autocorrelation (capped at n/10).  Distances between
    successive embedded points are histogrammed (equal-width bins by the
    3.5*sigma/n^(1/3) rule) and compared against the density of an
    exponential distribution with the empirical mean; the statistic is the
    mean absolute density difference over the bins.  Near-constant distance
    distributions score 0.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    tau = first_zero_crossing_ac(y)
    tau = max(1, min(tau, n // 10))
    d = np.sqrt(np.diff(y[: n - tau]) ** 2 + np.diff(y[tau:]) ** 2)
    sd = float(d.std(ddof=1))
    if sd < 1e-3:
        return 0.0
    mean_d = float(d.mean())
    nbins = int(np.ceil((d.max() - d.min()) / (3.5 * sd / d.size ** (1.0 / 3.0))))
    if nbins <= 0:
        return 0.0
    counts, edges = _histcounts_equal(d, nbins)
    width = edges[1] - edges[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    emp_density = counts / d.size / width
    exp_density = np.exp(-centers / mean_d) / mean_d
    return float(np.mean(np.abs(emp_density - exp_density)))


def ami_gaussian_first_minimum(y: np.ndarray) -> float:
    """Lag of the first minimum of Gaussian automutual information.

    AMI(k) = -ln(1 - rho_k^2)/2 with rho_k the Pearson correlation between
    the series and its k-lagged copy, over lags 1..min(40, ceil(n/2));
    returns the maximum lag when no interior minimum exists.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    max_lag = min(40, int(np.ceil(n / 2)))
    # row k-1 holds the pairs (y[i], y[i+k]) for i < n-k; masked entries are 0
    lags = np.arange(1, max_lag + 1)[:, None]
    i = np.arange(n)
    keep = i < n - lags
    head = np.where(keep, y, 0.0)
    tail = np.where(keep, y[np.minimum(i + lags, n - 1)], 0.0)
    count = n - lags
    head = np.where(keep, head - head.sum(axis=1, keepdims=True) / count, 0.0)
    tail = np.where(keep, tail - tail.sum(axis=1, keepdims=True) / count, 0.0)
    cov = (head * tail).sum(axis=1)
    rho = cov / np.sqrt((head * head).sum(axis=1) * (tail * tail).sum(axis=1))
    rho = np.clip(rho, -1.0, 1.0)
    ami = -0.5 * np.log(1.0 - rho * rho)
    # first strict interior minimum; ami[j] belongs to lag j + 1
    mid = ami[1:-1]
    hits = np.flatnonzero((mid < ami[:-2]) & (mid < ami[2:]))
    return float(hits[0] + 2) if hits.size else float(max_lag)


# ---------------------------------------------------------------------------
# simple forecasting


def forecast_mean1_decorrelation_ratio(y: np.ndarray) -> float:
    """Change in decorrelation lag after removing lag-1 persistence.

    Ratio of the autocorrelation first-zero lag of the differenced series to
    that of the original.
    """
    y = np.asarray(y, dtype=float)
    res = np.diff(y)
    return first_zero_crossing_ac(res) / first_zero_crossing_ac(y)


def forecast_mean3_residual_spread(y: np.ndarray) -> float:
    """Standard deviation (ddof=1) of rolling 3-sample-mean forecast errors."""
    y = np.asarray(y, dtype=float)
    window = 3
    means = np.convolve(y, np.ones(window) / window, mode="valid")[:-1]
    res = y[window:] - means
    return float(res.std(ddof=1))


# ---------------------------------------------------------------------------
# extreme-event timing


def outlier_timing_positive(y: np.ndarray) -> float:
    """Median relative position of above-threshold events, swept over
    thresholds (positive deviations)."""
    return _outlier_timing(np.asarray(y, dtype=float), +1.0)


def outlier_timing_negative(y: np.ndarray) -> float:
    """As :func:`outlier_timing_positive` for negative deviations."""
    return _outlier_timing(np.asarray(y, dtype=float), -1.0)


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


def _one_sided_power_spectrum(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rectangular-window periodogram, zero-padded to the next power of two.

    Returns (angular frequencies, spectral density), one-sided with interior
    bins doubled, normalized for unit sampling rate.
    """
    n = y.size
    nfft = _next_pow2(n)
    spec = np.abs(np.fft.rfft(y, nfft)) ** 2
    pxx = spec / n
    pxx[1:-1] *= 2.0
    freqs = np.arange(pxx.size) / nfft
    return 2.0 * np.pi * freqs, pxx / (2.0 * np.pi)


def spectral_power_lowest_fifth(y: np.ndarray) -> float:
    """Integrated spectral density over the lowest fifth of frequencies."""
    w, s = _one_sided_power_spectrum(np.asarray(y, dtype=float))
    dw = w[1] - w[0]
    return float(s[: s.size // 5].sum() * dw)


def spectral_centroid_welch(y: np.ndarray) -> float:
    """Angular frequency splitting the spectral density mass in half."""
    w, s = _one_sided_power_spectrum(np.asarray(y, dtype=float))
    cumulative = np.cumsum(s)
    idx = np.flatnonzero(cumulative > 0.5 * cumulative[-1])
    return float(w[idx[0]]) if idx.size else 0.0


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


def dfa_scaling_split(block: np.ndarray) -> np.ndarray:
    """Fluctuation-scaling breakpoint for DFA at decimation lag 2, per row."""
    return _fluctuation_split_fraction(np.asarray(block, dtype=float), 2, "dfa")


def range_fit_scaling_split(block: np.ndarray) -> np.ndarray:
    """Fluctuation-scaling breakpoint for rescaled-range fits at lag 1, per row."""
    return _fluctuation_split_fraction(np.asarray(block, dtype=float), 1, "rsrangefit")
