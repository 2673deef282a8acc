"""Independent scalar reference for the canonical feature catalog.

This module re-derives every catalog feature from its documented formula
using plain Python loops and direct-definition computations (O(n^2)
autocorrelation sums, linear-scan histograms, scipy's spline fitter), so it
shares no code path with the vectorized production catalog.  Its outputs on
the fixture corpus are frozen into tests/fixtures/catch22_parity.json;
regenerate with ``python tests/oracles/gen_fixtures.py``.

Deliberately slow and boring: when this file and the production catalog
disagree, one of them has a bug.  The O(n^2) intermediates (autocorrelation,
spectrum) are memoized on the series' values, and the spectrum's cosines and
sines are tabulated once per transform length; neither changes a single
operation of the sums.
"""

from __future__ import annotations

import functools
import math
from array import array
from fractions import Fraction

import numpy as np
from scipy.interpolate import LSQUnivariateSpline


def zscore(x):
    n = len(x)
    m = sum(x) / n
    var = sum((v - m) ** 2 for v in x) / (n - 1)
    sd = math.sqrt(var)
    return [(v - m) / sd for v in x]


def _mean(x):
    return sum(x) / len(x)


def _std1(x):
    m = _mean(x)
    return math.sqrt(sum((v - m) ** 2 for v in x) / (len(x) - 1))


def _median(x):
    s = sorted(x)
    n = len(s)
    if n % 2 == 1:
        return s[n // 2]
    return 0.5 * (s[n // 2 - 1] + s[n // 2])


def _quantile_hazen(x, q):
    s = sorted(x)
    n = len(s)
    h = q * n - 0.5
    if h <= 0:
        return s[0]
    if h >= n - 1:
        return s[-1]
    lo = int(math.floor(h))
    frac = h - lo
    return s[lo] + frac * (s[lo + 1] - s[lo])


def _acf_direct(y):
    """Autocorrelation at all lags by the direct definition sums."""
    return _acf_of(tuple(y))


@functools.lru_cache(maxsize=64)
def _acf_of(y: tuple) -> tuple:
    n = len(y)
    m = _mean(y)
    c0 = sum((v - m) ** 2 for v in y)
    dev = [v - m for v in y]
    out = []
    for lag in range(n):
        acc = 0.0
        for a, b in zip(dev, dev[lag:]):
            acc += a * b
        out.append(acc / c0)
    return tuple(out)


def _first_zero(y):
    ac = _acf_direct(y)
    for lag in range(1, len(y)):
        if ac[lag] <= 0:
            return lag
    return len(y)


def _hist_equal(values, nbins):
    lo = min(values)
    hi = max(values)
    width = (hi - lo) / nbins
    counts = [0] * nbins
    for v in values:
        b = int((v - lo) / width)
        if b < 0:
            b = 0
        if b >= nbins:
            b = nbins - 1
        counts[b] += 1
    edges = [lo + width * i for i in range(nbins + 1)]
    return counts, edges


def _coarse3(values):
    q1 = _quantile_hazen(values, 1.0 / 3.0)
    q2 = _quantile_hazen(values, 2.0 / 3.0)
    out = []
    for v in values:
        if v <= q1:
            out.append(0)
        elif v <= q2:
            out.append(1)
        else:
            out.append(2)
    return out


# --- features, same order as the registry ---------------------------------


def histogram_mode_5(y):
    return _hist_mode(y, 5)


def histogram_mode_10(y):
    return _hist_mode(y, 10)


def _hist_mode(y, nbins):
    counts, edges = _hist_equal(y, nbins)
    best = max(counts)
    centers = [0.5 * (edges[i] + edges[i + 1]) for i in range(nbins) if counts[i] == best]
    return sum(centers) / len(centers)


def acf_first_1e_crossing(y):
    n = len(y)
    ac = _acf_direct(y)
    thresh = 1.0 / math.e
    for i in range(n - 2):
        if ac[i + 1] < thresh:
            return i + (thresh - ac[i]) / (ac[i + 1] - ac[i])
    return float(n)


def acf_first_minimum(y):
    n = len(y)
    ac = _acf_direct(y)
    for i in range(1, n - 1):
        if ac[i] < ac[i - 1] and ac[i] < ac[i + 1]:
            return float(i)
    return float(n)


def histogram_ami_even_2_5(y):
    tau, nbins = 2, 5
    n = len(y)
    lo = min(y) - 0.1
    step = (max(y) + 0.1 - lo) / nbins
    edges = [lo + step * i for i in range(nbins + 1)]

    def bin_of(v):
        for j in range(1, nbins + 1):
            if v < edges[j]:
                return j - 1
        return nbins - 1

    joint = [[0] * nbins for _ in range(nbins)]
    for t in range(n - tau):
        joint[bin_of(y[t])][bin_of(y[t + tau])] += 1
    total = n - tau
    pi = [sum(row) / total for row in joint]
    pj = [sum(joint[i][j] for i in range(nbins)) / total for j in range(nbins)]
    ami = 0.0
    for i in range(nbins):
        for j in range(nbins):
            p = joint[i][j] / total
            if p > 0:
                ami += p * math.log(p / (pi[i] * pj[j]))
    return ami


def time_reversal_asymmetry(y):
    diffs = [(y[i + 1] - y[i]) ** 3 for i in range(len(y) - 1)]
    return _mean(diffs)


def high_delta_fraction(y):
    count = 0
    for i in range(len(y) - 1):
        if abs(y[i + 1] - y[i]) * 1000.0 > 40.0:
            count += 1
    return count / (len(y) - 1)


def longest_stretch_above_mean(y):
    m = _mean(y)
    best = run = 0
    for v in y:
        if v > m:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return float(best)


def longest_stretch_decreasing(y):
    best = run = 0
    for i in range(len(y) - 1):
        if y[i + 1] - y[i] < 0:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return float(best)


def transition_matrix_trace_cov(y):
    tau = _first_zero(y)
    ds = y[::tau]
    if len(ds) < 2:
        return 0.0
    s = _coarse3(ds)
    T = [[0.0] * 3 for _ in range(3)]
    for t in range(len(s) - 1):
        T[s[t]][s[t + 1]] += 1.0
    for i in range(3):
        for j in range(3):
            T[i][j] /= len(s) - 1
    total = 0.0
    for j in range(3):
        col = [T[i][j] for i in range(3)]
        m = _mean(col)
        total += sum((v - m) ** 2 for v in col) / (len(col) - 1)
    return total


def periodicity_wang(y):
    n = len(y)
    x = np.arange(n, dtype=float)
    knot = float(n // 2 - 1)
    spline = LSQUnivariateSpline(x, np.asarray(y), t=[knot], k=3)
    sub = [y[i] - float(spline(x[i])) for i in range(n)]
    acmax = int(math.ceil(n / 3))
    acf = []
    for t in range(1, acmax + 1):
        acc = 0.0
        for i in range(n - t):
            acc += sub[i] * sub[i + t]
        acf.append(acc / (n - t))
    troughs, peaks = [], []
    for i in range(1, acmax - 1):
        slope_in = acf[i] - acf[i - 1]
        slope_out = acf[i + 1] - acf[i]
        if slope_in < 0 and slope_out > 0:
            troughs.append(i)
        elif slope_in > 0 and slope_out < 0:
            peaks.append(i)
    for ip in peaks:
        before = [it for it in troughs if it < ip]
        if not before:
            continue
        it = before[-1]
        if acf[ip] - acf[it] < 0.01 or acf[ip] < 0:
            continue
        return float(ip + 1)
    return 1.0


def embedding_distance_expfit_diff(y):
    n = len(y)
    tau = _first_zero(y)
    tau = max(1, min(tau, n // 10))
    d = []
    for i in range(n - tau - 1):
        d.append(math.hypot(y[i + 1] - y[i], y[i + tau + 1] - y[i + tau]))
    sd = _std1(d)
    if sd < 1e-3:
        return 0.0
    mean_d = _mean(d)
    nbins = int(math.ceil((max(d) - min(d)) / (3.5 * sd / len(d) ** (1.0 / 3.0))))
    if nbins <= 0:
        return 0.0
    counts, edges = _hist_equal(d, nbins)
    width = edges[1] - edges[0]
    acc = 0.0
    for i in range(nbins):
        center = 0.5 * (edges[i] + edges[i + 1])
        emp = counts[i] / len(d) / width
        exp_pdf = math.exp(-center / mean_d) / mean_d
        acc += abs(emp - exp_pdf)
    return acc / nbins


def ami_gaussian_first_minimum(y):
    n = len(y)
    max_lag = min(40, int(math.ceil(n / 2)))
    ami = []
    for k in range(1, max_lag + 1):
        a = y[: n - k]
        b = y[k:]
        ma, mb = _mean(a), _mean(b)
        num = sum((a[i] - ma) * (b[i] - mb) for i in range(len(a)))
        da = math.sqrt(sum((v - ma) ** 2 for v in a))
        db = math.sqrt(sum((v - mb) ** 2 for v in b))
        rho = num / (da * db)
        ami.append(-0.5 * math.log(1.0 - rho * rho))
    for i in range(1, max_lag - 1):
        if ami[i] < ami[i - 1] and ami[i] < ami[i + 1]:
            return float(i + 1)
    return float(max_lag)


def ami_gaussian_first_minimum_exact(y):
    """C12 of an integer-valued series in exact arithmetic.

    A lag's AMI increases with its squared correlation, so the squared
    correlations, as fractions of integer sums, decide every comparison.  A
    lag with a constant side has no correlation (NaN in floating point), so
    it is neither below nor above a neighbour; an exactly (anti)correlated
    lag (squared correlation 1, infinite AMI) is never below one.  On such
    series the floating-point oracle above fails or is decided by rounding.
    """
    x = [int(v) for v in y]
    if x != list(y):
        raise ValueError("the exact oracle takes integer-valued series")
    n = len(x)
    max_lag = min(40, int(math.ceil(n / 2)))
    r2 = []
    for k in range(1, max_lag + 1):
        a, b, m = x[: n - k], x[k:], n - k
        sa, sb = sum(a), sum(b)
        cov = m * sum(p * q for p, q in zip(a, b)) - sa * sb
        va = m * sum(p * p for p in a) - sa * sa
        vb = m * sum(q * q for q in b) - sb * sb
        r2.append(Fraction(cov * cov, va * vb) if va and vb else None)

    def below(i, j):
        return r2[i] is not None and r2[j] is not None and r2[i] < r2[j]

    for i in range(1, max_lag - 1):
        if below(i, i - 1) and below(i, i + 1):
            return float(i + 1)
    return float(max_lag)


def forecast_mean1_decorrelation_ratio(y):
    res = [y[i + 1] - y[i] for i in range(len(y) - 1)]
    return _first_zero(res) / _first_zero(y)


def forecast_mean3_residual_spread(y):
    res = []
    for i in range(len(y) - 3):
        res.append(y[i + 3] - (y[i] + y[i + 1] + y[i + 2]) / 3.0)
    return _std1(res)


def outlier_timing_positive(y):
    return _outlier_timing(y, +1.0)


def outlier_timing_negative(y):
    return _outlier_timing(y, -1.0)


def _outlier_timing(y, sign):
    inc = 0.01
    w = [sign * v for v in y]
    n = len(w)
    n_thresh = int(max(w) / inc + 1)
    rel_pos, pct, has_gaps = [], [], []
    for j in range(n_thresh):
        r = [i + 1 for i in range(n) if w[i] >= j * inc]
        if not r:  # float-rounding edge: top threshold may exceed the max
            n_thresh = j
            break
        rel_pos.append(_median(r) / (n / 2) - 1)
        pct.append((len(r) - 1) * 100.0 / n)
        has_gaps.append(len(r) >= 2)
    mj = 0
    for j in range(n_thresh):
        if pct[j] > 2.0:
            mj = j
    fbi = n_thresh - 1
    for j in range(n_thresh):
        if not has_gaps[j]:
            fbi = j
            break
    trim = min(mj, fbi)
    return _median(rel_pos[: trim + 1])


def _power_spectrum(y):
    """One-sided rectangular-window density by direct DFT sums (slow)."""
    return _power_spectrum_of(tuple(y))


@functools.lru_cache(maxsize=64)
def _power_spectrum_of(y: tuple) -> tuple:
    n = len(y)
    nfft = 1
    while nfft < n:
        nfft *= 2
    nout = nfft // 2 + 1
    pxx = []
    for k, (cos_k, sin_k) in enumerate(_dft_twiddles(nfft)):
        re = im = 0.0
        for v, c, s in zip(y, cos_k, sin_k):  # zero padding contributes nothing
            re += v * c
            im += v * s
        v = (re * re + im * im) / n
        if 0 < k < nout - 1:
            v *= 2.0
        pxx.append(v / (2.0 * math.pi))
    w = [2.0 * math.pi * k / nfft for k in range(nout)]
    return tuple(w), tuple(pxx)


@functools.lru_cache(maxsize=8)
def _dft_twiddles(nfft: int) -> tuple:
    """cos and sin of the angle -2*pi*k*t/nfft for t < nfft, one pair of rows per k <= nfft / 2;
    a series of n samples reads the first n of each row."""
    rows = []
    for k in range(nfft // 2 + 1):
        angles = [-2.0 * math.pi * k * t / nfft for t in range(nfft)]
        rows.append((array("d", map(math.cos, angles)), array("d", map(math.sin, angles))))
    return tuple(rows)


def spectral_power_lowest_fifth(y):
    w, s = _power_spectrum(y)
    dw = w[1] - w[0]
    return sum(s[: len(s) // 5]) * dw


def spectral_centroid_welch(y):
    w, s = _power_spectrum(y)
    total = sum(s)
    acc = 0.0
    for i in range(len(s)):
        acc += s[i]
        if acc > 0.5 * total:
            return w[i]
    return 0.0


def _linreg(xs, ys):
    n = len(xs)
    mx = _mean(xs)
    my = _mean(ys)
    num = sum((xs[i] - mx) * (ys[i] - my) for i in range(n))
    den = sum((x - mx) ** 2 for x in xs)
    slope = num / den
    return slope, my - slope * mx


def _fluct_split(y, lag, mode):
    n = len(y)
    lin_lo = math.log(5.0)
    lin_hi = math.log(n // 2)
    raw = [round(math.exp(lin_lo + i * (lin_hi - lin_lo) / 49.0)) for i in range(50)]
    sizes = sorted(set(int(v) for v in raw))
    if len(sizes) < 12:
        return 0.0
    decimated = y[::lag]
    cs = []
    acc = 0.0
    for v in decimated:
        acc += v
        cs.append(acc)
    fluct = []
    for tau in sizes:
        nwin = len(cs) // tau
        xs = list(range(1, tau + 1))
        total = 0.0
        for j in range(nwin):
            seg = cs[j * tau : (j + 1) * tau]
            slope, intercept = _linreg(xs, seg)
            resid = [seg[k] - (slope * xs[k] + intercept) for k in range(tau)]
            if mode == "dfa":
                total += sum(r * r for r in resid)
            else:
                total += (max(resid) - min(resid)) ** 2
        if mode == "dfa":
            fluct.append(math.sqrt(total / (nwin * tau)))
        else:
            fluct.append(math.sqrt(total / nwin))
    log_t = [math.log(v) for v in sizes]
    log_f = [math.log(v) for v in fluct]
    ntt = len(sizes)
    min_points = 6
    best = None
    best_split = min_points
    for split in range(min_points, ntt - min_points + 1):
        m1, b1 = _linreg(log_t[:split], log_f[:split])
        m2, b2 = _linreg(log_t[split - 1 :], log_f[split - 1 :])
        e1 = math.sqrt(sum((m1 * log_t[i] + b1 - log_f[i]) ** 2 for i in range(split)))
        e2 = math.sqrt(
            sum(
                (m2 * log_t[i] + b2 - log_f[i]) ** 2
                for i in range(split - 1, ntt)
            )
        )
        err = e1 + e2
        if best is None or err < best:
            best = err
            best_split = split
    return best_split / ntt


def dfa_scaling_split(y):
    return _fluct_split(y, 2, "dfa")


def range_fit_scaling_split(y):
    return _fluct_split(y, 1, "rsrangefit")


def motif_three_pair_entropy(y):
    s = _coarse3(y)
    counts = {}
    for t in range(len(s) - 1):
        key = (s[t], s[t + 1])
        counts[key] = counts.get(key, 0) + 1
    total = len(s) - 1
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log(p)
    return h


REFERENCE_FUNCS = {
    "C1": histogram_mode_5,
    "C2": histogram_mode_10,
    "C3": acf_first_1e_crossing,
    "C4": acf_first_minimum,
    "C5": histogram_ami_even_2_5,
    "C6": time_reversal_asymmetry,
    "C7": high_delta_fraction,
    "C8": longest_stretch_above_mean,
    "C9": transition_matrix_trace_cov,
    "C10": periodicity_wang,
    "C11": embedding_distance_expfit_diff,
    "C12": ami_gaussian_first_minimum,
    "C13": forecast_mean1_decorrelation_ratio,
    "C14": outlier_timing_positive,
    "C15": outlier_timing_negative,
    "C16": spectral_power_lowest_fifth,
    "C17": longest_stretch_decreasing,
    "C18": motif_three_pair_entropy,
    "C19": dfa_scaling_split,
    "C20": range_fit_scaling_split,
    "C21": spectral_centroid_welch,
    "C22": forecast_mean3_residual_spread,
}


def reference_all(series) -> dict[str, float]:
    """All 22 reference values on one raw series (z-scored here, ddof=1)."""
    z = zscore([float(v) for v in series])
    return {code: float(func(z)) for code, func in REFERENCE_FUNCS.items()}
