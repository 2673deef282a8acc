"""Feature registry: codes, metadata, and extraction dispatch.

A registry is an ordered, immutable collection of :class:`FeatureDef`.  The
canonical catalog registers the 22 time-series features as C1..C22 (in the
reference package's output order); the reproduction profile prepends the
four W1..W4 surrogate features for 26 inputs in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import DegenerateSeries, UnknownFeature
from . import catalog, surrogates


@dataclass(frozen=True)
class FeatureDef:
    """One registered feature.

    ``func`` is a block kernel: it maps a :class:`SeriesBlock` to one value
    per row, each independent of the other rows, and reads the block's raw,
    demeaned or z-scored rows and whichever shared intermediates it needs.
    ``affine_invariant`` declares whether the value is unchanged under
    x -> a*x + b with a > 0, which the property suite asserts.
    """

    code: str
    name: str
    func: Callable[[SeriesBlock], np.ndarray]
    min_length: int
    affine_invariant: bool
    description: str


class SeriesBlock:
    """The rows of nonzero variance of one :meth:`FeatureRegistry.extract_block`
    call, as every kernel of that call sees them.

    ``raw`` holds the rows as given, ``dev`` less their means and ``z``
    z-scored (``dev`` over the sample std, ddof=1).  The intermediates that
    several features share are computed on first use, once per block, and
    only if a requested feature reads them; no kernel computes its own.
    Every array is read-only, so no kernel can change what another reads.
    """

    def __init__(self, raw: np.ndarray, dev: np.ndarray, z: np.ndarray):
        self.raw, self.dev, self.z = map(_read_only, (raw, dev, z))

    @cached_property
    def diff(self) -> np.ndarray:
        """Successive differences of each z-scored row (C6, C7, C13, C17)."""
        return _read_only(np.diff(self.z, axis=1))

    @cached_property
    def order(self) -> np.ndarray:
        """Ascending argsort of each z-scored row, ties in any order (C14, C15)."""
        return _read_only(np.argsort(self.z, axis=1))

    @cached_property
    def exceedances(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row and count k, how many of the thresholds C14 keeps on z
        ([0]) and C15 on -z ([1]) exactly k samples reach, and the largest k
        of each row (C14, C15; see :func:`catalog.threshold_exceedances`)."""
        return tuple(map(_read_only, catalog.threshold_exceedances(self.z, self.order)))

    @cached_property
    def acf(self) -> np.ndarray:
        """Autocorrelation of each z-scored row at lags 0..n-1 (C3, C4, C9, C11, C13)."""
        return _read_only(catalog.autocorrelation(self.z))

    @cached_property
    def acf_zero(self) -> np.ndarray:
        """First lag where :attr:`acf` is <= 0, per row; n if none (C9, C11, C13)."""
        return _read_only(catalog.first_zero_crossing(self.acf))

    @cached_property
    def power(self) -> np.ndarray:
        """|rfft|^2 of each demeaned raw row (W2, W3)."""
        return _read_only(np.abs(np.fft.rfft(self.dev)) ** 2)

    @cached_property
    def periodogram(self) -> tuple[np.ndarray, np.ndarray]:
        """(angular frequencies, one-sided spectral density per z-scored row) (C16, C21)."""
        w, s = catalog.one_sided_power_spectrum(self.z)
        return _read_only(w), _read_only(s)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.setflags(write=False)
    return view


class FeatureRegistry:
    """Immutable ordered mapping from feature code to definition."""

    def __init__(self, defs: Iterable[FeatureDef]):
        self._defs: dict[str, FeatureDef] = {}
        for d in defs:
            if d.code in self._defs:
                raise ValueError(f"duplicate feature code {d.code!r}")
            self._defs[d.code] = d

    def codes(self) -> tuple[str, ...]:
        return tuple(self._defs)

    def get(self, code: str) -> FeatureDef:
        try:
            return self._defs[code]
        except KeyError:
            raise UnknownFeature(f"feature code {code!r} is not registered") from None

    def __contains__(self, code: str) -> bool:
        return code in self._defs

    def __len__(self) -> int:
        return len(self._defs)

    def __iter__(self) -> Iterator[FeatureDef]:
        return iter(self._defs.values())

    def extract(self, code: str, samples: np.ndarray) -> float:
        """Compute one feature on one series, a block of one (see
        :meth:`extract_block`); its failure is raised as :class:`DegenerateSeries`."""
        values, failures = self.extract_block((code,), np.asarray(samples, dtype=float)[None])
        if failures:
            raise DegenerateSeries(failures[0])
        return float(values[0, 0])

    def extract_block(self, codes: Sequence[str], block: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
        """Compute several features on every row of a (traces x samples) block.

        Returns the (traces x codes) values and, for each row that failed,
        its first failure in code order: zero variance (standardization
        would be undefined; named by the first code), a non-finite value,
        or a series shorter than a feature's documented minimum.  A failed
        row holds NaN from its failing code on.  The block's length,
        variance and finiteness are each checked once, and it is z-scored
        once.  Each kernel before the first code the series is too short
        for runs once, on one :class:`SeriesBlock` of the rows of nonzero
        variance, which the kernels of this call share.
        """
        defs = [self.get(code) for code in codes]
        x = np.ascontiguousarray(block, dtype=float)
        values = np.full((len(x), len(defs)), np.nan)
        failures: dict[int, str] = {}
        cut = next((j for j, d in enumerate(defs) if x.ndim != 2 or x.shape[1] < d.min_length), len(defs))
        if cut:
            n = x.shape[1]
            # x.std(ddof=1) and x - x.mean() of each row, in numpy's own
            # order of operations, sharing the deviations between them
            dev = x - x.sum(axis=1, keepdims=True) / n
            sd = np.sqrt((dev * dev).sum(axis=1) / (n - 1))
            rows = (sd > 0).nonzero()[0]
            # the kernels write straight into values unless a row is constant
            out = values[:, :cut] if len(rows) == len(x) else np.empty((len(rows), cut))
            if len(rows) < len(x):
                message = f"{defs[0].code} is undefined on a constant series"
                failures = dict.fromkeys(np.flatnonzero(~(sd > 0)).tolist(), message)
                x, dev, sd = x[rows], dev[rows], sd[rows]
            if len(rows):
                shared = SeriesBlock(x, dev, dev / sd[:, None])
                for j, d in enumerate(defs[:cut]):
                    out[:, j] = d.func(shared)
                finite = np.isfinite(out)
                if not finite.all():
                    for k in np.flatnonzero(~finite.all(axis=1)).tolist():
                        j = int(np.argmin(finite[k]))
                        failures[int(rows[k])] = f"{defs[j].code} produced a non-finite value"
                        out[k, j:] = np.nan
                if len(rows) < len(values):
                    values[rows, :cut] = out
        if cut < len(defs):
            d = defs[cut]
            message = f"{d.code} needs a 1-D series of at least {d.min_length} samples, got {x.shape[1:]}"
            failures = {r: failures.get(r, message) for r in range(len(values))}
        return values, failures


def _canonical_defs() -> list[FeatureDef]:
    entries = [
        ("C1", "DN_HistogramMode_5", catalog.histogram_mode_5, 10,
         "5-bin histogram mode of the standardized distribution"),
        ("C2", "DN_HistogramMode_10", catalog.histogram_mode_10, 10,
         "10-bin histogram mode of the standardized distribution"),
        ("C3", "CO_f1ecac", catalog.acf_first_1e_crossing, 10,
         "first 1/e crossing of the autocorrelation function"),
        ("C4", "CO_FirstMin_ac", catalog.acf_first_minimum, 10,
         "first local minimum of the autocorrelation function"),
        ("C5", "CO_HistogramAMI_even_2_5", catalog.histogram_ami_even_2_5, 10,
         "automutual information at lag 2, 5 even bins"),
        ("C6", "CO_trev_1_num", catalog.time_reversal_asymmetry, 4,
         "time-reversibility: mean cubed successive difference"),
        ("C7", "MD_hrv_classic_pnn40", catalog.high_delta_fraction, 4,
         "fraction of successive differences exceeding 0.04"),
        ("C8", "SB_BinaryStats_mean_longstretch1", catalog.longest_stretch_above_mean, 10,
         "longest run above the mean"),
        ("C9", "SB_TransitionMatrix_3ac_sumdiagcov", catalog.transition_matrix_trace_cov, 20,
         "trace of covariance of the 3-symbol transition matrix"),
        ("C10", "PD_PeriodicityWang_th0_01", catalog.periodicity_wang, 20,
         "first significant autocorrelation peak after spline detrending"),
        ("C11", "CO_Embed2_Dist_tau_d_expfit_meandiff", catalog.embedding_distance_expfit_diff, 20,
         "exponential-fit mismatch of embedding distance distribution"),
        ("C12", "IN_AutoMutualInfoStats_40_gaussian_fmmi", catalog.ami_gaussian_first_minimum, 10,
         "first minimum of Gaussian automutual information"),
        ("C13", "FC_LocalSimple_mean1_tauresrat", catalog.forecast_mean1_decorrelation_ratio, 10,
         "decorrelation-lag ratio after lag-1 mean forecasting"),
        ("C14", "DN_OutlierInclude_p_001_mdrmd", catalog.outlier_timing_positive, 10,
         "median timing of positive deviations across thresholds"),
        ("C15", "DN_OutlierInclude_n_001_mdrmd", catalog.outlier_timing_negative, 10,
         "median timing of negative deviations across thresholds"),
        ("C16", "SP_Summaries_welch_rect_area_5_1", catalog.spectral_power_lowest_fifth, 16,
         "spectral power in the lowest fifth of frequencies"),
        ("C17", "SB_BinaryStats_diff_longstretch0", catalog.longest_stretch_decreasing, 10,
         "longest run of successive decreases"),
        ("C18", "SB_MotifThree_quantile_hh", catalog.motif_three_pair_entropy, 10,
         "entropy of consecutive pairs in a 3-letter quantile alphabet"),
        ("C19", "SC_FluctAnal_2_dfa_50_1_2_logi_prop_r1", catalog.dfa_scaling_split, 16,
         "DFA fluctuation-scaling breakpoint fraction"),
        ("C20", "SC_FluctAnal_2_rsrangefit_50_1_logi_prop_r1", catalog.range_fit_scaling_split, 16,
         "rescaled-range fluctuation-scaling breakpoint fraction"),
        ("C21", "SP_Summaries_welch_rect_centroid", catalog.spectral_centroid_welch, 16,
         "median-power angular frequency of the spectrum"),
        ("C22", "FC_LocalSimple_mean3_stderr", catalog.forecast_mean3_residual_spread, 8,
         "spread of rolling 3-sample-mean forecast errors"),
    ]
    return [
        FeatureDef(
            code=code,
            name=name,
            func=func,
            min_length=min_len,
            affine_invariant=True,
            description=desc,
        )
        for code, name, func, min_len, desc in entries
    ]


def _surrogate_defs() -> list[FeatureDef]:
    return [
        FeatureDef("W1", "trace_rms", surrogates.root_mean_square, 4, affine_invariant=False,
                   description="RMS amplitude (surrogate for prior-model feature 1)"),
        FeatureDef("W2", "dominant_frequency", surrogates.dominant_frequency, 8, affine_invariant=True,
                   description="dominant frequency in cycles/sample (surrogate 2)"),
        FeatureDef("W3", "spectral_centroid", surrogates.spectral_centroid, 8, affine_invariant=True,
                   description="spectral centroid in cycles/sample (surrogate 3)"),
        FeatureDef("W4", "short_long_energy_ratio", surrogates.short_long_energy_ratio, 10, affine_invariant=False,
                   description="max short/long window energy ratio (surrogate 4)"),
    ]


def canonical_registry() -> FeatureRegistry:
    """The 22-feature canonical catalog, C1..C22."""
    return FeatureRegistry(_canonical_defs())


def reproduction_registry() -> FeatureRegistry:
    """W1..W4 surrogates plus C1..C22: the 26-input discovery profile."""
    return FeatureRegistry(_surrogate_defs() + _canonical_defs())


BASE_FEATURES = ("W1", "W2", "W3", "W4")
SELECTED_CANONICAL = ("C10", "C11", "C14", "C15")


def selected_profile() -> tuple[str, ...]:
    """The 8-input profile: base features plus the four discovered ones."""
    return BASE_FEATURES + SELECTED_CANONICAL
