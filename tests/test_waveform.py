"""Preprocessing chain: demean, detrend, band-pass, decimation."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import signal

from quakebox.errors import DegenerateInput, InvalidBand, InvalidFactor
from quakebox.waveform import (
    BLOCK_ROWS,
    PreprocessConfig,
    WaveformRecord,
    bandpass,
    blocks,
    demean,
    detrend_linear,
    downsample,
    preprocess,
    preprocess_records,
)

from conftest import make_record


def tone_amplitude(x, fs, freq):
    """Steady-state amplitude of one frequency by direct projection.

    Uses the central half of the trace (edges carry filter transients) over
    a whole number of periods.
    """
    n = len(x)
    period = fs / freq
    n_take = int(period * math.floor(n / 2 / period))
    start = (n - n_take) // 2
    seg = np.asarray(x[start : start + n_take])
    t = np.arange(start, start + n_take) / fs
    s = np.sin(2 * np.pi * freq * t)
    c = np.cos(2 * np.pi * freq * t)
    return 2 * math.hypot(seg @ s / n_take, seg @ c / n_take)


def test_record_label_outside_labels_refused():
    with pytest.raises(ValueError) as err:
        make_record("tr9", label="quake")
    assert str(err.value) == "tr9: label must be one of ('event', 'noise')"


@pytest.mark.parametrize("changes,kind,named", [
    ({"downsample_factor": 0}, InvalidFactor, "downsample_factor must be a positive integer, got 0"),
    ({"downsample_factor": 2.0}, InvalidFactor, "downsample_factor must be a positive integer, got 2.0"),
    ({"filter_order": 0}, ValueError, "filter_order must be a positive integer, got 0"),
    ({"filter_order": 4.0}, ValueError, "filter_order must be a positive integer, got 4.0"),
    ({"window_len": 0}, ValueError, "window_len must be positive, got 0"),
], ids=["factor-0", "factor-float", "order-0", "order-float", "window-0"])
def test_preprocess_config_checks(changes, kind, named):
    with pytest.raises(kind) as err:
        PreprocessConfig(**changes)
    assert type(err.value) is kind and str(err.value) == named


@pytest.mark.parametrize("call,named", [
    (lambda: bandpass(np.array([1.0]), 200.0, PreprocessConfig()), "bandpass needs at least 2 samples"),
    (lambda: bandpass(np.ones((3, 1)), 200.0, PreprocessConfig()), "bandpass needs at least 2 samples"),
    (lambda: downsample(np.array([]), 2), "cannot downsample an empty sequence"),
    (lambda: downsample(np.empty((2, 0)), 2), "cannot downsample an empty sequence"),
], ids=["bandpass-1", "bandpass-block-1", "downsample-empty", "downsample-block-empty"])
def test_too_short_input_refused(call, named):
    with pytest.raises(DegenerateInput) as err:
        call()
    assert str(err.value) == named


class TestDemean:
    def test_constant_goes_to_zero(self):
        assert np.allclose(demean([5.0, 5.0, 5.0, 5.0]), 0.0)

    def test_symmetric_sequence(self):
        assert np.allclose(demean([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0])

    def test_gaussian_mean_below_tolerance(self, rng):
        x = rng.standard_normal(1000) + 3.7
        out = demean(x)
        rms = np.sqrt(np.mean(x**2))
        assert abs(out.mean()) < 1e-12 * rms
        assert out.size == x.size

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            demean([])


class TestDetrend:
    def test_perfect_line_annihilated(self):
        assert np.allclose(detrend_linear([0.0, 1.0, 2.0, 3.0]), 0.0, atol=1e-12)

    def test_constant_annihilated(self):
        assert np.allclose(detrend_linear(np.full(50, 2.5)), 0.0, atol=1e-12)

    def test_line_plus_sine_leaves_sine_residual(self):
        fs = 200.0
        t = np.arange(800) / fs
        sine = np.sin(2 * np.pi * 10.0 * t)
        x = 0.5 * np.arange(800) + 3.0 + sine
        out = detrend_linear(x)
        # oracle: closed-form OLS line of the sine alone (detrending is linear,
        # so the line+offset vanish exactly and only the sine's own fit remains)
        ti = np.arange(800, dtype=float)
        slope = ((ti - ti.mean()) @ (sine - sine.mean())) / ((ti - ti.mean()) @ (ti - ti.mean()))
        intercept = sine.mean() - slope * ti.mean()
        expected = sine - (slope * ti + intercept)
        rms = np.sqrt(np.mean(x**2))
        assert np.max(np.abs(out - expected)) < 1e-9 * rms

    def test_too_short(self):
        with pytest.raises(DegenerateInput):
            detrend_linear([1.0])

    def test_matches_polyfit_bit_for_bit(self, rng):
        # the design matrix is cached per length; alternate lengths so each
        # call follows one with another design
        for n in (2, 3, 600, 7, 1201, 2, 600):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5) * np.arange(n)
            t = np.arange(n, dtype=float)
            slope, intercept = np.polyfit(t, x, deg=1)
            assert detrend_linear(x).tobytes() == (x - (slope * t + intercept)).tobytes()


class TestBlockForms:
    """detrend_linear and demean of a (traces x samples) block: each row is
    the one-trace result, bit for bit."""

    @staticmethod
    def _block(rng, rows, n):
        # row k is of kind k % 4: noise of any scale on a line, integer
        # values, a random walk, or samples near the float maximum
        t = np.arange(n)
        kinds = [
            lambda: rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5) * t,
            lambda: np.round(rng.standard_normal(n) * 100.0),
            lambda: np.cumsum(rng.standard_normal(n) * 1e3),
            lambda: rng.uniform(-1.0, 1.0, n) * 1.7e308,
        ]
        return np.array([kinds[k % 4]() for k in range(rows)])

    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize("n", [*range(2, 18), 31, 64, 255, 256, 600, 1199, 1200])
    def test_block_equals_stacked_traces_bit_for_bit(self, rng, rows, n):
        for kind in range(4 if rows == 1 else 1):  # a block of one of each kind, or of all kinds
            block = self._block(rng, rows + kind, n)[kind:]
            # near the float maximum the fit leaves the float range, as preprocess_records allows
            with np.errstate(over="ignore", invalid="ignore"):
                for step in (detrend_linear, demean):
                    together = step(block)
                    assert together.shape == block.shape
                    assert together.tobytes() == np.array([step(row) for row in block]).tobytes(), step

    def test_a_failed_fit_raises_as_np_linalg_lstsq_does(self, monkeypatch):
        # the gufunc reports a dgelsd that did not converge by raising the
        # invalid flag; detrend_linear turns it into np.linalg.lstsq's error
        import quakebox.waveform as waveform

        def failing(*args, **kwargs):
            np.subtract(np.inf, np.inf)
            return np.zeros((2, 1)), None, None, None

        monkeypatch.setattr(waveform, "_umath_linalg", SimpleNamespace(lstsq=failing))
        with pytest.raises(np.linalg.LinAlgError, match="^SVD did not converge in Linear Least Squares$"):
            detrend_linear(np.arange(5.0))

    def test_block_rows_too_short(self):
        for shape in ((1, 1), (64, 1), (3, 0)):
            with pytest.raises(DegenerateInput, match="linear detrend needs at least 2 samples"):
                detrend_linear(np.zeros(shape))
        with pytest.raises(DegenerateInput, match="cannot demean an empty sequence"):
            demean(np.zeros((3, 0)))


class TestIdempotenceAndLinearity:
    @pytest.mark.parametrize("seed", range(5))
    def test_idempotence(self, seed):
        x = np.random.default_rng(seed).standard_normal(300)
        assert np.allclose(demean(demean(x)), demean(x), atol=1e-10)
        assert np.allclose(detrend_linear(detrend_linear(x)), detrend_linear(x), atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(256)
        y = rng.standard_normal(256)
        a, b = 1.7, -0.3
        cfg = PreprocessConfig()
        fs = 200.0
        for f in (
            demean,
            detrend_linear,
            lambda v: bandpass(v, fs, cfg),
        ):
            lhs = f(a * x + b * y)
            rhs = a * np.asarray(f(x)) + b * np.asarray(f(y))
            scale = max(np.max(np.abs(rhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale


class TestBandpass:
    def test_passband_tone_preserved(self):
        fs = 200.0
        t = np.arange(4000) / fs
        x = np.sin(2 * np.pi * 15.0 * t)
        out = bandpass(x, fs, PreprocessConfig())
        assert tone_amplitude(out, fs, 15.0) == pytest.approx(1.0, abs=0.05)

    def test_stopband_tone_rejected(self):
        fs = 200.0
        t = np.arange(4000) / fs
        x = np.sin(2 * np.pi * 1.0 * t)
        out = bandpass(x, fs, PreprocessConfig())
        assert tone_amplitude(out, fs, 1.0) < 0.05

    def test_zeros_map_to_zeros(self):
        out = bandpass(np.zeros(500), 200.0, PreprocessConfig())
        assert np.allclose(out, 0.0)

    def test_zero_phase_no_lag(self, rng):
        fs = 200.0
        t = np.arange(2000) / fs
        x = (
            np.sin(2 * np.pi * 8.0 * t)
            + 0.7 * np.sin(2 * np.pi * 14.0 * t + 0.9)
            + 0.4 * np.sin(2 * np.pi * 21.0 * t + 2.1)
        )
        out = bandpass(x, fs, PreprocessConfig())
        corr = np.correlate(out, x, mode="full")
        assert int(np.argmax(corr)) - (len(x) - 1) == 0

    def test_band_must_fit_under_nyquist(self):
        with pytest.raises(InvalidBand):
            bandpass(np.ones(100), 40.0, PreprocessConfig(band_high_hz=25.0))
        with pytest.raises(InvalidBand):
            PreprocessConfig(band_low_hz=30.0, band_high_hz=25.0)

    @pytest.mark.parametrize("low,why", [(1e-10, "Singular matrix"),
                                         (5e-324, "filter critical frequencies must be greater than 0")])
    def test_band_without_stable_design_names_the_trace_and_band(self, low, why):
        rec = make_record("n7", samples=np.ones(64))
        with pytest.raises(InvalidBand) as err:
            preprocess(rec, PreprocessConfig(band_low_hz=low))
        assert str(err.value) == f"n7: band [{low}, 25.0] has no order-4 Butterworth design at fs=200.0 ({why})"

    def test_same_length(self, rng):
        x = rng.standard_normal(333)
        assert bandpass(x, 200.0, PreprocessConfig()).size == 333


    def test_cached_design_matches_fresh_design_interleaved(self, rng):
        # two configs that differ in fs, band and order, alternated so each
        # call follows a call with the other design; the lengths run from 2
        # samples through both sides of the settling length (120 and 150)
        setups = [
            (PreprocessConfig(band_low_hz=5.0, band_high_hz=25.0), 200.0),
            (PreprocessConfig(band_low_hz=2.0, band_high_hz=40.0, filter_order=3), 100.0),
        ]
        for n in (1200, 700, 2, 3, 119, 120, 121, 122, 150, 151, 152):
            for cfg, fs in setups:
                x = rng.standard_normal(n)
                sos = signal.butter(
                    cfg.filter_order, [cfg.band_low_hz, cfg.band_high_hz],
                    btype="bandpass", fs=fs, output="sos",
                )
                padlen = min(n - 1, int(round(3 * fs / cfg.band_low_hz)))
                expected = signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)
                assert bandpass(x, fs, cfg).tobytes() == expected.tobytes()

    def test_cached_lowpass_matches_sosfiltfilt(self, rng):
        for factor in (2, 3, 2):
            for n in (1, 2, 30 * factor, 30 * factor + 1, 30 * factor + 2, 500):
                x = rng.standard_normal(n)
                sos = signal.butter(8, 0.8 / factor, btype="lowpass", output="sos")
                padlen = min(n - 1, 30 * factor)
                expected = signal.sosfiltfilt(sos, x, padtype="even", padlen=padlen)[::factor]
                assert downsample(x, factor).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 119, 120, 121, 1200])  # the settling length is 120
    def test_block_rows_match_sosfiltfilt(self, rng, n):
        # rows of scales 1e-3 to 1e5, filtered as one block, against scipy on each row
        block = rng.standard_normal((9, n)) * np.logspace(-3, 5, 9)[:, None]
        fs, cfg, factor = 200.0, PreprocessConfig(), 3
        bandpass_sos = signal.butter(4, [5.0, 25.0], btype="bandpass", fs=fs, output="sos")
        lowpass_sos = signal.butter(8, 0.8 / factor, btype="lowpass", output="sos")
        filtered = bandpass(block, fs, cfg) if n > 1 else None  # bandpass refuses one sample
        decimated = downsample(block, factor)
        for i, row in enumerate(block):
            if filtered is not None:
                expected = signal.sosfiltfilt(bandpass_sos, row, padtype="even", padlen=min(n - 1, 120))
                assert filtered[i].tobytes() == expected.tobytes()
            expected = signal.sosfiltfilt(lowpass_sos, row, padtype="even", padlen=min(n - 1, 30 * factor))
            assert decimated[i].tobytes() == expected[::factor].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 600])  # at one sample the low-pass pads nothing
    @pytest.mark.parametrize("rows", [None, 3])
    def test_filters_leave_the_callers_array_unchanged(self, rng, n, rows):
        # the compiled filter works in place, so it must only ever see private copies
        x = rng.standard_normal(n if rows is None else (rows, n))
        before = x.tobytes()
        cfg = PreprocessConfig(band_low_hz=2.0, band_high_hz=29.0, downsample_factor=3)
        downsample(x, 3)
        if n > 1:  # the band-pass and the line fit need two samples
            bandpass(x, 100.0, cfg)
            # the band reaches past the new Nyquist, so both filters run
            preprocess_records([make_record(f"t{i}", samples=row, fs=100.0)
                                for i, row in enumerate(np.atleast_2d(x))], cfg)
        assert x.flags.writeable and x.tobytes() == before


class TestDownsample:
    def test_factor_one_identity(self, rng):
        x = rng.standard_normal(10)
        assert np.array_equal(downsample(x, 1), x)

    def test_length_contract(self, rng):
        for n in (1, 2, 9, 10, 11, 100, 257):
            x = rng.standard_normal(n)
            for k in (1, 2, 3, 4, 7):
                assert downsample(x, k).size == math.ceil(n / k)

    def test_zero_factor_rejected(self):
        with pytest.raises(InvalidFactor):
            downsample(np.ones(4), 0)

    def test_band_limited_content_preserved_and_alias_suppressed(self):
        fs = 200.0
        t = np.arange(8000) / fs
        inband = [6.0, 12.0, 24.0]
        x = sum(np.sin(2 * np.pi * f * t + i) for i, f in enumerate(inband))
        x = x + 0.8 * np.sin(2 * np.pi * 60.0 * t)  # would alias to 40 Hz
        out = downsample(x, 2)
        fs2 = fs / 2
        for f in inband:
            assert tone_amplitude(out, fs2, f) == pytest.approx(1.0, abs=0.05)
        assert tone_amplitude(out, fs2, 40.0) < 0.05


class TestPreprocess:
    def test_constant_record_becomes_zero(self):
        rec = make_record(samples=np.full(600, 4.2))
        out = preprocess(rec, PreprocessConfig())
        assert np.allclose(out.samples, 0.0, atol=1e-9)

    def test_sample_rate_updated(self):
        rec = make_record(samples=np.random.default_rng(0).standard_normal(600))
        out = preprocess(rec, PreprocessConfig(downsample_factor=2))
        assert out.sample_rate == pytest.approx(100.0)
        assert out.trace_id == rec.trace_id
        assert out.label == rec.label

    def test_matches_manual_chain(self, rng):
        rec = make_record(samples=rng.standard_normal(700))
        cfg = PreprocessConfig()
        out = preprocess(rec, cfg)
        x = detrend_linear(rec.samples)
        x = demean(x)
        x = bandpass(x, rec.sample_rate, cfg)
        x = downsample(x, cfg.downsample_factor, assume_bandlimited=True)
        assert np.array_equal(out.samples, x)

    def test_window_crop_and_reject(self, rng):
        rec = make_record(samples=rng.standard_normal(700))
        out = preprocess(rec, PreprocessConfig(window_len=128))
        assert out.samples.size == 128
        with pytest.raises(DegenerateInput):
            preprocess(rec, PreprocessConfig(window_len=4000))

    def test_antialias_kicks_in_when_band_exceeds_new_nyquist(self, rng):
        # fs=60, factor=2 -> new Nyquist 15 < band_high 25: decimation must filter
        fs = 60.0
        t = np.arange(3000) / fs
        x = np.sin(2 * np.pi * 22.0 * t)  # in band, above new Nyquist
        rec = make_record(samples=x, fs=fs)
        out = preprocess(rec, PreprocessConfig(band_low_hz=5.0, band_high_hz=25.0))
        # aliased image would appear at 8 Hz after halving; it must be attenuated
        assert tone_amplitude(out.samples, fs / 2, 8.0) < 0.3


def _records(specs, rng):
    """One record per (trace id, sample rate, length), with random samples on a random line."""
    return [make_record(tid, samples=rng.standard_normal(n) + rng.uniform(-3, 3) * np.arange(n) / n, fs=fs)
            for tid, fs, n in specs]


def _outcome(call):
    """The records ``call()`` returns as (id, sample rate, sample bytes), or its error's type and text."""
    try:
        return [(r.trace_id, r.sample_rate, r.samples.tobytes()) for r in call()]
    except (DegenerateInput, InvalidBand, InvalidFactor) as exc:
        return type(exc), str(exc)


class TestPreprocessRecords:
    """The list call equals one ``preprocess`` call per record, byte for byte."""

    def _same_as_one_at_a_time(self, records, cfg):
        together = _outcome(lambda: preprocess_records(records, cfg))
        alone = _outcome(lambda: [preprocess(r, cfg) for r in records])
        assert together == alone
        return together

    @pytest.mark.parametrize("window_len", [None, 128])
    def test_interleaved_rates_and_lengths_keep_input_order(self, rng, window_len):
        shapes = [(200.0, 600), (100.0, 1200), (200.0, 601), (200.0, 1200), (60.0, 400)]
        specs = [(f"t{k}", *shapes[(k * 3) % len(shapes)]) for k in range(40)]
        out = self._same_as_one_at_a_time(_records(specs, rng), PreprocessConfig(window_len=window_len))
        assert [tid for tid, _, _ in out] == [tid for tid, _, _ in specs]
        assert len({(fs, n) for _, fs, n in specs}) == len(shapes)

    @pytest.mark.parametrize("window_len", [None, 100])
    def test_block_antialias_branch(self, rng, window_len):
        # the band reaches past the post-decimation Nyquist (100 / 2 / 3 and
        # 60 / 2 / 3 Hz), so each block is low-passed before it is decimated
        cfg = PreprocessConfig(band_low_hz=2.0, band_high_hz=29.0, downsample_factor=3,
                               window_len=window_len)
        specs = [(f"t{k}", (100.0, 60.0)[k % 2], (900, 700, 901)[k % 3]) for k in range(24)]
        assert all(cfg.band_high_hz >= fs / 2 / cfg.downsample_factor for _, fs, _ in specs)
        self._same_as_one_at_a_time(_records(specs, rng), cfg)

    @pytest.mark.parametrize("odd,cfg,error,text", [
        (("bad", 40.0, 600), PreprocessConfig(), InvalidBand,
         "bad: band_high_hz 25.0 must lie below Nyquist 20.0 (fs=40.0)"),
        (("bad", 2e10, 600), PreprocessConfig(band_low_hz=0.5), InvalidBand,
         "bad: band [0.5, 25.0] has no order-4 Butterworth design at fs=20000000000.0 (Singular matrix)"),
        (("bad", 200.0, 200), PreprocessConfig(window_len=128), DegenerateInput,
         "bad: 100 samples after preprocessing, need 128"),
        (("bad", 200.0, 1), PreprocessConfig(), DegenerateInput,
         "bad: linear detrend needs at least 2 samples"),
    ], ids=["nyquist", "no-stable-design", "short-for-window", "short-for-detrend"])
    def test_error_names_the_offending_trace(self, rng, odd, cfg, error, text):
        # the offending trace sits between valid traces of one shape, whose
        # block starts before it and ends after it
        valid = [(f"t{k}", 200.0, 600) for k in range(6)]
        specs = valid[:3] + [odd] + valid[3:]
        assert self._same_as_one_at_a_time(_records(specs, rng), cfg) == (error, text)

    def test_first_offending_trace_in_input_order_is_named(self, rng):
        specs = [("t0", 200.0, 600), ("late", 200.0, 200), ("t1", 200.0, 600), ("early", 200.0, 1),
                 ("late2", 200.0, 200)]
        records = _records(specs, rng)
        cfg = PreprocessConfig(window_len=128)
        assert self._same_as_one_at_a_time(records, cfg)[1].startswith("late: ")
        assert self._same_as_one_at_a_time(records[2:], cfg)[1].startswith("early: ")


def _overflowing(n):
    """Finite samples whose linear detrend leaves the float range."""
    return np.where(np.arange(n) % 2, -1.7e308, 1.7e308)


class TestBlocks:
    """The one block layout of preprocessing and extraction."""

    def test_runs_of_one_key_in_order_of_first_appearance(self):
        keys = ["c" if k % 7 == 6 else "b" if k % 5 == 4 else "a" for k in range(200)]
        runs = list(blocks(keys))
        assert sorted(i for run in runs for i in run) == list(range(len(keys)))
        run_keys = [keys[run[0]] for run in runs]
        for key, run in zip(run_keys, runs):
            assert 0 < len(run) <= BLOCK_ROWS and run == sorted(run)
            assert {keys[i] for i in run} == {key}
        # one key's runs are adjacent, keys come in order of first appearance,
        # and every run but a key's last is full
        assert run_keys == sorted(run_keys, key=keys.index)
        for key in "abc":
            sizes = [len(run) for k, run in zip(run_keys, runs) if k == key]
            assert sizes[:-1] == [BLOCK_ROWS] * (len(sizes) - 1)
        assert run_keys.count("a") == 3
        assert list(blocks([])) == []

    @staticmethod
    def _specs():
        # 134 of 160 records share one shape, in blocks of 64, 64 and 6 rows;
        # every sixth record has one of two other shapes
        other = [(100.0, 500), (200.0, 601)]
        specs = [(f"t{k}", *(other[k // 6 % 2] if k % 6 == 5 else (200.0, 600))) for k in range(160)]
        main = [k for k, (_, fs, n) in enumerate(specs) if (fs, n) == (200.0, 600)]
        assert len(main) == 2 * BLOCK_ROWS + 6
        return specs, main

    def test_a_group_across_three_blocks_equals_one_record_at_a_time(self, rng):
        specs, _ = self._specs()
        records = _records(specs, rng)
        cfg = PreprocessConfig(window_len=128)
        together = _outcome(lambda: preprocess_records(records, cfg))
        assert together == _outcome(lambda: [preprocess(r, cfg) for r in records])
        assert [tid for tid, _, _ in together] == [tid for tid, _, _ in specs]

    @pytest.mark.parametrize("before", [False, True], ids=["third-block", "earlier-trace-of-another-shape"])
    def test_first_overflowing_trace_in_input_order_is_named(self, rng, before):
        # two traces in the third block of the large group overflow, and maybe
        # a trace of another shape just before them, whose block runs later
        specs, main = self._specs()
        third = main[2 * BLOCK_ROWS :]
        bad = [third[2], third[4]] + [third[2] - 1] * before
        assert specs[third[2] - 1][1:] != (200.0, 600)
        records = _records(specs, rng)
        for k in bad:
            tid, fs, n = specs[k]
            records[k] = make_record(tid, samples=_overflowing(n), fs=fs)
        expected = (DegenerateInput, f"{specs[min(bad)][0]}: samples overflow the float range during preprocessing")
        cfg = PreprocessConfig()
        assert _outcome(lambda: preprocess_records(records, cfg)) == expected
        assert _outcome(lambda: [preprocess(r, cfg) for r in records]) == expected


class TestRecordInvariants:
    def test_event_requires_event_id(self):
        with pytest.raises(ValueError):
            WaveformRecord(
                trace_id="t", event_id=None, station="s", channel="c",
                sample_rate=100.0, samples=[1.0, 2.0], label="event",
            )

    def test_noise_must_not_have_event_id(self):
        with pytest.raises(ValueError):
            make_record(label="noise", event_id="ev1")

    def test_magnitude_floor(self):
        with pytest.raises(ValueError):
            make_record(label="event", magnitude=0.1)
        rec = make_record(label="event", magnitude=0.2)
        assert rec.magnitude == 0.2

    def test_samples_immutable(self):
        rec = make_record()
        with pytest.raises(ValueError):
            rec.samples[0] = 99.0
