"""Tests of the benchmark's own code (not of quakebox).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from speed import MIN_SAMPLES, SpeedMeter  # noqa: E402
from tracing import Hook, Recorder, Span, installed  # noqa: E402
from workloads import Round  # noqa: E402


def _clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_nested_spans(self):
        # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
        rec = Recorder(clock=_clock([0, 1, 3, 4, 5, 6, 8, 10]))
        with rec.span("outer"):
            with rec.span("a"):
                pass
            with rec.span("b"):
                with rec.span("c"):
                    pass
        assert [s.name for s in rec.spans] == ["outer", "a", "b", "c"]
        assert [s.parent for s in rec.spans] == [None, 0, 0, 2]
        assert rec.self_times() == [4, 2, 3, 1]
        assert rec.exclusive("b") == 3
        assert rec.inclusive("outer") == 10

    def test_overlapping_children_counted_once(self):
        rec = Recorder()
        rec.spans = [
            Span("p", 0.0, 10.0, None, None, True),
            Span("x", 1.0, 5.0, 0, None, True),
            Span("y", 3.0, 7.0, 0, None, True),
            Span("z", 9.0, 12.0, 0, None, True),  # clipped to the parent's end
        ]
        assert rec.self_times()[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_same_name_nesting_is_inclusive_once(self):
        rec = Recorder(clock=_clock([0, 2, 5, 9]))
        with rec.span("features.extract"):
            with rec.span("features.extract"):
                pass
        assert rec.inclusive("features.extract") == 9
        assert rec.exclusive("features.extract") == 9
        assert [s.outermost for s in rec.spans] == [True, False]

    def test_request_id_recorded(self):
        rec = Recorder()
        rec.request = 7
        with rec.span("cli.train"):
            pass
        assert rec.spans[0].request == 7


def _bindings():
    """Every function-valued attribute of every loaded quakebox module and class."""
    import quakebox  # noqa: F401

    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "quakebox" or name.startswith("quakebox.")):
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                out[(name, attr)] = value
            if isinstance(value, type):
                for m, f in vars(value).items():
                    out[(name, f"{attr}.{m}")] = f
    return out


class TestHooks:
    def test_hooks_rebind_and_restore(self):
        import quakebox.cli
        import quakebox.metrics

        before = _bindings()
        original = quakebox.cli.preprocess
        rec = Recorder()
        with installed(tracing.HOOKS, rec):
            assert quakebox.cli.preprocess is not original
            assert quakebox.cli.extract_matrix is not before[("quakebox.cli", "extract_matrix")]
            quakebox.metrics.report(["event", "noise"], ["event", "event"])
        assert _bindings() == before
        assert [s.name for s in rec.spans] == ["metrics", "metrics"]
        assert rec.counts["metrics.labels"] == 2
        assert rec.absent == []

    def test_hooks_restored_after_exception(self):
        import quakebox.model

        before = _bindings()
        with pytest.raises(RuntimeError):
            with installed(tracing.HOOKS, Recorder()):
                assert quakebox.model.ModelArtifact.predict_label is not before[
                    ("quakebox.model", "ModelArtifact.predict_label")]
                raise RuntimeError("boom")
        assert _bindings() == before

    def test_absent_target_is_reported(self):
        rec = Recorder()
        hooks = [Hook("quakebox.model:no_such_function", "x"), Hook("quakebox.no_such_module:f", "y")]
        with installed(hooks, rec):
            pass
        assert rec.absent == ["quakebox.model:no_such_function", "quakebox.no_such_module:f"]
        assert tracing.layer_metrics(rec, 1)["trace.hooks_absent"] == (2, "count")


class FixedMeter(SpeedMeter):
    """A meter whose slowdown is a given number, for exact arithmetic."""

    def __init__(self, slowdown: float):
        super().__init__(work=lambda: 0.0)
        self.fixed = slowdown

    def slowdown(self, t0, t1):
        return self.fixed


class TestSpeedMeter:
    def test_clock_excludes_kernel_time(self):
        previous = signal.getsignal(signal.SIGALRM)
        meter = SpeedMeter(period_s=0.01, work=lambda: time.sleep(0.004), reference_ms=4.0)
        with meter:
            t0, c0 = time.perf_counter(), meter.clock()
            while time.perf_counter() - t0 < 0.3:
                pass
            t1, c1 = time.perf_counter(), meter.clock()
        inside = [k for s, k in zip(meter.starts, meter.kernel_ms) if t0 <= s <= t1]
        assert len(inside) >= 10
        assert (t1 - t0) - (c1 - c0) == pytest.approx(sum(inside) / 1000.0, rel=0.1, abs=0.002)
        assert meter.slowdown(t0, t1) == pytest.approx(1.0, rel=0.25)
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_slowdown_is_median_over_reference(self):
        meter = SpeedMeter(work=lambda: 0.0, reference_ms=2.0)
        meter.starts = [float(t) for t in range(10)]
        meter.kernel_ms = [2.0, 2.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0, 9.0]
        assert meter.slowdown(5.0, 9.0) == 2.0
        # too few samples in the interval: the MIN_SAMPLES nearest to its middle
        assert MIN_SAMPLES == 5
        assert meter.slowdown(1.5, 1.5) == 1.0


class TestSchema:
    REQUIRED_PER_LAYER = [
        "model.train_s", "model.train_calls", "model.sweeps", "model.unconverged",
        "model.converged_ratio", "selection.ensemble_s", "selection.ensemble_self_s",
        "selection.runs", "selection.tie_set", "features.extract_s", "features.values",
        "features.extract_ms_per_trace", "waveform.preprocess_s", "waveform.preprocess_calls",
        "waveform_io.read_s", "waveform_io.write_s", "waveform_io.records",
        "features.matrix_read_s", "features.matrix_write_s", "features.rows_read",
        "features.standardize_s", "model.predict_s", "model.predictions", "bench.ratio_rows",
        "bench.sweep_self_s", "bench.ingest_s", "bench.split_s", "metrics.s", "metrics.labels",
        "cli.split_s", "cli.extract_s", "cli.select_s", "cli.train_s", "cli.eval_s",
        "cli.sweep_s", "cli.commands", "cli.failed",
        "trace.untraced_ms", "trace.traced_ms", "trace.overhead_ms",
    ]

    def _spec(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end_matches_benchmark_json(self):
        spec = self._spec()
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)

    def test_per_layer_matches_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in self._spec()["per_layer"]}
        rec = Recorder()
        emitted = {n: u for n, (_, u) in tracing.layer_metrics(rec, 1).items()}
        emitted.update({n: "ms" for n in ("trace.untraced_ms", "trace.traced_ms", "trace.overhead_ms")})
        assert emitted == declared
        assert set(self.REQUIRED_PER_LAYER) <= set(declared)

    def test_measure_output_and_failed_check(self, tmp_path):
        class Tiny:
            name, min_rounds, setup_repeats = "tiny", 2, 3
            digests = iter(["d"] * 5 + ["other"])

            def setup(self, work, seed):
                return {"seed": seed}

            def input_digest(self, state):
                return str(state["seed"])

            def round(self, state, work, ctx):
                return Round(0.001, [1.0, 2.0], 2, 2, 0, next(self.digests), 0.5)

            def check(self, state, rounds):
                return [("tiny check", True, "")]

        result = run.measure(Tiny(), seed=3, seconds=0.0, trace=False, work=tmp_path,
                             meter=FixedMeter(2.0))
        assert result["correct"] is True
        assert set(result["end_to_end"]) == set(run.END_TO_END)
        assert result["end_to_end"]["latency_p50_ms"] == 0.75
        assert result["end_to_end"]["items_per_s"] == pytest.approx(2 * 2.0 / 0.001)
        assert result["diagnostics"]["unscaled"]["latency_p50_ms"] == 1.5
        assert result["attempted"] == 3 * 2 + 4 and result["failed"] == 0

        wl = Tiny()
        wl.digests = iter(["d", "d", "changed"])
        result = run.measure(wl, seed=3, seconds=0.0, trace=False, work=tmp_path,
                             meter=FixedMeter(1.0))
        assert result["correct"] is False
        assert result["failed"] == 1
