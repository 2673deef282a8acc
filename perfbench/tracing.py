"""Span recorder and function hooks for the traced benchmark run.

The traced run rebinds public quakebox functions to wrappers that record a
span around each call, then puts the originals back.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the part of
that interval its child spans cover.  Nothing under ``src/`` knows about
this module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index of the enclosing span in Recorder.spans
    request: Optional[int]
    outermost: bool  # no enclosing span has the same name


class Recorder:
    """In-memory spans and counters for one traced run (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request: Optional[int] = None
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._open: dict[str, int] = defaultdict(int)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(name, self.clock(), float("nan"), parent, self.request, self._open[name] == 0)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        self._open[name] += 1
        return s

    def close(self, s: Span) -> None:
        self._open[s.name] -= 1
        self._stack.pop()
        s.end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def self_times(self) -> List[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for a, b in sorted(children[i]):
                a, b = max(a, reach), min(b, s.end)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((s.end - s.start) - covered)
        return out

    def inclusive(self, name: str) -> float:
        """Time inside spans of ``name``, nested repeats of the same name counted once."""
        return sum(s.end - s.start for s in self.spans if s.name == name and s.outermost)

    def exclusive(self, name: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times()) if s.name == name)

    def write(self, path: Path) -> None:
        """One tab-separated line per span; ids are line numbers from 0."""
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\trequest\n")
            for s in self.spans:
                fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{'' if s.parent is None else s.parent}\t"
                         f"{'' if s.request is None else s.request}\n")


# ---------------------------------------------------------------------------
# hooks


@dataclass(frozen=True)
class Hook:
    """Wrap ``module:attr`` (``attr`` may be ``Class.method``) in a span.

    ``count(recorder, args, result)`` runs after the outermost call of the
    span name, so a layer that calls itself through another hook with the
    same name is counted once.
    """

    target: str
    span: str
    count: Optional[Callable] = None


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _wrap(func, hook: Hook, rec: Recorder):
    name, count = hook.span, hook.count

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        s = rec.open(name)  # open/close rather than a context manager: this runs per prediction
        try:
            result = func(*args, **kwargs)
            if count is not None and s.outermost:
                count(rec, args, result)
            return result
        finally:
            rec.close(s)

    return wrapper


@contextlib.contextmanager
def installed(hooks: Sequence[Hook], rec: Recorder):
    """Rebind every hook target, in every loaded quakebox module that holds
    it, and restore all bindings on exit (also after an exception).

    A target that no longer exists is recorded in ``rec.absent``.
    """
    saved: list[tuple[object, str, object]] = []
    try:
        for hook in hooks:
            try:
                owner, attr, func = _resolve(hook.target)
            except (ImportError, AttributeError):
                rec.absent.append(hook.target)
                continue
            wrapper = _wrap(func, hook, rec)
            if isinstance(owner, type):
                homes = [(owner, attr)]
            else:
                homes = [
                    (mod, name)
                    for mod_name, mod in list(sys.modules.items())
                    if mod is not None and (mod_name == QB or mod_name.startswith(QB + "."))
                    for name, value in list(vars(mod).items())
                    if value is func
                ]
            for home, name in homes:
                saved.append((home, name, func))
                setattr(home, name, wrapper)
        yield rec
    finally:
        for home, name, func in reversed(saved):
            setattr(home, name, func)


def _add(name: str, measure: Callable):
    def count(rec: Recorder, args, result) -> None:
        rec.count(name, measure(args, result))

    return count


def _train_count(rec: Recorder, args, result) -> None:
    meta = result.training_meta
    rec.count("model.train_calls")
    rec.count("model.sweeps", meta.get("iterations", 0))
    rec.count("model.unconverged", 0 if meta.get("converged", True) else 1)


def _vectors_count(rec: Recorder, args, result) -> None:
    vectors = result if isinstance(result, list) else [result]
    rec.count("features.traces", len(vectors))
    rec.count("features.values", sum(len(v.values) for v in vectors))


QB = "quakebox"
HOOKS = (
    Hook(f"{QB}.waveform:preprocess", "waveform.preprocess", _add("waveform.preprocess_calls", lambda a, r: 1)),
    Hook(f"{QB}.waveform_io:read_waveforms", "waveform_io.read", _add("waveform_io.records", lambda a, r: len(r[0]))),
    Hook(f"{QB}.waveform_io:write_waveforms", "waveform_io.write"),
    Hook(f"{QB}.features.vectors:extract_matrix", "features.extract", _vectors_count),
    Hook(f"{QB}.features.vectors:extract_vector", "features.extract", _vectors_count),
    Hook(f"{QB}.features.vectors:read_matrix", "features.matrix_read", _add("features.rows_read", lambda a, r: len(r[0]))),
    Hook(f"{QB}.features.vectors:write_matrix", "features.matrix_write"),
    Hook(f"{QB}.features.vectors:standardize_fit", "features.standardize"),
    Hook(f"{QB}.features.vectors:standardize_apply", "features.standardize"),
    Hook(f"{QB}.model:train", "model.train", _train_count),
    Hook(f"{QB}.model:ModelArtifact.predict_label", "model.predict", _add("model.predictions", lambda a, r: 1)),
    Hook(f"{QB}.selection:run_ensemble", "selection.ensemble", _add("selection.runs", lambda a, r: len(r))),
    Hook(f"{QB}.selection:best_models", "selection.tie", _add("selection.tie_set", lambda a, r: len(r))),
    Hook(f"{QB}.bench:partition_by_event", "bench.split"),
    Hook(f"{QB}.bench:build_ratio_dataset", "bench.ratio", _add("bench.ratio_rows", lambda a, r: len(r.items))),
    Hook(f"{QB}.bench:sweep", "bench.sweep"),
    Hook(f"{QB}.bench:ingest_predictions", "bench.ingest"),
    Hook(f"{QB}.metrics:confusion", "metrics", _add("metrics.labels", lambda a, r: r.total)),
    Hook(f"{QB}.metrics:report", "metrics", _add("metrics.labels", lambda a, r: r.matrix.total)),
    Hook(f"{QB}.metrics:mcnemar_test", "metrics", _add("metrics.labels", lambda a, r: len(a[0]))),
)

CLI_COMMANDS = ("split", "extract", "select", "train", "eval", "sweep")

# name -> (unit, how it is computed from a Recorder); layer_metrics divides
# every value but the two ratios by the number of traced rounds.
PER_LAYER = {
    "model.train_s": ("s", lambda r: r.inclusive("model.train")),
    "model.train_calls": ("count", lambda r: r.counts["model.train_calls"]),
    "model.sweeps": ("count", lambda r: r.counts["model.sweeps"]),
    "model.unconverged": ("count", lambda r: r.counts["model.unconverged"]),
    "model.converged_ratio": ("ratio", lambda r: _ratio(
        r.counts["model.train_calls"] - r.counts["model.unconverged"], r.counts["model.train_calls"])),
    "selection.ensemble_s": ("s", lambda r: r.inclusive("selection.ensemble")),
    "selection.ensemble_self_s": ("s", lambda r: r.exclusive("selection.ensemble")),
    "selection.runs": ("count", lambda r: r.counts["selection.runs"]),
    "selection.tie_set": ("count", lambda r: r.counts["selection.tie_set"]),
    "features.extract_s": ("s", lambda r: r.inclusive("features.extract")),
    "features.values": ("count", lambda r: r.counts["features.values"]),
    "features.extract_ms_per_trace": ("ms", lambda r: 1000 * _ratio(
        r.inclusive("features.extract"), r.counts["features.traces"])),
    "waveform.preprocess_s": ("s", lambda r: r.inclusive("waveform.preprocess")),
    "waveform.preprocess_calls": ("count", lambda r: r.counts["waveform.preprocess_calls"]),
    "waveform_io.read_s": ("s", lambda r: r.inclusive("waveform_io.read")),
    "waveform_io.write_s": ("s", lambda r: r.inclusive("waveform_io.write")),
    "waveform_io.records": ("count", lambda r: r.counts["waveform_io.records"]),
    "features.matrix_read_s": ("s", lambda r: r.inclusive("features.matrix_read")),
    "features.matrix_write_s": ("s", lambda r: r.inclusive("features.matrix_write")),
    "features.rows_read": ("count", lambda r: r.counts["features.rows_read"]),
    "features.standardize_s": ("s", lambda r: r.inclusive("features.standardize")),
    "model.predict_s": ("s", lambda r: r.inclusive("model.predict")),
    "model.predictions": ("count", lambda r: r.counts["model.predictions"]),
    "bench.ratio_rows": ("count", lambda r: r.counts["bench.ratio_rows"]),
    "bench.sweep_self_s": ("s", lambda r: r.exclusive("bench.sweep")),
    "bench.ingest_s": ("s", lambda r: r.inclusive("bench.ingest")),
    "bench.split_s": ("s", lambda r: r.inclusive("bench.split")),
    "metrics.s": ("s", lambda r: r.inclusive("metrics")),
    "metrics.labels": ("count", lambda r: r.counts["metrics.labels"]),
    **{
        f"cli.{c}_s": ("s", (lambda c: lambda r: r.inclusive(f"cli.{c}"))(c))
        for c in CLI_COMMANDS
    },
    "cli.commands": ("count", lambda r: r.counts["cli.commands"]),
    "cli.failed": ("count", lambda r: r.counts["cli.failed"]),
    "trace.spans": ("count", lambda r: len(r.spans)),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value per round, unit); 0 where a layer did not run."""
    ratios = {"model.converged_ratio", "features.extract_ms_per_trace"}
    out = {}
    for name, (unit, fn) in PER_LAYER.items():
        value = fn(rec)
        out[name] = (value if name in ratios else value / rounds, unit)
    out["trace.hooks_absent"] = (len(rec.absent), "count")
    return out
