"""Benchmark harness: splits, noise-ratio datasets, sweeps, synthetic data.

Partitioning is by event, never by trace: all traces of one earthquake land
in the same split, which is what keeps test scores honest when several
stations record the same event.  Ratio datasets keep every positive and
draw noise without replacement from a pool; the draw is a seeded shuffle
prefix, so for a fixed seed the noise subsets are nested as the ratio
grows, isolating the imbalance effect from sampling noise.

External model predictions (e.g. a pre-trained deep detector) enter through
a file; the harness never runs the model itself.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInput,
    IngestError,
    InsufficientNoise,
    TooFewEvents,
)
from .features.vectors import FeatureMatrix, FeatureVector, read_header, read_table, table_error
from .fields import refuse_repeats, text_file
from .metrics import EVENT, ConfusionMatrix, EvalReport, summarize
from .model import ModelArtifact
from .seeds import derive_rng
from .waveform import BLOCK_ROWS, WaveformRecord


# ---------------------------------------------------------------------------
# event-wise partitioning


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions applied per event (and per noise trace)."""

    fractions: Tuple[float, float, float] = (0.6, 0.2, 0.2)
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(f > 0 for f in self.fractions):
            raise ValueError(f"fractions must be positive, got {self.fractions}")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {self.fractions}")


@dataclass(frozen=True)
class Split:
    train: List
    validation: List
    test: List


def _three_way_counts(n: int, fractions: Tuple[float, float, float]) -> Tuple[int, int, int]:
    """floor(train), floor(validation), remainder to test."""
    n_train = math.floor(fractions[0] * n)
    n_val = math.floor(fractions[1] * n)
    return n_train, n_val, n - n_train - n_val


def _ranked_split(items: Sequence, rng: np.random.Generator, fractions) -> dict:
    """Each item's split (0 train, 1 validation, 2 test) by its rank in a seeded shuffle."""
    n_train, n_val, _ = _three_way_counts(len(items), fractions)
    return {
        items[pos]: 0 if rank < n_train else 1 if rank < n_train + n_val else 2
        for rank, pos in enumerate(rng.permutation(len(items)))
    }


def partition_by_event(records: Sequence, spec: SplitSpec) -> Split:
    """Assign whole events to splits; noise traces split at the same fractions.

    Events are shuffled with the spec seed, then counted out as
    floor/floor/remainder.  No event id ever appears in two splits, which
    is the whole point, and fractions that count out no event to a split are
    refused, naming it.
    """
    event_ids: List[str] = []
    seen = set()
    noise_idx: List[int] = []
    for i, rec in enumerate(records):
        if rec.label == "event":
            if rec.event_id not in seen:
                seen.add(rec.event_id)
                event_ids.append(rec.event_id)
        else:
            noise_idx.append(i)

    counts = _three_way_counts(len(event_ids), spec.fractions)
    if 0 in counts:
        name = ("train", "validation", "test")[counts.index(0)]
        raise TooFewEvents(
            f"fractions {tuple(spec.fractions)} give the {name} split 0 of {len(event_ids)} events")

    assignment = _ranked_split(sorted(event_ids), derive_rng(spec.seed, "split-events"), spec.fractions)
    noise_assignment = _ranked_split(noise_idx, derive_rng(spec.seed, "split-noise"), spec.fractions)

    buckets: Tuple[List, List, List] = ([], [], [])
    for i, rec in enumerate(records):
        which = assignment[rec.event_id] if rec.label == "event" else noise_assignment[i]
        buckets[which].append(rec)
    return Split(train=buckets[0], validation=buckets[1], test=buckets[2])


# ---------------------------------------------------------------------------
# noise-ratio datasets and the sweep


@dataclass(frozen=True)
class RatioSpec:
    """Ladder of noise-to-signal ratios for the stress sweep."""

    ratios: Tuple[float, ...] = (1.73, 5.0, 10.0, 25.0, 50.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.ratios or not all(0 < r < math.inf for r in self.ratios):
            raise ValueError(f"ratios must be positive and finite, got {self.ratios}")
        refuse_repeats("ratios", self.ratios, ConfigError)  # a sweep has one column per ratio


@dataclass(frozen=True)
class RatioDataset:
    items: FeatureMatrix  # every positive, then the drawn noise rows


def _noise_count(ratio: float, n_pos: int, pool: int) -> int:
    """``ratio * n_pos`` rounded half away from zero: the noise items a ratio
    dataset draws.  None raises DegenerateInput, as a dataset without noise
    measures nothing at its ratio.  More than ``pool`` raises
    InsufficientNoise, without the count when it runs beyond 2**53 (or the
    float range)."""
    half_up = ratio * n_pos + 0.5
    if half_up >= 2**53:
        raise InsufficientNoise(f"ratio {ratio} needs more than the pool's {pool} noise items")
    need = math.floor(half_up)
    if not need:
        raise DegenerateInput(f"ratio {ratio} draws no noise item for {n_pos} positive(s)")
    if need > pool:
        raise InsufficientNoise(
            f"ratio {ratio} needs {need} noise items, pool has {pool} (short {need - pool})"
        )
    return need


def build_ratio_dataset(
    positives: FeatureMatrix, noise_pool: FeatureMatrix, ratio: float, seed: int
) -> RatioDataset:
    """All positives plus round(ratio * n_pos) noise items, drawn seeded.

    Sampling without replacement is a shuffle prefix: the same seed yields
    nested noise subsets across increasing ratios.
    """
    if not positives:
        raise DegenerateInput("ratio dataset needs at least one positive")
    need = _noise_count(ratio, len(positives), len(noise_pool))
    noise_pool = noise_pool.columns(positives.codes)
    rng = derive_rng(seed, "ratio-noise")
    drawn = noise_pool.take(rng.permutation(len(noise_pool))[:need])
    items = replace(positives, X=np.concatenate([positives.X, drawn.X]),
                    trace_ids=positives.trace_ids + drawn.trace_ids, labels=positives.labels + drawn.labels)
    return RatioDataset(items)


@dataclass(frozen=True)
class SweepTable:
    """Per-(source, ratio) evaluation grid, Table-style."""

    sources: Tuple[str, ...]
    ratios: Tuple[float, ...]
    reports: Mapping[Tuple[str, float], EvalReport]

    def mcc_row(self, source: str) -> List[float]:
        return [self.reports[(source, r)].mcc for r in self.ratios]

    def render_text(self) -> str:
        width = max(12, max((len(s) for s in self.sources), default=12) + 2)
        header = "source".ljust(width) + "".join(f"{r:>10g}" for r in self.ratios)
        lines = [header, "-" * len(header)]
        for s in self.sources:
            lines.append(s.ljust(width) + "".join(f"{m:>10.4f}" for m in self.mcc_row(s)))
        return "\n".join(lines) + "\n"


def sweep(
    sources: Mapping[str, ModelArtifact | Predictions],
    positives: FeatureMatrix,
    noise_pool: FeatureMatrix,
    spec: RatioSpec,
) -> SweepTable:
    """Evaluate every source, a model or a predictions file, at every ratio.

    Models were trained once at the baseline ratio and are reused as-is;
    only the evaluation set composition changes.  The draws are nested, so
    each ratio is scored on its prefix of the largest ratio's dataset,
    labelled once per source through its ``predict_labels`` and tallied
    once, as a running count along the ladder.  A predictions
    file must cover every trace id the ladder draws.
    """
    if set(positives.labels) != {"event"}:
        raise DegenerateInput("positives must all carry the event label")
    if set(noise_pool.labels) != {"noise"}:
        raise DegenerateInput("noise pool must all carry the noise label")
    n_pos = len(positives)
    ends = sorted((n_pos + _noise_count(ratio, n_pos, len(noise_pool)), ratio) for ratio in spec.ratios)
    items = build_ratio_dataset(positives, noise_pool, max(spec.ratios), spec.seed).items
    reports: Dict[Tuple[str, float], EvalReport] = {}
    for name, source in sources.items():
        preds = source.predict_labels(items)
        tp, fp, start = preds[:n_pos].count(EVENT), 0, n_pos
        for end, ratio in ends:
            fp += preds[start:end].count(EVENT)
            start = end
            reports[(name, ratio)] = summarize(ConfusionMatrix(tp=tp, tn=end - n_pos - fp, fp=fp, fn=n_pos - tp))
    return SweepTable(sources=tuple(sources), ratios=tuple(spec.ratios), reports=reports)


SWEEP_FORMAT = "quakebox-sweep-v1"


def save_sweep(path: str | Path, table: SweepTable) -> None:
    payload = {
        "format": SWEEP_FORMAT,
        "sources": list(table.sources),
        "ratios": list(table.ratios),
        "cells": [
            {
                "source": s,
                "ratio": r,
                **table.reports[(s, r)].to_dict(),
            }
            for s in table.sources
            for r in table.ratios
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# synthetic corpus generation


DOMINANT_HZ = (6.0, 24.0)  # the range an event's dominant frequency is drawn from
MAX_WINDOW_LEN = 10_000_000  # samples in one synthetic trace: 80 MB of float64


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic waveform corpus.

    ``window_len`` is the raw trace length in samples at ``fs``, at most
    ``MAX_WINDOW_LEN``; events are damped in-band wavelets embedded in
    colored noise at an SNR drawn log-uniformly from ``snr_range``.
    """

    n_events: int = 47
    traces_per_event: Tuple[int, int] = (30, 68)
    n_noise: int = 4000
    fs: float = 200.0
    window_len: int = 600
    snr_range: Tuple[float, float] = (1.5, 12.0)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_events < 1 or self.n_noise < 0:
            raise ValueError("n_events must be positive and n_noise nonnegative")
        lo, hi = self.traces_per_event
        if not (1 <= lo <= hi):
            raise ValueError(f"traces_per_event range invalid: {self.traces_per_event}")
        if not 0 < self.fs < math.inf or self.window_len < 16:
            raise ValueError("fs must be positive and finite and window_len at least 16")
        if self.window_len > MAX_WINDOW_LEN:
            raise ValueError(f"window_len {self.window_len} is above the cap of {MAX_WINDOW_LEN} samples")
        # an event wavelet's largest phase, 2 pi DOMINANT_HZ[1] window_len / fs, must be a finite
        # float; window_len is capped, so the bound on fs is finite and positive
        if self.fs < self.window_len * (2.0 * math.pi * DOMINANT_HZ[1]) / sys.float_info.max:
            raise ValueError(f"fs {self.fs} is too small for window_len {self.window_len}: "
                             "an event wavelet's phase overflows")
        if not (0 < self.snr_range[0] <= self.snr_range[1] < math.inf):
            raise ValueError(f"snr_range invalid: {self.snr_range}")


def _colored_noise(white: np.ndarray, fs: float) -> np.ndarray:
    """Unit-RMS noise with low-frequency emphasis (knee at 10 Hz) from white
    noise, row by row; a stack's row equals that row filtered alone."""
    n = white.shape[-1]
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    spec *= 1.0 / (1.0 + freqs / 10.0)
    x = np.fft.irfft(spec, n)
    return x / np.sqrt(np.mean(x**2, axis=-1, keepdims=True))


def _event_wavelet(
    n: int, fs: float, rng: np.random.Generator, dominant_hz: float
) -> np.ndarray:
    """Damped sinusoid with a finite rise, arriving in the middle half."""
    t = np.arange(n) / fs
    arrival = rng.uniform(0.25, 0.55) * (n / fs)
    decay = rng.uniform(2.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    dt = np.clip(t - arrival, 0.0, None)
    envelope = dt * np.exp(-decay * dt)
    w = envelope * np.sin(2.0 * np.pi * dominant_hz * dt + phase)
    rms = np.sqrt(np.mean(w**2))
    return w / rms if rms > 0 else w


def _noise_records(
    trace_ids: Sequence[str], seed: int, stream: str, fs: float, window_len: int
) -> List[WaveformRecord]:
    """Pure-noise traces, the i-th drawn from ``derive_rng(seed, stream, i)``
    at a random station (drawn before its white samples); the traces of each
    block of ``BLOCK_ROWS`` are coloured together, which bounds the
    transforms' size."""
    records: List[WaveformRecord] = []
    for start in range(0, len(trace_ids), BLOCK_ROWS):
        ids = trace_ids[start : start + BLOCK_ROWS]
        stations, white = [], np.empty((len(ids), window_len))
        for k in range(len(ids)):
            rng = derive_rng(seed, stream, start + k)
            stations.append(f"st{int(rng.integers(0, 100)):03d}")
            white[k] = rng.standard_normal(window_len)
        records += [WaveformRecord(trace_id=trace_id, event_id=None, station=station, channel="GPZ",
                                   sample_rate=fs, samples=samples, label="noise")
                    for trace_id, station, samples in zip(ids, stations, _colored_noise(white, fs))]
    return records


def generate_synthetic(spec: SyntheticSpec) -> List[WaveformRecord]:
    """Synthetic labeled corpus: grouped event traces plus pure-noise traces.

    Every event spawns a random number of station traces sharing the event's
    dominant frequency, so event-wise splitting is exercised exactly as with
    real multi-station detections.  Fully reproducible from the spec seed.
    """
    records: List[WaveformRecord] = []
    log_lo, log_hi = np.log(spec.snr_range[0]), np.log(spec.snr_range[1])
    for e in range(spec.n_events):
        rng = derive_rng(spec.seed, "event", e)
        event_id = f"ev{e:04d}"
        dominant = rng.uniform(*DOMINANT_HZ)
        event_snr = float(np.exp(rng.uniform(log_lo, log_hi)))
        magnitude = round(max(0.2, 0.2 + np.log10(1.0 + event_snr)), 2)
        n_traces = int(rng.integers(spec.traces_per_event[0], spec.traces_per_event[1] + 1))
        for s in range(n_traces):
            noise = _colored_noise(rng.standard_normal(spec.window_len), spec.fs)
            wavelet = _event_wavelet(spec.window_len, spec.fs, rng, dominant)
            snr = event_snr * rng.uniform(0.8, 1.25)
            records.append(
                WaveformRecord(
                    trace_id=f"{event_id}.st{s:03d}",
                    event_id=event_id,
                    station=f"st{s:03d}",
                    channel="GPZ",
                    sample_rate=spec.fs,
                    samples=noise + snr * wavelet,
                    label="event",
                    magnitude=magnitude,
                )
            )
    records += _noise_records([f"noise{i:05d}" for i in range(spec.n_noise)], spec.seed, "noise",
                              spec.fs, spec.window_len)
    return records


def generate_noise_pool(
    n_noise: int,
    fs: float = 200.0,
    window_len: int = 600,
    seed: int = 0,
) -> List[WaveformRecord]:
    """Pure-noise records for the ratio sweep's enlarged negative pool.

    Mirrors drawing extra negatives from a separate collection period; ids
    get their own prefix, ``xnoise``, so they cannot collide with a corpus' noise traces.
    """
    return _noise_records([f"xnoise{i:06d}" for i in range(n_noise)], seed, "pool", fs, window_len)


def generate_planted_features(
    n_samples: int,
    n_informative: int = 2,
    n_nuisance: int = 22,
    strength: float = 3.0,
    margin: float = 1.0,
    label_noise: float = 0.0,
    seed: int = 0,
) -> Tuple[List[FeatureVector], Tuple[str, ...]]:
    """Feature matrix with a known informative subset, for recovery tests.

    All columns are standard normal; the label is the sign of
    ``strength * sum(+/- x_informative)``.  A row with |logit| below
    ``margin`` is resampled, so the classes are separated by a gap and a
    competent fit can score perfectly — which is what lets many differently
    regularized runs tie at the best validation score, as in real discovery
    campaigns.  ``label_noise`` flips that fraction of labels afterwards.
    Returns the vectors and the ground-truth informative codes (positions
    shuffled by the seed).
    """
    p = n_informative + n_nuisance
    rng = derive_rng(seed, "planted")
    positions = rng.permutation(p)[:n_informative]
    coef = np.zeros(p)
    for k, pos in enumerate(positions):
        coef[pos] = strength * (1.0 if k % 2 == 0 else -1.0)

    kept: List[np.ndarray] = []
    positive: List[np.ndarray] = []
    have = 0
    while have < n_samples:
        batch = rng.standard_normal((n_samples, p))
        scores = batch @ coef
        keep = np.abs(scores) >= margin
        kept.append(batch[keep][: n_samples - have])
        positive.append(scores[keep][: n_samples - have] > 0)
        have += len(kept[-1])
    X = np.concatenate(kept)
    y = np.concatenate(positive)
    if label_noise > 0:
        flips = rng.random(n_samples) < label_noise
        y = np.logical_xor(y, flips)

    codes = tuple(f"F{i+1:02d}" for i in range(p))
    vectors = [
        FeatureVector(trace_id=f"synth{i:05d}", values=dict(zip(codes, row)),
                      label="event" if event else "noise")
        for i, (row, event) in enumerate(zip(X.tolist(), y.tolist()))
    ]
    informative = tuple(codes[pos] for pos in sorted(positions))
    return vectors, informative


# ---------------------------------------------------------------------------
# external prediction ingestion


class Predictions(dict):
    """An external detector's trace_id -> label map, read from ``path``: it
    labels a feature matrix's rows as a :class:`ModelArtifact` does."""

    def __init__(self, labels: Mapping[str, str], path: str | Path) -> None:
        super().__init__(labels)
        self.path = path

    def predict_labels(self, rows: FeatureMatrix) -> List[str]:
        """Each row's label, looked up by its trace id; an id the file lacks is refused."""
        missing = sorted(set(rows.trace_ids).difference(self))
        if missing:
            raise IngestError(f"{self.path}: missing {len(missing)} trace id(s): " + ", ".join(missing[:10]))
        return list(map(self.__getitem__, rows.trace_ids))


def ingest_predictions(path: str | Path) -> Predictions:
    """Read a predictions file: every row's trace_id -> label.

    The TSV needs a ``trace_id`` column and either ``label`` or
    ``probability`` (optionally with a per-row ``threshold``, default 0.5), both in [0, 1].
    A bad row, or one whose trace id repeats an earlier row's, names the file
    and line.  Which ids must be present is decided where rows are labelled:
    :meth:`Predictions.predict_labels` refuses the ids the file lacks.
    """
    with text_file(path) as fh:
        header = read_header(path, fh, 1)
        if "trace_id" not in header:
            raise table_error(path, 1, "header lacks a trace_id column")
        if "label" not in header and "probability" not in header:
            raise table_error(path, 1, "need a label or probability column")
        # a label column wins: probability and threshold are then never read
        text = ["trace_id", "label"] if "label" in header else ["trace_id"]
        numeric = [] if "label" in header else [c for c in ("probability", "threshold") if c in header]
        table = read_table(path, fh, header, 1, text, numeric, within=(0.0, 1.0))
    if "label" in header:
        labels = table.text["label"]
    else:
        threshold = table.values[:, 1] if "threshold" in header else 0.5
        labels = ["event" if e else "noise" for e in (table.values[:, 0] >= threshold).tolist()]
    return Predictions(dict(zip(table.text["trace_id"], labels)), path)
