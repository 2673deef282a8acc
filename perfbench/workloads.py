"""The three benchmark workloads: campaign, detect and stress.

Each workload has a ``setup`` (inputs made from the workload seed), a
``round`` (one unit of work a user waits for) and ``check`` (output checks
that fail the run).  They call only the public functions of quakebox; the
CLI is driven in-process through ``quakebox.cli.main``.

Sizes are scaled so that several rounds fit in one measured run while the
layer that dominates each workload stays the same as at full size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

# Layers are reached through their modules, so the traced run's hooks see
# every call the workloads make.
from quakebox import bench, cli, features, metrics, model, waveform, waveform_io


@dataclass
class Round:
    """What one round did and produced."""

    wall_s: float
    latencies_ms: List[float]  # one per request (detect) or one per round
    items: int  # traces (campaign, detect) or ladder rows (stress) handled
    ops: int  # CLI commands or detect requests attempted
    failed: int
    digest: str  # digest of the round's outputs, equal across repeats
    mcc: Optional[float]
    outputs: list = field(default_factory=list)  # per-trace labels (detect), sweep cells (stress)
    slowdown: float = 1.0  # machine slowdown over the round (speed.SpeedMeter), set by the runner


class Context:
    """What a round is handed: the clock it times with, and optional tracing
    state (a recorder and request ids)."""

    def __init__(self, recorder=None, clock=time.perf_counter):
        self.recorder = recorder
        self.clock = clock
        self.next_request = 0

    def request(self, name: str):
        """Open a new request id and, when tracing, a span named ``name``."""
        self.next_request += 1
        if self.recorder is None:
            return contextlib.nullcontext()
        self.recorder.request = self.next_request
        return self.recorder.span(name)


def _digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _write_config(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def _cli(ctx: Context, command: str, cfg_path: str) -> bool:
    """One CLI command in-process; its prints are captured, not shown."""
    out, err = io.StringIO(), io.StringIO()
    with ctx.request(f"cli.{command}"):
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, "-c", cfg_path])
        except Exception:  # a crash is a failed operation, not a dead benchmark
            err.write(traceback.format_exc())
            code = -1
    if ctx.recorder is not None:
        ctx.recorder.count("cli.commands")
        ctx.recorder.count("cli.failed", code != 0)
    if code != 0:
        sys.stderr.write(f"cli {command} failed ({code}): {err.getvalue()}\n")
    return code == 0


def _run_steps(ctx: Context, work: Path, steps, first: int = 0) -> tuple[int, int]:
    """CLI steps in order, stopping at the first failure: (attempted, failed)."""
    for i, (command, cfg) in enumerate(steps, start=first):
        if not _cli(ctx, command, _write_config(work / f"cfg{i}.json", cfg)):
            return i - first + 1, 1
    return len(steps), 0


def _round_n_neg(ratio: float, n_pos: int) -> int:
    return int(math.floor(ratio * n_pos + 0.5))


# ---------------------------------------------------------------------------
# campaign: the README CLI campaign on a synthetic waveform corpus


class Campaign:
    """One round runs the campaign on each of ``CORPORA`` corpora made from the
    seed.  Which codes selection keeps, and so the cost of the later
    extraction, changes from corpus to corpus; a round over several corpora
    keeps that from moving the result from one seed to the next."""

    name = "campaign"
    min_rounds, setup_repeats = 2, 5
    CORPORA = 3
    N_EVENTS, TRACES_PER_EVENT, N_NOISE = 10, 4, 24
    WINDOW, FS, WINDOW_LEN = 600, 200.0, 256
    SNR = [3.0, 12.0]
    N_POOL = 40
    N_RUNS = 20
    RATIOS = [1.73, 5.0]
    PREPROCESS = {"band_low_hz": 5.0, "band_high_hz": 25.0, "downsample_factor": 2,
                  "filter_order": 4, "window_len": WINDOW_LEN}
    OUTPUTS = ["splits/train.jsonl", "splits/validation.jsonl", "splits/test.jsonl",
               "train26.tsv", "validation26.tsv", "test26.tsv", "selection.json",
               "distribution.tsv", "train8.tsv", "test8.tsv", "pool8.tsv",
               "model.json", "eval.json", "sweep.json", "sweep.txt"]

    def sizes(self) -> dict:
        return {
            "corpora": self.CORPORA,
            "traces_per_corpus": self.N_EVENTS * self.TRACES_PER_EVENT + self.N_NOISE,
            "events": self.N_EVENTS, "traces_per_event": self.TRACES_PER_EVENT,
            "noise_traces": self.N_NOISE, "pool_traces": self.N_POOL,
            "samples": self.WINDOW, "fs_hz": self.FS, "window_len": self.WINDOW_LEN,
            "n_runs": self.N_RUNS, "alpha": 0.9, "lambda_grid": "default",
            "discovery_codes": 26, "ratios": self.RATIOS,
        }

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        corpus_seeds = [seed * self.CORPORA + k for k in range(self.CORPORA)]
        items = 0
        for k, corpus_seed in enumerate(corpus_seeds):
            corpus = bench.generate_synthetic(bench.SyntheticSpec(
                n_events=self.N_EVENTS,
                traces_per_event=(self.TRACES_PER_EVENT, self.TRACES_PER_EVENT),
                n_noise=self.N_NOISE, fs=self.FS, window_len=self.WINDOW,
                snr_range=tuple(self.SNR), seed=corpus_seed,
            ))
            waveform_io.write_waveforms(work / f"waves{k}.jsonl", corpus, role="all")
            items += len(corpus)
        pool = bench.generate_noise_pool(self.N_POOL, self.FS, self.WINDOW, seed=seed)
        waveform_io.write_waveforms(work / "pool.jsonl", pool, role="all")
        return {"dir": work, "corpus_seeds": corpus_seeds, "items": items}

    def input_digest(self, state: dict) -> str:
        d = state["dir"]
        return _digest_files([d / f"waves{k}.jsonl" for k in range(self.CORPORA)] + [d / "pool.jsonl"])

    def _steps(self, seed: int, waves: Path, work: Path) -> list:
        p = lambda name: str(work / name)  # noqa: E731
        steps = [("split", {"master_seed": seed, "input": str(waves), "output_dir": p("splits")})]
        for role in ("train", "validation", "test"):
            steps.append(("extract", {"input": p(f"splits/{role}.jsonl"), "output": p(f"{role}26.tsv"),
                                      "features": "discovery26", "preprocess": self.PREPROCESS}))
        steps.append(("select", {
            "master_seed": seed, "train_input": p("train26.tsv"),
            "validation_input": p("validation26.tsv"), "output": p("selection.json"),
            "distribution_output": p("distribution.tsv"),
            "ensemble": {"n_runs": self.N_RUNS, "alpha": 0.9},
            "rule": {"min_fraction_nonzero": 0.9, "min_median_abs": 0.05},
            "base_features": ["W1", "W2", "W3", "W4"],
        }))
        return steps

    def _later_steps(self, seed: int, pool: Path, work: Path) -> list:
        p = lambda name: str(work / name)  # noqa: E731
        codes = json.loads((work / "selection.json").read_text())["selected"]
        return [
            ("extract", {"input": p("splits/train.jsonl"), "output": p("train8.tsv"),
                         "features": codes, "preprocess": self.PREPROCESS}),
            ("extract", {"input": p("splits/test.jsonl"), "output": p("test8.tsv"),
                         "features": codes, "preprocess": self.PREPROCESS}),
            ("extract", {"input": str(pool), "output": p("pool8.tsv"),
                         "features": codes, "preprocess": self.PREPROCESS}),
            ("train", {"master_seed": seed, "input": p("train8.tsv"), "output": p("model.json"),
                       "model": {"alpha": 0.5, "lambda": 0.002}}),
            ("eval", {"input": p("test8.tsv"), "models": {"lr": p("model.json")},
                      "output": p("eval.json")}),
            ("sweep", {"master_seed": seed, "positives_input": p("test8.tsv"),
                       "noise_pool_input": p("pool8.tsv"), "models": {"lr": p("model.json")},
                       "ratios": self.RATIOS, "output": p("sweep.json"),
                       "text_output": p("sweep.txt")}),
        ]

    def round(self, state: dict, work: Path, ctx: Context) -> Round:
        src = state["dir"]
        ops = failed = 0
        t0 = ctx.clock()
        for k, seed in enumerate(state["corpus_seeds"]):
            cwork = work / f"corpus{k}"
            cwork.mkdir(parents=True, exist_ok=True)
            steps = self._steps(seed, src / f"waves{k}.jsonl", cwork)
            done, failed = _run_steps(ctx, cwork, steps, first=ops)
            ops += done
            if failed:
                break
            done, failed = _run_steps(ctx, cwork, self._later_steps(seed, src / "pool.jsonl", cwork),
                                      first=ops)
            ops += done
            if failed:
                break
        wall = ctx.clock() - t0
        mcc, digest = None, "failed"
        if not failed:
            dirs = [work / f"corpus{k}" for k in range(self.CORPORA)]
            mcc = statistics.median(json.loads((d / "eval.json").read_text())["sources"]["lr"]["mcc"]
                                    for d in dirs)
            digest = _digest_files([d / name for d in dirs for name in self.OUTPUTS])
        shutil.rmtree(work, ignore_errors=True)
        # one latency per round: the mean campaign time over its corpora
        return Round(wall, [wall * 1000.0 / self.CORPORA], state["items"], ops, failed, digest, mcc)

    def check(self, state: dict, rounds: List[Round]) -> List[tuple]:
        return []


# ---------------------------------------------------------------------------
# detect: one trace at a time through a fixed 8-feature model


class Detect:
    name = "detect"
    min_rounds, setup_repeats = 2, 3
    N_EVENTS, TRACES_PER_EVENT, N_NOISE = 30, 5, 150
    TRAIN_EVENTS, TRAIN_NOISE = 16, 80
    WINDOW, FS, WINDOW_LEN = 1200, 200.0, 512
    SNR = [2.0, 12.0]
    SEED_OFFSET = 1_000_003

    def sizes(self) -> dict:
        return {
            "pool_traces": self.N_EVENTS * self.TRACES_PER_EVENT + self.N_NOISE,
            "train_traces": self.TRAIN_EVENTS * self.TRACES_PER_EVENT + self.TRAIN_NOISE,
            "samples": self.WINDOW, "fs_hz": self.FS, "window_len": self.WINDOW_LEN,
            "codes": list(features.selected_profile()),
        }

    def _corpus(self, n_events: int, n_noise: int, seed: int):
        return bench.generate_synthetic(bench.SyntheticSpec(
            n_events=n_events, traces_per_event=(self.TRACES_PER_EVENT, self.TRACES_PER_EVENT),
            n_noise=n_noise, fs=self.FS, window_len=self.WINDOW, snr_range=tuple(self.SNR),
            seed=seed,
        ))

    def setup(self, work: Path, seed: int) -> dict:
        pcfg = waveform.PreprocessConfig(window_len=self.WINDOW_LEN)
        registry = features.reproduction_registry()
        codes = features.selected_profile()
        pool = self._corpus(self.N_EVENTS, self.N_NOISE, seed)
        training = self._corpus(self.TRAIN_EVENTS, self.TRAIN_NOISE, seed + self.SEED_OFFSET)
        vectors = features.extract_matrix([waveform.preprocess(r, pcfg) for r in training], registry, codes)
        params = features.standardize_fit(vectors)
        fitted = model.train(features.standardize_apply(vectors, params), model.PenaltyConfig(alpha=0.5, lam=0.002))
        return {"pool": pool, "pcfg": pcfg, "registry": registry, "codes": codes,
                "artifact": model.ModelArtifact(model=fitted, standardization=params)}

    def input_digest(self, state: dict) -> str:
        h = hashlib.sha256()
        for r in state["pool"]:
            h.update(r.trace_id.encode())
            h.update(np.ascontiguousarray(r.samples).tobytes())
        h.update(json.dumps(state["artifact"].model.weights, sort_keys=True).encode())
        return h.hexdigest()

    def round(self, state: dict, work: Path, ctx: Context) -> Round:
        pcfg, registry, codes, artifact = state["pcfg"], state["registry"], state["codes"], state["artifact"]
        labels, latencies = [], []
        failed = 0
        clock = ctx.clock
        t0 = clock()
        for rec in state["pool"]:
            start = clock()
            with ctx.request("detect.request"):
                try:
                    vec = features.extract_vector(waveform.preprocess(rec, pcfg), registry, codes)
                    labels.append(artifact.predict_label(vec))
                except Exception:
                    traceback.print_exc()
                    labels.append("failed")
                    failed += 1
            latencies.append((clock() - start) * 1000.0)
        wall = clock() - t0
        truth = [r.label for r in state["pool"]]
        mcc = metrics.report(truth, labels).mcc if not failed else None
        digest = hashlib.sha256("\n".join(labels).encode()).hexdigest()
        return Round(wall, latencies, len(labels), len(labels), failed, digest, mcc, labels)

    def check(self, state: dict, rounds: List[Round]) -> List[tuple]:
        """Every per-trace label equals the batch path (extract_matrix + predict_label)."""
        processed = [waveform.preprocess(r, state["pcfg"]) for r in state["pool"]]
        batch = features.extract_matrix(processed, state["registry"], state["codes"])
        expected = [state["artifact"].predict_label(v) for v in batch]
        bad = sum(a != b for rnd in rounds for a, b in zip(rnd.outputs, expected))
        return [("detect labels equal the batch path", bad == 0, f"{bad} mismatched labels")]


# ---------------------------------------------------------------------------
# stress: train x2, eval with McNemar and the noise-ratio sweep on planted features


class Stress:
    name = "stress"
    min_rounds, setup_repeats = 2, 5
    N_CODES = 8
    N_TRAIN, N_POS = 2000, 300
    RATIOS = [1.73, 5.0, 10.0, 25.0, 50.0]
    MODELS = {"a": {"alpha": 0.9, "lambda": 0.01}, "b": {"alpha": 0.5, "lambda": 0.002}}

    @property
    def n_pool(self) -> int:
        return _round_n_neg(max(self.RATIOS), self.N_POS)

    def sizes(self) -> dict:
        return {
            "train_rows": self.N_TRAIN, "test_rows": 2 * self.N_POS, "positives": self.N_POS,
            "noise_pool_rows": self.n_pool, "columns": self.N_CODES, "ratios": self.RATIOS,
            "sources": list(self.MODELS) + ["ext"],
        }

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        n_total = self.N_TRAIN + 2 * (self.N_POS + self.n_pool) + 2000
        vectors, _ = bench.generate_planted_features(
            n_total, n_informative=2, n_nuisance=self.N_CODES - 2, strength=3.0,
            margin=0.5, label_noise=0.01, seed=seed,
        )
        train_rows = vectors[: self.N_TRAIN]
        rest = vectors[self.N_TRAIN:]
        events = [v for v in rest if v.label == "event"]
        noise = [v for v in rest if v.label == "noise"]
        test_rows = events[: self.N_POS] + noise[: self.N_POS]
        pool = noise[self.N_POS: self.N_POS + self.n_pool]
        if len(pool) < self.n_pool or len(test_rows) < 2 * self.N_POS:
            raise RuntimeError("planted generator gave too few rows for the stress ladder")
        features.write_matrix(work / "train.tsv", train_rows, role="train")
        features.write_matrix(work / "test.tsv", test_rows, role="test")
        features.write_matrix(work / "pool.tsv", pool, role="all")
        # an external detector's probabilities: a fixed noisy score of the rows
        rng = np.random.default_rng(seed)
        lines = ["trace_id\tprobability"]
        for v in test_rows + pool:
            z = 2.0 * sum(v.values.values()) / math.sqrt(self.N_CODES) + rng.normal()
            lines.append(f"{v.trace_id}\t{1.0 / (1.0 + math.exp(-z))!r}")
        (work / "ext.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return {"dir": work, "seed": seed}

    def input_digest(self, state: dict) -> str:
        d = state["dir"]
        return _digest_files([d / "train.tsv", d / "test.tsv", d / "pool.tsv", d / "ext.tsv"])

    def round(self, state: dict, work: Path, ctx: Context) -> Round:
        work.mkdir(parents=True, exist_ok=True)
        seed, src = state["seed"], state["dir"]
        models = {name: str(work / f"model_{name}.json") for name in self.MODELS}
        steps = [
            ("train", {"master_seed": seed, "input": str(src / "train.tsv"), "output": models[name],
                       "model": penalty})
            for name, penalty in self.MODELS.items()
        ]
        steps += [
            ("eval", {"input": str(src / "test.tsv"), "models": models,
                      "predictions": {"ext": str(src / "ext.tsv")}, "output": str(work / "eval.json")}),
            ("sweep", {"master_seed": seed, "positives_input": str(src / "test.tsv"),
                       "noise_pool_input": str(src / "pool.tsv"), "models": models,
                       "predictions": {"ext": str(src / "ext.tsv")}, "ratios": self.RATIOS,
                       "output": str(work / "sweep.json"), "text_output": str(work / "sweep.txt")}),
        ]
        t0 = ctx.clock()
        ops, failed = _run_steps(ctx, work, steps)
        wall = ctx.clock() - t0
        mcc, digest, rows, cells = None, "failed", 0, []
        if not failed:
            mcc = json.loads((work / "eval.json").read_text())["sources"]["a"]["mcc"]
            cells = json.loads((work / "sweep.json").read_text())["cells"]
            rows = sum(c["n_pos"] + c["n_neg"] for c in cells if c["source"] == "a")
            digest = _digest_files([*models.values(), work / "eval.json", work / "sweep.json",
                                    work / "sweep.txt"])
        shutil.rmtree(work, ignore_errors=True)
        return Round(wall, [wall * 1000.0], rows, ops, failed, digest, mcc, cells)

    def check(self, state: dict, rounds: List[Round]) -> List[tuple]:
        """Each sweep cell holds round(ratio * n_pos) negatives."""
        expected_cells = len(self.RATIOS) * (len(self.MODELS) + 1)
        bad = sum(
            cell["n_pos"] != self.N_POS or cell["n_neg"] != _round_n_neg(cell["ratio"], cell["n_pos"])
            for rnd in rounds for cell in rnd.outputs
        ) + sum(len(rnd.outputs) != expected_cells for rnd in rounds)
        return [("sweep cells hold round(ratio * n_pos) negatives", bad == 0, f"{bad} bad cells")]


WORKLOADS = {w.name: w for w in (Campaign(), Detect(), Stress())}
