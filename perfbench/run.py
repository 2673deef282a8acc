"""quakebox benchmark: campaign, detect and stress workloads.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The untraced run (``--trace 0``) reports the end-to-end
metrics; the traced run (``--trace 1``) spends half its time untraced and
half with every hook of ``tracing.HOOKS`` installed, and reports the
per-layer metrics and the tracing overhead.  The end-to-end timings are
scaled to reference machine speed with ``speed.SpeedMeter``; the unscaled
ones are in the diagnostics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  A failed
output check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("campaign", "detect", "stress")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# name -> unit; the same set on every workload (see README.md for what each
# means on each workload).
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "items_per_s": "1/s",
    "mcc": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def provenance(seed: int, workload) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "machine": platform.machine(),
        "inputs": workload.sizes(),
    }


def _run_rounds(workload, state, work: Path, budget_s: float, min_rounds: int, ctx, meter=None) -> list:
    """Rounds back to back (one closed-loop client) until the budget is spent."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rnd = workload.round(state, work / f"round{len(rounds)}", ctx)
        if meter is not None:
            rnd.slowdown = meter.slowdown(t0, time.perf_counter())
        rounds.append(rnd)
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed + rnd.wall_s / 2 >= budget_s:
            return rounds


def measure(workload, seed: int, seconds: float, trace: bool, work: Path, meter=None) -> dict:
    from speed import SpeedMeter
    from tracing import HOOKS, Recorder, installed, layer_metrics
    from workloads import Context

    work.mkdir(parents=True, exist_ok=True)
    meter = meter or SpeedMeter()
    setup_times, input_digests, state = [], [], None
    budget = seconds / 2 if trace else seconds
    # set-up and the untraced rounds are timed with the meter's clock and
    # scaled to reference speed; the traced rounds run without the meter
    with meter:
        setup_start = time.perf_counter()
        for i in range(workload.setup_repeats):
            t0 = meter.clock()
            state = workload.setup(work / f"setup{i}", seed)
            setup_times.append(meter.clock() - t0)
            input_digests.append(workload.input_digest(state))
        setup_slowdown = meter.slowdown(setup_start, time.perf_counter())
        # one warm-up round fills lazy imports and caches; it is checked, not timed
        warmup = workload.round(state, work / "warmup", Context(clock=meter.clock))
        rounds = _run_rounds(workload, state, work, budget, workload.min_rounds,
                             Context(clock=meter.clock), meter)
    traced, rec = [], None
    if trace:
        rec = Recorder()
        with installed(HOOKS, rec):
            traced = _run_rounds(workload, state, work, budget, 1, Context(rec))

    everything = [warmup] + rounds + traced
    checks = [
        ("inputs identical across set-ups at one seed", len(set(input_digests)) == 1,
         f"{len(set(input_digests))} distinct input digests"),
        ("outputs identical across rounds (digest)", len({r.digest for r in everything}) == 1,
         f"{len({r.digest for r in everything})} distinct output digests over {len(everything)} rounds"),
        ("quality score present and positive",
         all(r.mcc is not None and r.mcc > 0 for r in everything),
         f"mcc per round {[r.mcc for r in everything]}"),
    ]
    if not any(r.failed for r in everything):
        checks += workload.check(state, everything)

    raw_latencies = [x for r in rounds for x in r.latencies_ms]
    latencies = [x / r.slowdown for r in rounds for x in r.latencies_ms]
    ops = sum(r.ops for r in everything)
    failed_ops = sum(r.failed for r in everything)
    failed_checks = sum(not ok for _, ok, _ in checks)
    end_to_end = {
        "setup_s": statistics.median(setup_times) / setup_slowdown,
        "latency_p50_ms": statistics.median(latencies),
        "items_per_s": statistics.median(r.items * r.slowdown / r.wall_s for r in rounds),
        "mcc": rounds[0].mcc if rounds[0].mcc is not None else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    diagnostics = {
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "latency_samples": len(latencies),
        "latency_p90_ms": percentile(latencies, 90),
        "latency_p99_ms": percentile(latencies, 99),
        "latency_max_ms": max(latencies),
        "unscaled": {
            "setup_s": statistics.median(setup_times),
            "latency_p50_ms": statistics.median(raw_latencies),
            "items_per_s": sum(r.items for r in rounds) / sum(r.wall_s for r in rounds),
        },
        "speed": {
            "reference_ms": meter.reference_ms,
            "period_s": meter.period_s,
            "samples": len(meter.kernel_ms),
            "kernel_ms_median": statistics.median(meter.kernel_ms),
            "setup_slowdown": setup_slowdown,
            "round_slowdowns": [r.slowdown for r in rounds],
        },
        "setup_runs_s": setup_times,
        "round_wall_s": [r.wall_s for r in everything],
        "error_rate": (failed_ops + failed_checks) / (ops + len(checks)),
        "checks": [{"check": n, "ok": ok, "detail": d} for n, ok, d in checks],
    }
    per_layer = {}
    if trace:
        per_layer = layer_metrics(rec, len(traced))
        untraced_ms = statistics.median(raw_latencies)
        traced_ms = statistics.median([x for r in traced for x in r.latencies_ms])
        per_layer["trace.untraced_ms"] = (untraced_ms, "ms")
        per_layer["trace.traced_ms"] = (traced_ms, "ms")
        per_layer["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
        diagnostics["hooks_absent"] = rec.absent
        spans_path = WORK / f"spans-{workload.name}-seed{seed}.tsv"
        rec.write(spans_path)
        diagnostics["spans_file"] = str(spans_path.relative_to(ROOT))
    return {
        "correct": failed_ops == 0 and failed_checks == 0,
        "attempted": ops + len(checks),
        "failed": failed_ops + failed_checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "diagnostics": diagnostics,
    }


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "quakebox" / "__init__.py").is_file():
        print(f"error: no quakebox sources under {src}", file=sys.stderr)
        return 2
    # one closed-loop client: keep BLAS to one thread (at most nproc)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import quakebox

    if Path(quakebox.__file__).resolve().parent != (src / "quakebox").resolve():
        print(f"error: quakebox imported from {quakebox.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["per_layer"] if args.trace else {
        name: (value, END_TO_END[name]) for name, value in result["end_to_end"].items()
    }
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:9s} {name:{width}s} {value:>14.6g} {unit}")
    record = {
        "provenance": provenance(args.seed, workload),
        "diagnostics": result["diagnostics"],
        "trace": args.trace,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({k: record[k] for k in ("provenance", "diagnostics")}))
    for check in result["diagnostics"]["checks"]:
        if not check["ok"]:
            print(f"check failed: {check['check']}: {check['detail']}", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    if not (ROOT / "src" / "quakebox" / "__init__.py").is_file():
        print(f"error: no quakebox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = code or proc.returncode or 1
        if not lines:
            summary["correct"] = False
            continue
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
