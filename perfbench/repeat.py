"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload detect --seeds 1-10 --seconds 20

For every metric it prints the median over the runs and the distance
between the first and third quartiles as a share of the median, which is
how a metric's run-to-run spread is compared with its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())
              ["end_to_end"]} if (HERE.parent / "BENCHMARK.json").is_file() else {}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    code = 0
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        metrics = dict(result["metrics"])
        if not args.trace:  # the timings before scaling to reference speed, for comparison
            unscaled = json.loads(lines[-2])["diagnostics"]["unscaled"]
            metrics.update({f"unscaled.{n}": {"value": v, "unit": metrics[n]["unit"]}
                            for n, v in unscaled.items()})
        row = []
        for name, m in metrics.items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} " + " ".join(row), flush=True)

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        s = spread(vals)
        bound = bounds.get(name)
        note = f" bound {bound} ({'ok' if bound is None or s < bound / 3 else 'WIDE'})" if bound else ""
        print(f"{args.workload:9s} {name:32s} median {statistics.median(vals):>14.6g} {units[name]:6s}"
              f" spread {s:7.2%}{note}")
    return code


if __name__ == "__main__":
    sys.exit(main())
