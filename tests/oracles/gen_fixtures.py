"""Regenerate tests/fixtures/catch22_parity.json from the reference oracle.

The corpus is 10 deterministic series of varied character (white, AR,
periodic, drifting, heavy-tailed, event-like).  Series values are stored in
the fixture file verbatim so the expected outputs never depend on RNG
stream stability across numpy versions.

Run from the repo root:  python3 tests/oracles/gen_fixtures.py [OUT]
OUT, when given, is written instead of the fixture, so a regenerated copy
can be compared with the fixture by ``cmp``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oracles.catch22_ref import reference_all  # noqa: E402


OUT = Path(__file__).resolve().parents[1] / "fixtures" / "catch22_parity.json"


def build_corpus() -> dict[str, list[float]]:
    rng = np.random.default_rng(20240817)
    series: dict[str, np.ndarray] = {}

    series["white_short"] = rng.standard_normal(128)
    series["white_long"] = rng.standard_normal(500)

    ar = np.zeros(256)
    for i in range(1, 256):
        ar[i] = 0.8 * ar[i - 1] + rng.standard_normal()
    series["ar_smooth"] = ar

    ar2 = np.zeros(300)
    for i in range(1, 300):
        ar2[i] = -0.5 * ar2[i - 1] + rng.standard_normal()
    series["ar_alternating"] = ar2

    t = np.arange(400) / 100.0
    series["sine_noisy"] = np.sin(2 * np.pi * 8.0 * t) + 0.5 * rng.standard_normal(400)

    t2 = np.arange(512) / 100.0
    series["two_tone"] = (
        np.sin(2 * np.pi * 6.0 * t2)
        + 0.6 * np.sin(2 * np.pi * 17.0 * t2 + 1.0)
        + 0.3 * rng.standard_normal(512)
    )

    series["random_walk"] = np.cumsum(rng.standard_normal(256))

    series["heavy_tailed"] = rng.standard_t(df=3, size=350)

    t3 = np.arange(600) / 200.0
    onset = np.clip(t3 - 1.2, 0.0, None)
    wavelet = onset * np.exp(-4.0 * onset) * np.sin(2 * np.pi * 12.0 * onset)
    series["event_like"] = 0.4 * rng.standard_normal(600) + 6.0 * wavelet

    smooth = np.convolve(rng.standard_normal(1040), np.ones(16) / 16.0, mode="valid")
    series["smoothed_noise"] = smooth[:1024]

    return {name: [float(v) for v in arr] for name, arr in series.items()}


def main(out: Path = OUT) -> None:
    corpus = build_corpus()
    entries = []
    for name, values in corpus.items():
        print(f"reference values for {name} (n={len(values)})...", flush=True)
        entries.append(
            {"name": name, "values": values, "expected": reference_all(values)}
        )
    out.write_text(json.dumps({"series": entries}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
