"""Regenerate tests/fixtures/ami_range_frozen.json: frozen C12 and C20
values, bit for bit, on the rows those two kernels meet.

C12 (the first minimum of Gaussian automutual information) is an integer
lag chosen by comparing neighbouring lags' values, and C20 (the
rescaled-range fluctuation breakpoint) a split index chosen by comparing
summed residual norms; the last bit of an intermediate can move either one,
which the oracle's 1e-6 tolerance cannot see.  The rows are:

- random rows of the five kinds of ``tests/test_features.py``'s oracle
  comparison (white, random walk, sinusoid, decaying, rounded), at twelve
  fixed lengths from 16 to 1024 and ten drawn from 16 to 160;
- campaign-shaped rows: a 64-trace synthetic corpus of the benchmark
  campaign's shape (10 events of 4 traces and 24 noise traces, 600 samples
  at 200 Hz, SNR 3 to 12), preprocessed to 256 samples, kept in corpus
  order and read in blocks of 40, 12 and 12 rows, the sizes of the
  campaign's train, validation and test splits;
- exact-tie rows: ramps, alternating rows, half steps and square waves of
  half-period 10, at lengths from 16 to 512.  Each lag's pairs of a ramp
  are exactly correlated, and those of the others exactly (anti)correlated
  at some lags, so C12's automutual information is infinite there in exact
  arithmetic and its value is decided by how such lags are recognised.

The values are those of the production kernels, each row extracted alone.
Samples are stored as little-endian float64 bytes in base64 and values as
``float.hex``, so the expectations never depend on RNG stream stability
across numpy versions.

Run from the repo root:  PYTHONPATH=src python3 tests/oracles/gen_ami_range_fixture.py [OUT]
OUT, when given, is written instead of the fixture, so a regenerated copy
can be compared with the fixture by ``cmp``.
"""

from __future__ import annotations

import base64
import json
import sys
from pathlib import Path

import numpy as np

from quakebox import bench, waveform
from quakebox.features import canonical_registry

OUT = Path(__file__).resolve().parents[1] / "fixtures" / "ami_range_frozen.json"
CODES = ("C12", "C20")
KINDS = ("white", "random_walk", "sinusoid", "decaying", "rounded")
LENGTHS = (16, 17, 31, 40, 64, 97, 128, 200, 256, 257, 512, 1024)
CAMPAIGN_BLOCKS = (40, 12, 12)
TIE_KINDS = ("ramp", "alternating", "step-half", "square-10")
TIE_LENGTHS = (16, 20, 37, 64, 100, 256, 257, 512)


def _random_row(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n)
    if kind == "white":
        return rng.standard_normal(n)
    if kind == "random_walk":
        return np.cumsum(rng.standard_normal(n))
    if kind == "sinusoid":
        return np.sin(t * rng.uniform(0.05, 1.0)) + 0.3 * rng.standard_normal(n)
    if kind == "decaying":
        return np.exp(-t / (n / 5)) * rng.standard_normal(n)
    return np.round(3 * rng.standard_normal(n))


def _tie_row(kind: str, n: int) -> np.ndarray:
    t = np.arange(n, dtype=float)
    if kind == "ramp":
        return t
    if kind == "alternating":
        return np.where(t % 2 == 0, 1.0, -1.0)
    if kind == "step-half":
        return (t >= n // 2).astype(float)
    return np.where(t // 10 % 2 == 0, 1.0, -1.0)  # square-10


def series() -> list[tuple[str, np.ndarray]]:
    """(name, samples) of every row, in fixture order; the campaign-shaped
    rows are consecutive, in their blocks' order."""
    rng = np.random.default_rng(2612)
    lengths = LENGTHS + tuple(rng.integers(16, 161, size=10).tolist())
    rows = [(f"{kind}-{n}-{i}", _random_row(kind, n, rng))
            for kind in KINDS for i, n in enumerate(lengths)]
    corpus = bench.generate_synthetic(bench.SyntheticSpec(
        n_events=10, traces_per_event=(4, 4), n_noise=24, fs=200.0, window_len=600,
        snr_range=(3.0, 12.0), seed=2613))
    cfg = waveform.PreprocessConfig(window_len=256)
    rows += [(f"campaign-{r.trace_id}", r.samples) for r in waveform.preprocess_records(corpus, cfg)]
    rows += [(f"{kind}-{n}", _tie_row(kind, n)) for kind in TIE_KINDS for n in TIE_LENGTHS]
    return rows


def build() -> dict:
    registry = canonical_registry()
    entries = []
    for name, x in series():
        values, failures = registry.extract_block(CODES, x[None])
        if failures:
            raise RuntimeError(f"{name}: {failures[0]}")
        entries.append({
            "name": name,
            "samples": base64.b64encode(np.ascontiguousarray(x, dtype="<f8").tobytes()).decode(),
            **{code: float(v).hex() for code, v in zip(CODES, values[0])},
        })
    return {
        "description": "C12 and C20 of each row alone, bit for bit; written by "
                       "tests/oracles/gen_ami_range_fixture.py, whose docstring describes the rows.",
        "codes": list(CODES),
        "campaign_blocks": list(CAMPAIGN_BLOCKS),
        "series": entries,
    }


def main(out: Path = OUT) -> None:
    payload = build()
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['series'])} rows to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
