"""Regenerate tests/fixtures/outlier_timing_edges.json: frozen C14/C15 values
on the rows where their threshold sweep has edge cases.

C14 and C15 sweep thresholds 0, 0.01, 0.02, ... up to a row's largest
z-score (of z for C14, of -z for C15), and keep the thresholds that more
than 2% of the samples, and at least two, exceed.  The rows below exercise
every rule of that sweep:

- ties: integer, rounded and near-binary rows, where many samples share a
  value and so a threshold's exceedances;
- on-grid maxima: binary rows whose largest z-score lands on (or within a
  few ulps of) a multiple of 0.01, and rows of tied largest values tuned to
  a float that is a threshold exactly, or where ``int(max / 0.01 + 1)``
  thresholds end the sweep early (a threshold at or below every tied value
  is never tried) or late (the last one lies above every sample);
- short rows, n from 10 to 60, where the 2% rule and the two-exceedance
  rule bind;
- rows with only 1 to 3 samples of one sign;
- preprocessed synthetic traces at the deployed window length of 512.

The values are those of the production kernels at the time of writing, so
the fixture pins them bit for bit, which the oracle's 1e-6 tolerance cannot.
Series values are stored verbatim, so the expectations never depend on RNG
stream stability across numpy versions.

Run from the repo root:  PYTHONPATH=src python3 tests/oracles/gen_outlier_fixtures.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from quakebox import bench, waveform
from quakebox.features import canonical_registry

OUT = Path(__file__).resolve().parents[1] / "fixtures" / "outlier_timing_edges.json"
CODES = ("C14", "C15")
STEP = 0.01


def _max_z(x: np.ndarray) -> tuple[float, float]:
    """The largest z-score of x and of -x, in the registry's arithmetic."""
    n = x.size
    dev = x - x.sum() / n
    z = dev / np.sqrt((dev * dev).sum() / (n - 1))
    return float(z.max()), float((-z).max())


def _drops_last_threshold(m: float) -> bool:
    # the sweep's last threshold lies above the largest value m
    return (int(m / STEP + 1) - 1) * STEP > m


def _skips_a_threshold(m: float) -> bool:
    # the sweep stops one threshold short of the largest value m
    return int(m / STEP + 1) * STEP <= m


def _on_a_threshold(m: float) -> bool:
    # the largest value m is a threshold of the sweep, which it reaches
    return round(m / STEP) * STEP == m


def _near_grid(m: float) -> bool:
    return abs(round(m / STEP) * STEP - m) <= 4 * np.spacing(m)


def _ties(rng: np.random.Generator) -> dict[str, np.ndarray]:
    rows = {}
    for n in (10, 17, 33, 60, 128, 256):
        rows[f"integer-{n}"] = rng.integers(-3, 4, n).astype(float)
        rows[f"rounded-{n}"] = np.round(2.0 * rng.standard_normal(n))
        binary = (rng.random(n) < 0.3).astype(float)
        binary[rng.choice(n, size=2, replace=False)] = 0.5
        rows[f"near-binary-{n}"] = binary
    return rows


def _on_grid(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Binary rows (k ones in n) whose largest z-score of either sign is on
    or near a multiple of 0.01, and rows whose k tied largest values sit on
    a threshold or end the sweep a threshold early or late."""
    rows = {}
    edge = (_near_grid, _drops_last_threshold, _skips_a_threshold)
    for n in range(10, 230):
        for k in range(1, n):
            x = np.zeros(n)
            x[rng.permutation(n)[:k]] = 1.0
            if any(test(m) for m in _max_z(x) for test in edge):
                rows[f"binary-{k}-of-{n}"] = x
    # n >= 400 samples: a kept threshold has at least 10 exceedances
    tuned = ((_on_a_threshold, 1.95, 12), (_on_a_threshold, 2.5, 20),
             (_drops_last_threshold, 1.89, 4), (_drops_last_threshold, 1.9, 20),
             (_drops_last_threshold, 2.8, 12), (_skips_a_threshold, 2.07, 10),
             (_skips_a_threshold, 2.13, 20), (_skips_a_threshold, 2.36, 12))
    for test, target, k in tuned:
        x = _tied_maxima(test, target, k)
        name = f"{test.__name__.strip('_')}-{target}-tied-{k}-of-{x.size}"
        rows[name] = x
        rows[f"{name}-negated"] = -x
    return rows


def _tied_maxima(test, target: float, k: int) -> np.ndarray:
    """k tied largest values at height t, then a falling ramp of evenly
    spaced values, with t such that ``test`` holds for the largest z-score.

    The ramp is dense enough (n >= 400) that each kept threshold below t has
    its own exceedance count and so its own median position, so a threshold
    more or less at the top moves C14.  t is bisected to where the largest
    z-score crosses the target, then the floats within 16 ulps of it are
    tried, for ramps of one more sample at a time if need be."""
    for n in range(400, 500):
        x = np.concatenate([np.zeros(k), np.linspace(1.0, -1.0, n - k)])
        lo, hi = 1.0, 50.0
        for _ in range(200):
            x[:k] = t = (lo + hi) / 2
            lo, hi = (t, hi) if _max_z(x)[0] < target else (lo, t)
        below, above = [lo], [lo]
        for _ in range(16):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        for t in below + above:
            x[:k] = t
            if test(_max_z(x)[0]):
                return x
    raise RuntimeError(f"no row near {target} passes {test.__name__}")


def _short(rng: np.random.Generator) -> dict[str, np.ndarray]:
    rows = {}
    for n in range(10, 61, 5):
        rows[f"white-{n}"] = rng.standard_normal(n)
        rows[f"skewed-{n}"] = rng.exponential(size=n)
        rows[f"rounded-{n}-short"] = np.round(rng.standard_normal(n))
    return rows


def _few_of_one_sign(rng: np.random.Generator) -> dict[str, np.ndarray]:
    rows = {}
    for n in (10, 40, 256):
        for spikes in (1, 2, 3):
            for sign in (1.0, -1.0):
                x = 0.01 * rng.standard_normal(n) - 0.2 * sign
                at = rng.choice(n, size=spikes, replace=False)
                x[at] = sign * rng.uniform(1.0, 5.0, size=spikes)
                rows[f"{spikes}-{'positive' if sign > 0 else 'negative'}-of-{n}"] = x
    return rows


def _detect_like() -> dict[str, np.ndarray]:
    corpus = bench.generate_synthetic(bench.SyntheticSpec(
        n_events=3, traces_per_event=(2, 2), n_noise=4, fs=200.0, window_len=1200,
        snr_range=(2.0, 12.0), seed=21))
    prepared = waveform.preprocess_records(corpus, waveform.PreprocessConfig(window_len=512))
    return {f"detect-{r.trace_id}": np.asarray(r.samples, dtype=float) for r in prepared}


def build_rows() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(20261019)
    rows = {}
    for part in (_ties(rng), _on_grid(rng), _short(rng), _few_of_one_sign(rng), _detect_like()):
        rows.update(part)
    return rows


def main() -> None:
    registry = canonical_registry()
    series = []
    for name, x in build_rows().items():
        values, failures = registry.extract_block(CODES, x[None])
        if failures:
            raise RuntimeError(f"{name}: {failures}")
        series.append({"name": name, "values": x.tolist(),
                       **dict(zip(CODES, values[0].tolist()))})
    description = ("C14 and C15 of each row, bit for bit, as the production kernels computed them "
                   "when the fixture was written: tied values, largest z-scores on or beside a "
                   "multiple of 0.01, rows of 10 to 60 samples, rows with 1 to 3 samples of one sign "
                   "and preprocessed 512-sample traces. Written by tests/oracles/gen_outlier_fixtures.py.")
    OUT.write_text(  # one row a line
        f'{{\n "description": {json.dumps(description)},\n "series": [\n  '
        + ",\n  ".join(json.dumps(e) for e in series) + "\n ]\n}\n")
    print(f"wrote {len(series)} rows to {OUT}")


if __name__ == "__main__":
    main()
