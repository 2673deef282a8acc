"""Regenerate tests/fixtures/detect_path.json: the deployed detector's
output on 24 frozen traces, bit for bit.

The detect path scores one trace at a time: ``preprocess`` (window 512),
``extract_vector`` of the 8-code selected profile, and the event
probability of a fixed model, ``predict_proba(model,
standardize_apply(FeatureMatrix.from_rows([vector]), params))``.  The
fixture holds 24 synthetic traces of 1200 samples (12 from events at SNR 2
to 12, 12 of noise), the model, and for each trace its 8 values and its
probability.  Samples are stored as little-endian float64 bytes in base64,
every other number as ``float.hex``, so the test compares with ``==`` and
never depends on RNG stream stability across numpy versions.

The model is trained here on a separate corpus of 60 traces; only its
parameters are stored.

Run from the repo root:  PYTHONPATH=src python3 tests/oracles/gen_detect_fixture.py [OUT]
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
from quakebox.features import (
    FeatureMatrix,
    extract_matrix,
    extract_vector,
    reproduction_registry,
    selected_profile,
    standardize_apply,
    standardize_fit,
)
from quakebox.model import PenaltyConfig, predict_proba, train

OUT = Path(__file__).resolve().parents[1] / "fixtures" / "detect_path.json"
WINDOW_LEN = 512


def _corpus(n_events: int, n_noise: int, seed: int):
    return bench.generate_synthetic(bench.SyntheticSpec(
        n_events=n_events, traces_per_event=(4, 4), n_noise=n_noise, fs=200.0, window_len=1200,
        snr_range=(2.0, 12.0), seed=seed,
    ))


def build() -> dict:
    cfg = waveform.PreprocessConfig(window_len=WINDOW_LEN)
    registry, codes = reproduction_registry(), selected_profile()
    training = extract_matrix(waveform.preprocess_records(_corpus(8, 28, 2405), cfg), registry, codes)
    params = standardize_fit(training)
    model = train(standardize_apply(training, params), PenaltyConfig(alpha=0.5, lam=0.002))
    traces = []
    for rec in _corpus(3, 12, 2404):
        vec = extract_vector(waveform.preprocess(rec, cfg), registry, codes)
        proba = predict_proba(model, standardize_apply(FeatureMatrix.from_rows([vec]), params))
        traces.append({
            "trace_id": rec.trace_id, "station": rec.station, "channel": rec.channel,
            "sample_rate": rec.sample_rate, "label": rec.label, "event_id": rec.event_id,
            "samples": base64.b64encode(np.ascontiguousarray(rec.samples, dtype="<f8").tobytes()).decode(),
            "values": [float(vec.values[c]).hex() for c in codes],
            "probability": float(proba[0]).hex(),
        })
    hexes = lambda mapping: {c: float(mapping[c]).hex() for c in codes}  # noqa: E731
    return {
        "description": "The detect path's output on 24 frozen traces, bit for bit; "
                       "written by tests/oracles/gen_detect_fixture.py.",
        "window_len": WINDOW_LEN,
        "codes": list(codes),
        "model": {"bias": model.bias.hex(), "weights": hexes(model.weights), "threshold": model.threshold.hex(),
                  "means": hexes(params.means), "stds": hexes(params.stds)},
        "traces": traces,
    }


def main(out: Path = OUT) -> None:
    payload = build()
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(payload['traces'])} traces to {out}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else OUT)
