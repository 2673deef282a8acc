"""The deployed detector's path, frozen bit for bit.

A detector scores one trace at a time: ``preprocess``, ``extract_vector`` of
the selected profile, and the event probability of a fixed model.  The
fixture (``tests/oracles/gen_detect_fixture.py``) holds 24 traces, the model
and, per trace, the 8 values and the probability, as ``float.hex``; here
they must come out equal, not close.  A trace scored alone must also give
the bits it gets inside a 64-row block, so batching cannot move a label.
"""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from quakebox import bench, waveform
from quakebox.features import (
    FeatureMatrix,
    StandardizationParams,
    extract_matrix,
    extract_vector,
    reproduction_registry,
    standardize_apply,
)
from quakebox.model import LinearModel, ModelArtifact, predict_proba

FIXTURE = json.loads((Path(__file__).parent / "fixtures" / "detect_path.json").read_text())
CODES = tuple(FIXTURE["codes"])
CFG = waveform.PreprocessConfig(window_len=FIXTURE["window_len"])
REGISTRY = reproduction_registry()


def _unhex(mapping):
    return {code: float.fromhex(v) for code, v in mapping.items()}


MODEL = LinearModel(bias=float.fromhex(FIXTURE["model"]["bias"]), weights=_unhex(FIXTURE["model"]["weights"]),
                    threshold=float.fromhex(FIXTURE["model"]["threshold"]))
PARAMS = StandardizationParams(means=_unhex(FIXTURE["model"]["means"]), stds=_unhex(FIXTURE["model"]["stds"]))


def _record(t: dict) -> waveform.WaveformRecord:
    meta = {k: t[k] for k in ("trace_id", "station", "channel", "sample_rate", "label", "event_id")}
    return waveform.WaveformRecord(**meta, samples=np.frombuffer(base64.b64decode(t["samples"]), dtype="<f8"))


RECORDS = [_record(t) for t in FIXTURE["traces"]]


def _values(vector) -> list[str]:
    return [vector.values[c].hex() for c in CODES]


def _probabilities(rows) -> list[str]:
    standardized = standardize_apply(FeatureMatrix.from_rows(rows), PARAMS)
    return [p.hex() for p in predict_proba(MODEL, standardized).tolist()]


def test_fixture_covers_events_and_noise():
    assert len(RECORDS) == 24 and {r.label for r in RECORDS} == {"event", "noise"}
    assert {r.samples.size for r in RECORDS} == {1200}
    assert CODES == ("W1", "W2", "W3", "W4", "C10", "C11", "C14", "C15")


@pytest.mark.parametrize("k", range(len(FIXTURE["traces"])), ids=[t["trace_id"] for t in FIXTURE["traces"]])
def test_one_trace_gives_the_frozen_values_and_probability(k):
    expected = FIXTURE["traces"][k]
    vec = extract_vector(waveform.preprocess(RECORDS[k], CFG), REGISTRY, CODES)
    assert _values(vec) == expected["values"]
    assert _probabilities([vec]) == [expected["probability"]]
    label = "event" if float.fromhex(expected["probability"]) >= MODEL.threshold else "noise"
    assert ModelArtifact(model=MODEL, standardization=PARAMS).predict_label(vec) == label


def test_one_trace_alone_equals_it_inside_a_64_row_block():
    # the 24 frozen traces beside 40 others of the same length, preprocessed
    # and extracted together, against each trace through the path alone
    raws = RECORDS + bench.generate_synthetic(bench.SyntheticSpec(
        n_events=5, traces_per_event=(4, 4), n_noise=20, fs=200.0, window_len=1200, seed=77))
    assert len(raws) == 64
    block = extract_matrix(waveform.preprocess_records(raws, CFG), REGISTRY, CODES)
    in_block = _probabilities(block)
    for k, raw in enumerate(raws):
        alone = extract_vector(waveform.preprocess(raw, CFG), REGISTRY, CODES)
        assert _values(alone) == _values(block[k]), raw.trace_id
        assert _probabilities([alone]) == [in_block[k]], raw.trace_id
