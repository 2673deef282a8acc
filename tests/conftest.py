import numpy as np
import pytest

from quakebox.features.vectors import FeatureVector
from quakebox.seeds import derive_rng
from quakebox.waveform import WaveformRecord


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_record(trace_id="tr0", label="noise", samples=None, fs=200.0, event_id=None, **kw):
    if samples is None:
        samples = derive_rng(0, trace_id).standard_normal(400)
    if label == "event" and event_id is None:
        event_id = "ev0"
    return WaveformRecord(
        trace_id=trace_id,
        event_id=event_id,
        station=kw.pop("station", "st000"),
        channel=kw.pop("channel", "GPZ"),
        sample_rate=fs,
        samples=samples,
        label=label,
        **kw,
    )


def make_vector(trace_id, label, **values):
    return FeatureVector(trace_id=trace_id, values=values, label=label)
