"""Waveform file round-trips and malformed-input rejection."""

import json

import numpy as np
import pytest

from quakebox.errors import FormatError
from quakebox.features import FeatureMatrix, read_matrix, write_matrix
from quakebox.waveform_io import read_waveforms, write_waveforms

from conftest import make_record


@pytest.fixture
def corpus(rng):
    return [
        make_record("ev0001.st000", label="event", event_id="ev0001",
                    samples=rng.standard_normal(64), magnitude=1.05),
        make_record("ev0001.st001", label="event", event_id="ev0001",
                    samples=rng.standard_normal(64), magnitude=1.05),
        make_record("noise00000", label="noise", samples=rng.standard_normal(64)),
    ]


def test_round_trip_lossless(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus, role="train")
    back, role = read_waveforms(path)
    assert role == "train"
    assert len(back) == len(corpus)
    for a, b in zip(corpus, back):
        assert a.trace_id == b.trace_id
        assert a.event_id == b.event_id
        assert a.label == b.label
        assert a.magnitude == b.magnitude
        assert a.sample_rate == b.sample_rate
        assert np.array_equal(a.samples, b.samples)  # bit-exact floats


def test_write_is_deterministic(tmp_path, corpus):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_waveforms(p1, corpus)
    write_waveforms(p2, corpus)
    assert p1.read_bytes() == p2.read_bytes()


def test_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"trace_id": "x"}\n')
    with pytest.raises(FormatError, match="line 1"):
        read_waveforms(path)


def test_error_carries_line_number(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])
    row["sample_rate"] = -5
    lines[2] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 3"):
        read_waveforms(path)


def test_invariant_violation_rejected(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row["event_id"] = None  # event without event_id
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="line 2"):
        read_waveforms(path)


def test_missing_field_listed(tmp_path):
    path = tmp_path / "waves.jsonl"
    path.write_text(
        '{"format": "quakebox-waveforms-v1", "role": "all"}\n'
        '{"trace_id": "x", "station": "s"}\n'
    )
    with pytest.raises(FormatError, match="missing fields"):
        read_waveforms(path)


def test_bad_byte_names_file_and_line(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    with path.open("ab") as fh:
        fh.write(b'{"trace_id": "\xc3("}\n')
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value) == f"line 5: {path}: invalid UTF-8 (invalid continuation byte)"


def test_garbage_json_line(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    with path.open("a") as fh:
        fh.write("not json at all\n")
    with pytest.raises(FormatError, match="line 5"):
        read_waveforms(path)


@pytest.mark.parametrize("role", ["TEST", "Train", "", "holdout"])
def test_unknown_role_refused_on_line_1(tmp_path, corpus, role):
    matrix = FeatureMatrix(np.zeros((1, 1)), ("f",), ("t",), ("noise",))
    writers = (lambda p: write_waveforms(p, corpus, role=role), lambda p: write_matrix(p, matrix, role=role))
    for write in writers:
        with pytest.raises(FormatError, match="line 1: .*role must be one of"):
            write(tmp_path / "out")
        assert not (tmp_path / "out").exists()
    write_waveforms(tmp_path / "w.jsonl", corpus, role="train")
    write_matrix(tmp_path / "m.tsv", matrix, role="train")
    for path, read, old, new in (
        (tmp_path / "w.jsonl", read_waveforms, '"role": "train"', f'"role": "{role}"'),
        (tmp_path / "m.tsv", read_matrix, "role=train", f"role={role}"),
    ):
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(FormatError, match="line 1: .*role must be one of"):
            read(path)


@pytest.mark.parametrize("field,value,named", [
    ("sample_rate", True, "sample_rate: expected float, got bool"),
    ("sample_rate", "200", "sample_rate: expected float, got str"),
    ("sample_rate", float("nan"), "sample_rate: must be finite"),
    ("trace_id", 5, "trace_id: expected str, got int"),
    ("station", None, "station: expected str, got NoneType"),
    ("event_id", 1, "event_id: expected str, got int"),
    ("magnitude", "1.05", "magnitude: expected float, got str"),
    ("samples", 1.0, "samples: expected list, got float"),
    ("samples", [0.5, True], r"samples\[1\]: expected float, got bool"),
    ("samples", [0.5, 1, "2.0"], r"samples\[2\]: expected float, got str"),
])
def test_mistyped_record_field_names_line_and_field(tmp_path, corpus, field, value, named):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    row[field] = value
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"line 2: .*waves.jsonl: {named}"):
        read_waveforms(path)


def test_integer_sample_rate_widens(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    path.write_text(path.read_text().replace('"sample_rate": 200.0', '"sample_rate": 200'))
    back, _ = read_waveforms(path)
    assert all(type(r.sample_rate) is float and r.sample_rate == 200.0 for r in back)
