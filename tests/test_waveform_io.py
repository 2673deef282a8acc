"""Waveform file round-trips and malformed-input rejection."""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from quakebox.errors import FormatError
from quakebox.features import FeatureMatrix, read_matrix, write_matrix
from quakebox.waveform_io import read_waveforms, write_waveforms

from conftest import make_record

# four records as the quakebox-waveforms-v1 writer wrote them, samples as JSON arrays
V1_FIXTURE = Path(__file__).parent / "fixtures" / "waves_v1.jsonl"
META = ("trace_id", "event_id", "station", "channel", "sample_rate", "label", "magnitude")


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


def test_empty_file_refused_naming_it(tmp_path):
    path = tmp_path / "waves.jsonl"
    path.write_bytes(b"")
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value) == f"{path}: empty file"


def test_blank_lines_are_skipped_but_counted(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus[:2])
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], "", lines[1], "  \t", lines[2], "{}"]) + "\n")
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value).startswith(f"line 6: {path}: missing fields")
    path.write_text("\n".join([lines[0], "", lines[1], "  \t", lines[2]]) + "\n")
    assert [r.trace_id for r in read_waveforms(path)[0]] == [r.trace_id for r in corpus[:2]]


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
    if field == "samples":  # the samples array is a field of v1 records only
        path.write_bytes(V1_FIXTURE.read_bytes())
    else:
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


def test_v1_file_reads_and_rewrites_as_v2(tmp_path):
    old, role = read_waveforms(V1_FIXTURE)
    assert (role, len(old)) == ("train", 4)
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, old, role=role)
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"format": "quakebox-waveforms-v2", "role": "train"}
    new, new_role = read_waveforms(path)
    assert new_role == role
    for a, b in zip(old, new, strict=True):
        assert [getattr(a, f) for f in META] == [getattr(b, f) for f in META]
        assert a.samples.tobytes() == b.samples.tobytes()  # bit for bit, -0.0 and subnormals included
    # the v1 text holds each sample as its shortest repr, so the fixture's own numbers come back
    first = json.loads(V1_FIXTURE.read_text().splitlines()[1])
    assert new[0].samples.tolist() == first["samples"]


@pytest.mark.parametrize("samples", [
    np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    np.array([1.5, -2.25, 1e-300, np.pi], dtype=">f8"),
], ids=["extremes", "big-endian"])
def test_v2_samples_round_trip_bit_for_bit(tmp_path, samples):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, [make_record("n1", samples=samples)])
    back, _ = read_waveforms(path)
    assert back[0].samples.dtype == np.float64
    assert back[0].samples.tobytes() == samples.astype("<f8").tobytes()  # -0.0 keeps its sign bit


def test_v2_lines_are_json_dumps_of_the_whole_record(tmp_path):
    # the writer splices the samples in after the other fields; each line
    # must still be the bytes of json.dumps of the full row
    records = [
        make_record("ev1.st0", label="event", event_id="ev1", magnitude=2.5, samples=np.array([1.5, -0.0])),
        make_record("n1", samples=np.array([5e-324])),  # event_id and magnitude null
        make_record("séisme·Ω", station="stä", samples=np.arange(7.0)),  # escaped as \\u....
    ]
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, records)
    lines = path.read_bytes().decode("ascii").splitlines(keepends=True)
    assert lines[0] == json.dumps({"format": "quakebox-waveforms-v2", "role": "all"}) + "\n"
    for line, rec in zip(lines[1:], records, strict=True):
        row = {f: getattr(rec, f) for f in META}
        row["samples_f64le"] = base64.b64encode(rec.samples.astype("<f8").tobytes()).decode("ascii")
        assert line == json.dumps(row) + "\n"
    assert [r.trace_id for r in read_waveforms(path)[0]] == [r.trace_id for r in records]


def _f64le(*values):
    return base64.b64encode(np.array(values, dtype="<f8").tobytes()).decode("ascii")


V2_BOTH = "a quakebox-waveforms-v2 record holds its samples in samples_f64le only, and this one has samples"


@pytest.mark.parametrize("changes,named", [
    ({"samples_f64le": "AAAA*AAAAAAAAAA="}, "invalid base64 ("),  # the reason is binascii's
    ({"samples_f64le": "AAAAAAAAAAA"}, "invalid base64 ("),
    ({"samples_f64le": "AAAAAAAAAA\u00e9="}, "invalid base64 ("),
    ({"samples_f64le": "AAAAAAAAAA=="}, "7 bytes is not a whole number of float64 values"),
    ({"samples_f64le": ""}, "n1: samples must be a non-empty 1-D array"),
    ({"samples_f64le": 1.5}, "expected str, got float"),
    ({"samples_f64le": _f64le(0.5, float("nan"))}, "n1: samples contain NaN or infinity"),
    ({"samples_f64le": _f64le(float("inf"), 0.5)}, "n1: samples contain NaN or infinity"),
    ({"samples_f64le": _f64le(0.5, float("-inf"))}, "n1: samples contain NaN or infinity"),
    ({"samples": [0.5, 1.0]}, V2_BOTH),
    ({"samples_f64le": ..., "samples": [0.5, 1.0]}, V2_BOTH),  # ... drops the key
], ids=["bad-base64", "bad-padding", "not-ascii", "length-7", "empty", "not-a-string", "nan", "inf",
        "minus-inf", "both-keys", "v1-array"])
def test_malformed_v2_samples_name_line_and_field(tmp_path, changes, named):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, [make_record("n0"), make_record("n1")])
    lines = path.read_text().splitlines()
    row = {**json.loads(lines[2]), **changes}
    lines[2] = json.dumps({k: v for k, v in row.items() if v is not ...})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value).startswith(f"line 3: {path}: samples_f64le: {named}")


@pytest.mark.parametrize("pad", ["=", "==", "===", "===="])
def test_surplus_padding_after_a_whole_quantum_is_refused(tmp_path, pad):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, [make_record("n0"), make_record("n1", samples=np.array([0.5, -1.0, 2.0]))])
    canonical = _f64le(0.5, -1.0, 2.0)
    assert len(canonical) % 4 == 0 and "=" not in canonical
    path.write_text(path.read_text().replace(canonical, canonical + pad))
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value) == (f"line 3: {path}: samples_f64le: invalid base64 "
                              "(surplus padding after a whole quantum)")


def test_v1_record_with_both_sample_keys_is_refused(tmp_path):
    path = tmp_path / "waves.jsonl"
    lines = V1_FIXTURE.read_text().splitlines()
    lines[3] = json.dumps({**json.loads(lines[3]), "samples_f64le": _f64le(0.5)})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value) == (f"line 4: {path}: samples_f64le: a quakebox-waveforms-v1 record holds its "
                              "samples in samples only, and this one has samples_f64le")


def test_unknown_format_version_refused_on_line_1(tmp_path, corpus):
    path = tmp_path / "waves.jsonl"
    write_waveforms(path, corpus)
    path.write_text(path.read_text().replace("waveforms-v2", "waveforms-v3", 1))
    with pytest.raises(FormatError) as err:
        read_waveforms(path)
    assert str(err.value) == f"line 1: {path}: not a quakebox-waveforms-v1 or quakebox-waveforms-v2 file"
