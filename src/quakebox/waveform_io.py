"""Line-delimited waveform files.

The on-disk format (see docs/formats.md) is JSON Lines: a header object on
the first line, then one record object per line.  Writers emit
``quakebox-waveforms-v2``, whose records carry their samples as base64 of
little-endian float64 bytes; readers also take ``quakebox-waveforms-v1``,
whose records carry them as a JSON array of numbers.  The two versions
differ in nothing else.  Field names and the header are fixed; readers
reject any record with a field of the wrong JSON type (read through
:mod:`quakebox.fields`) or that violates the
:class:`~quakebox.waveform.WaveformRecord` invariants with a line-numbered
error so bad inputs fail loudly instead of poisoning an experiment.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Iterable, List, Tuple

from . import fields
from .errors import FormatError
from .waveform import SamplesError, WaveformRecord, check_role

FORMAT_NAME = "quakebox-waveforms-v2"

# each record field's JSON type but the samples, in the order written; event_id and magnitude may also be null
RECORD_FIELDS = {
    "trace_id": str,
    "event_id": str,
    "station": str,
    "channel": str,
    "sample_rate": float,
    "label": str,
    "magnitude": float,
}
NULLABLE = ("event_id", "magnitude")

# each readable format's samples field and how it is read
SAMPLES = {
    "quakebox-waveforms-v1": ("samples", fields.numbers),
    FORMAT_NAME: ("samples_f64le", fields.float64le),
}


def write_waveforms(path: str | Path, records: Iterable[WaveformRecord], role: str = "all") -> None:
    """Write records as JSON Lines with a header carrying the partition role."""
    path = Path(path)
    check_role(path, role)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"format": FORMAT_NAME, "role": role}) + "\n")
        for rec in records:
            # the base64 alphabet never needs escaping, so the samples are
            # spliced in after the other fields, bytes as json.dumps writes them
            head = json.dumps({f: getattr(rec, f) for f in RECORD_FIELDS})
            samples = base64.b64encode(rec.samples.astype("<f8", copy=False).tobytes()).decode("ascii")
            fh.write(f'{head[:-1]}, "samples_f64le": "{samples}"}}\n')


def read_waveforms(path: str | Path) -> Tuple[List[WaveformRecord], str]:
    """Read a waveform file of either format version; returns (records, role).

    Raises :class:`FormatError` with the offending line number on any
    malformed line, mistyped field, invariant violation or repeated trace id.
    """
    records: List[WaveformRecord] = []
    linenos: List[int] = []
    with fields.text_file(path) as fh:
        header_line = fh.readline()
        if not header_line:
            raise FormatError(f"{path}: empty file")
        header = fields.document(header_line, path, tuple(SAMPLES), line=1)
        role = check_role(path, fields.get(header, "role", str, fields.in_file(path, 1), "all"))
        key, read_samples = SAMPLES[header["format"]]
        other = next(k for k, _ in SAMPLES.values() if k != key)
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = fields.document(line, path, line=lineno)
            fail = fields.in_file(path, lineno)
            if other in row:
                raise fail("samples_f64le", f"a {header['format']} record holds its samples in {key} only, "
                                            f"and this one has {other}")
            missing = [f for f in (*RECORD_FIELDS, key) if f not in row]
            if missing:
                raise FormatError(f"{path}: missing fields {missing}", line=lineno)
            values = {
                f: None if f in NULLABLE and row[f] is None else fields.typed(f, row[f], kind, fail)
                for f, kind in RECORD_FIELDS.items()
            }
            samples = read_samples(key, row[key], fail)
            try:
                rec = WaveformRecord(**values, samples=samples)
            except SamplesError as exc:
                raise fail(key, str(exc)) from exc
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{path}: {exc}", line=lineno) from exc
            records.append(rec)
            linenos.append(lineno)
    fields.unique_ids(path, [rec.trace_id for rec in records], linenos)
    return records, role
