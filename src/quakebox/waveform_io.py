"""Line-delimited waveform files.

The on-disk format (see docs/formats.md) is JSON Lines: a header object on
the first line, then one record object per line.  Field names and the
header are fixed; readers reject any record with a field of the wrong JSON
type (read through :mod:`quakebox.fields`) or that violates the
:class:`~quakebox.waveform.WaveformRecord` invariants with a line-numbered
error so bad inputs fail loudly instead of poisoning an experiment.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Tuple

from . import fields
from .errors import FormatError
from .waveform import WaveformRecord, check_role

FORMAT_NAME = "quakebox-waveforms-v1"

# each record field's JSON type, in the order written; event_id and magnitude may also be null
RECORD_FIELDS = {
    "trace_id": str,
    "event_id": str,
    "station": str,
    "channel": str,
    "sample_rate": float,
    "label": str,
    "magnitude": float,
    "samples": list,
}
NULLABLE = ("event_id", "magnitude")


def write_waveforms(path: str | Path, records: Iterable[WaveformRecord], role: str = "all") -> None:
    """Write records as JSON Lines with a header carrying the partition role."""
    path = Path(path)
    check_role(path, role)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"format": FORMAT_NAME, "role": role}) + "\n")
        for rec in records:
            row = {f: getattr(rec, f) for f in RECORD_FIELDS}
            row["samples"] = rec.samples.tolist()
            fh.write(json.dumps(row) + "\n")


def read_waveforms(path: str | Path) -> Tuple[List[WaveformRecord], str]:
    """Read a waveform file; returns (records, role).

    Raises :class:`FormatError` with the offending line number on any
    malformed line, mistyped field or invariant violation.
    """
    records: List[WaveformRecord] = []
    with fields.text_file(path) as fh:
        header_line = fh.readline()
        if not header_line:
            raise FormatError(f"{path}: empty file")
        header = fields.document(header_line, path, FORMAT_NAME, line=1)
        role = check_role(path, fields.get(header, "role", str, fields.in_file(path, 1), "all"))
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            row = fields.document(line, path, line=lineno)
            missing = [f for f in RECORD_FIELDS if f not in row]
            if missing:
                raise FormatError(f"{path}: missing fields {missing}", line=lineno)
            fail = fields.in_file(path, lineno)
            values = {
                f: None if f in NULLABLE and row[f] is None else fields.typed(f, row[f], kind, fail)
                for f, kind in RECORD_FIELDS.items()
            }
            fields.numbers("samples", values["samples"], fail)
            try:
                rec = WaveformRecord(**values)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"{path}: {exc}", line=lineno) from exc
            records.append(rec)
    return records, role
