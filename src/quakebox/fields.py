"""Opening input files, parsing JSON documents and reading their fields.

Every input opens through :func:`text_file`, every JSON document parses
through :func:`document`, and all read their fields by one rule: a field
is found by its dotted path, JSON ``true``/``false`` never stand in for a
number, an int widens to float, and every number read must be finite.
Each caller passes ``fail(field, why)``, which builds the error it raises:
``ConfigError`` for a config, :func:`in_file` (a ``FormatError`` naming
the file, and the line) for a data file.

:func:`spec` reads a whole config section into its frozen dataclass:
each field by its type hint, a missing one at its default (if it has one),
and a key that names no field refused as ``section.key: unknown field``.
:func:`record` writes a dataclass under the same names.

A waveform record's samples are read by :func:`numbers` (a v1 JSON
array) or :func:`float64le` (v2 base64 of float64 bytes).
:func:`unique_ids` refuses a trace id that repeats in a waveform or
matrix file.
"""

from __future__ import annotations

import base64
import collections.abc
import contextlib
import dataclasses
import json
import math
import re
import typing
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import ConfigError, FormatError, QuakeboxError

Fail = Callable[[str, str], Exception]
_REQUIRED = object()


@contextlib.contextmanager
def text_file(path: str | Path) -> Iterator[TextIO]:
    """``path`` open as UTF-8 text with universal newlines; a leading byte-order
    mark is skipped.  A bad byte met in the ``with`` body is a FormatError
    naming the file and the first bad line, if any."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:  # a bad byte reads as \udcXX
            line = next((n for n, text in enumerate(fh, 1) if re.search("[\udc80-\udcff]", text)), None)
        raise FormatError(f"{path}: invalid UTF-8 ({exc.reason})", line=line) from None


def document(text: str, path: str | Path, fmt: str | tuple[str, ...] | None = None,
             line: int | None = None) -> dict:
    """``text`` parsed as a JSON object, tagged ``"format": fmt`` (or one of
    the ``fmt`` tuple) when ``fmt`` is given; else a FormatError naming the
    file (and the line)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise FormatError(f"{path}: invalid JSON ({exc})", line=line) from None
    formats = (fmt,) if isinstance(fmt, str) else fmt
    if not isinstance(doc, dict) or (formats is not None and doc.get("format") not in formats):
        what = f"not a {' or '.join(formats)} file" if formats else "not a JSON object"
        raise FormatError(f"{path}: {what}", line=line)
    return doc


def get(doc: Mapping[str, Any], field: str, kind: type, fail: Fail, default=_REQUIRED):
    """The value at the dotted path ``field``, checked by :func:`typed`.

    A missing field gives ``default`` as it is, or fails naming the path
    down to the first missing key when no default is given.
    """
    parts = field.split(".")
    node: Any = doc
    for depth, part in enumerate(parts):
        if not isinstance(node, Mapping):
            raise fail(".".join(parts[:depth]), f"expected dict, got {type(node).__name__}")
        if part not in node:
            if default is _REQUIRED:
                raise fail(".".join(parts[: depth + 1]), "missing required field")
            return default
        node = node[part]
    return typed(field, node, kind, fail)


def typed(field: str, value, kind: type, fail: Fail):
    """``value`` checked to be a ``kind``; a float must be finite."""
    # JSON true/false are Python ints; they never stand in for a number
    if isinstance(value, bool) and kind in (int, float):
        raise fail(field, f"expected {kind.__name__}, got bool")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf if value > 0 else -math.inf
    if not isinstance(value, kind):
        raise fail(field, f"expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not math.isfinite(value):
        raise fail(field, f"must be finite, got {value}")
    return value


def listed(doc: Mapping[str, Any], field: str, kind: type, fail: Fail, default=_REQUIRED,
           length: int | None = None) -> tuple | None:
    """A list field as a tuple of ``kind`` entries, each error naming ``field[i]``.

    A ``default`` list is checked like a read one; a missing field with
    ``default=None`` gives None.
    """
    values = get(doc, field, list, fail, default)
    if values is None:
        return None
    if length is not None and len(values) != length:
        raise fail(field, f"expected {length} values, got {len(values)}")
    return tuple(typed(f"{field}[{i}]", v, kind, fail) for i, v in enumerate(values))


def numbers(field: str, values, fail: Fail) -> list:
    """``values`` checked to be a list of JSON numbers only, in one pass for
    long arrays.

    A bool, string or null entry fails naming ``field[i]``, and so does an
    integer beyond the float range; any other finiteness check is left to
    the caller, which builds an array from ``values`` and checks it.
    """
    values = typed(field, values, list, fail)
    kinds = set(map(type, values))
    odd = kinds - {float, int}
    if odd:
        i = next(i for i, v in enumerate(values) if type(v) in odd)
        raise fail(f"{field}[{i}]", f"expected float, got {type(values[i]).__name__}")
    if int in kinds:
        for i, v in enumerate(values):
            if type(v) is int:
                typed(f"{field}[{i}]", v, float, fail)
    return values


def float64le(field: str, text, fail: Fail) -> np.ndarray:
    """``text`` checked to be a string of base64 (the standard alphabet,
    padded) and decoded as little-endian float64 values.

    A character outside the alphabet, bad padding, or a byte count that is
    not a multiple of 8 fails naming ``field``; whether the values are
    finite, and that there is at least one, is left to the caller, as in
    :func:`numbers`.
    """
    text = typed(field, text, str, fail)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise fail(field, f"invalid base64 ({exc})") from None
    if len(raw) % 8:
        raise fail(field, f"{len(raw)} bytes is not a whole number of float64 values (8 bytes each)")
    return np.frombuffer(raw, dtype="<f8")


def table(doc: Mapping[str, Any], field: str, kind: type, fail: Fail, default=_REQUIRED) -> dict:
    """An object field as a dict of ``kind`` values, each error naming ``field.key``."""
    node = get(doc, field, dict, fail, default)
    return {key: typed(f"{field}.{key}", v, kind, fail) for key, v in node.items()}


def in_file(path: str | Path, line: int | None = None) -> Fail:
    """``fail`` for a data file: a FormatError naming the file (and the line)."""
    return lambda field, why: FormatError(f"{path}: {field}: {why}", line=line)


def unique_ids(path: str | Path, ids: Sequence[str], lines: Sequence[int]) -> None:
    """Refuses the first trace id of a data file that repeats an earlier one,
    naming its line and the line that first holds it."""
    if len(set(ids)) < len(ids):
        first: dict = {}
        for tid, line in zip(ids, lines):
            if first.setdefault(tid, line) != line:
                raise FormatError(f"{path}: trace_id {tid} repeats line {first[tid]}", line=line)


def under(prefix: str, fail: Fail) -> Fail:
    """``fail`` for the fields of the object at ``prefix`` (``runs[3]``)."""
    return lambda field, why: fail(f"{prefix}.{field}", why)


def spec(cls, doc: Mapping[str, Any], section: str, fail: Fail, **fixed):
    """The dataclass ``cls`` read from the object at ``section`` of ``doc``.

    Each field is read by its type hint under its :func:`json_name`, and a
    missing one keeps its default or, without one, fails as required.
    ``fixed`` fields (the command's seeds) are the caller's and
    cannot be read.  The dataclass's own check fails naming ``section``,
    or the field within it that a ConfigError of the check names; a key
    that names no field fails after that.  An empty ``section``
    reads the fields from ``doc`` itself and leaves its other keys to the
    caller.
    """
    at = under(section, fail) if section else fail
    node = get(doc, section, dict, fail, {}) if section else doc
    hints = typing.get_type_hints(cls)
    names, values = [], {}
    for f in dataclasses.fields(cls):
        if f.name not in fixed:
            names.append(json_name(f))
            required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
            if names[-1] in node or required:
                values[f.name] = _hinted(node, names[-1], hints[f.name], at)
    try:
        made = cls(**values, **fixed)
    except ConfigError as exc:
        raise at(exc.field, exc.reason) from exc
    except (ValueError, QuakeboxError) as exc:
        raise fail(section or ", ".join(names), str(exc)) from exc
    if section:
        known(node, names, at)
    return made


def _hinted(node: Mapping[str, Any], name: str, hint, fail: Fail):
    """The field ``name`` of ``node`` read as its type hint says."""
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X] is read as X: null is refused
        return _hinted(node, name, args[0], fail)
    if typing.get_origin(hint) is tuple:
        return listed(node, name, args[0], fail, length=None if args[-1] is Ellipsis else len(args))
    if typing.get_origin(hint) is collections.abc.Mapping:  # Mapping[str, X]
        return table(node, name, args[1], fail)
    return get(node, name, hint, fail)


def json_name(f: dataclasses.Field) -> str:
    """A dataclass field's name in JSON: its ``metadata["json"]``, else its own."""
    return f.metadata.get("json", f.name)


def record(obj) -> dict:
    """The dataclass ``obj`` as a JSON object, its fields in order under their :func:`json_name`."""
    return {json_name(f): getattr(obj, f.name) for f in dataclasses.fields(obj)}


def refuse_repeats(field: str, values: Sequence, fail: Fail) -> None:
    """Refuses the first entry of the list ``field`` that repeats an earlier one."""
    for i, value in enumerate(values):
        if values.index(value) < i:
            raise fail(f"{field}[{i}]", f"{value} repeats {field}[{values.index(value)}]")


def known(node: Mapping[str, Any], names, fail: Fail) -> None:
    """Refuses the first key of ``node`` that is not in ``names``."""
    for key in node:
        if key not in names:
            raise fail(key, "unknown field")
