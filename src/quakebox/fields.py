"""Reading the fields of a parsed JSON document.

Run configs, model files, selection reports and waveform records all read
their fields by one rule: a field is found by its dotted path, JSON
``true``/``false`` never stand in for a number, an int widens to float,
and every number read must be finite.  Each caller passes
``fail(field, why)``, which builds the error it raises: ``ConfigError``
for a config, :func:`in_file` (a ``FormatError`` naming the file, and the
line) for a data file.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Callable, Mapping

from .errors import FormatError

Fail = Callable[[str, str], Exception]
_REQUIRED = object()


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


def numbers(field: str, values: list, fail: Fail) -> list:
    """``values`` checked to hold only JSON numbers, in one pass for long arrays.

    A bool, string or null entry fails naming ``field[i]``; finiteness is
    left to the caller, which builds an array from ``values`` and checks it.
    """
    odd = set(map(type, values)) - {float, int}
    if odd:
        i = next(i for i, v in enumerate(values) if type(v) in odd)
        raise fail(f"{field}[{i}]", f"expected float, got {type(values[i]).__name__}")
    return values


def table(doc: Mapping[str, Any], field: str, kind: type, fail: Fail, default=_REQUIRED) -> dict:
    """An object field as a dict of ``kind`` values, each error naming ``field.key``."""
    node = get(doc, field, dict, fail, default)
    return {key: typed(f"{field}.{key}", v, kind, fail) for key, v in node.items()}


def in_file(path: str | Path, line: int | None = None) -> Fail:
    """``fail`` for a data file: a FormatError naming the file (and the line)."""
    return lambda field, why: FormatError(f"{path}: {field}: {why}", line=line)


def under(prefix: str, fail: Fail) -> Fail:
    """``fail`` for the fields of the object at ``prefix`` (``runs[3]``)."""
    return lambda field, why: fail(f"{prefix}.{field}", why)
