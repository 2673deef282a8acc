"""Every input file is opened, and every JSON document parsed, in ``quakebox.fields``.

``fields.text_file`` turns a byte that is not UTF-8 into an error naming
the file and the line, and ``fields.document`` does the same for bad JSON
and for nesting too deep for the parser.  A module that opens or parses
for itself would bring the traceback back, so here it fails the suite.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quakebox"
OPENER = SRC / "fields.py"


def _mode(call: ast.Call) -> ast.expr | None:
    """The mode argument of ``open(path, mode)`` or ``path.open(mode)``."""
    position = 1 if isinstance(call.func, ast.Name) else 0
    if len(call.args) > position:
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def reads(source: str) -> list[tuple[int, str]]:
    """(line, call) of each JSON parse or read-mode open in ``source``.

    An open counts as a read unless its mode is a literal that writes
    (``w``, ``a`` or ``x``).
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("read_text", "read_bytes") and isinstance(func, ast.Attribute):
            found.append((node.lineno, name))
        elif name in ("loads", "load") and isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json":
            found.append((node.lineno, f"json.{name}"))
        elif name == "open":
            mode = _mode(node)
            writes = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and set(mode.value) & set("wax")
            if not writes:
                found.append((node.lineno, "open"))
    return found


@pytest.mark.parametrize("source,expected", [
    ("json.loads(text)", ["json.loads"]),
    ("json.load(fh)", ["json.load"]),
    ("open(path)", ["open"]),
    ("open(path, 'rb')", ["open"]),
    ("open(path, mode)", ["open"]),
    ("Path(p).open()", ["open"]),
    ("path.open('r', encoding='utf-8')", ["open"]),
    ("path.read_text(encoding='utf-8')", ["read_text"]),
    ("path.read_bytes()", ["read_bytes"]),
    ("open(path, 'w')", []),
    ("open('x.txt', mode='a')", []),
    ("path.open('w', encoding='utf-8', newline='\\n')", []),
    ("path.write_text(json.dumps(payload))", []),
    ("signal.loads(x)", []),
])
def test_the_scan_sees_each_kind_of_read(source, expected):
    assert [call for _, call in reads(source)] == expected


def test_only_fields_opens_inputs_or_parses_json():
    modules = sorted(SRC.rglob("*.py"))
    assert OPENER in modules and reads(OPENER.read_text(encoding="utf-8"))
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {call}"
        for path in modules if path != OPENER
        for line, call in reads(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
