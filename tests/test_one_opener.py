r"""Every input file is opened, and every JSON document parsed, in ``quakebox.fields``;
every output file is written with ``\n`` newlines.

``fields.text_file`` turns a byte that is not UTF-8 into an error naming
the file and the line, and ``fields.document`` does the same for bad JSON
and for nesting too deep for the parser.  A module that opens or parses
for itself would bring the traceback back, so here it fails the suite.

A text write without ``newline="\n"`` turns each ``\n`` into the
platform's line separator, so an artifact's bytes would depend on the
platform; each such write fails the suite too.

A data file is read line by line (``readlines`` or iteration), never as
one string split afterwards: ``read().split`` holds the file twice and
pays for the second copy in page faults, so it fails the suite as well.
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


def _writes(call: ast.Call) -> bool:
    mode = _mode(call)
    return isinstance(mode, ast.Constant) and isinstance(mode.value, str) and bool(set(mode.value) & set("wax"))


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
        elif name == "open" and not _writes(node):
            found.append((node.lineno, "open"))
    return found


def platform_newlines(source: str) -> list[tuple[int, str]]:
    """(line, call) of each text write in ``source`` that does not pass
    ``newline="\\n"``: a ``write_text``, or an ``open`` whose mode is a
    literal that writes text (``w``, ``a`` or ``x``, without ``b``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "write_text" or (name == "open" and _writes(node) and "b" not in _mode(node).value):
            newline = next((k.value for k in node.keywords if k.arg == "newline"), None)
            if not (isinstance(newline, ast.Constant) and newline.value == "\n"):
                found.append((node.lineno, name))
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


@pytest.mark.parametrize("source,expected", [
    ("path.write_text(text, encoding='utf-8')", ["write_text"]),
    ("path.write_text(text, encoding='utf-8', newline='')", ["write_text"]),
    ("path.write_text(text, encoding='utf-8', newline='\\n')", []),
    ("open(path, 'w')", ["open"]),
    ("open('x.txt', mode='a', encoding='utf-8')", ["open"]),
    ("path.open('w', encoding='utf-8', newline='\\n')", []),
    ("open(path, 'wb')", []),
    ("path.write_bytes(data)", []),
    ("open(path)", []),
    ("path.open('r', encoding='utf-8')", []),
])
def test_the_scan_sees_each_write_without_a_newline_rule(source, expected):
    assert [call for _, call in platform_newlines(source)] == expected


def test_every_text_write_uses_newline_lf():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {call}"
        for path in sorted(SRC.rglob("*.py"))
        for line, call in platform_newlines(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def whole_file_splits(source: str) -> list[tuple[int, str]]:
    """(line, call) of each ``.read().split(...)`` or ``.read().splitlines(...)``
    in ``source``: a whole file read as one string, then cut into lines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("split", "splitlines")):
            continue
        inner = node.func.value
        if (isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute) and inner.func.attr == "read"
                and not inner.args and not inner.keywords):
            found.append((node.lineno, f"read().{node.func.attr}"))
    return found


@pytest.mark.parametrize("source,expected", [
    ("fh.read().split('\\n')", ["read().split"]),
    ("fh.read().split()", ["read().split"]),
    ("fh.read().splitlines()", ["read().splitlines"]),
    ("open(p).read().splitlines(keepends=True)", ["read().splitlines"]),
    ("fh.readlines()", []),
    ("fh.readline().split('\\t')", []),
    ("fh.read(64).split()", []),
    ("fields.document(fh.read(), path)", []),
    ("line.split('\\t')", []),
])
def test_the_scan_sees_each_whole_file_split(source, expected):
    assert [call for _, call in whole_file_splits(source)] == expected


def test_no_module_splits_a_whole_file_read():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {call}"
        for path in sorted(SRC.rglob("*.py"))
        for line, call in whole_file_splits(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
