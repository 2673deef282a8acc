"""Each intermediate that several features share is computed once per block,
and the block layout is decided in one module.

A kernel in ``catalog.py`` or ``surrogates.py`` reads the successive
differences, C14's and C15's values (one sort order and one threshold count
serve both) and the autocorrelation from its ``SeriesBlock``
(``block.diff``, ``block.outlier_timings``, ``block.acf``).  One that
calls ``np.diff``, ``np.sort``, ``np.argsort``, ``np.searchsorted`` or
``autocorrelation`` on the block's rows (``block.z``, ``block.raw``, a
name bound to them or a row of them) computes the intermediate again, so
here it fails the suite.
``BLOCK_ROWS`` is assigned in ``waveform.py`` alone, whose ``blocks`` both
preprocessing and extraction use.
"""

import ast
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "quakebox"
KERNELS = [SRC / "features" / "catalog.py", SRC / "features" / "surrogates.py"]
SHARED = {"diff", "sort", "argsort", "searchsorted", "autocorrelation"}
ROWS = {"z", "raw"}


def _reads_rows(node: ast.expr, aliases: set[str]) -> bool:
    """Whether ``node`` is a block's rows, a name bound to them, or an
    expression made from them (a negation, a product, a slice)."""
    if isinstance(node, ast.Attribute):
        return node.attr in ROWS
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.UnaryOp):
        return _reads_rows(node.operand, aliases)
    if isinstance(node, ast.BinOp):
        return _reads_rows(node.left, aliases) or _reads_rows(node.right, aliases)
    if isinstance(node, ast.Subscript):
        return _reads_rows(node.value, aliases)
    return False


def _aliases(func: ast.FunctionDef, params: set[str]) -> set[str]:
    """Names that ``func`` binds to a block's rows: the ``params`` that its
    callers pass rows to, ``z = block.z``, ``z, lags = block.z,
    block.acf_zero``, and ``for y in block.z``."""
    names = set(params)
    for _ in range(2):  # a name bound to another alias
        for node in ast.walk(func):
            pairs = []
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                        pairs += zip(target.elts, node.value.elts)
                    else:
                        pairs.append((target, node.value))
            elif isinstance(node, (ast.For, ast.comprehension)):
                pairs.append((node.target, node.iter))
            names |= {t.id for t, v in pairs if isinstance(t, ast.Name) and _reads_rows(v, names)}
    return names


def _calls(func: ast.FunctionDef):
    return [node for node in ast.walk(func) if isinstance(node, ast.Call)]


def recomputed(source: str) -> list[tuple[int, str]]:
    """(line, call) of each shared computation that a function in ``source``
    runs on a block's rows, or on rows handed to it by another function of
    ``source``."""
    funcs = {f.name: f for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)}
    params: dict[str, set[str]] = {name: set() for name in funcs}
    aliases: dict[str, set[str]] = {}
    changed = True
    while changed:
        changed = False
        for name, func in funcs.items():
            aliases[name] = _aliases(func, params[name])
            for call in _calls(func):
                callee = funcs.get(getattr(call.func, "id", None))
                for param, arg in zip(callee.args.args if callee else [], call.args):
                    if _reads_rows(arg, aliases[name]) and param.arg not in params[callee.name]:
                        params[callee.name].add(param.arg)
                        changed = True
    found = set()
    for name, func in funcs.items():
        for call in _calls(func):
            f = call.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            method_on_rows = isinstance(f, ast.Attribute) and _reads_rows(f.value, aliases[name])
            if called in SHARED and (method_on_rows or any(_reads_rows(a, aliases[name]) for a in call.args)):
                found.add((call.lineno, called))
    return sorted(found)


@pytest.mark.parametrize("body,expected", [
    ("return np.diff(block.z, axis=1)", ["diff"]),
    ("return np.sort(block.raw)", ["sort"]),
    ("return np.argsort(-block.z, kind='stable')", ["argsort"]),
    ("return block.z.argsort(axis=1)", ["argsort"]),
    ("return np.sort(block.z[rows] * 2.0)", ["sort"]),
    ("z = block.z\nreturn np.diff(z)", ["diff"]),
    ("z, lags = block.z, block.acf_zero\nreturn autocorrelation(z)", ["autocorrelation"]),
    ("x = block.raw\ny = x\nreturn np.diff(y)", ["diff"]),
    ("return [np.sort(y) for y in block.z]", ["sort"]),
    ("for y in block.raw:\n    np.argsort(y)", ["argsort"]),
    ("return [helper(y, +1.0) for y in block.z]\ndef helper(w, sign):\n    return np.sort(sign * w)", ["sort"]),
    ("return autocorrelation(block.diff)", []),
    ("return [helper(block.order, y) for y in block.z]\ndef helper(w, sign):\n    return np.sort(w)", []),
    ("return np.diff(acf, axis=1)", []),
    ("return np.take_along_axis(block.z, block.order, axis=1)", []),
    ("return np.abs(np.fft.rfft(block.dev)) ** 2", []),
    ("return np.searchsorted(grid, block.z[0], side='right')", ["searchsorted"]),
    ("return block.z[0].searchsorted(grid)", ["searchsorted"]),
    ("return [helper(block.z[k, o]) for k, o in enumerate(block.order)]\n"
     "def helper(ascending):\n    return np.searchsorted(ascending, grid)", ["searchsorted"]),
    ("return [helper(-block.z[k, o[::-1]]) for k, o in enumerate(block.order)]\n"
     "def helper(ascending):\n    return len(ascending) - ascending.searchsorted(grid)", ["searchsorted"]),
    ("return np.searchsorted(grid, np.flatnonzero(block.exceedances[0]))", []),
])
def test_the_scan_sees_each_kind_of_recompute(body, expected):
    # the body is the kernel's; a "def" line in it starts a module-level helper
    source = "def kernel(block):\n" + textwrap.indent(body, "    ").replace("\n    def ", "\ndef ")
    assert [call for _, call in recomputed(source)] == expected


def test_no_kernel_recomputes_a_shared_intermediate():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {call}"
        for path in KERNELS
        for line, call in recomputed(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


def test_block_rows_is_assigned_in_one_module():
    owners = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(t, ast.Name) and t.id.endswith("BLOCK_ROWS") for t in targets
            ):
                owners.append(str(path.relative_to(SRC)))
    assert owners == ["waveform.py"]
