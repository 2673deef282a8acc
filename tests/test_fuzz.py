"""Property-based fuzzing of the model, matrix and prediction readers through ``quakebox eval``.

Each input is a valid file broken one way: bytes replaced, deleted or
inserted; a key deleted; or a value swapped for one of another JSON type.
Whatever the input, ``cli.main`` returns 0 (the file still reads) or 2 (it
was refused with an error), and no exception escapes it.  The runs are
derandomized and keep no example database, so the suite stays
reproducible and writes no ``.hypothesis/`` directory.
"""

import contextlib
import io
import json
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quakebox.cli import main
from test_cli import MATRIX, MODEL as CLI_MODEL

# the CLI tests' valid files, the model with its optional training_meta
MODEL = {**CLI_MODEL, "training_meta": {"alpha": 0.5, "lambda": 0.002, "iterations": 7, "converged": True,
                                        "objective": 0.25, "kkt_residual": 1e-17}}

FUZZ = settings(derandomize=True, database=None, max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


# hypothesis's pytest plugin caches the constants of the source files while it
# collects this module; that cache goes to a directory removed at exit, not
# to ./.hypothesis
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _eval(workdir, model: bytes, matrix: bytes, predictions: bytes | None = None) -> int:
    """``quakebox eval`` of one model, and a prediction file if given, on one
    matrix; the exit code."""
    (workdir / "model.json").write_bytes(model)
    (workdir / "m.tsv").write_bytes(matrix)
    sources = {"models": {"lr": str(workdir / "model.json")}}
    if predictions is not None:
        (workdir / "p.tsv").write_bytes(predictions)
        sources["predictions"] = {"p": str(workdir / "p.tsv")}
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"input": str(workdir / "m.tsv"), **sources, "output": str(workdir / "eval.json")}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(["eval", "-c", str(cfg)])


def _edits(text: bytes):
    """``text`` with up to four bytes replaced, deleted or inserted."""
    edit = st.tuples(st.sampled_from(["replace", "delete", "insert"]),
                     st.integers(0, len(text)), st.integers(0, 255))
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _apply(text, edits))


def _apply(text: bytes, edits) -> bytes:
    out = bytearray(text)
    for kind, pos, byte in edits:
        pos = min(pos, len(out))
        if kind == "insert":
            out[pos:pos] = bytes([byte])
        elif pos < len(out):
            if kind == "replace":
                out[pos] = byte
            else:
                del out[pos]
    return bytes(out)


def _paths(node, prefix=()):
    """The path of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _changed(doc, path, value=...):
    """A deep copy of ``doc`` with the value at ``path`` replaced, or deleted when ``value`` is ``...``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is ...:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc).encode()


MODEL_BYTES = json.dumps(MODEL, indent=2).encode()
# a probability file for MATRIX's traces, with a threshold on every row
PREDICTIONS = b"trace_id\tprobability\tthreshold\ne1\t0.9\t0.5\ne2\t0.25\t0.2\nn1\t0.1\t0.5\nn2\t0.5\t0.75\n"
MODEL_PATHS = list(_paths(MODEL))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400), st.floats(),
                        st.text(max_size=4), st.just([]), st.just([1.0]), st.just({}), st.just({"f": 1.0}))


def test_unbroken_files_evaluate(workdir):
    assert _eval(workdir, MODEL_BYTES, MATRIX.encode()) == 0
    assert _eval(workdir, MODEL_BYTES, MATRIX.encode(), PREDICTIONS) == 0


@FUZZ
@given(model=_edits(MODEL_BYTES))
def test_model_byte_mutations(workdir, model):
    assert _eval(workdir, model, MATRIX.encode()) in (0, 2)


@FUZZ
@given(path=st.sampled_from(MODEL_PATHS))
def test_model_key_deletions(workdir, path):
    assert _eval(workdir, _changed(MODEL, path), MATRIX.encode()) in (0, 2)


@FUZZ
@given(path=st.sampled_from(MODEL_PATHS), value=JSON_VALUES)
def test_model_type_swaps(workdir, path, value):
    assert _eval(workdir, _changed(MODEL, path, value), MATRIX.encode()) in (0, 2)


@FUZZ
@given(matrix=_edits(MATRIX.encode()))
def test_matrix_byte_mutations(workdir, matrix):
    assert _eval(workdir, MODEL_BYTES, matrix) in (0, 2)


@FUZZ
@given(predictions=_edits(PREDICTIONS))
def test_prediction_byte_mutations(workdir, predictions):
    assert _eval(workdir, MODEL_BYTES, MATRIX.encode(), predictions) in (0, 2)
