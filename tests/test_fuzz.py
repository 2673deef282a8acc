"""Property-based fuzzing of the model, matrix and prediction readers through ``quakebox eval``.

Each input is a valid file broken one way: bytes replaced, deleted or
inserted; a key deleted; or a value swapped for one of another JSON type.
Whatever the input, ``cli.main`` returns 0 (the file still reads) or 2 (it
was refused with an error), and no exception escapes it.  The matrix and
prediction readers are also fuzzed directly, against a reading of the same
text cell by cell with ``float``, and ``write_matrix`` either refuses a
matrix or writes a file that ``read_matrix`` reads back as it was.  The runs are
derandomized and keep no example database, so the suite stays
reproducible and writes no ``.hypothesis/`` directory.
"""

import contextlib
import io
import json
import re
import tempfile

import numpy as np

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quakebox.bench import ingest_predictions
from quakebox.cli import main
from quakebox.errors import FormatError, IngestError
from quakebox.features import FeatureMatrix, read_matrix, write_matrix
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


# text that puts a cell at the edge of the number grammar: an underscore after
# a digit (which float() reads), padding (a space, the file separator \x1c that
# str.strip removes, a no-break space), a full-width digit, non-finite words, a
# sign, an exponent, and a new column or line
SPLICES = [b"_0", b" ", b"\x1c", "\u00a0".encode(), "\uff11".encode(), b"nan", b"inf", b"-", b"e", b"\t", b"\n",
           b"\r", b"#", b'"', b"0"]


def _splices(text: bytes):
    """``text`` with up to three of the SPLICES inserted into its rows (after its first ``e1``)."""
    splice = st.tuples(st.integers(text.index(b"e1"), len(text)), st.sampled_from(SPLICES))
    return st.lists(splice, min_size=1, max_size=3).map(lambda edits: _insert(text, edits))


def _insert(text: bytes, edits) -> bytes:
    for pos, piece in edits:
        text = text[:pos] + piece + text[pos:]
    return text


def _rows(text: bytes, skip: int) -> list:
    """The cells of every non-blank line after the first ``skip``, read as
    the one opener reads text (a leading byte-order mark and universal newlines)."""
    lines = io.StringIO(text.decode("utf-8-sig"), newline=None).read().split("\n")
    return [line.split("\t") for line in lines[skip:] if line.strip()]


def _float(cell: str) -> float:
    # the reader strips what str.strip strips; float() alone keeps \x1c-\x1f and refuses the cell
    return float(cell.strip())


@FUZZ
@given(matrix=st.one_of(_edits(MATRIX.encode()), _splices(MATRIX.encode())))
def test_matrix_reads_as_float_per_cell(workdir, matrix):
    path = workdir / "direct.tsv"
    path.write_bytes(matrix)
    try:
        back, _ = read_matrix(path)
    except FormatError:
        return
    rows = _rows(matrix, 2)
    assert [(r[0], r[1]) for r in rows] == list(zip(back.trace_ids, back.labels))
    assert back.X.tobytes() == np.array([[_float(c) for c in r[2:]] for r in rows]).tobytes()


@FUZZ
@given(predictions=st.one_of(_edits(PREDICTIONS), _splices(PREDICTIONS)))
def test_predictions_read_as_float_per_cell(workdir, predictions):
    path = workdir / "direct.tsv"
    path.write_bytes(predictions)
    expected = ["e1", "e2", "n1", "n2"]
    try:
        got = ingest_predictions(path, expected)
    except (FormatError, IngestError):
        return
    header, *rows = _rows(predictions, 0)
    at = {name: header.index(name) for name in ("trace_id", "label", "probability", "threshold") if name in header}
    want = {}
    for r in rows:
        if "label" in at:
            want[r[at["trace_id"]]] = r[at["label"]]
        else:
            threshold = _float(r[at["threshold"]]) if "threshold" in at else 0.5
            want[r[at["trace_id"]]] = "event" if _float(r[at["probability"]]) >= threshold else "noise"
    assert got == {tid: label for tid, label in want.items() if tid in expected}


# names near the matrix grammar's edges: the header's own names, the labels,
# the empty name, characters that end a cell or a line, surrogates (which have
# no UTF-8 form), and short names that repeat
NAMES = st.one_of(st.sampled_from(["trace_id", "label", "event", "noise", "", "a\tb", "\r", "a\n", "a\ud800"]),
                  st.text("ab", max_size=2),
                  st.text(st.one_of(st.sampled_from("\t\r\n a"), st.characters(),
                                    st.characters(categories=["Cs"])), max_size=3))
# names the reader takes: distinct, not empty and not a header name, with no tab, CR or LF
PLAIN = st.text(st.characters(exclude_characters="\t\r\n"), min_size=1, max_size=3).filter(
    lambda name: name not in ("trace_id", "label"))


@st.composite
def _matrices(draw):
    """A matrix whose trace ids, labels and codes are each drawn either plain or
    from NAMES, so that most matrices break the file in at most one way."""
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    X = draw(st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=p, max_size=p),
                      min_size=n, max_size=n))
    ids, codes = (st.lists(NAMES, min_size=k, max_size=k) if draw(st.booleans())
                  else st.lists(PLAIN, min_size=k, max_size=k, unique=True) for k in (n, p))
    labels = st.sampled_from(["event", "noise"])
    labels = st.one_of(labels, NAMES) if draw(st.booleans()) else labels
    return FeatureMatrix(X, tuple(draw(codes)), tuple(draw(ids)), tuple(draw(st.lists(labels, min_size=n, max_size=n))))


@FUZZ
@given(m=_matrices())
def test_written_matrix_reads_back_or_is_refused_unwritten(workdir, m):
    path = workdir / "written.tsv"
    path.unlink(missing_ok=True)
    try:
        write_matrix(path, m)
    except FormatError:
        assert not path.exists()
        return
    assert not re.search("[\ud800-\udfff]", "".join(m.trace_ids + m.codes))  # refused above, never written
    back, role = read_matrix(path)
    assert (back.trace_ids, back.labels, back.codes, role) == (m.trace_ids, m.labels, m.codes, "all")
    assert back.X.tobytes() == m.X.tobytes()
