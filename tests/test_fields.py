"""The shared input opener, JSON document parser and field reader: paths,
types, finiteness, and the caller's error."""

import json
import math

import pytest

from quakebox import fields
from quakebox.bench import RatioSpec, SplitSpec, SyntheticSpec
from quakebox.errors import ConfigError, FormatError
from quakebox.model import PenaltyConfig, TrainOptions
from quakebox.selection import EnsembleConfig, EnsembleRunResult, FeatureWeightStats, SelectionRule
from quakebox.waveform import PreprocessConfig


fail = fields.in_file("doc.json")


DOC = {"a": {"b": {"c": 3}}, "x": 1.5, "flag": True, "xs": [1, 2.5], "t": {"p": 1, "q": 2.0}}


class TestGet:
    def test_dotted_path(self):
        assert fields.get(DOC, "a.b.c", int, fail) == 3

    def test_default_when_missing(self):
        sentinel = object()
        assert fields.get(DOC, "a.b.z", int, fail, sentinel) is sentinel
        assert fields.get(DOC, "nope.deeper", int, fail, None) is None

    def test_missing_names_the_first_missing_key(self):
        with pytest.raises(FormatError, match="doc.json: a.z: missing required field"):
            fields.get(DOC, "a.z.c", int, fail)

    def test_non_object_parent_is_named(self):
        with pytest.raises(ConfigError, match=r"^x: expected dict, got float$"):
            fields.get(DOC, "x.y", int, ConfigError)

    def test_callers_error_type_is_raised(self):
        with pytest.raises(ConfigError, match="flag: expected int, got bool"):
            fields.get(DOC, "flag", int, ConfigError)


class TestTyped:
    @pytest.mark.parametrize("kind", [int, float])
    def test_bool_is_never_a_number(self, kind):
        with pytest.raises(FormatError, match=f"expected {kind.__name__}, got bool"):
            fields.typed("f", False, kind, fail)

    def test_bool_is_a_bool(self):
        assert fields.typed("f", True, bool, fail) is True

    def test_int_widens_to_float(self):
        value = fields.typed("f", 7, float, fail)
        assert type(value) is float and value == 7.0

    def test_float_is_not_an_int(self):
        with pytest.raises(FormatError, match="expected int, got float"):
            fields.typed("f", 2.0, int, fail)

    @pytest.mark.parametrize("value,shown", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "inf"), (-(10**400), "-inf"),
    ])
    def test_non_finite_refused(self, value, shown):
        with pytest.raises(FormatError, match=f"f: must be finite, got {shown}$"):
            fields.typed("f", value, float, fail)

    def test_numeric_string_is_not_a_number(self):
        with pytest.raises(FormatError, match="expected float, got str"):
            fields.typed("f", "1.5", float, fail)


class TestContainers:
    def test_listed_checks_each_entry(self):
        assert fields.listed(DOC, "xs", float, fail) == (1.0, 2.5)
        with pytest.raises(FormatError, match=r"xs\[1\]: expected int, got float"):
            fields.listed(DOC, "xs", int, fail)

    def test_listed_length_and_defaults(self):
        with pytest.raises(FormatError, match="xs: expected 3 values, got 2"):
            fields.listed(DOC, "xs", float, fail, length=3)
        assert fields.listed(DOC, "ys", float, fail, [1, 2]) == (1.0, 2.0)
        assert fields.listed(DOC, "ys", float, fail, None) is None
        with pytest.raises(FormatError, match=r"ys\[0\]: expected float, got bool"):
            fields.listed(DOC, "ys", float, fail, [True])

    def test_table_names_each_key(self):
        assert fields.table(DOC, "t", float, fail) == {"p": 1.0, "q": 2.0}
        with pytest.raises(FormatError, match="t.q: expected int, got float"):
            fields.table(DOC, "t", int, fail)
        assert fields.table(DOC, "u", str, fail, {}) == {}

    def test_numbers_names_the_first_non_number(self):
        values = [0.5, 2, -1e300]
        assert fields.numbers("s", values, fail) is values
        for bad, name in ((True, "bool"), ("1.5", "str"), (None, "NoneType")):
            with pytest.raises(FormatError, match=rf"s\[2\]: expected float, got {name}"):
                fields.numbers("s", [0.5, 2, bad, bad], fail)

    @pytest.mark.parametrize("big,shown", [(10**400, "inf"), (-(10**400), "-inf")], ids=["above", "below"])
    def test_numbers_refuses_an_int_beyond_the_float_range(self, big, shown):
        with pytest.raises(FormatError, match=rf"^doc.json: s\[2\]: must be finite, got {shown}$"):
            fields.numbers("s", [0.5, 2, big, 1e300], fail)

    def test_under_prefixes_the_field(self):
        at = fields.under("runs[2]", fields.in_file("doc.json", line=7))
        with pytest.raises(FormatError, match=r"^line 7: doc.json: runs\[2\].val_mcc: must be finite"):
            fields.get({"val_mcc": math.nan}, "val_mcc", float, at)


def spec(cls, doc, section, **fixed):
    return fields.spec(cls, doc, section, ConfigError, **fixed)


class TestSpec:
    @pytest.mark.parametrize("cls,section,seeds", [
        (SyntheticSpec, "synthetic", {"seed": 5}),
        (SplitSpec, "", {"seed": 5}),
        (PreprocessConfig, "preprocess", {}),
        (PenaltyConfig, "model", {}),
        (TrainOptions, "optimizer", {}),
        (EnsembleConfig, "ensemble", {"seed": 5}),
        (SelectionRule, "rule", {}),
        (RatioSpec, "", {"seed": 5}),
    ])
    def test_empty_section_gives_the_defaults(self, cls, section, seeds):
        assert spec(cls, {}, section, **seeds) == cls(**seeds)

    def test_fields_read_by_type_hint(self):
        doc = {"synthetic": {"n_events": 3, "fs": 100, "snr_range": [2, 8.5]}}
        made = spec(SyntheticSpec, doc, "synthetic", seed=1)
        assert made == SyntheticSpec(n_events=3, fs=100.0, snr_range=(2.0, 8.5), seed=1)
        assert type(made.fs) is float and type(made.snr_range[0]) is float

    def test_null_for_optional_int_is_refused(self):
        assert spec(PreprocessConfig, {"p": {"window_len": 64}}, "p").window_len == 64
        with pytest.raises(ConfigError, match=r"^p.window_len: expected int, got NoneType$"):
            spec(PreprocessConfig, {"p": {"window_len": None}}, "p")

    def test_fixed_length_tuple_checks_its_length(self):
        with pytest.raises(ConfigError, match=r"^s.snr_range: expected 2 values, got 3$"):
            spec(SyntheticSpec, {"s": {"snr_range": [1.0, 2.0, 3.0]}}, "s", seed=0)

    def test_open_tuple_names_each_entry(self):
        assert spec(RatioSpec, {"ratios": [1, 2.5, 4]}, "", seed=0).ratios == (1.0, 2.5, 4.0)
        with pytest.raises(ConfigError, match=r"^ratios\[2\]: expected float, got str$"):
            spec(RatioSpec, {"ratios": [1.0, 2.0, "3"]}, "", seed=0)
        with pytest.raises(ConfigError, match=r"^ensemble.lambda_grid\[1\]: must be finite, got inf$"):
            spec(EnsembleConfig, {"ensemble": {"lambda_grid": [0.1, math.inf]}}, "ensemble", seed=0)

    def test_ensemble_has_no_vary_section(self):
        for vary in ({"subsample": False}, {"seed": 1}, 3):
            with pytest.raises(ConfigError, match=r"^ensemble.vary: unknown field$"):
                spec(EnsembleConfig, {"ensemble": {"n_runs": 4, "vary": vary}}, "ensemble", seed=2)

    def test_metadata_json_name(self):
        assert spec(PenaltyConfig, {"model": {"lambda": 0.25}}, "model").lam == 0.25
        with pytest.raises(ConfigError, match=r"^model.lambda: expected float, got bool$"):
            spec(PenaltyConfig, {"model": {"lambda": True}}, "model")
        with pytest.raises(ConfigError, match=r"^model.lam: unknown field$"):
            spec(PenaltyConfig, {"model": {"lam": 0.25}}, "model")

    @pytest.mark.parametrize("cls,section", [
        (SyntheticSpec, "synthetic"), (TrainOptions, "optimizer"), (EnsembleConfig, "ensemble"),
    ])
    def test_the_commands_seed_is_not_readable(self, cls, section):
        # the trainer takes no seed at all; the others take the command's
        fixed = {} if cls is TrainOptions else {"seed": 5}
        with pytest.raises(ConfigError, match=rf"^{section}.seed: unknown field$"):
            spec(cls, {section: {"seed": 3}}, section, **fixed)

    def test_unknown_key_is_reported_after_the_field_errors(self):
        for doc, message in (
            ({"lamda": 5.0, "alpha": "high"}, r"^model.alpha: expected float, got str$"),
            ({"lamda": 5.0, "alpha": 2.0}, r"^model: alpha must lie in \[0, 1\], got 2.0$"),
            ({"lamda": 5.0, "alpha": 0.5}, r"^model.lamda: unknown field$"),
        ):
            with pytest.raises(ConfigError, match=message):
                spec(PenaltyConfig, {"model": doc}, "model")

    def test_dataclass_check_is_reported_under_the_section(self):
        # a ValueError
        with pytest.raises(ConfigError, match=r"^optimizer: max_iters must be at least 1, got 0$"):
            spec(TrainOptions, {"optimizer": {"max_iters": 0}}, "optimizer")
        # a QuakeboxError (InvalidBand)
        with pytest.raises(ConfigError, match=r"^preprocess: band must satisfy 0 < low < high"):
            spec(PreprocessConfig, {"preprocess": {"band_low_hz": 30.0}}, "preprocess")
        # a spec read from the top level names its fields
        with pytest.raises(ConfigError, match=r"^fractions: fractions must sum to 1"):
            spec(SplitSpec, {"fractions": [0.5, 0.5, 0.5], "input": "w.jsonl"}, "", seed=0)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match=r"^rule: expected dict, got list$"):
            spec(SelectionRule, {"rule": [0.9, 0.05]}, "rule")


class TestTextFile:
    def test_reads_text_with_universal_newlines(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\u00e9\n".encode())
        with fields.text_file(path) as fh:
            assert list(fh) == ["a\n", "b\n", "c\u00e9\n"]

    @pytest.mark.parametrize("data,line", [
        (b"\xff", 1),
        (b"a\nb\n\nc\xe9d\n", 4),
        # "\r" ends a line in text mode, so it is counted as one
        (b"a\rb\r\nc\xc3\n", 3),
        # the decoder reads ahead: a bad byte far down the file fails the first read
        (b"x\n" * 20000 + b"\x80\n", 20001),
    ], ids=["only-byte", "blank-line", "carriage-returns", "read-ahead"])
    def test_bad_byte_names_file_and_line(self, tmp_path, data, line):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError) as err:
            with fields.text_file(path) as fh:
                fh.readline()
                fh.read()
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: {path}: invalid UTF-8 (")

    def test_no_bad_line_found_names_the_file_alone(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("clean\n")
        with pytest.raises(FormatError) as err:
            with fields.text_file(path):
                b"\xff".decode("utf-8")
        assert err.value.line is None
        assert str(err.value) == f"{path}: invalid UTF-8 (invalid start byte)"

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            with fields.text_file(tmp_path / "absent.txt"):
                pass

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xef\xbb\xbfa\r\nb\n")
        with fields.text_file(path) as fh:
            assert list(fh) == ["a\n", "b\n"]

    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"\xef\xbb\xbfa\nb\xff\n")
        with pytest.raises(FormatError) as err:
            with fields.text_file(path) as fh:
                fh.read()
        assert str(err.value) == f"line 2: {path}: invalid UTF-8 (invalid start byte)"


class TestByteOrderMark:
    """An input saved with a UTF-8 byte-order mark reads as its twin without one."""

    @staticmethod
    def twins(tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        return plain, marked

    def test_feature_matrix(self, tmp_path):
        from conftest import make_vector
        from quakebox.features import read_matrix, write_matrix

        path = tmp_path / "m.tsv"
        write_matrix(path, [make_vector(f"t{i}", "event" if i % 2 else "noise", a=i / 3, b=-i)
                            for i in range(4)], role="train")
        plain, marked = self.twins(tmp_path, "m.tsv", path.read_text())
        (a, role_a), (b, role_b) = read_matrix(plain), read_matrix(marked)
        assert role_a == role_b == "train"
        assert (a.codes, a.trace_ids, a.labels) == (b.codes, b.trace_ids, b.labels)
        assert a.X.tobytes() == b.X.tobytes()

    def test_prediction_file(self, tmp_path):
        from quakebox.bench import ingest_predictions

        text = "trace_id\tprobability\nt0\t0.9\nt1\t0.2\n"
        plain, marked = self.twins(tmp_path, "p.tsv", text)
        assert ingest_predictions(marked, ["t0", "t1"]) == ingest_predictions(plain, ["t0", "t1"])
        assert ingest_predictions(marked, ["t0", "t1"]) == {"t0": "event", "t1": "noise"}

    def test_config(self, tmp_path):
        from quakebox.cli import _load_config

        plain, marked = self.twins(tmp_path, "c.json", '{"master_seed": 7, "ensemble": {"n_runs": 4}}\n')
        assert _load_config(str(marked)) == _load_config(str(plain)) == {
            "master_seed": 7, "ensemble": {"n_runs": 4}}

    def test_waveform_file(self, tmp_path):
        from conftest import make_record
        from quakebox.waveform_io import read_waveforms, write_waveforms

        path = tmp_path / "w.jsonl"
        write_waveforms(path, [make_record("tr0"), make_record("tr1", "event")], role="test")
        plain, marked = self.twins(tmp_path, "w.jsonl", path.read_text())
        (a, role_a), (b, role_b) = read_waveforms(plain), read_waveforms(marked)
        assert role_a == role_b == "test"
        write_waveforms(tmp_path / "a.jsonl", a, role_a)
        write_waveforms(tmp_path / "b.jsonl", b, role_b)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes() == plain.read_bytes()


class TestDocument:
    def test_object_returned(self):
        assert fields.document('{"format": "f-v1", "x": 1}', "d.json", "f-v1") == {"format": "f-v1", "x": 1}
        assert fields.document('{"x": 1}', "d.json") == {"x": 1}

    @pytest.mark.parametrize("text,fmt,named", [
        ('{"x": ', None, "d.json: invalid JSON (Expecting value: line 1 column 7 (char 6))"),
        ("[" * 100000, None, "d.json: invalid JSON (maximum recursion depth exceeded"),
        ('{"a": ' * 100000, "f-v1", "d.json: invalid JSON (maximum recursion depth exceeded"),
        ("[1]", None, "d.json: not a JSON object"),
        ('"f-v1"', "f-v1", "d.json: not a f-v1 file"),
        ('{"format": "f-v2"}', "f-v1", "d.json: not a f-v1 file"),
        ("{}", "f-v1", "d.json: not a f-v1 file"),
    ], ids=["truncated", "nested-array", "nested-object", "array", "string", "wrong-format", "no-format"])
    def test_bad_document_names_the_file(self, text, fmt, named):
        with pytest.raises(FormatError) as err:
            fields.document(text, "d.json", fmt)
        assert str(err.value).startswith(named)
        assert err.value.line is None

    def test_line_is_named(self):
        with pytest.raises(FormatError, match=r"^line 7: d.jsonl: not a JSON object$"):
            fields.document("3", "d.jsonl", line=7)


RUN = EnsembleRunResult(run_id=3, val_mcc=0.5, config_used={"lambda": 0.1, "n_train": 8},
                        weights={"C1": 0.25, "C2": 0.0}, iterations=7, converged=False,
                        objective=0.625, kkt_residual=1e-7, nnz=1)
STATS = FeatureWeightStats(minimum=-0.5, maximum=0.75, median=0.125, median_abs=0.25,
                           mean_abs=0.375, fraction_nonzero=0.5)


class TestRecord:
    def test_keys_are_json_names_in_field_order(self):
        assert list(fields.record(RUN)) == ["run_id", "val_mcc", "config_used", "weights", "iterations",
                                            "converged", "objective", "kkt_residual", "nnz"]
        assert fields.record(STATS) == {"min": -0.5, "max": 0.75, "median": 0.125, "median_abs": 0.25,
                                        "mean_abs": 0.375, "fraction_nonzero": 0.5}
        assert fields.record(PenaltyConfig(alpha=0.5, lam=0.25)) == {"alpha": 0.5, "lambda": 0.25}

    @pytest.mark.parametrize("made", [RUN, STATS, SelectionRule(min_fraction_nonzero=0.75, min_median_abs=0.5)],
                             ids=lambda made: type(made).__name__)
    def test_record_json_spec_round_trip(self, made):
        doc = json.loads(json.dumps({"x": fields.record(made)}))
        assert spec(type(made), doc, "x") == made

    def test_a_field_without_default_is_required(self):
        with pytest.raises(ConfigError, match=r"^d.max: missing required field$"):
            spec(FeatureWeightStats, {"d": {"min": 0.0, "median": 0.0}}, "d")
        run = fields.record(RUN)
        del run["nnz"]
        with pytest.raises(FormatError, match=r"^doc.json: runs\[2\].nnz: missing required field$"):
            fields.spec(EnsembleRunResult, run, "", fields.under("runs[2]", fail))

    def test_a_mapping_field_names_its_bad_entry(self):
        run = {**fields.record(RUN), "weights": {"C1": 0.25, "C2": "x"}}
        with pytest.raises(ConfigError, match=r"^r.weights.C2: expected float, got str$"):
            spec(EnsembleRunResult, {"r": run}, "r")
        with pytest.raises(ConfigError, match=r"^r.weights.C1: must be finite, got nan$"):
            spec(EnsembleRunResult, {"r": {**run, "weights": {"C1": math.nan}}}, "r")
        with pytest.raises(ConfigError, match=r"^r.weights: expected dict, got list$"):
            spec(EnsembleRunResult, {"r": {**run, "weights": [0.25]}}, "r")
