"""The shared JSON field reader: paths, types, finiteness, and the caller's error."""

import math

import pytest

from quakebox import fields
from quakebox.errors import ConfigError, FormatError


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

    def test_under_prefixes_the_field(self):
        at = fields.under("runs[2]", fields.in_file("doc.json", line=7))
        with pytest.raises(FormatError, match=r"^line 7: doc.json: runs\[2\].val_mcc: must be finite"):
            fields.get({"val_mcc": math.nan}, "val_mcc", float, at)
