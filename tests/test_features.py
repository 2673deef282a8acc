"""Feature catalog: reference parity, registry contracts, standardization."""

import base64
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quakebox.errors import (
    DegenerateInput,
    DegenerateSeries,
    FormatError,
    MissingFeature,
    MissingParams,
    ShapeMismatch,
    UnknownFeature,
    ZeroVariance,
)
from quakebox.features import (
    FeatureDef,
    FeatureMatrix,
    FeatureRegistry,
    FeatureVector,
    canonical_registry,
    extract_matrix,
    extract_vector,
    read_matrix,
    reproduction_registry,
    selected_profile,
    standardize_apply,
    standardize_fit,
    write_matrix,
)
from quakebox.features import catalog
from quakebox.waveform import BLOCK_ROWS

from conftest import make_record, make_vector
from oracles.catch22_ref import REFERENCE_FUNCS, ami_gaussian_first_minimum_exact, reference_all, zscore

FIXTURES = Path(__file__).parent / "fixtures" / "catch22_parity.json"
EXACT_FIT = Path(__file__).parent / "fixtures" / "fluctuation_exact_fit.json"
OUTLIER_EDGES = Path(__file__).parent / "fixtures" / "outlier_timing_edges.json"
AMI_RANGE = Path(__file__).parent / "fixtures" / "ami_range_frozen.json"


def one_value(registry, code, x):
    """``code`` of the one series ``x``, a block of one; a failure fails the test."""
    values, failures = registry.extract_block((code,), np.asarray(x, dtype=float)[None])
    assert failures == {}, failures
    return float(values[0, 0])


def load_parity_cases():
    data = json.loads(FIXTURES.read_text())
    cases = []
    for entry in data["series"]:
        for code, expected in entry["expected"].items():
            cases.append(pytest.param(entry["name"], code, expected, id=f"{entry['name']}-{code}"))
    return cases


@pytest.fixture(scope="module")
def parity_series():
    data = json.loads(FIXTURES.read_text())
    return {e["name"]: np.array(e["values"]) for e in data["series"]}


class TestCatalogParity:
    """Production values vs the scalar reference oracle's frozen outputs."""

    @pytest.mark.parametrize("name,code,expected", load_parity_cases())
    def test_matches_reference(self, parity_series, name, code, expected):
        got = one_value(canonical_registry(), code, parity_series[name])
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-10)

    def test_corpus_is_ten_series(self, parity_series):
        assert len(parity_series) == 10

    def test_fixture_is_what_the_oracle_computes(self):
        # the frozen expectations and the oracle must not drift apart
        for entry in json.loads(FIXTURES.read_text())["series"]:
            assert reference_all(entry["values"]) == entry["expected"], entry["name"]


def _oracle_series(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    t = np.arange(n)
    if kind == "white":
        return rng.standard_normal(n)
    if kind == "random_walk":
        return np.cumsum(rng.standard_normal(n))
    if kind == "sinusoid":
        return np.sin(t * rng.uniform(0.05, 1.0)) + 0.3 * rng.standard_normal(n)
    if kind == "decaying":
        return np.exp(-t / (n / 5)) * rng.standard_normal(n)
    return np.round(3 * rng.standard_normal(n))  # "rounded": many tied values


EXACT_FIT_KINDS = ("step-half", "step-100/256", "square-4", "square-10", "square-32",
                   "alternating", "spike", "sawtooth", "ramp", "quadratic")


def _exact_fit_series(kind: str, n: int) -> np.ndarray:
    """Series whose (lagged) cumulative sums hold exactly linear stretches."""
    t = np.arange(n, dtype=float)
    if kind.startswith("step"):
        return (t >= (n // 2 if kind == "step-half" else n * 100 // 256)).astype(float)
    if kind.startswith("square"):
        return np.where(t // int(kind[7:]) % 2 == 0, 1.0, -1.0)
    if kind == "alternating":
        return np.where(t % 2 == 0, 1.0, -1.0)
    if kind == "spike":
        return (t == n // 3).astype(float)
    if kind == "sawtooth":
        return t % 16
    return t if kind == "ramp" else (t - n / 3) ** 2


class TestArrayKernelsAgainstOracle:
    """The array kernels against the scalar oracle on random series of every
    length class, from the feature's minimum length up to 1024.  Each series
    is also extracted inside blocks: 64 rows of one length, and the mixed
    lengths (blocks of one and of many) in one ``extract_matrix`` call; a
    value taken from a block equals the one-series value exactly.

    The equal-width histogram codes are compared with the oracle on every
    kind but "rounded": its integer values put whole groups of samples (or
    of C11's embedding distances) exactly on bin edges, where the last bit
    of the z-score or of a distance decides the bin.  The oracle z-scores
    with Python sums and measures distances with ``math.hypot``, so there
    its histograms differ from any numpy implementation's by whole counts
    (C2 at n=312 and C11 at n=521 below).  Fed the same z-scores, and for
    C11 the same distances, the oracle gives the production values."""

    KINDS = ("white", "random_walk", "sinusoid", "decaying", "rounded")
    BINNED = ("C1", "C2", "C5", "C11")

    @pytest.mark.parametrize("code", [f"C{i}" for i in range(1, 23)])
    def test_random_series(self, code):
        registry = canonical_registry()
        shortest = registry.get(code).min_length
        rng = np.random.default_rng(int(code[1:]))
        fixed = {shortest, shortest + 1, 2 * shortest + 3, 97, 256, 513, 1024}
        lengths = sorted(fixed | set(rng.integers(shortest, 1025, size=6).tolist()))

        def reference(kind, x):  # None where the oracle is not compared (see above)
            if code in self.BINNED and kind == "rounded":
                return None
            return REFERENCE_FUNCS[code](zscore(x.tolist()))

        mixed = []
        for kind in self.KINDS:
            for n in lengths:
                x = _oracle_series(kind, n, rng)
                expected = reference(kind, x)
                got = one_value(registry, code, x)
                if expected is not None:
                    assert got == pytest.approx(expected, rel=1e-6, abs=1e-10), (kind, n)
                if kind == "white" or n == 97:  # blocks of one, and one block of five
                    mixed.append((f"{kind}-{n}", x, got, expected))
        n = int(rng.choice(lengths))
        block = []
        for i in range(64):
            x = _oracle_series(self.KINDS[i % 5], n, rng)
            block.append((f"block-{i}", x, one_value(registry, code, x), reference(self.KINDS[i % 5], x)))
        for series in (block, mixed):
            vectors = extract_matrix([make_record(name, samples=x) for name, x, _, _ in series],
                                     registry, (code,))
            for (name, x, one, expected), vec in zip(series, vectors):
                assert vec.trace_id == name
                assert vec.values[code] == one, name
                if expected is not None:
                    assert vec.values[code] == pytest.approx(expected, rel=1e-6, abs=1e-10), name

    @pytest.mark.parametrize("n", [20, 97, 256, 513])
    def test_every_code_is_row_independent(self, n):
        # a 64-row block of mixed series with one constant row and two with
        # exactly linear windows: every row holds, bit for bit, the values
        # and the failure it has alone
        registry = reproduction_registry()
        codes = registry.codes()
        rng = np.random.default_rng(n)
        kinds = ("white", "random_walk", "sinusoid", "rounded")
        block = np.stack([_oracle_series(kinds[i % 4], n, rng) for i in range(64)])
        block[17] = 2.5
        block[30] = _exact_fit_series("step-half", n)  # exactly linear windows (C19, C20)
        block[45] = _exact_fit_series("square-4", n)
        values, failures = registry.extract_block(codes, block)
        assert failures == {17: "W1 is undefined on a constant series"}
        for k, row in enumerate(block):
            one, failed = registry.extract_block(codes, row[None])
            assert values[k].tobytes() == one[0].tobytes(), k
            assert failed.get(0) == failures.get(k), k

    def test_fluctuation_codes_on_exactly_linear_windows(self):
        # frozen values (see the fixture's description), alone and inside
        # 64-row blocks of one length beside random rows
        registry = canonical_registry()
        rng = np.random.default_rng(19)
        frozen = json.loads(EXACT_FIT.read_text())["series"]
        assert {(e["kind"], e["n"]) for e in frozen} == {
            (kind, n) for kind in EXACT_FIT_KINDS for n in (256, 97)}
        for n in (256, 97):
            entries = [e for e in frozen if e["n"] == n]
            block = np.stack([_oracle_series(self.KINDS[i % 5], n, rng) for i in range(64)])
            at = rng.choice(64, size=len(entries), replace=False)
            for i, e in zip(at, entries):
                block[i] = _exact_fit_series(e["kind"], n)
            values, failures = registry.extract_block(("C19", "C20"), block)
            assert failures == {}
            for i, e in zip(at, entries):
                alone = [one_value(registry, code, block[i]) for code in ("C19", "C20")]
                assert alone == [e["C19"], e["C20"]], (e["kind"], n)
                assert values[i].tolist() == alone, (e["kind"], n)

    @pytest.mark.parametrize("n,zeros", [(64, 40), (64, 48), (97, 73), (128, 96), (256, 192), (512, 384)])
    def test_fluctuation_codes_on_a_stretch_of_exact_zeros(self, n, zeros):
        # zeros and then an alternating tail of mean 0: z is exactly 0 on the
        # zeros, so every window there is constant and can leave a size with
        # a fluctuation of exactly 0 (the oracle's log fails), which scores
        # the first split; otherwise the oracle's value
        tail = np.where(np.arange(n - zeros) % 2 == 0, 1.0, -1.0)
        if tail.size % 2:
            tail[-1] = 0.0  # as many +1 as -1, so the mean is exactly 0
        x = np.concatenate([np.zeros(zeros), tail])
        for code, lag in (("C19", 2), ("C20", 1)):
            got = one_value(canonical_registry(), code, x)
            try:
                expected = REFERENCE_FUNCS[code](zscore(x.tolist()))
            except ValueError:  # math domain error: a zero fluctuation
                expected = 6 / catalog._scales(n, lag).sizes.size
            assert got == pytest.approx(expected, rel=1e-6, abs=1e-10), code

    def test_outlier_timing_bit_for_bit_on_edge_rows(self):
        # frozen C14/C15 values (see tests/oracles/gen_outlier_fixtures.py),
        # alone and inside 64-row blocks of one length beside random rows;
        # compared as bytes, as the oracle's tolerance cannot see a last bit
        registry = canonical_registry()
        codes = ("C14", "C15")
        rng = np.random.default_rng(14)
        by_length: dict[int, list] = {}
        for e in json.loads(OUTLIER_EDGES.read_text())["series"]:
            x, expected = np.array(e["values"]), np.array([e[code] for code in codes])
            alone, failures = registry.extract_block(codes, x[None])
            assert failures == {} and alone[0].tobytes() == expected.tobytes(), e["name"]
            by_length.setdefault(x.size, []).append((e["name"], x, expected))
        for n, entries in by_length.items():
            block = np.stack([_oracle_series(self.KINDS[i % 5], n, rng) for i in range(64)])
            at = rng.choice(64, size=len(entries), replace=False)
            for i, (_, x, _) in zip(at, entries):
                block[i] = x
            values, failures = registry.extract_block(codes, block)
            assert failures == {}, n
            for i, (name, _, expected) in zip(at, entries):
                assert values[i].tobytes() == expected.tobytes(), name

    def test_ami_and_range_codes_bit_for_bit_on_frozen_rows(self):
        # frozen C12/C20 values (see tests/oracles/gen_ami_range_fixture.py):
        # alone, in the campaign-shaped blocks of 40, 12 and 12 rows, and
        # inside 64-row blocks of one length beside random rows
        registry = canonical_registry()
        frozen = json.loads(AMI_RANGE.read_text())
        codes = tuple(frozen["codes"])
        rows = [(e["name"], np.frombuffer(base64.b64decode(e["samples"]), "<f8"),
                 np.array([float.fromhex(e[code]) for code in codes])) for e in frozen["series"]]
        for name, x, expected in rows:
            alone, failures = registry.extract_block(codes, x[None])
            assert failures == {} and alone[0].tobytes() == expected.tobytes(), name
        campaign = [row for row in rows if row[0].startswith("campaign-")]
        assert len(campaign) == sum(frozen["campaign_blocks"])
        blocks, start = [], 0
        for size in frozen["campaign_blocks"]:
            blocks.append(campaign[start : start + size])
            start += size
        rng = np.random.default_rng(26)
        by_length: dict[int, list] = {}
        for row in rows:
            by_length.setdefault(row[1].size, []).append(row)
        for n, entries in by_length.items():
            for s in range(0, len(entries), 32):
                chunk = entries[s : s + 32]
                padding = [(None, _oracle_series(self.KINDS[i % 5], n, rng), None) for i in range(64)]
                for i, row in zip(rng.choice(64, size=len(chunk), replace=False), chunk):
                    padding[i] = row
                blocks.append(padding)
        for block in blocks:
            values, failures = registry.extract_block(codes, np.stack([x for _, x, _ in block]))
            assert failures == {}
            for (name, _, expected), got in zip(block, values):
                if name is not None:
                    assert got.tobytes() == expected.tobytes(), name

    def test_ami_range_fixture_is_what_its_generator_writes(self):
        from oracles.gen_ami_range_fixture import build

        assert build() == json.loads(AMI_RANGE.read_text())

    def test_ami_first_minimum_is_exact_on_integer_tie_rows(self):
        # every integer-valued exact-fit kind holds lags whose pairs are
        # exactly (anti)correlated or have a constant side, where rounding
        # would decide a floating-point comparison; C12 gives the value of
        # exact arithmetic there
        registry = canonical_registry()
        for kind in EXACT_FIT_KINDS[:-1]:  # all but "quadratic", which is not integer-valued
            for n in [*range(10, 81), 97, 100, 256, 257, 512]:
                x = _exact_fit_series(kind, n)
                if x.min() < x.max():  # square-32 is constant up to n = 32
                    assert one_value(registry, "C12", x) == ami_gaussian_first_minimum_exact(x), (kind, n)

    @pytest.mark.parametrize("n", [20, 256, 513])
    def test_every_code_is_independent_of_the_codes_beside_it(self, n):
        # the block's shared intermediates must not depend on which codes
        # asked for them, or in what order: each code's column is the same
        # bytes alone, within the selected profile and within all 26
        registry = reproduction_registry()
        rng = np.random.default_rng(n + 1)
        block = np.stack([_oracle_series(self.KINDS[i % 5], n, rng) for i in range(64)])
        everything, failures = registry.extract_block(registry.codes(), block)
        assert failures == {}
        column = dict(zip(registry.codes(), everything.T))
        selected = selected_profile()
        within, failures = registry.extract_block(selected, block)
        assert failures == {}
        for j, code in enumerate(selected):
            assert within[:, j].tobytes() == column[code].tobytes(), code
        for code in registry.codes():
            alone, failures = registry.extract_block((code,), block)
            assert failures == {}
            assert alone[:, 0].tobytes() == column[code].tobytes(), code

    def test_periodicity_lags_of_same_equal_those_of_full(self):
        # C10 reads lags 1..ceil(n/3) of np.correlate's "same" output, which
        # holds the same dot products as those lags of the "full" one; a
        # numpy release that computed the two modes apart would show here
        rng = np.random.default_rng(10)
        for n in range(20, 1101):
            s = rng.standard_normal(n) if n % 2 else np.round(rng.standard_normal(n) * 8.0)
            acmax = int(np.ceil(n / 3))
            same = np.correlate(s, s, "same")[n // 2 + 1 : n // 2 + 1 + acmax]
            assert same.tobytes() == np.correlate(s, s, "full")[n : n + acmax].tobytes(), n

    def test_embedding_distances_without_spread_score_zero(self):
        # two alternating values: every embedding distance is the same, so
        # C11 scores 0, alone and beside rows whose distances do spread
        registry = canonical_registry()
        x = np.tile([1.0, -1.0], 50)
        block = np.stack([x, *np.random.default_rng(5).standard_normal((3, x.size))])
        values, failures = registry.extract_block(("C11",), block)
        assert failures == {} and values[0, 0] == 0.0
        assert (values[1:, 0] > 0).all()
        assert one_value(registry, "C11", x) == REFERENCE_FUNCS["C11"](zscore(x.tolist())) == 0.0


class TestRegistry:
    def test_canonical_has_22_codes(self):
        codes = canonical_registry().codes()
        assert len(codes) == 22
        assert codes == tuple(f"C{i}" for i in range(1, 23))

    def test_discovered_codes_present(self):
        reg = canonical_registry()
        for code in ("C10", "C11", "C14", "C15"):
            assert code in reg

    def test_reproduction_has_26_codes(self):
        codes = reproduction_registry().codes()
        assert len(codes) == 26
        assert codes[:4] == ("W1", "W2", "W3", "W4")

    def test_empty_registry(self):
        assert FeatureRegistry([]).codes() == ()

    def test_selected_profile_is_eight(self):
        assert selected_profile() == ("W1", "W2", "W3", "W4", "C10", "C11", "C14", "C15")

    def test_unknown_code(self, rng):
        with pytest.raises(UnknownFeature):
            reproduction_registry().extract_block(("ZZ",), rng.standard_normal((1, 100)))

    def test_constant_series_rejected(self):
        reg = reproduction_registry()
        for code in ("C1", "C11", "W1"):
            values, failures = reg.extract_block((code,), np.full((1, 100), 3.0))
            assert failures == {0: f"{code} is undefined on a constant series"} and np.isnan(values).all()

    def test_short_series_rejected(self):
        values, failures = canonical_registry().extract_block(("C10",), np.arange(5.0)[None])
        assert failures == {0: "C10 needs a 1-D series of at least 20 samples, got (5,)"} and np.isnan(values).all()

    def test_determinism_bit_identical(self, rng):
        reg = reproduction_registry()
        x = rng.standard_normal(300)
        first = {c: one_value(reg, c, x) for c in reg.codes()}
        second = {c: one_value(reg, c, x) for c in reg.codes()}
        assert first == second  # exact equality, not approx

    def test_extract_values_matches_per_code_extract(self, rng):
        reg = reproduction_registry()
        x = rng.standard_normal(300)
        codes = ("C15", "W1", "C10", "C1")
        values, failures = reg.extract_block(codes, x[None])
        assert failures == {}
        assert values.tolist() == [[one_value(reg, c, x) for c in codes]]

    def test_extract_values_errors_name_the_failing_code(self):
        reg = reproduction_registry()
        values, failures = reg.extract_block(("C14", "W1"), np.full((1, 100), 3.0))
        assert failures == {0: "C14 is undefined on a constant series"}
        assert np.isnan(values).all()
        values, failures = reg.extract_block(("W1", "C10"), np.arange(12.0)[None])
        assert failures == {0: "C10 needs a 1-D series of at least 20 samples, got (12,)"}
        assert values[0, 0] == one_value(reg, "W1", np.arange(12.0)) and np.isnan(values[0, 1])

    def test_duplicate_codes_rejected(self):
        reg = canonical_registry()
        with pytest.raises(ValueError):
            FeatureRegistry(list(reg) * 2)


class TestAffineInvarianceFlags:
    """Each feature's declared affine-invariance flag holds on random series."""

    @pytest.mark.parametrize("seed", range(3))
    def test_declared_invariant_features(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(257)
        reg = reproduction_registry()
        for d in reg:
            if not d.affine_invariant:
                continue
            base = one_value(reg, d.code, x)
            for a, b in ((2.5, 0.0), (0.3, -7.0), (11.0, 4.2)):
                moved = one_value(reg, d.code, a * x + b)
                assert moved == pytest.approx(base, rel=1e-7, abs=1e-9), d.code

    def test_declared_sensitive_features(self, rng):
        x = rng.standard_normal(257)
        reg = reproduction_registry()
        for d in reg:
            if d.affine_invariant:
                continue
            base = one_value(reg, d.code, x)
            changed = [
                one_value(reg, d.code, 2.0 * x),
                one_value(reg, d.code, x + 5.0),
            ]
            assert any(abs(c - base) > 1e-6 * max(abs(base), 1e-12) for c in changed), d.code


class TestExtractVector:
    def test_selected_subset(self, rng):
        rec = make_record(samples=rng.standard_normal(300))
        vec = extract_vector(rec, reproduction_registry(), selected_profile())
        assert tuple(vec.values) == selected_profile()
        assert vec.label == rec.label
        assert vec.trace_id == rec.trace_id

    def test_empty_selection_valid(self, rng):
        rec = make_record(samples=rng.standard_normal(300))
        vec = extract_vector(rec, reproduction_registry(), ())
        assert tuple(vec.values) == ()

    def test_selected_order_kept(self, rng):
        records = [make_record(f"t{i}", samples=rng.standard_normal(300)) for i in range(3)]
        reg = reproduction_registry()
        in_registry_order = extract_matrix(records, reg, ("W1", "C15"))
        for vec, ref in zip(extract_matrix(records, reg, ("C15", "W1")), in_registry_order):
            assert list(vec.values.items()) == [("C15", ref.values["C15"]), ("W1", ref.values["W1"])]
        assert tuple(extract_vector(records[0], reg, ("C15", "W1")).values) == ("C15", "W1")

    def test_unregistered_selection(self, rng):
        rec = make_record(samples=rng.standard_normal(300))
        with pytest.raises(UnknownFeature):
            extract_vector(rec, canonical_registry(), ("C1", "nope"))

    def test_unregistered_selection_without_records(self):
        with pytest.raises(UnknownFeature):
            extract_matrix([], canonical_registry(), ("C1", "nope"))

    def test_failure_tagged_with_trace_and_code(self):
        rec = make_record(trace_id="flatliner", samples=np.full(300, 1.0))
        with pytest.raises(DegenerateSeries, match="flatliner"):
            extract_vector(rec, canonical_registry(), ("C1",))

    def test_matrix_collects_all_failures(self, rng):
        good = make_record("ok", samples=rng.standard_normal(300))
        bad1 = make_record("flat1", samples=np.zeros(300))
        bad2 = make_record("flat2", samples=np.ones(300))
        with pytest.raises(DegenerateSeries) as err:
            extract_matrix([good, bad1, bad2], canonical_registry(), ("C1",))
        assert "flat1" in str(err.value) and "flat2" in str(err.value)
        # mixed lengths: each failure keeps its one-trace message, in record order
        records = [
            good,
            make_record("short", samples=rng.standard_normal(12)),
            make_record("flat", samples=np.full(300, 2.0)),
            make_record("ok40", samples=rng.standard_normal(40)),
            make_record("ok2", samples=rng.standard_normal(300)),
        ]
        with pytest.raises(DegenerateSeries) as err:
            extract_matrix(records, canonical_registry(), ("C1", "C19"))
        assert str(err.value) == (
            "2 trace(s) failed feature extraction: "
            "trace short: C19 needs a 1-D series of at least 16 samples, got (12,); "
            "trace flat: C1 is undefined on a constant series"
        )

    def test_non_finite_value_fails_only_its_row(self, rng):
        seen = []

        def last_positive(block):  # infinite on a row that ends above zero
            return np.where(block.raw[:, -1] > 0, np.inf, 0.0)

        def count_rows(block):
            seen.append(len(block.raw))
            return np.zeros(len(block.raw))

        reg = FeatureRegistry([
            FeatureDef("X1", "last_positive", last_positive, 4, False, "inf when x[-1] > 0"),
            FeatureDef("X2", "count_rows", count_rows, 4, False, "0"),
        ])
        records = [make_record(f"t{i}", samples=np.r_[rng.standard_normal(20), end])
                   for i, end in enumerate((1.0, -1.0, -1.0, 1.0))]
        with pytest.raises(DegenerateSeries) as err:
            extract_matrix(records, reg)
        assert str(err.value) == (
            "2 trace(s) failed feature extraction: trace t0: X1 produced a non-finite value; "
            "trace t3: X1 produced a non-finite value"
        )
        assert seen == [4]  # each kernel sees every row of nonzero variance once
        with pytest.raises(DegenerateSeries) as err:
            extract_vector(records[0], reg)
        assert str(err.value) == (
            "1 trace(s) failed feature extraction: trace t0: X1 produced a non-finite value"
        )
        # the rows still standing hold the values each gets as a block of one
        block = np.stack([rec.samples for rec in records])
        values, failures = reg.extract_block(reg.codes(), block)
        assert failures == {0: "X1 produced a non-finite value", 3: "X1 produced a non-finite value"}
        assert np.isnan(values[[0, 3]]).all()
        for k in (1, 2):
            one, none = reg.extract_block(reg.codes(), block[k : k + 1])
            assert none == {} and values[k].tolist() == one[0].tolist() == [0.0, 0.0]

    def test_vector_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureVector(trace_id="t", values={"C1": float("nan")}, label="noise")


class TestBlockBoundaries:
    """``extract_matrix`` where one length spans three blocks."""

    @staticmethod
    def _records(rng, flat=()):
        # 134 of 160 records have 200 samples (blocks of 64, 64 and 6 rows);
        # every sixth has 256 or 97; the ``flat`` positions are constant
        lengths = [200 if k % 6 != 5 else (256, 97)[k // 6 % 2] for k in range(160)]
        assert lengths.count(200) == 2 * BLOCK_ROWS + 6
        return [make_record(f"t{k}", samples=np.full(n, 1.5) if k in flat else rng.standard_normal(n))
                for k, n in enumerate(lengths)]

    def test_values_equal_one_record_at_a_time_in_record_order(self, rng):
        records, reg = self._records(rng), reproduction_registry()
        together = extract_matrix(records, reg)
        assert [v.trace_id for v in together] == [r.trace_id for r in records]
        for vec, rec in zip(together, records):
            alone = extract_vector(rec, reg)
            assert vec.values.keys() == alone.values.keys()
            assert np.array(list(vec.values.values())).tobytes() == np.array(list(alone.values.values())).tobytes()

    def test_every_failure_is_named_in_record_order(self, rng):
        # 156 and 158 lie in the third 200-sample block, 155 (97 samples)
        # in a block that runs after it, and 3 in the first one
        records, reg = self._records(rng, flat=(3, 155, 156, 158)), reproduction_registry()
        prefix = "1 trace(s) failed feature extraction: "
        alone = []
        for rec in records:
            try:
                extract_vector(rec, reg)
            except DegenerateSeries as exc:
                alone.append(str(exc).removeprefix(prefix))
        with pytest.raises(DegenerateSeries) as err:
            extract_matrix(records, reg)
        assert str(err.value) == "4 trace(s) failed feature extraction: " + "; ".join(alone)
        assert [m.split(":")[0] for m in alone] == ["trace t3", "trace t155", "trace t156", "trace t158"]


class TestStandardization:
    def test_two_point_fit(self):
        vecs = [make_vector("a", "noise", f=1.0), make_vector("b", "event", f=3.0)]
        params = standardize_fit(vecs)
        assert params.means["f"] == pytest.approx(2.0)
        # repo convention: sample standard deviation (ddof=1)
        assert params.stds["f"] == pytest.approx(math.sqrt(2.0))

    def test_constant_feature_rejected(self):
        vecs = [make_vector("a", "noise", f=1.0), make_vector("b", "event", f=1.0)]
        with pytest.raises(ZeroVariance):
            standardize_fit(vecs)

    def test_error_names_only_the_constant_feature(self):
        vecs = [
            make_vector("a", "noise", good=1.0, flat=7.0),
            make_vector("b", "event", good=2.0, flat=7.0),
        ]
        with pytest.raises(ZeroVariance) as err:
            standardize_fit(vecs)
        assert "flat" in str(err.value) and "good" not in str(err.value)

    def test_round_trip_zero_mean_unit_std(self, rng):
        vecs = [
            make_vector(f"t{i}", "noise", a=float(v1), b=float(v2))
            for i, (v1, v2) in enumerate(rng.standard_normal((40, 2)) * [3.0, 0.2] + [5.0, -1.0])
        ]
        params = standardize_fit(vecs)
        out = standardize_apply(vecs, params)
        for j in range(2):
            col = out.X[:, j]
            assert abs(col.mean()) < 1e-10
            assert abs(col.std(ddof=1) - 1.0) < 1e-10

    def test_held_out_value(self):
        vecs = [make_vector("a", "noise", f=0.5), make_vector("b", "event", f=3.5)]
        params = standardize_fit(vecs)
        # overwrite with known params for the documented example
        from quakebox.features import StandardizationParams

        params = StandardizationParams(means={"f": 2.0}, stds={"f": 1.5})
        out = standardize_apply([make_vector("c", "noise", f=5.0)], params)
        assert out.X[0, 0] == pytest.approx(2.0)

    def test_value_equal_to_mean_maps_to_zero(self):
        from quakebox.features import StandardizationParams

        params = StandardizationParams(means={"f": 2.0}, stds={"f": 1.5})
        out = standardize_apply([make_vector("c", "noise", f=2.0)], params)
        assert out.X[0, 0] == 0.0

    def test_missing_params(self):
        from quakebox.features import StandardizationParams

        params = StandardizationParams(means={"f": 0.0}, stds={"f": 1.0})
        with pytest.raises(MissingParams):
            standardize_apply([make_vector("c", "noise", g=1.0)], params)

    def test_missing_scale(self):
        from quakebox.features import StandardizationParams

        # a code with a mean but no scale is missing too, not a KeyError
        params = StandardizationParams(means={"f": 0.0, "g": 0.0}, stds={"f": 1.0})
        with pytest.raises(MissingParams, match="for g$"):
            standardize_apply([make_vector("c", "noise", f=1.0, g=1.0)], params)

    def test_apply_equals_per_row_zscore(self, rng):
        vecs = [
            make_vector(f"t{i}", "noise", a=float(v1), b=float(v2), c=float(v3))
            for i, (v1, v2, v3) in enumerate(rng.standard_normal((50, 3)) * [3.0, 0.2, 1e5])
        ]
        params = standardize_fit(vecs)
        expected = [
            [(v.values[c] - params.means[c]) / params.stds[c] for c in ("a", "b", "c")]
            for v in vecs
        ]
        assert standardize_apply(vecs, params).X.tolist() == expected

    def test_mixed_code_sets_rejected(self):
        from quakebox.features import StandardizationParams

        params = StandardizationParams(means={"f": 0.0, "g": 0.0}, stds={"f": 1.0, "g": 1.0})
        mixed = [make_vector("a", "noise", f=1.0, g=1.0), make_vector("b", "noise", f=1.0)]
        with pytest.raises(FormatError, match="trace b"):
            standardize_apply(mixed, params)


class TestFeatureMatrix:
    @pytest.mark.parametrize(
        "rows,error,named",
        [
            ([], DegenerateInput, "empty feature collection"),
            ([make_vector("a", "noise", f=1.0, g=2.0), make_vector("b", "noise", f=1.0, h=2.0)],
             MissingFeature, "trace b: vector lacks feature 'g'"),
            ([make_vector("a", "noise", f=1.0), make_vector("b", "event", f=1.0, g=2.0)],
             FormatError, "trace b: inconsistent feature codes in collection (g)"),
            ([make_vector("a", "noise", f=1.0),
              SimpleNamespace(trace_id="b", values={"f": math.inf}, label="event")],
             FormatError, "trace b: feature f is not finite (inf)"),
        ],
        ids=["empty", "missing-code", "different-code-set", "non-finite"],
    )
    def test_from_rows_errors_name_trace_and_code(self, rows, error, named):
        with pytest.raises(error) as err:
            FeatureMatrix.from_rows(rows)
        assert named in str(err.value)

    def test_fields_and_projection(self):
        rows = [make_vector("a", "noise", f=1.0, g=2.0), make_vector("b", "event", g=4.0, f=3.0)]
        m = FeatureMatrix.from_rows(rows)
        assert FeatureMatrix.from_rows(m) is m
        assert m.codes == ("f", "g") and m.trace_ids == ("a", "b") and m.labels == ("noise", "event")
        assert m.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert m.X.flags.c_contiguous and not m.X.flags.writeable
        assert m.columns(("g",)).X.tolist() == [[2.0], [4.0]]
        assert m.take(m.is_event).trace_ids == ("b",)
        with pytest.raises(MissingFeature, match="h"):
            m.columns(("f", "h"))

    def test_take_of_every_row_in_order_is_the_matrix_itself(self):
        m = FeatureMatrix.from_rows([make_vector(tid, label, f=float(i))
                                     for i, (tid, label) in enumerate([("a", "noise"), ("b", "event"), ("c", "noise")])])
        assert m.take([True, True, True]) is m and m.take([0, 1, 2]) is m and m.take(slice(None)) is m
        picked = m.take([2, 0])
        assert (picked.trace_ids, picked.labels, picked.X.tolist()) == (("c", "a"), ("noise", "noise"), [[2.0], [0.0]])
        assert m.take(~m.is_event).trace_ids == ("a", "c") and len(m.take([])) == 0


@pytest.mark.parametrize("shape,ids,labels,codes,named", [
    ((2, 1), ("a",), ("event",), ("f",), "(2, 1) matrix for 1 trace ids, 1 labels and 1 codes"),
    ((1, 2), ("a",), ("event",), ("f",), "(1, 2) matrix for 1 trace ids, 1 labels and 1 codes"),
    ((1, 1), ("a",), ("event", "noise"), ("f",), "(1, 1) matrix for 1 trace ids, 2 labels and 1 codes"),
], ids=["rows", "columns", "labels"])
def test_feature_matrix_shape_checked(shape, ids, labels, codes, named):
    with pytest.raises(ShapeMismatch) as err:
        FeatureMatrix(np.ones(shape), codes, ids, labels)
    assert str(err.value) == named


class TestMatrixFile:
    def test_round_trip_lossless(self, tmp_path, rng):
        vecs = [
            make_vector(f"t{i}", "event" if i % 2 else "noise",
                        C1=float(rng.standard_normal()), W1=float(abs(rng.standard_normal())))
            for i in range(7)
        ]
        path = tmp_path / "m.tsv"
        write_matrix(path, vecs, role="validation")
        back, role = read_matrix(path)
        assert role == "validation"
        for a, tid, label, row in zip(vecs, back.trace_ids, back.labels, back.X.tolist()):
            assert a.trace_id == tid
            assert a.label == label
            assert a.values == dict(zip(back.codes, row))  # bit-exact via repr round-trip

    def test_write_read_write_byte_identical(self, tmp_path, rng):
        values = rng.standard_normal((40, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3))
        values[0] = [5e-324, 2.2250738585072014e-308 / 3, -0.0]  # subnormals, signed zero
        values[1] = [1 / 3, 2 / 7, 0.1]
        vecs = [
            make_vector(f"t{i}", "event" if i % 3 else "noise", **dict(zip("abc", row)))
            for i, row in enumerate(values.tolist())
        ]
        first, second = tmp_path / "1.tsv", tmp_path / "2.tsv"
        write_matrix(first, vecs, role="train")
        back, role = read_matrix(first)
        write_matrix(second, back, role=role)
        assert first.read_bytes() == second.read_bytes()
        assert back.X.tolist() == values.tolist()

    @pytest.mark.parametrize(
        "text,named",
        [
            ("trace_id\tlabel\ne1\tevent\n", "line 2: {path}: header has no feature columns"),
            ("trace_id\tlabel\tf\n\n", "{path}: no data rows"),
        ],
        ids=["no-feature-columns", "no-data-rows"],
    )
    def test_empty_matrix_refused_naming_the_file(self, tmp_path, text, named):
        path = tmp_path / "m.tsv"
        path.write_text("# quakebox-features-v1 role=train\n" + text)
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert str(err.value) == named.format(path=path)

    @pytest.mark.parametrize(
        "text,named",
        [
            ("id\tlabel\tf\ne1\tevent\t1.0\n", "line 2: {path}: header must start with trace_id<TAB>label"),
            ("trace_id\tlabel\tf\tf\ne1\tevent\t1.0\t2.0\n", "line 2: {path}: column(s) repeated in header: f"),
            # a trailing tab names an empty column
            ("trace_id\tlabel\tf\t\ne1\tevent\t1.0\t\n",
             "line 2: {path}: header column 4 has an empty name"),
            # the blank line 4 is skipped but counted
            ("trace_id\tlabel\tf\ne1\tevent\t1.0\n\nn1\tnoise\n", "line 5: {path}: expected 3 columns, found 2"),
            ("trace_id\tlabel\tf\ne1\tquake\t1.0\n",
             "line 3: {path}: label must be one of ('event', 'noise'), got 'quake'"),
            ("trace_id\tlabel\tf\ne1\tevent\tx\n", "line 3: {path}: could not convert string to float: 'x'"),
            ("trace_id\tlabel\tf\ne1\tevent\t1.0\nn1\tnoise\tinf\n",
             "line 4: {path}: trace n1: feature f is not finite (inf)"),
            # a bad header is reported before a bad row
            ("trace_id\tlab\tf\ne1\tquake\n", "line 2: {path}: header must start with trace_id<TAB>label"),
            # whitespace-only lines 4 and 5 are blank, skipped but counted
            ("trace_id\tlabel\tf\ne1\tevent\t1.0\n \t \n\t\nn1\tnoise\n",
             "line 6: {path}: expected 3 columns, found 2"),
            # the last cell quoted without the newline, whether the line ends in LF, CRLF or nothing
            ("trace_id\tlabel\tf\ne1\tevent\t1.0\nn1\tnoise\t1_0",
             "line 4: {path}: could not convert string to float: '1_0'"),
            ("trace_id\tlabel\tf\r\ne1\tevent\t1.0\r\n\r\nn1\tnoise\tx\r\n",
             "line 5: {path}: could not convert string to float: 'x'"),
        ],
        ids=["header-start", "repeated-column", "empty-column-name", "column-count", "label", "non-numeric",
             "non-finite", "header-before-row", "whitespace-only-lines", "no-final-newline", "crlf"],
    )
    def test_malformed_matrix_names_file_and_line(self, tmp_path, text, named):
        path = tmp_path / "m.tsv"
        path.write_text("# quakebox-features-v1 role=train\n" + text)
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert str(err.value) == named.format(path=path)

    @pytest.mark.parametrize("text", [
        "trace_id\tlabel\tf\tg\ne1\tevent\t1.0\t2.0\nn1\tnoise\t-0.5\t 3 ",
        "trace_id\tlabel\tf\tg\r\ne1\tevent\t1.0\t2.0\r\nn1\tnoise\t-0.5\t 3 \r\n",
        "trace_id\tlabel\tf\tg\n\ne1\tevent\t1.0\t2.0\n \t\nn1\tnoise\t-0.5\t 3 \n\n",
    ], ids=["no-final-newline", "crlf", "blank-and-whitespace-only-lines"])
    def test_line_endings_and_blank_lines_read_alike(self, tmp_path, text):
        path = tmp_path / "m.tsv"
        path.write_text("# quakebox-features-v1 role=train\n" + text)
        back, _ = read_matrix(path)
        assert (back.trace_ids, back.labels, back.codes) == (("e1", "n1"), ("event", "noise"), ("f", "g"))
        assert back.X.tolist() == [[1.0, 2.0], [-0.5, 3.0]]

    def test_extra_column_after_the_last_feature_refused(self, tmp_path):
        # np.loadtxt(usecols=...) drops an extra column: the reader counts every row's tabs
        path = tmp_path / "m.tsv"
        path.write_text("# quakebox-features-v1 role=train\ntrace_id\tlabel\tf\tg\n"
                        "e1\tevent\t1.0\t2.0\nn1\tnoise\t3.0\t4.0\t5.0\n")
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert str(err.value) == f"line 4: {path}: expected 4 columns, found 5"

    @pytest.mark.parametrize("cell", ["1_0", "１", "#3", '"4"', "1.0.0", "", " "],
                             ids=["underscore", "fullwidth-digit", "hash", "quoted", "two-points", "empty", "space"])
    def test_cell_outside_the_number_grammar_names_its_line(self, tmp_path, cell):
        path = tmp_path / "m.tsv"
        path.write_text(f"# quakebox-features-v1 role=train\ntrace_id\tlabel\tf\tg\n"
                        f"e1\tevent\t1.0\t2.0\nn1\tnoise\t3.0\t{cell}\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert str(err.value) == f"line 4: {path}: could not convert string to float: {cell!r}"

    def test_first_bad_line_named_whatever_its_fault(self, tmp_path):
        # a bad cell on line 3 comes before a wrong column count on line 4
        path = tmp_path / "m.tsv"
        path.write_text("# quakebox-features-v1 role=train\ntrace_id\tlabel\tf\n"
                        "e1\tevent\t1_0\nn1\tnoise\n")
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert str(err.value) == f"line 3: {path}: could not convert string to float: '1_0'"

    @pytest.mark.parametrize("cell,value", [
        ("7", 7.0), (" 2.5 ", 2.5), (" -0.25 ", -0.25), ("1e3", 1000.0), ("+.5", 0.5), ("5.", 5.0),
        ("-0", -0.0), ("1E-2", 0.01), ("\u00a02.5", 2.5),
    ])
    def test_number_grammar_reads_as_float(self, tmp_path, cell, value):
        path = tmp_path / "m.tsv"
        path.write_text(f"# quakebox-features-v1 role=train\ntrace_id\tlabel\tf\ne1\tevent\t{cell}\n",
                        encoding="utf-8")
        got = read_matrix(path)[0].X[0, 0]
        assert np.array(got).tobytes() == np.array(value).tobytes() == np.array(float(cell)).tobytes()

    def test_awkward_values_round_trip_bit_for_bit(self, tmp_path):
        values = [5e-324, -0.0, 1.7976931348623157e308, -1.7976931348623157e308, 0.30000000000000004,
                  2.2250738585072014e-308, 1.0000000000000002, 123456789.12345679, 3.0, -42.0, 1e22, 0.0]
        vecs = [make_vector(f"t{i}", "event" if i % 2 else "noise", f=v) for i, v in enumerate(values)]
        path = tmp_path / "m.tsv"
        write_matrix(path, vecs)
        back, _ = read_matrix(path)
        assert back.X[:, 0].tobytes() == np.array(values).tobytes()

    def test_stress_pool_size_round_trips_bit_for_bit(self, tmp_path, rng):
        values = rng.standard_normal((15000, 8)) * 10.0 ** rng.integers(-20, 20, (15000, 8))
        matrix = FeatureMatrix(values, tuple(f"F{j}" for j in range(8)), tuple(f"t{i}" for i in range(15000)),
                               tuple("event" if i % 7 else "noise" for i in range(15000)))
        path = tmp_path / "m.tsv"
        write_matrix(path, matrix)
        back, _ = read_matrix(path)
        assert back.X.tobytes() == values.tobytes()
        assert (back.trace_ids, back.labels, back.codes) == (matrix.trace_ids, matrix.labels, matrix.codes)

    @pytest.mark.parametrize("first", [
        "# quakebox-features-v12 role=train", "# quakebox-features-v1role=train",
        "#quakebox-features-v1 role=train", "# quakebox-features role=train", "",
    ], ids=["v12", "v1role", "no-space", "untagged", "empty"])
    def test_format_tag_matched_exactly(self, tmp_path, first):
        path = tmp_path / "m.tsv"
        path.write_text(first + "\ntrace_id\tlabel\tf\ne1\tevent\t1.0\n")
        with pytest.raises(FormatError) as err:
            read_matrix(path)
        assert str(err.value) == f"line 1: {path}: not a quakebox feature matrix"

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_trace_id_that_would_break_its_row_refused_before_the_file_opens(self, tmp_path, char):
        path = tmp_path / "m.tsv"
        vecs = [make_vector("a", "noise", f=1.0), make_vector(f"b{char}c", "event", f=2.0)]
        with pytest.raises(FormatError) as err:
            write_matrix(path, vecs)
        assert str(err.value) == f"{path}: trace {f'b{char}c'!r}: a trace_id with a tab, CR or LF would break its row"
        assert not path.exists()

    @pytest.mark.parametrize("codes,ids,labels,named", [
        (("f",), ("a", "b"), ("noise", "quake"), "trace 'b': label must be one of ('event', 'noise'), got 'quake'"),
        (("f",), ("a", "a"), ("noise", "event"), "trace 'a': trace_id repeats an earlier row's"),
        (("f", "g\th"), ("a", "b"), ("noise", "event"), "code 'g\\th': "),
        (("f", "label"), ("a", "b"), ("noise", "event"), "code 'label': "),
        (("f", ""), ("a", "b"), ("noise", "event"), "code '': "),
        (("trace_id",), ("a", "b"), ("noise", "event"), "code 'trace_id': "),
        (("f", "f"), ("a", "b"), ("noise", "event"), "code 'f': "),
        (("f\r",), ("a", "b"), ("noise", "event"), "code 'f\\r': "),
    ], ids=["label", "repeated-id", "code-tab", "code-label", "code-empty", "code-trace-id", "code-repeated",
            "code-cr"])
    def test_matrix_the_reader_would_refuse_is_refused_before_the_file_opens(self, tmp_path, codes, ids, labels,
                                                                            named):
        path = tmp_path / "m.tsv"
        matrix = FeatureMatrix(np.ones((2, len(codes))), codes, ids, labels)
        with pytest.raises(FormatError) as err:
            write_matrix(path, matrix)
        why = "a column needs a name of its own, with no tab, CR or LF" if named.startswith("code") else ""
        assert str(err.value) == f"{path}: {named}{why}"
        assert not path.exists()

    def test_deterministic_bytes(self, tmp_path):
        vecs = [make_vector("a", "noise", f=1 / 3), make_vector("b", "event", f=2 / 7)]
        p1, p2 = tmp_path / "1.tsv", tmp_path / "2.tsv"
        write_matrix(p1, vecs)
        write_matrix(p2, vecs)
        assert p1.read_bytes() == p2.read_bytes()
