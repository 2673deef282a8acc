"""Metrics: confusion tallies, MCC, accuracy, exact McNemar."""

import json
import math
from fractions import Fraction

import pytest
from scipy import stats

from quakebox.errors import DegenerateInput, ShapeMismatch
from quakebox.metrics import (
    ConfusionMatrix,
    accuracy,
    confusion,
    mcc,
    mcnemar_test,
    report,
)


def mcc_fraction(tp, tn, fp, fn):
    """Exact rational MCC^2 with the sign carried separately (test oracle)."""
    num = tp * tn - fp * fn
    den = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if den == 0:
        return 0.0
    value = math.sqrt(Fraction(num * num, den))
    return value if num >= 0 else -value


class TestConfusion:
    def test_perfect_pair(self):
        m = confusion(["event", "noise"], ["event", "noise"])
        assert (m.tp, m.tn, m.fp, m.fn) == (1, 1, 0, 0)

    def test_all_predicted_noise(self):
        labels = ["event", "noise"] * 10
        m = confusion(labels, ["noise"] * 20)
        assert m.fn == 10 and m.fp == 0 and m.tn == 10 and m.tp == 0

    def test_against_brute_force_tally(self, rng):
        labels = ["event" if v else "noise" for v in rng.random(1000) < 0.3]
        preds = ["event" if v else "noise" for v in rng.random(1000) < 0.5]
        m = confusion(labels, preds)
        # independent oracle: tuple counting
        pairs = list(zip(labels, preds))
        assert m.tp == pairs.count(("event", "event"))
        assert m.fn == pairs.count(("event", "noise"))
        assert m.fp == pairs.count(("noise", "event"))
        assert m.tn == pairs.count(("noise", "noise"))

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            confusion(["event"], ["event", "noise"])

    def test_empty(self):
        with pytest.raises(DegenerateInput):
            confusion([], [])


class TestMcc:
    def test_published_style_matrices(self):
        # frozen from the exact rational oracle below
        assert mcc(ConfusionMatrix(tp=763, tn=1313, fp=5, fn=0)) == pytest.approx(
            0.9948470509162414, abs=1e-12
        )
        assert mcc(ConfusionMatrix(tp=627, tn=1318, fp=0, fn=127)) == pytest.approx(
            0.8709071961491792, abs=1e-12
        )

    def test_single_class_assignment_scores_zero(self):
        assert mcc(ConfusionMatrix(tp=0, tn=500, fp=0, fn=0)) == 0.0
        assert mcc(ConfusionMatrix(tp=0, tn=100, fp=0, fn=25)) == 0.0

    def test_perfect_prediction(self):
        assert mcc(ConfusionMatrix(tp=7, tn=13, fp=0, fn=0)) == 1.0

    def test_matches_exact_rational_for_small_totals(self):
        for total in range(1, 31):
            for tp in range(total + 1):
                for tn in range(total - tp + 1):
                    for fp in range(total - tp - tn + 1):
                        fn = total - tp - tn - fp
                        m = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
                        assert mcc(m) == pytest.approx(
                            mcc_fraction(tp, tn, fp, fn), abs=1e-12
                        )

    def test_symmetry_antisymmetry_and_range(self, rng):
        for _ in range(10_000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 200, size=4))
            if tp + tn + fp + fn == 0:
                continue
            m = ConfusionMatrix(tp=tp, tn=tn, fp=fp, fn=fn)
            v = mcc(m)
            assert -1.0 <= v <= 1.0
            swapped = ConfusionMatrix(tp=tn, tn=tp, fp=fn, fn=fp)
            assert mcc(swapped) == pytest.approx(v, abs=1e-12)
            inverted = ConfusionMatrix(tp=fn, tn=fp, fp=tn, fn=tp)
            assert mcc(inverted) == pytest.approx(-v, abs=1e-12)

    def test_large_counts_no_overflow(self):
        m = ConfusionMatrix(tp=10**6, tn=5 * 10**7, fp=10**5, fn=10**4)
        v = mcc(m)
        assert v == pytest.approx(mcc_fraction(m.tp, m.tn, m.fp, m.fn), rel=1e-12)


def test_mcc_of_an_empty_matrix_refused():
    with pytest.raises(DegenerateInput) as err:
        mcc(ConfusionMatrix(0, 0, 0, 0))
    assert str(err.value) == "confusion matrix is empty"


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(ConfusionMatrix(tp=3, tn=4, fp=0, fn=0)) == 1.0

    def test_cnn_style_matrix(self):
        m = ConfusionMatrix(tp=627, tn=1318, fp=0, fn=127)
        assert accuracy(m) == pytest.approx(1945 / 2072, abs=1e-15)

    def test_empty_total_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(tp=-1, tn=0, fp=0, fn=0)
        with pytest.raises(DegenerateInput):
            accuracy(ConfusionMatrix(tp=0, tn=0, fp=0, fn=0))


class TestReport:
    def test_fields(self):
        r = report(["event", "noise", "noise"], ["event", "noise", "event"])
        assert r.n_pos == 1 and r.n_neg == 2
        assert r.noise_ratio == pytest.approx(2.0)
        assert r.accuracy == pytest.approx(2 / 3)

    def test_no_positives_has_no_noise_ratio(self):
        r = report(["noise", "noise"], ["event", "noise"])
        assert (r.n_pos, r.n_neg, r.noise_ratio) == (0, 2, None)
        assert json.dumps(r.to_dict(), allow_nan=False).endswith('"noise_ratio": null}')


class TestMcnemar:
    def test_identical_predictions(self):
        labels = ["event", "noise"] * 5
        out = mcnemar_test(labels, labels, labels)
        assert out["b"] == 0 and out["c"] == 0
        assert out["p_value"] == 1.0 and not out["significant"]

    def test_ten_zero_split(self):
        labels = ["event"] * 10
        preds_a = ["event"] * 10
        preds_b = ["noise"] * 10
        out = mcnemar_test(labels, preds_a, preds_b)
        assert out["b"] == 10 and out["c"] == 0
        assert out["p_value"] == pytest.approx(2 * 0.5**10, abs=1e-15)
        assert out["significant"]

    def test_one_one_split(self):
        labels = ["event", "event", "noise"]
        preds_a = ["event", "noise", "noise"]
        preds_b = ["noise", "event", "noise"]
        out = mcnemar_test(labels, preds_a, preds_b)
        assert out["b"] == 1 and out["c"] == 1
        assert out["p_value"] == 1.0

    def test_swap_symmetry_and_scipy_agreement(self, rng):
        for _ in range(50):
            n = int(rng.integers(5, 120))
            labels = ["event" if v else "noise" for v in rng.random(n) < 0.5]
            pa = ["event" if v else "noise" for v in rng.random(n) < 0.5]
            pb = ["event" if v else "noise" for v in rng.random(n) < 0.5]
            out = mcnemar_test(labels, pa, pb)
            swapped = mcnemar_test(labels, pb, pa)
            assert out["p_value"] == pytest.approx(swapped["p_value"], abs=1e-15)
            assert out["significant"] == swapped["significant"]
            assert 0.0 < out["p_value"] <= 1.0
            if out["b"] + out["c"] > 0:
                oracle = stats.binomtest(
                    min(out["b"], out["c"]), out["b"] + out["c"], 0.5
                ).pvalue
                assert out["p_value"] == pytest.approx(oracle, rel=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mcnemar_test(["event"], ["event"], ["event", "noise"])
