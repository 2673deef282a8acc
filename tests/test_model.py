"""Penalized logistic regression: penalty, prediction, loss, trainer."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from quakebox.bench import generate_planted_features
from quakebox.errors import DegenerateLabels, MissingFeature
from quakebox.features import FeatureMatrix, standardize_apply, standardize_fit
from quakebox import model as model_module
from quakebox.model import (
    LinearModel,
    ModelArtifact,
    PenaltyConfig,
    TrainOptions,
    _sigmoid,
    classify,
    kkt_residual,
    lambda_max,
    load_model,
    loss,
    penalty,
    predict_proba,
    save_model,
    soft_threshold,
    train,
)

from conftest import make_vector


def standardized_planted(n=200, seed=0, **kw):
    vecs, informative = generate_planted_features(n, seed=seed, **kw)
    params = standardize_fit(vecs)
    return standardize_apply(vecs, params), informative


def matrix(X, is_event):
    n, p = X.shape
    return FeatureMatrix(
        X, tuple(f"c{j:02d}" for j in range(p)), tuple(f"t{i}" for i in range(n)),
        tuple("event" if e else "noise" for e in is_event),
    )


def logistic_data(rng, n, p, coef):
    """Rows of standard normals with labels drawn from a logistic model on the first columns."""
    X = rng.standard_normal((n, p))
    logit = X[:, : len(coef)] @ np.asarray(coef) + 0.3
    return matrix(X, rng.random(n) < 1.0 / (1.0 + np.exp(-logit)))


class TestPenalty:
    def test_zero_vector(self):
        assert penalty([0.0, 0.0, 0.0], PenaltyConfig(alpha=0.7, lam=5.0)) == 0.0

    def test_mixed_example(self):
        # 0.5*(|1|+|-2|) + 0.5*(1+4) = 4.0
        assert penalty([1.0, -2.0], PenaltyConfig(alpha=0.5, lam=1.0)) == pytest.approx(4.0)

    def test_pure_l1(self):
        assert penalty([3.0, -4.0], PenaltyConfig(alpha=1.0, lam=1.0)) == pytest.approx(7.0)

    def test_lambda_scales(self):
        assert penalty([1.0], PenaltyConfig(alpha=1.0, lam=3.0)) == pytest.approx(3.0)

    def test_beyond_the_float_range_is_inf(self):
        # a warm start's weights at a far larger penalty: +inf, not an overflow warning
        assert penalty([2.0, -1.0], PenaltyConfig(alpha=0.5, lam=1e308)) == math.inf

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PenaltyConfig(alpha=1.5)
        with pytest.raises(ValueError):
            PenaltyConfig(lam=-0.1)


@pytest.mark.parametrize("threshold", [0.0, 1.0, math.nan])
def test_linear_model_threshold_outside_the_open_unit_interval_refused(threshold):
    with pytest.raises(ValueError) as err:
        LinearModel(bias=0.0, weights={"f": 1.0}, threshold=threshold)
    assert str(err.value) == f"threshold must lie in (0, 1), got {threshold}"


def test_lambda_max_of_pure_ridge_is_the_largest_gradient():
    m = matrix(np.array([[1.0, -2.0], [3.0, 0.5], [-1.0, 1.0], [0.0, 4.0]]), [True, False, True, False])
    top = float(np.abs(m.X.T @ (0.5 - m.is_event)).max()) / len(m)
    assert lambda_max(m, 0.0) == top == lambda_max(m, 1.0)


class TestSoftThreshold:
    @pytest.mark.parametrize(
        "z,gamma,expected",
        [(5.0, 2.0, 3.0), (-5.0, 2.0, -3.0), (1.0, 2.0, 0.0), (0.0, 0.0, 0.0), (2.0, 0.0, 2.0)],
    )
    def test_values(self, z, gamma, expected):
        assert soft_threshold(z, gamma) == expected

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(1.0, -1.0)

    def test_coordinate_sweeps_step_by_soft_threshold_bit_for_bit(self, monkeypatch):
        # the minimiser inlines the operator; with no exact solve accepted it must
        # give the bytes of sweeps that call it, the sign of each zero included
        def sweeps(G, c, l1, l2, theta, tol):
            theta = theta.copy()
            residual = c - G @ theta
            for _ in range(model_module._MAX_SWEEPS):
                max_change = 0.0
                for j, old in enumerate(theta.tolist()):
                    z = float(residual[j]) + float(G[j, j]) * old
                    new = soft_threshold(z, float(l1[j])) / float(G[j, j] + 2.0 * l2[j])
                    if new != old:
                        residual -= (new - old) * G[j]
                        theta[j] = new
                        max_change = max(max_change, abs(new - old))
                if max_change <= tol:
                    break
            return theta

        monkeypatch.setattr(model_module, "_active_solve", lambda *args: None)
        rng = np.random.default_rng(21)
        negative_zeros = 0
        for _ in range(20):
            A = np.column_stack([np.ones(40), rng.standard_normal((40, 8))])
            G = (A.T * rng.uniform(0.05, 0.25, 40)) @ A / 40
            c = rng.standard_normal(9) * 0.2
            l1 = np.r_[0.0, np.full(8, 0.1)]
            l2 = np.r_[0.0, np.full(8, 0.01)]
            theta = np.r_[0.0, rng.standard_normal(8) * 0.1]
            got = model_module._quadratic_minimiser(G, c, l1, l2, theta, 1e-9)
            assert got.tobytes() == sweeps(G, c, l1, l2, theta, 1e-9).tobytes()
            negative_zeros += int(np.sum((got == 0.0) & np.signbit(got)))
        assert negative_zeros > 0  # the dead zone's -0.0 is exercised


class TestPredict:
    def test_zero_model_gives_half(self):
        model = LinearModel(bias=0.0, weights={"a": 0.0})
        assert predict_proba(model, FeatureMatrix.from_rows([make_vector("t", "noise", a=123.0)]))[0] == 0.5

    def test_sigmoid_ln3(self):
        model = LinearModel(bias=0.0, weights={"a": 1.0})
        p = predict_proba(model, FeatureMatrix.from_rows([make_vector("t", "noise", a=math.log(3.0))]))[0]
        assert p == pytest.approx(0.75, abs=1e-12)

    def test_missing_feature(self):
        model = LinearModel(bias=0.0, weights={"a": 1.0})
        with pytest.raises(MissingFeature):
            predict_proba(model, FeatureMatrix.from_rows([make_vector("t", "noise", b=1.0)]))

    def test_classify_tie_is_event(self):
        model = LinearModel(bias=0.0, weights={"a": 0.0})
        rows = FeatureMatrix.from_rows([make_vector("t", "noise", a=0.0)])
        assert classify(model, rows) == ["event"]
        assert classify(replace(model, threshold=0.51), rows) == ["noise"]

    def test_threshold_above_probability(self):
        model = LinearModel(bias=2.0, weights={})  # p ~ 0.88
        rows = FeatureMatrix.from_rows([make_vector("t", "noise")])
        assert classify(replace(model, threshold=0.95), rows) == ["noise"]

    def test_scaling_never_flips_at_half(self, rng):
        model = LinearModel(bias=0.3, weights={"a": 1.2, "b": -0.7})
        for _ in range(200):
            vec = make_vector("t", "noise", a=float(rng.standard_normal()), b=float(rng.standard_normal()))
            base = classify(model, FeatureMatrix.from_rows([vec]))
            for c in (1.5, 3.0, 10.0):
                scaled = LinearModel(
                    bias=c * model.bias,
                    weights={k: c * v for k, v in model.weights.items()},
                )
                assert classify(scaled, FeatureMatrix.from_rows([vec])) == base


class TestSigmoid:
    @staticmethod
    def mask_split(z):
        """The earlier form: each sign's branch on its own boolean-mask subset."""
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_byte_identical_to_mask_split_form(self):
        rng = np.random.default_rng(5)
        edges = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 1e-300, -1e-300, 36.7, -36.7])
        arrays = [edges] + [
            rng.standard_normal(rng.integers(1, 16_000)) * scale
            for scale in (1.0, 10.0, 300.0) for _ in range(20)
        ]
        for z in arrays:
            assert _sigmoid(z).tobytes() == self.mask_split(z).tobytes()


class TestBatchScoring:
    def test_batch_equals_scalar_sum_in_code_order(self, rng):
        codes = [f"c{j}" for j in range(8)]
        model = LinearModel(
            bias=float(rng.normal()),
            weights={c: float(w) for c, w in zip(codes, 3.0 * rng.standard_normal(8))},
        )
        rows = []
        for i in range(1200):
            x = 2.0 * rng.standard_normal(9)
            # reversed column order plus one column the model does not use
            values = {"extra": float(x[8])}
            values.update((codes[j], float(x[j])) for j in reversed(range(8)))
            rows.append(make_vector(f"t{i}", "noise", **values))
        expected = []
        for row in rows:
            z = model.bias
            for code in model.codes():
                z += model.weights[code] * row.values[code]
            expected.append(float(_sigmoid(np.array([z]))[0]))
        assert predict_proba(model, FeatureMatrix.from_rows(rows)).tolist() == expected

    def test_missing_feature_names_the_trace(self):
        model = LinearModel(bias=0.0, weights={"a": 1.0})
        rows = [make_vector("ok", "noise", a=1.0), make_vector("lacks", "noise", b=1.0)]
        with pytest.raises(MissingFeature, match="trace lacks"):
            predict_proba(model, FeatureMatrix.from_rows(rows))

    def test_artifact_single_and_batch_labels_agree(self):
        vecs, _ = generate_planted_features(400, seed=12, strength=1.0, label_noise=0.1)
        params = standardize_fit(vecs)
        model = train(standardize_apply(vecs, params), PenaltyConfig(alpha=0.5, lam=0.01))
        artifact = ModelArtifact(model=model, standardization=params)
        batch = artifact.predict_labels(FeatureMatrix.from_rows(vecs))
        assert batch == [artifact.predict_label(v) for v in vecs]
        assert set(batch) == {"event", "noise"}


class TestLoss:
    def test_zero_model_balanced(self):
        data = FeatureMatrix.from_rows([make_vector("a", "event", f=1.0), make_vector("b", "noise", f=-1.0)])
        model = LinearModel(bias=0.0, weights={"f": 0.0})
        assert loss(model, data, PenaltyConfig(alpha=0.5, lam=0.0)) == pytest.approx(math.log(2.0))

    def test_zero_weights_ignore_lambda(self):
        data = FeatureMatrix.from_rows([make_vector("a", "event", f=1.0), make_vector("b", "noise", f=-1.0)])
        model = LinearModel(bias=0.0, weights={"f": 0.0})
        l0 = loss(model, data, PenaltyConfig(alpha=0.5, lam=0.0))
        l10 = loss(model, data, PenaltyConfig(alpha=0.5, lam=10.0))
        assert l0 == l10

    def test_confident_separator_near_zero(self):
        data = FeatureMatrix.from_rows([make_vector("a", "event", f=1.0), make_vector("b", "noise", f=-1.0)])
        model = LinearModel(bias=0.0, weights={"f": 20.0})
        assert loss(model, data, PenaltyConfig(alpha=0.5, lam=0.0)) < 0.01


class TestTrain:
    def test_separable_two_points_perfect_accuracy(self):
        data = FeatureMatrix.from_rows([make_vector("a", "event", f=1.0), make_vector("b", "noise", f=-1.0)])
        model = train(data, PenaltyConfig(alpha=0.5, lam=0.0), TrainOptions(max_iters=200, tol=1e-10))
        assert classify(model, data) == ["event", "noise"]
        assert model.weights["f"] > 0
        assert model.training_meta["converged"] is False  # weights keep growing

    def test_huge_lambda_gives_intercept_only_log_odds(self):
        data = [make_vector(f"e{i}", "event", f=float(i)) for i in range(30)]
        data += [make_vector(f"n{i}", "noise", f=float(-i)) for i in range(10)]
        model = train(FeatureMatrix.from_rows(data), PenaltyConfig(alpha=1.0, lam=100.0),
                      TrainOptions(tol=1e-12))
        assert model.weights["f"] == 0.0
        assert model.bias == pytest.approx(math.log(30 / 10), abs=1e-6)

    def test_single_class_rejected(self):
        data = FeatureMatrix.from_rows([make_vector("a", "event", f=1.0), make_vector("b", "event", f=2.0)])
        with pytest.raises(DegenerateLabels):
            train(data, PenaltyConfig())

    def test_gradient_matches_central_differences(self, rng):
        # at lambda=0 the objective is the smooth mean NLL: check its gradient
        for trial in range(50):
            local = np.random.default_rng(trial)
            n, p = 12, 3
            X = local.standard_normal((n, p))
            y = (local.random(n) < 0.5).astype(float)
            if len(set(y.tolist())) < 2:
                continue
            w = local.standard_normal(p) * 0.5
            b = float(local.standard_normal()) * 0.5

            def nll(wv, bv):
                z = bv + X @ wv
                return float(np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - y * z))

            # analytic gradient used by the trainer
            probs = 1.0 / (1.0 + np.exp(-(b + X @ w)))
            grad_w = X.T @ (probs - y) / n
            grad_b = float(np.mean(probs - y))
            eps = 1e-6
            for j in range(p):
                step = np.zeros(p)
                step[j] = eps
                fd = (nll(w + step, b) - nll(w - step, b)) / (2 * eps)
                assert grad_w[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)
            fd_b = (nll(w, b + eps) - nll(w, b - eps)) / (2 * eps)
            assert grad_b == pytest.approx(fd_b, rel=1e-6, abs=1e-9)

    def test_objective_non_increasing_per_sweep(self):
        data, _ = standardized_planted(n=150, seed=4)
        history = []
        train(
            data,
            PenaltyConfig(alpha=0.8, lam=0.02),
            TrainOptions(max_iters=300, tol=0.0),
            sweep_callback=history.append,
        )
        assert len(history) == 300
        diffs = np.diff(np.array(history))
        assert np.all(diffs <= 1e-12)

    def test_sparsity_non_increasing_in_lambda(self):
        data, _ = standardized_planted(n=200, seed=5)
        top = lambda_max(data, alpha=1.0)
        grid = np.geomspace(1e-3 * top, 1.2 * top, 10)
        nonzeros = []
        for lam in grid:
            model = train(data, PenaltyConfig(alpha=1.0, lam=float(lam)),
                          TrainOptions(max_iters=400, tol=1e-9))
            nonzeros.append(sum(1 for w in model.weights.values() if w != 0.0))
        assert all(b <= a for a, b in zip(nonzeros, nonzeros[1:]))
        assert nonzeros[-1] == 0  # above lambda_max everything vanishes

    @pytest.mark.parametrize("start,named", [
        ([0.0] * 12, "start must hold 13 values (the bias, then 12 weights), got shape (12,)"),
        ([0.0] * 14, "start must hold 13 values (the bias, then 12 weights), got shape (14,)"),
        ([[0.0] * 13], "start must hold 13 values (the bias, then 12 weights), got shape (1, 13)"),
        ([0.0] * 4 + [math.nan] + [0.0] * 8, "start[4] must be finite, got nan"),
        ([math.inf] + [0.0] * 12, "start[0] must be finite, got inf"),
    ], ids=["short", "long", "nested", "nan-weight", "infinite-bias"])
    def test_bad_start_rejected(self, start, named):
        data = logistic_data(np.random.default_rng(15), 60, 12, [1.0])
        with pytest.raises(ValueError, match=re.escape(named)):
            train(data, PenaltyConfig(alpha=0.9, lam=0.01), start=start)

    def test_zero_start_is_the_cold_fit(self):
        data, _ = standardized_planted(n=120, seed=6)
        cfg = PenaltyConfig(alpha=0.9, lam=0.01)
        cold, zero = train(data, cfg), train(data, cfg, start=[0.0] * (len(data.codes) + 1))
        assert (cold.bias, cold.weights, cold.training_meta) == (zero.bias, zero.weights, zero.training_meta)

    def test_warm_path_matches_cold_fits_in_fewer_steps(self):
        # a descending 10-point path, each fit started from the one before it,
        # reaches the cold fits' optima with no more outer steps in all
        data, _ = standardized_planted(n=200, seed=16, label_noise=0.1)
        top = lambda_max(data, alpha=0.9)
        opt = TrainOptions(max_iters=500, tol=1e-6)
        warm_steps = cold_steps = 0
        start = None
        for lam in np.geomspace(0.5 * top, 0.005 * top, 10):
            cfg = PenaltyConfig(alpha=0.9, lam=float(lam))
            cold = train(data, cfg, opt)
            warm = train(data, cfg, opt, start=start)
            for fit in (cold, warm):
                assert fit.training_meta["converged"] is True
                assert kkt_residual(fit, data, cfg) <= 1e-6
            theta = np.array([warm.bias, *warm.weights.values()])
            assert np.abs(theta - [cold.bias, *cold.weights.values()]).max() <= 1e-6
            warm_steps += warm.training_meta["iterations"]
            cold_steps += cold.training_meta["iterations"]
            start = theta
        assert warm_steps <= cold_steps

    def test_deterministic_bit_identical(self):
        data, _ = standardized_planted(n=120, seed=6)
        cfg = PenaltyConfig(alpha=0.9, lam=0.01)
        opt = TrainOptions(max_iters=200, tol=1e-8)
        m1 = train(data, cfg, opt)
        m2 = train(data, cfg, opt)
        assert m1.bias == m2.bias
        assert m1.weights == m2.weights
        assert m1.training_meta == m2.training_meta

    def test_planted_features_recovered_with_sparse_noise(self):
        # search a small grid for a regularization strength that keeps the
        # planted pair while zeroing most nuisance columns
        data, informative = standardized_planted(n=400, seed=7)
        top = lambda_max(data, alpha=0.9)
        found = False
        for lam in np.geomspace(0.5 * top, 0.01 * top, 8):
            model = train(data, PenaltyConfig(alpha=0.9, lam=float(lam)),
                          TrainOptions(max_iters=400, tol=1e-8))
            nz = {c for c, w in model.weights.items() if w != 0.0}
            nuisance = set(model.weights) - set(informative)
            zero_frac = 1.0 - len(nz & nuisance) / len(nuisance)
            if set(informative) <= nz and zero_frac >= 0.8:
                found = True
                break
        assert found, "no lambda in the grid recovered the planted features sparsely"

    def test_matches_convex_solver(self):
        cvxpy = pytest.importorskip("cvxpy")
        data, _ = standardized_planted(n=150, seed=8, n_nuisance=6)
        m = FeatureMatrix.from_rows(data)
        X, y, codes = m.X, m.is_event.astype(float), m.codes
        n, p = X.shape
        for alpha in (0.0, 0.5, 1.0):
            cfg = PenaltyConfig(alpha=alpha, lam=0.03)
            mine = train(data, cfg, TrainOptions(max_iters=5000, tol=1e-12))
            w = cvxpy.Variable(p)
            b = cvxpy.Variable()
            z = X @ w + b
            nll = cvxpy.sum(cvxpy.logistic(z) - cvxpy.multiply(y, z)) / n
            objective = nll + cfg.lam * (
                alpha * cvxpy.norm1(w) + (1 - alpha) * cvxpy.sum_squares(w)
            )
            problem = cvxpy.Problem(cvxpy.Minimize(objective))
            problem.solve(solver=cvxpy.CLARABEL)
            assert loss(mine, data, cfg) == pytest.approx(problem.value, abs=1e-7)
            for j, code in enumerate(codes):
                assert mine.weights[code] == pytest.approx(float(w.value[j]), abs=2e-4)


class TestOptimality:
    """kkt_residual certifies a fit without an external solver."""

    @staticmethod
    def dataset(shape, rng):
        if shape == "planted":
            return logistic_data(rng, 200, 12, [1.5, -1.0])
        if shape == "wide":  # more columns than rows: separable, finite only through the penalty
            data = logistic_data(rng, 30, 60, [1.0, 1.0])
            while len(set(data.labels)) < 2:
                data = logistic_data(rng, 30, 60, [1.0, 1.0])
            return data
        vecs, _ = generate_planted_features(  # a margin, with a few labels flipped across it
            150, n_nuisance=6, strength=6.0, label_noise=0.02, seed=int(rng.integers(1000)))
        return standardize_apply(vecs, standardize_fit(vecs))

    @pytest.mark.parametrize("shape", ["planted", "wide", "near-separable"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_converged_fit_meets_kkt(self, alpha, shape):
        rng = np.random.default_rng([int(10 * alpha), 0, len(shape)])
        for _ in range(3):
            data = self.dataset(shape, rng)
            top = lambda_max(data, max(alpha, 0.5))
            cfg = PenaltyConfig(alpha=alpha, lam=float(top * 10 ** rng.uniform(-3, -0.3)))
            model = train(data, cfg, TrainOptions(max_iters=1000, tol=1e-10))
            assert model.training_meta["converged"] is True
            residual = kkt_residual(model, data, cfg)
            assert residual <= 1e-6
            assert model.training_meta["kkt_residual"] == pytest.approx(residual, abs=1e-12)

    def test_residual_flags_a_moved_bias(self):
        data, _ = standardized_planted(n=200, seed=11, label_noise=0.1)
        cfg = PenaltyConfig(alpha=0.9, lam=0.01)
        model = train(data, cfg, TrainOptions(tol=1e-10))
        moved = LinearModel(bias=model.bias + 0.5, weights=model.weights)
        assert kkt_residual(model, data, cfg) <= 1e-6
        assert kkt_residual(moved, data, cfg) > 1e-2


class TestDegenerateInputs:
    def test_separable_unpenalized_stays_finite_and_unconverged(self):
        data, _ = standardized_planted(n=60, seed=12, n_nuisance=2, margin=1.0)
        history = []
        model = train(data, PenaltyConfig(alpha=0.5, lam=0.0),
                      TrainOptions(max_iters=10_000, tol=1e-10), sweep_callback=history.append)
        assert all(math.isfinite(w) for w in [model.bias, *model.weights.values()])
        assert model.training_meta["converged"] is False
        assert model.training_meta["iterations"] == len(history) == 10_000
        assert np.all(np.diff(history) <= 0.0)
        assert classify(model, data) == list(data.labels)

    def test_duplicated_column_falls_back_to_sweeps(self, monkeypatch):
        rng = np.random.default_rng(13)
        single = logistic_data(rng, 150, 3, [1.0, -0.5])
        X = single.X
        doubled = matrix(np.column_stack([X, X[:, 0]]), single.is_event)
        exact = []
        solve = model_module._active_solve

        def spy(*args):
            out = solve(*args)
            exact.append(out is not None)
            return out

        monkeypatch.setattr(model_module, "_active_solve", spy)
        cfg = PenaltyConfig(alpha=0.5, lam=0.0)
        opt = TrainOptions(max_iters=200, tol=1e-10)
        fit = train(doubled, cfg, opt)
        assert not all(exact)  # the singular active-set system was refused
        assert fit.training_meta["converged"] is True
        reference = train(single, cfg, opt)
        w = fit.weights
        assert w["c00"] + w["c03"] == pytest.approx(reference.weights["c00"], abs=1e-6)
        assert w["c01"] == pytest.approx(reference.weights["c01"], abs=1e-6)
        assert fit.bias == pytest.approx(reference.bias, abs=1e-6)
        assert kkt_residual(fit, doubled, cfg) <= 1e-6

    def test_one_outer_step_is_unconverged(self):
        data, _ = standardized_planted(n=100, seed=14)
        model = train(data, PenaltyConfig(alpha=0.9, lam=0.01), TrainOptions(max_iters=1, tol=1e-6))
        assert model.training_meta["iterations"] == 1
        assert model.training_meta["converged"] is False


class TestModelFile:
    def test_round_trip(self, tmp_path):
        data, _ = standardized_planted(n=80, seed=9, n_nuisance=4)
        vecs, _ = generate_planted_features(80, seed=9, n_nuisance=4)
        params = standardize_fit(vecs)
        model = train(standardize_apply(vecs, params), PenaltyConfig(alpha=0.9, lam=0.02))
        artifact = ModelArtifact(model=model, standardization=params)
        path = tmp_path / "model.json"
        save_model(path, artifact)
        back = load_model(path)
        assert back.model.bias == model.bias
        assert back.model.weights == dict(model.weights)
        assert back.model.threshold == model.threshold
        assert dict(back.standardization.means) == dict(params.means)
        assert dict(back.standardization.stds) == dict(params.stds)
        assert back.model.training_meta == dict(model.training_meta)

    def test_artifact_predicts_raw_vectors(self):
        vecs, informative = generate_planted_features(300, seed=10, strength=6.0)
        params = standardize_fit(vecs)
        model = train(standardize_apply(vecs, params), PenaltyConfig(alpha=0.5, lam=0.005))
        artifact = ModelArtifact(model=model, standardization=params)
        correct = sum(artifact.predict_label(v) == v.label for v in vecs)
        assert correct / len(vecs) > 0.95
