"""Ensemble feature discovery: runs, tie-sets, distributions, the rule."""

import json
import re

import numpy as np
import pytest

import quakebox.selection
from quakebox.bench import generate_planted_features
from quakebox.errors import ConfigError, DegenerateInput, FormatError, ZeroVariance
from quakebox.features import FeatureMatrix, standardize_apply, standardize_fit
from quakebox.metrics import confusion, mcc
from quakebox.model import PenaltyConfig, TrainOptions, classify, train
from quakebox.seeds import derive_rng
from quakebox.selection import (
    EnsembleConfig,
    EnsembleRunResult,
    SelectionRule,
    best_models,
    default_lambda_grid,
    demands_unanimity,
    discover_features,
    load_selection_report,
    run_ensemble,
    save_selection_report,
    select_features,
    weight_distributions,
)


def planted_split(n=300, seed=0, **kw):
    vecs, informative = generate_planted_features(n, seed=seed, **kw)
    cut = int(0.7 * n)
    return FeatureMatrix.from_rows(vecs[:cut]), FeatureMatrix.from_rows(vecs[cut:]), informative


def result(run_id, val_mcc, **weights):
    return EnsembleRunResult(run_id=run_id, weights=weights, val_mcc=val_mcc, config_used={},
                             iterations=1, converged=True, objective=0.5, kkt_residual=0.0,
                             nnz=sum(w != 0.0 for w in weights.values()))


def warm_path(strain, grid, cfg, n=None):
    """``train`` over ``grid[:n]`` in order on one draw's rows, each fit started
    from the one before, the first from zero: a draw's runs, fitted directly."""
    opt = TrainOptions(max_iters=cfg.max_iters, tol=cfg.tol)
    fits, start = [], None
    for lam in grid[:n]:
        fits.append(train(strain, PenaltyConfig(alpha=cfg.alpha, lam=lam), opt, start=start))
        start = (fits[-1].bias, *fits[-1].weights.values())
    return fits


class TestRunEnsemble:
    def test_single_run(self):
        train_v, val_v, _ = planted_split()
        out = run_ensemble(train_v, val_v, EnsembleConfig(n_runs=1, seed=1))
        assert len(out) == 1
        assert out[0].run_id == 0
        assert -1.0 <= out[0].val_mcc <= 1.0

    def test_full_fraction_runs_equal_a_direct_train(self, monkeypatch):
        # at subsample_fraction 1.0 every run fits the whole training set at its grid point;
        # every pass draws that same set and refits it, one fit per run
        calls = []

        def counting_train(*args, **kwargs):
            calls.append(args[1].lam)
            return train(*args, **kwargs)

        monkeypatch.setattr(quakebox.selection, "train", counting_train)
        train_v, val_v, _ = planted_split(seed=2)
        grid = (0.05, 0.02)
        cfg = EnsembleConfig(n_runs=6, lambda_grid=grid, subsample_fraction=1.0, seed=5)
        out = run_ensemble(train_v, val_v, cfg)
        assert calls == list(grid) * 3
        assert [r.run_id for r in out] == list(range(cfg.n_runs))
        matrix = FeatureMatrix.from_rows(train_v)
        params = standardize_fit(matrix)
        strain, sval = standardize_apply(matrix, params), standardize_apply(val_v, params)
        path = warm_path(strain, grid, cfg)
        for r in out:
            lam = grid[r.run_id % len(grid)]
            direct = path[r.run_id % len(grid)]
            assert r.config_used == {"lambda": lam, "n_train": len(matrix)}
            assert r.weights == direct.weights
            assert r.val_mcc == mcc(confusion(sval.labels, classify(direct, sval)))
            assert r.iterations == direct.training_meta["iterations"]
            assert r.converged == direct.training_meta["converged"]

    def test_each_pass_over_the_grid_draws_a_new_subsample(self, monkeypatch):
        seen = []

        def recording_train(data, *args, **kwargs):
            seen.append(data.trace_ids)
            return train(data, *args, **kwargs)

        monkeypatch.setattr(quakebox.selection, "train", recording_train)
        train_v, val_v, _ = planted_split(seed=4)
        grid = (0.05, 0.02, 0.01)
        out = run_ensemble(train_v, val_v, EnsembleConfig(n_runs=9, lambda_grid=grid, seed=3))
        assert len(seen) == 9
        for r in range(len(out)):
            assert seen[r] == seen[r - r % len(grid)]  # one draw serves a whole pass
        for r in range(len(out) - len(grid)):
            assert seen[r] != seen[r + len(grid)]
            assert out[r].weights != out[r + len(grid)].weights

    @pytest.mark.parametrize("fraction,n_fits", [(0.8, 3), (1.0, 3)])
    def test_one_standardization_per_draw_equals_per_run_fits(self, monkeypatch, fraction, n_fits):
        # 8 runs over a 3-point grid are 3 draws, the last one partial; each draw,
        # also one of every row at fraction 1.0, is standardized once
        fitted = []

        def counting_fit(data):
            fitted.append(data.trace_ids)
            return standardize_fit(data)

        monkeypatch.setattr(quakebox.selection, "standardize_fit", counting_fit)
        train_v, val_v, _ = planted_split(seed=7)
        grid = (0.05, 0.02, 0.01)
        cfg = EnsembleConfig(n_runs=8, lambda_grid=grid, subsample_fraction=fraction, seed=9)
        out = run_ensemble(train_v, val_v, cfg)
        assert len(fitted) == n_fits
        assert [r.run_id for r in out] == list(range(cfg.n_runs))
        for r in out:  # each run's draw redrawn and its path refitted on its own
            rng = derive_rng(cfg.seed, "ensemble-subsample", r.run_id // len(grid))
            subset = quakebox.selection._stratified_subsample(train_v, fraction, rng)
            params = standardize_fit(subset)
            sval = standardize_apply(val_v, params)
            k = r.run_id % len(grid)
            direct = warm_path(standardize_apply(subset, params), grid, cfg, k + 1)[k]
            meta = direct.training_meta
            assert r == EnsembleRunResult(
                run_id=r.run_id,
                weights=direct.weights,
                val_mcc=mcc(confusion(val_v.labels, classify(direct, sval))),
                config_used={"lambda": grid[k], "n_train": len(subset)},
                iterations=meta["iterations"],
                converged=meta["converged"],
                objective=meta["objective"],
                kkt_residual=meta["kkt_residual"],
                nnz=sum(w != 0.0 for w in direct.weights.values()),
            )

    def test_varied_runs_differ(self):
        train_v, val_v, _ = planted_split(seed=3)
        cfg = EnsembleConfig(n_runs=20, seed=6)
        out = run_ensemble(train_v, val_v, cfg)
        distinct = {tuple(sorted(r.weights.items())) for r in out}
        assert len(distinct) > 1
        lams = {r.config_used["lambda"] for r in out}
        assert len(lams) == 10  # default grid cycled

    def test_empty_inputs_rejected(self):
        with pytest.raises(DegenerateInput):
            run_ensemble(FeatureMatrix.from_rows([]), FeatureMatrix.from_rows([]), EnsembleConfig(n_runs=1))

    def test_failed_run_aborts_with_run_id(self):
        from quakebox.errors import ZeroVariance
        from conftest import make_vector

        # a feature constant across training makes standardization fail in run 0
        train_v = FeatureMatrix.from_rows(
            [make_vector(f"t{i}", "event" if i % 2 else "noise", f=1.0) for i in range(20)])
        val_v = FeatureMatrix.from_rows([make_vector("v0", "event", f=1.0)])
        cfg = EnsembleConfig(n_runs=3, subsample_fraction=1.0, lambda_grid=(0.1,), seed=1)
        with pytest.raises(ZeroVariance, match="ensemble run 0"):
            run_ensemble(train_v, val_v, cfg)


class TestBestModels:
    def test_exact_ties_only_by_default(self):
        results = [result(0, 0.9, f=1.0), result(1, 0.9, f=2.0), result(2, 0.8, f=3.0)]
        assert [r.run_id for r in best_models(results)] == [0, 1]

    def test_all_equal(self):
        results = [result(i, 0.5, f=float(i)) for i in range(4)]
        assert len(best_models(results)) == 4

    def test_tolerance_widens_the_set(self):
        results = [result(0, 0.90, f=0.0), result(1, 0.86, f=0.0), result(2, 0.84, f=0.0)]
        assert [r.run_id for r in best_models(results, 0.05)] == [0, 1]

    def test_permutation_invariant(self, rng):
        results = [result(i, float(v), f=float(i)) for i, v in enumerate(rng.random(20).round(1))]
        base = [r.run_id for r in best_models(results, 0.1)]
        for _ in range(10):
            shuffled = [results[i] for i in rng.permutation(len(results))]
            assert [r.run_id for r in best_models(shuffled, 0.1)] == base

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            best_models([])


class TestWeightDistributions:
    def test_single_model(self):
        dist = weight_distributions([result(0, 0.9, a=1.5, b=-0.5)])
        assert dist.stats["a"].minimum == dist.stats["a"].maximum == 1.5
        assert dist.stats["a"].median == 1.5
        assert dist.n_models == 1

    def test_always_zero_feature(self):
        tie = [result(i, 0.9, a=0.0, b=1.0) for i in range(5)]
        dist = weight_distributions(tie)
        assert dist.stats["a"].fraction_nonzero == 0.0
        assert dist.stats["b"].fraction_nonzero == 1.0

    def test_hand_computed_stats(self):
        tie = [result(0, 0.9, f=1.0), result(1, 0.9, f=0.0), result(2, 0.9, f=-1.0)]
        s = weight_distributions(tie).stats["f"]
        assert s.median == 0.0
        assert s.mean_abs == pytest.approx(2.0 / 3.0)
        assert s.median_abs == pytest.approx(1.0)
        assert s.fraction_nonzero == pytest.approx(2.0 / 3.0)

    def test_plot_table_shape(self):
        tie = [result(0, 0.9, a=1.0, b=2.0)]
        rows = weight_distributions(tie).table()
        assert [r[0] for r in rows] == ["a", "b"]
        assert len(rows[0]) == 7


class TestSelectFeatures:
    def make_dist(self, **stats_pairs):
        tie = []
        for i in range(10):
            weights = {}
            for code, (frac, w) in stats_pairs.items():
                weights[code] = w if i < frac * 10 else 0.0
            tie.append(result(i, 1.0, **weights))
        return weight_distributions(tie)

    def test_strong_feature_selected(self):
        dist = self.make_dist(strong=(1.0, 0.8), weak=(0.2, 0.8), tiny=(1.0, 0.001))
        assert select_features(dist) == ("strong",)

    def test_zero_feature_never_selected(self):
        dist = self.make_dist(dead=(0.0, 0.0))
        assert select_features(dist) == ()

    def test_base_set_always_kept(self):
        dist = self.make_dist(strong=(1.0, 0.8))
        assert select_features(dist, base=("W1", "W2")) == ("W1", "W2", "strong")

    def test_rule_monotone(self):
        dist = self.make_dist(a=(1.0, 0.8), b=(0.95, 0.06), c=(0.9, 0.4))
        loose = set(select_features(dist, SelectionRule(0.9, 0.05)))
        for rule in (SelectionRule(0.95, 0.05), SelectionRule(0.9, 0.1), SelectionRule(0.99, 0.5)):
            assert set(select_features(dist, rule)) <= loose

    @pytest.mark.parametrize("build,named", [
        (lambda: SelectionRule(1.5, 0.05), "min_fraction_nonzero: must lie in [0, 1], got 1.5"),
        (lambda: SelectionRule(-0.1, 0.05), "min_fraction_nonzero: must lie in [0, 1], got -0.1"),
        (lambda: SelectionRule(float("nan"), 0.05), "min_fraction_nonzero: must lie in [0, 1], got nan"),
        (lambda: SelectionRule(0.9, -1.0), "min_median_abs: must be nonnegative, got -1.0"),
        (lambda: SelectionRule(0.9, float("nan")), "min_median_abs: must be nonnegative, got nan"),
    ])
    def test_rule_thresholds_checked(self, build, named):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == named
        assert SelectionRule(0.0, 0.0) and SelectionRule(1.0, 0.0)  # both ends of the range

    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.95, 0.96, 1.0])
    def test_unanimity_is_what_the_rule_does_to_one_zero(self, fraction):
        # a code zero in one of n tied runs fails the rule exactly when the rule demands unanimity
        rule = SelectionRule(fraction, 0.05)
        for n in range(1, 41):
            dist = weight_distributions([result(i, 1.0, f=0.8 if i else 0.0) for i in range(n)])
            assert demands_unanimity(rule, n) == (n > 1 and select_features(dist, rule) == ())
        assert demands_unanimity(rule, 20) == (fraction > 0.95)  # 19 of 20 is 0.95


class TestWorkflow:
    def test_recovers_planted_features(self):
        train_v, val_v, informative = planted_split(n=500, seed=11, strength=4.0)
        cfg = EnsembleConfig(n_runs=60, seed=12)
        report = discover_features(train_v, val_v, cfg)
        assert set(informative) <= set(report.selected)
        spurious = set(report.selected) - set(informative)
        assert len(spurious) <= 2
        assert len(report.tie_set_ids) >= 2

    def test_deterministic_selection(self):
        train_v, val_v, _ = planted_split(n=300, seed=13)
        cfg = EnsembleConfig(n_runs=30, seed=14)
        r1 = discover_features(train_v, val_v, cfg)
        r2 = discover_features(train_v, val_v, cfg)
        assert r1.selected == r2.selected
        assert r1.tie_set_ids == r2.tie_set_ids
        for a, b in zip(r1.runs, r2.runs):
            assert a.weights == b.weights and a.val_mcc == b.val_mcc

    def test_report_round_trip(self, tmp_path):
        train_v, val_v, _ = planted_split(n=200, seed=15)
        report = discover_features(train_v, val_v, EnsembleConfig(n_runs=8, seed=16))
        path = tmp_path / "selection.json"
        save_selection_report(path, report)
        back = load_selection_report(path)
        assert back.selected == report.selected
        assert back.tie_set_ids == report.tie_set_ids
        assert back.distribution.stats == report.distribution.stats
        assert len(back.runs) == len(report.runs)
        assert back.runs[3].weights == dict(report.runs[3].weights)
        assert [(r.iterations, r.converged) for r in back.runs] == [
            (r.iterations, r.converged) for r in report.runs]
        assert all(r.converged is True and r.iterations >= 1 for r in back.runs)

    def test_report_round_trips_each_runs_certificate(self, tmp_path):
        train_v, val_v, _ = planted_split(n=200, seed=15)
        report = discover_features(train_v, val_v, EnsembleConfig(n_runs=12, seed=16))
        path = tmp_path / "selection.json"
        save_selection_report(path, report)
        back = load_selection_report(path)
        certificates = [(r.objective, r.kkt_residual, r.nnz) for r in report.runs]
        assert [(r.objective, r.kkt_residual, r.nnz) for r in back.runs] == certificates
        for r in back.runs:
            assert type(r.objective) is float and type(r.kkt_residual) is float and type(r.nnz) is int
            assert r.nnz == sum(w != 0.0 for w in r.weights.values())
            assert 0.0 <= r.kkt_residual <= 1e-6
        # a warm-started path still certifies each of its points
        assert len({r.nnz for r in back.runs}) > 1


class TestReportFile:
    @pytest.fixture(scope="class")
    def payload(self, tmp_path_factory):
        train_v, val_v, _ = planted_split(n=120, seed=17)
        path = tmp_path_factory.mktemp("report") / "selection.json"
        save_selection_report(path, discover_features(train_v, val_v, EnsembleConfig(n_runs=4, seed=18)))
        return json.loads(path.read_text())

    @pytest.mark.parametrize("change,named", [
        (lambda p: p.pop("runs"), "runs: missing required field"),
        (lambda p: p["runs"][1].update(val_mcc="high"), "runs[1].val_mcc: expected float, got str"),
        (lambda p: p["runs"][0].update(val_mcc=True), "runs[0].val_mcc: expected float, got bool"),
        (lambda p: p["runs"][2]["weights"].update(F01=float("nan")), "runs[2].weights.F01: must be finite"),
        (lambda p: p["rule"].pop("min_median_abs"), "rule.min_median_abs: missing required field"),
        (lambda p: p.update(tie_set_ids=[0, "1"]), "tie_set_ids[1]: expected int, got str"),
        (lambda p: p["runs"][3].pop("iterations"), "runs[3].iterations: missing required field"),
        (lambda p: p["runs"][0].update(converged=1), "runs[0].converged: expected bool, got int"),
        (lambda p: p["runs"][1].pop("objective"), "runs[1].objective: missing required field"),
        (lambda p: p["runs"][2].update(objective=None), "runs[2].objective: expected float, got NoneType"),
        (lambda p: p["runs"][0].pop("kkt_residual"), "runs[0].kkt_residual: missing required field"),
        (lambda p: p["runs"][3].update(kkt_residual="0"), "runs[3].kkt_residual: expected float, got str"),
        (lambda p: p["runs"][2].pop("nnz"), "runs[2].nnz: missing required field"),
        (lambda p: p["runs"][1].update(nnz=2.0), "runs[1].nnz: expected int, got float"),
        (lambda p: p["runs"][0].update(nnz=True), "runs[0].nnz: expected int, got bool"),
    ], ids=["missing-runs", "text-val-mcc", "bool-val-mcc", "nan-weight", "missing-rule-field",
            "text-tie-id", "missing-iterations", "int-converged", "missing-objective",
            "null-objective", "missing-kkt-residual", "text-kkt-residual", "missing-nnz",
            "float-nnz", "bool-nnz"])
    def test_malformed_field_named(self, tmp_path, payload, change, named):
        broken = json.loads(json.dumps(payload))
        change(broken)
        path = tmp_path / "selection.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(FormatError, match=f"selection.json: {re.escape(named)}"):
            load_selection_report(path)

    @pytest.mark.parametrize("field,value,named", [
        ("min_fraction_nonzero", 1.5, "rule.min_fraction_nonzero: must lie in [0, 1], got 1.5"),
        ("min_median_abs", -1.0, "rule.min_median_abs: must be nonnegative, got -1.0"),
    ])
    def test_rule_outside_its_range_named(self, tmp_path, payload, field, value, named):
        broken = json.loads(json.dumps(payload))
        broken["rule"][field] = value
        path = tmp_path / "selection.json"
        path.write_text(json.dumps(broken))
        with pytest.raises(FormatError) as err:
            load_selection_report(path)
        assert str(err.value) == f"{path}: {named}"

    @pytest.mark.parametrize("text", ["[1]", '"quakebox-selection-v1"'])
    def test_top_level_not_a_report(self, tmp_path, text):
        path = tmp_path / "selection.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="not a quakebox-selection-v1 file"):
            load_selection_report(path)

    def test_bad_byte_names_file_and_line(self, tmp_path, payload):
        path = tmp_path / "selection.json"
        text = json.dumps(payload, indent=2).replace('"selected"', '"sel\u00e9cted"')
        path.write_bytes(text.encode("latin-1"))  # the lone 0xe9 is not UTF-8
        line = text[: text.index("sel\u00e9cted")].count("\n") + 1
        with pytest.raises(FormatError) as err:
            load_selection_report(path)
        assert str(err.value) == f"line {line}: {path}: invalid UTF-8 (invalid continuation byte)"

    def test_nested_document_names_the_file(self, tmp_path):
        path = tmp_path / "selection.json"
        path.write_text('{"runs": ' + "[" * 100000)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: invalid JSON \(maximum recursion depth"):
            load_selection_report(path)

    def test_valid_report_reads_back_unchanged(self, tmp_path, payload):
        path = tmp_path / "selection.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        back = load_selection_report(path)
        save_selection_report(tmp_path / "again.json", back)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def with_column(matrix, code, values):
    return FeatureMatrix(np.column_stack([matrix.X, values]), matrix.codes + (code,),
                         matrix.trace_ids, matrix.labels)


class TestConstantColumns:
    def test_a_column_constant_in_training_is_set_aside_in_every_run(self):
        train_v, val_v, _ = planted_split(seed=5)
        k_train = with_column(train_v, "K", np.full(len(train_v), 2.0))
        k_val = with_column(val_v, "K", np.linspace(0.0, 1.0, len(val_v)))
        cfg = EnsembleConfig(n_runs=12, seed=3)
        assert default_lambda_grid(k_train, cfg.alpha) == default_lambda_grid(train_v, cfg.alpha)
        got, plain = run_ensemble(k_train, k_val, cfg), run_ensemble(train_v, val_v, cfg)
        for r, p in zip(got, plain, strict=True):
            assert list(r.weights) == list(k_train.codes)
            assert r.weights == {**p.weights, "K": 0.0}
            assert (r.val_mcc, r.objective, r.nnz, r.config_used) == (p.val_mcc, p.objective, p.nnz, p.config_used)
        report = discover_features(k_train, k_val, cfg)
        assert report.distribution.stats["K"].fraction_nonzero == 0.0
        assert "K" not in report.selected

    def test_a_column_constant_only_within_a_draw_is_set_aside_in_its_runs(self):
        train_v, val_v, _ = planted_split(seed=5)
        only_row_0 = np.zeros(len(train_v))
        only_row_0[0] = 1.0
        r_train = with_column(train_v, "R", only_row_0)
        r_val = with_column(val_v, "R", np.zeros(len(val_v)))
        grid = (0.05, 0.02)
        cfg = EnsembleConfig(n_runs=8, lambda_grid=grid, subsample_fraction=0.5, seed=3)
        out = run_ensemble(r_train, r_val, cfg)
        holds_row_0 = []
        for draw in range(4):
            rng = derive_rng(cfg.seed, "ensemble-subsample", draw)
            subset = quakebox.selection._stratified_subsample(r_train, cfg.subsample_fraction, rng)
            holds_row_0.append(r_train.trace_ids[0] in subset.trace_ids)
            fit, val = (subset, r_val) if holds_row_0[-1] else (subset.columns(train_v.codes), val_v)
            params = standardize_fit(fit)
            sval = standardize_apply(val, params)
            for k, direct in enumerate(warm_path(standardize_apply(fit, params), grid, cfg)):
                run = out[draw * len(grid) + k]
                assert list(run.weights) == list(r_train.codes)
                assert run.weights == {"R": 0.0, **direct.weights}
                assert run.val_mcc == mcc(confusion(val.labels, classify(direct, sval)))
        assert holds_row_0.count(True) and holds_row_0.count(False)  # both kinds of draw

    def test_a_draw_in_which_no_column_varies_aborts_with_its_run_id(self):
        train_v, val_v, _ = planted_split(seed=5)
        only_row_0 = np.zeros(len(train_v))
        only_row_0[0] = 1.0
        r_train = with_column(train_v, "R", only_row_0).columns(["R"])
        r_val = with_column(val_v, "R", np.zeros(len(val_v))).columns(["R"])
        cfg = EnsembleConfig(n_runs=8, lambda_grid=(0.05, 0.02), subsample_fraction=0.5, seed=3)
        draw = next(d for d in range(4) if r_train.trace_ids[0] not in quakebox.selection._stratified_subsample(
            r_train, cfg.subsample_fraction, derive_rng(cfg.seed, "ensemble-subsample", d)).trace_ids)
        with pytest.raises(ZeroVariance, match=rf"^ensemble run {2 * draw}: feature\(s\) constant across "
                                               r"collection: R$"):
            run_ensemble(r_train, r_val, cfg)
