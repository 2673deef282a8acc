"""Benchmark harness: splits, ratio datasets, sweeps, generators, ingestion."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from quakebox import bench
from quakebox.errors import (
    ConfigError,
    DegenerateInput,
    FormatError,
    IngestError,
    InsufficientNoise,
    TooFewEvents,
)
from quakebox.features import FeatureMatrix, standardize_apply, standardize_fit
from quakebox.metrics import report
from quakebox.model import LinearModel, ModelArtifact, PenaltyConfig, TrainOptions, train
from quakebox.selection import EnsembleConfig

from conftest import make_record, make_vector


def grouped_records(n_events, traces_each, n_noise, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for e in range(n_events):
        for s in range(traces_each):
            records.append(
                make_record(
                    f"ev{e:03d}.st{s:02d}", label="event", event_id=f"ev{e:03d}",
                    samples=rng.standard_normal(64),
                )
            )
    for i in range(n_noise):
        records.append(
            make_record(f"noise{i:04d}", label="noise", samples=rng.standard_normal(64))
        )
    return records


class TestPartition:
    def test_47_events_split_28_9_10(self):
        records = grouped_records(47, 2, 100)
        split = bench.partition_by_event(records, bench.SplitSpec(seed=1))
        counts = [
            len({r.event_id for r in part if r.label == "event"})
            for part in (split.train, split.validation, split.test)
        ]
        assert counts == [28, 9, 10]

    def test_5_events_split_3_1_1(self):
        records = grouped_records(5, 3, 10)
        split = bench.partition_by_event(records, bench.SplitSpec(seed=2))
        counts = [
            len({r.event_id for r in part if r.label == "event"})
            for part in (split.train, split.validation, split.test)
        ]
        assert counts == [3, 1, 1]

    def test_no_event_overlap_over_100_seeds(self):
        records = grouped_records(11, 4, 30)
        for seed in range(100):
            split = bench.partition_by_event(records, bench.SplitSpec(seed=seed))
            parts = [
                {r.event_id for r in part if r.label == "event"}
                for part in (split.train, split.validation, split.test)
            ]
            assert not (parts[0] & parts[1])
            assert not (parts[0] & parts[2])
            assert not (parts[1] & parts[2])
            assert len(split.train) + len(split.validation) + len(split.test) == len(records)

    def test_noise_traces_follow_fractions(self):
        records = grouped_records(10, 1, 100)
        split = bench.partition_by_event(records, bench.SplitSpec(seed=3))
        noise_counts = [
            sum(1 for r in part if r.label == "noise")
            for part in (split.train, split.validation, split.test)
        ]
        assert noise_counts == [60, 20, 20]

    def test_too_few_events(self):
        with pytest.raises(TooFewEvents):
            bench.partition_by_event(grouped_records(2, 2, 5), bench.SplitSpec())

    @pytest.mark.parametrize("n_events", [3, 4])
    def test_a_split_without_an_event_is_refused(self, n_events):
        # floor/floor/remainder at the default fractions counts out no validation event
        with pytest.raises(TooFewEvents, match=rf"^fractions \(0.6, 0.2, 0.2\) give the validation split "
                                               rf"0 of {n_events} events$"):
            bench.partition_by_event(grouped_records(n_events, 2, 5), bench.SplitSpec())

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            bench.SplitSpec(fractions=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            bench.SplitSpec(fractions=(0.6, 0.4, -0.0))


class TestRatioDataset:
    def pool(self, n):
        return FeatureMatrix.from_rows([make_vector(f"n{i:05d}", "noise", f=float(i)) for i in range(n)])

    def positives(self, n):
        return FeatureMatrix.from_rows([make_vector(f"p{i:05d}", "event", f=float(i)) for i in range(n)])

    def test_published_count_arithmetic(self):
        ds = bench.build_ratio_dataset(self.positives(763), self.pool(4000), 5.0, seed=1)
        assert ds.items.labels.count("noise") == 3815

    def test_ratio_one(self):
        ds = bench.build_ratio_dataset(self.positives(10), self.pool(50), 1.0, seed=1)
        assert ds.items.labels.count("noise") == 10
        assert ds.items.labels.count("event") == 10

    def test_insufficient_noise_reports_shortfall(self):
        with pytest.raises(InsufficientNoise, match="short 400"):
            bench.build_ratio_dataset(self.positives(10), self.pool(100), 50.0, seed=1)

    @pytest.mark.parametrize("n_pos", [1, 3])
    def test_overflowing_ratio_names_the_ratio_not_a_count(self, n_pos):
        with pytest.raises(InsufficientNoise) as err:
            bench.build_ratio_dataset(self.positives(n_pos), self.pool(4), 1e308, seed=1)
        assert str(err.value) == "ratio 1e+308 needs more than the pool's 4 noise items"

    @pytest.mark.parametrize("ratio,n_pos", [(1e-9, 16), (0.49, 1), (0.04, 12)])
    def test_ratio_that_draws_no_noise_refused(self, ratio, n_pos):
        # ratio * n_pos rounds to 0: a dataset of positives alone measures nothing at its ratio
        with pytest.raises(DegenerateInput) as err:
            bench.build_ratio_dataset(self.positives(n_pos), self.pool(4), ratio, seed=1)
        assert str(err.value) == f"ratio {ratio} draws no noise item for {n_pos} positive(s)"
        assert bench.build_ratio_dataset(self.positives(1), self.pool(4), 0.5, seed=1).items.labels.count("noise") == 1

    def test_all_positives_retained(self):
        pos = self.positives(7)
        ds = bench.build_ratio_dataset(pos, self.pool(100), 3.0, seed=2)
        kept = {t for t, lab in zip(ds.items.trace_ids, ds.items.labels) if lab == "event"}
        assert kept == set(pos.trace_ids)

    def test_sampling_without_replacement(self):
        ds = bench.build_ratio_dataset(self.positives(10), self.pool(100), 8.0, seed=3)
        noise_ids = [t for t, lab in zip(ds.items.trace_ids, ds.items.labels) if lab == "noise"]
        assert len(noise_ids) == len(set(noise_ids))

    def test_nested_subsets_for_fixed_seed(self):
        pos, pool = self.positives(10), self.pool(600)
        previous = set()
        for ratio in (1.73, 5.0, 10.0, 25.0, 50.0):
            ds = bench.build_ratio_dataset(pos, pool, ratio, seed=4)
            ids = {t for t, lab in zip(ds.items.trace_ids, ds.items.labels) if lab == "noise"}
            assert previous <= ids
            previous = ids

    def test_drawn_noise_count_keeps_the_ratio(self, rng):
        pos = self.positives(17)
        pool = self.pool(2000)
        for ratio in (1.0, 1.73, 2.5, 7.3, 11.0):
            ds = bench.build_ratio_dataset(pos, pool, float(ratio), seed=5)
            assert abs(ds.items.labels.count("noise") / len(pos) - ratio) <= 1.0 / len(pos) + 1e-12


def test_ratio_dataset_without_positives_refused():
    pool = FeatureMatrix.from_rows([make_vector("n0", "noise", f=1.0)])
    with pytest.raises(DegenerateInput) as err:
        bench.build_ratio_dataset(pool.take([]), pool, 1.0, seed=1)
    assert str(err.value) == "ratio dataset needs at least one positive"


class TestSweep:
    def setup_case(self):
        positives = [make_vector(f"p{i}", "event", f=1.0 + 0.1 * i) for i in range(10)]
        pool = [make_vector(f"n{i}", "noise", f=-1.0 - 0.01 * i) for i in range(600)]
        return positives, pool

    @staticmethod
    def sweep(sources, positives, pool, spec):
        positives, pool = FeatureMatrix.from_rows(positives), FeatureMatrix.from_rows(pool)
        return bench.sweep(sources, positives, pool, spec)

    def artifact(self):
        from quakebox.features import StandardizationParams

        return ModelArtifact(
            model=LinearModel(bias=0.0, weights={"f": 5.0}),
            standardization=StandardizationParams(means={"f": 0.0}, stds={"f": 1.0}),
        )

    def test_event_rows_in_the_pool_refused(self):
        positives, pool = self.setup_case()
        with pytest.raises(DegenerateInput) as err:
            self.sweep({"lr": self.artifact()}, positives, pool + positives[:1], bench.RatioSpec(seed=1))
        assert str(err.value) == "noise pool must all carry the noise label"

    def test_row_per_ratio(self):
        positives, pool = self.setup_case()
        table = self.sweep({"lr": self.artifact()}, positives, pool, bench.RatioSpec(seed=1))
        assert len(table.ratios) == 5
        assert table.mcc_row("lr") == [pytest.approx(1.0)] * 5

    def test_each_ratio_scored_as_its_own_dataset(self):
        # the sweep scores prefixes of the largest ratio's draw: each cell
        # equals the report on that ratio's own dataset, in any ladder order;
        # "edges" is wrong on one positive and on the first and last noise
        # row of every stretch the ladder adds, so every ratio's counts differ
        positives, pool = self.setup_case()
        coin = np.random.default_rng(8).random(len(positives) + len(pool)) < 0.5
        preds = {v.trace_id: "event" if hit else "noise" for v, hit in zip(positives + pool, coin)}
        artifact = replace(self.artifact(), model=LinearModel(bias=-7.5, weights={"f": 5.0}))
        spec = bench.RatioSpec(ratios=(5.0, 1.73, 50.0, 3.0), seed=8)
        P, N = FeatureMatrix.from_rows(positives), FeatureMatrix.from_rows(pool)
        datasets = {ratio: bench.build_ratio_dataset(P, N, ratio, spec.seed).items for ratio in spec.ratios}
        largest = datasets[max(spec.ratios)]
        starts = sorted({len(P), *(len(items) for items in datasets.values())})
        wrong = {3} | {i for s, e in zip(starts, starts[1:]) for i in (s, e - 1)}
        flipped = {"event": "noise", "noise": "event"}
        edges = {t: flipped[label] if i in wrong else label
                 for i, (t, label) in enumerate(zip(largest.trace_ids, largest.labels))}
        sources = {"lr": artifact, "coin": bench.Predictions(preds, "coin.tsv"),
                   "edges": bench.Predictions(edges, "edges.tsv")}
        table = self.sweep(sources, positives, pool, spec)
        for ratio, items in datasets.items():
            assert table.reports[("lr", ratio)] == report(items.labels, artifact.predict_labels(items))
            for name in ("coin", "edges"):
                labels = [sources[name][t] for t in items.trace_ids]
                assert table.reports[(name, ratio)] == report(items.labels, labels), (name, ratio)
        assert 0 < table.mcc_row("lr")[0] < 1
        assert len({table.reports[("edges", ratio)].matrix for ratio in spec.ratios}) == len(spec.ratios)

    def test_all_noise_predictor_scores_zero_everywhere(self):
        positives, pool = self.setup_case()
        preds = {v.trace_id: "noise" for v in positives + pool}
        table = self.sweep({"lazy": bench.Predictions(preds, "lazy.tsv")}, positives, pool,
                           bench.RatioSpec(seed=2))
        assert table.mcc_row("lazy") == [0.0] * 5

    def test_oracle_predictor_scores_one_everywhere(self):
        positives, pool = self.setup_case()
        preds = {v.trace_id: v.label for v in positives + pool}
        table = self.sweep({"oracle": bench.Predictions(preds, "oracle.tsv")}, positives, pool,
                           bench.RatioSpec(seed=3))
        assert table.mcc_row("oracle") == [pytest.approx(1.0)] * 5

    def test_fp_free_fixed_fn_predictor_non_decreasing(self):
        positives, pool = self.setup_case()
        preds = {v.trace_id: "noise" for v in pool}
        preds.update({v.trace_id: ("event" if i % 4 else "noise") for i, v in enumerate(positives)})
        table = self.sweep({"cnnish": bench.Predictions(preds, "cnnish.tsv")}, positives, pool,
                           bench.RatioSpec(seed=4))
        row = table.mcc_row("cnnish")
        assert all(b >= a - 1e-12 for a, b in zip(row, row[1:]))

    def test_missing_external_id_fails(self):
        positives, pool = self.setup_case()
        preds = {v.trace_id: "noise" for v in pool}
        with pytest.raises(IngestError, match=r"^partial.tsv: missing 10 trace id\(s\): p0, p1, "):
            self.sweep({"partial": bench.Predictions(preds, "partial.tsv")}, positives, pool,
                       bench.RatioSpec(seed=5))

    def test_ratio_that_draws_no_noise_refused(self):
        positives, pool = self.setup_case()
        with pytest.raises(DegenerateInput) as err:
            self.sweep({"lr": self.artifact()}, positives, pool, bench.RatioSpec(ratios=(1.0, 1e-9), seed=1))
        assert str(err.value) == "ratio 1e-09 draws no noise item for 10 positive(s)"

    def test_label_hygiene(self):
        positives, pool = self.setup_case()
        with pytest.raises(DegenerateInput):
            self.sweep({"x": bench.Predictions({}, "x.tsv")}, pool[:3], pool, bench.RatioSpec(seed=6))

    def test_render_text_table(self):
        positives, pool = self.setup_case()
        preds = {v.trace_id: v.label for v in positives + pool}
        table = self.sweep({"oracle": bench.Predictions(preds, "oracle.tsv")}, positives, pool,
                           bench.RatioSpec(ratios=(1.0, 2.0), seed=7))
        text = table.render_text()
        assert "oracle" in text and "1.0000" in text

    @pytest.mark.parametrize("ratios,message", [
        ((1.0, 1.0), "ratios[1]: 1.0 repeats ratios[0]"),
        ((2.0, 5.0, 3.0, 5.0), "ratios[3]: 5.0 repeats ratios[1]"),
        ((1, 2.0, 1.0), "ratios[2]: 1.0 repeats ratios[0]"),
    ])
    def test_repeated_ratio_refused(self, ratios, message):
        # one ratio is one column of the table: a repeat would render it twice
        with pytest.raises(ConfigError) as err:
            bench.RatioSpec(ratios=ratios)
        assert str(err.value) == message


class TestSyntheticGenerator:
    def test_bit_identical_reruns(self):
        spec = bench.SyntheticSpec(n_events=3, traces_per_event=(2, 3), n_noise=5,
                                   window_len=128, seed=9)
        a = bench.generate_synthetic(spec)
        b = bench.generate_synthetic(spec)
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.trace_id == rb.trace_id
            assert np.array_equal(ra.samples, rb.samples)

    def test_corpus_shape_matches_spec(self):
        spec = bench.SyntheticSpec(n_events=47, traces_per_event=(30, 68), n_noise=100,
                                   window_len=64, seed=10)
        records = bench.generate_synthetic(spec)
        n_event_traces = sum(1 for r in records if r.label == "event")
        assert 47 * 30 <= n_event_traces <= 47 * 68
        assert abs(n_event_traces - 47 * 49) < 47 * 12  # mean ~49 traces/event
        assert sum(1 for r in records if r.label == "noise") == 100
        events = {r.event_id for r in records if r.label == "event"}
        assert len(events) == 47

    def test_event_records_carry_magnitudes(self):
        records = bench.generate_synthetic(
            bench.SyntheticSpec(n_events=4, traces_per_event=(2, 4), n_noise=2,
                                window_len=64, seed=11)
        )
        for r in records:
            if r.label == "event":
                assert r.magnitude is not None and r.magnitude >= 0.2
            else:
                assert r.event_id is None

    def test_noise_pool_ids_distinct_from_corpus(self):
        pool = bench.generate_noise_pool(10, window_len=64, seed=12)
        assert all(r.trace_id.startswith("xnoise") for r in pool)
        assert all(r.label == "noise" for r in pool)

    @pytest.mark.parametrize("make,expected", [
        (lambda: bench.generate_noise_pool(40, 200.0, 600, seed=7),
         "f74b28e04b4905ac5070e69cec25f167d898cdd4fdb84b1014e8ad0d02883ecf"),
        (lambda: bench.generate_noise_pool(9, 150.0, 97, seed=3),
         "486b092579518a0ddb8575ad862811008c972873cb517ace33e266c6cdf3ea6b"),
        (lambda: bench.generate_synthetic(bench.SyntheticSpec(
            n_events=3, traces_per_event=(2, 3), n_noise=5, window_len=128, seed=11)),
         "86c5d7f25d847d8e6aa342480f60333225c6b860b5bb38730d49233860782eea"),
    ], ids=["pool", "pool-odd-length", "corpus"])
    def test_records_are_frozen(self, make, expected):
        # every id, station, label and sample, pinned to the values written
        # when each noise trace was coloured on its own
        h = hashlib.sha256()
        for r in make():
            h.update(f"{r.trace_id}|{r.station}|{r.event_id}|{r.sample_rate}|{r.label}|{r.magnitude}|".encode())
            h.update(r.samples.tobytes())
        assert h.hexdigest() == expected

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            bench.SyntheticSpec(n_events=0)
        with pytest.raises(ValueError):
            bench.SyntheticSpec(traces_per_event=(5, 2))
        with pytest.raises(ValueError):
            bench.SyntheticSpec(snr_range=(0.0, 1.0))

    def test_high_snr_corpus_is_separable(self):
        # end-to-end sanity: an easy corpus must be nearly perfectly learnable
        from quakebox.features import extract_matrix, reproduction_registry, selected_profile
        from quakebox.metrics import confusion, mcc
        from quakebox.waveform import PreprocessConfig, preprocess

        spec = bench.SyntheticSpec(n_events=10, traces_per_event=(3, 4), n_noise=80,
                                   fs=200.0, window_len=400, snr_range=(15.0, 30.0), seed=13)
        records = [preprocess(r, PreprocessConfig(window_len=192))
                   for r in bench.generate_synthetic(spec)]
        split = bench.partition_by_event(records, bench.SplitSpec(seed=14))
        reg = reproduction_registry()
        train_vecs = extract_matrix(split.train, reg, selected_profile())
        test_vecs = extract_matrix(split.test, reg, selected_profile())
        params = standardize_fit(train_vecs)
        model = train(standardize_apply(train_vecs, params), PenaltyConfig(alpha=0.5, lam=0.001))
        artifact = ModelArtifact(model=model, standardization=params)
        preds = [artifact.predict_label(v) for v in test_vecs]
        labels = [v.label for v in test_vecs]
        assert mcc(confusion(labels, preds)) > 0.95


class TestPlantedFeatures:
    def test_deterministic(self):
        a, inf_a = bench.generate_planted_features(50, seed=20)
        b, inf_b = bench.generate_planted_features(50, seed=20)
        assert inf_a == inf_b
        for va, vb in zip(a, b):
            assert va.values == vb.values and va.label == vb.label

    def test_shape_and_ground_truth(self):
        vecs, informative = bench.generate_planted_features(100, n_informative=2, n_nuisance=22, seed=21)
        assert len(vecs) == 100
        assert len(vecs[0].values) == 24
        assert len(informative) == 2
        assert all(c in vecs[0].values for c in informative)

    def test_margin_makes_classes_separable(self):
        vecs, informative = bench.generate_planted_features(200, strength=4.0, margin=1.0, seed=22)
        labels = {v.label for v in vecs}
        assert labels == {"event", "noise"}


class TestIngestPredictions:
    def write(self, tmp_path, text):
        path = tmp_path / "preds.tsv"
        path.write_text(text)
        return path

    def matrix(self, *trace_ids):
        return FeatureMatrix.from_rows([make_vector(tid, "noise", f=1.0) for tid in trace_ids])

    def test_label_file(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tlabel\na\tevent\nb\tnoise\n")
        out = bench.ingest_predictions(path)
        assert out == {"a": "event", "b": "noise"}

    def test_probability_thresholded(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\na\t0.7\nb\t0.4\nc\t0.5\n")
        out = bench.ingest_predictions(path)
        assert out == {"a": "event", "b": "noise", "c": "event"}

    def test_per_row_threshold_column(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\tthreshold\na\t0.7\t0.8\nb\t0.4\t0.3\n")
        out = bench.ingest_predictions(path)
        assert out == {"a": "noise", "b": "event"}

    def test_missing_id_named(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tlabel\na\tevent\n")
        preds = bench.ingest_predictions(path)
        with pytest.raises(IngestError) as err:
            preds.predict_labels(self.matrix("a", "b"))
        assert str(err.value) == f"{path}: missing 1 trace id(s): b"

    def test_duplicate_id_rejected(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tlabel\na\tevent\na\tnoise\n")
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 3: {path}: trace_id a repeats line 2"

    @pytest.mark.parametrize("header,named", [
        ("trace_id\tprobability\tprobability", "probability"),
        ("trace_id\tlabel\ttrace_id", "trace_id"),
    ])
    def test_repeated_column_rejected(self, tmp_path, header, named):
        path = self.write(tmp_path, f"{header}\na\t0.7\tb\n")
        with pytest.raises(FormatError, match=rf"^line 1: .*preds.tsv: column\(s\) repeated in header: {named}$"):
            bench.ingest_predictions(path)

    @pytest.mark.parametrize("text,named", [
        # the blank line 3 is skipped but counted
        ("trace_id\tlabel\na\tevent\n\nb\tquake\n", "line 4: {path}: label must be one of ('event', 'noise'), got 'quake'"),
        ("trace_id\tlabel\na\tevent\tx\n", "line 2: {path}: expected 2 columns, found 3"),
        ("trace_id\tprobability\na\thigh\n",
         "line 2: {path}: probability: could not convert string to float: 'high'"),
        ("trace_id\tprobability\tthreshold\na\t0.4\t7\n", "line 2: {path}: threshold 7.0 outside [0, 1]"),
        # the last cell quoted without the newline, whether the line ends in LF, CRLF or nothing
        ("trace_id\tlabel\na\tevent\nb\tquake", "line 3: {path}: label must be one of ('event', 'noise'), got 'quake'"),
        ("trace_id\tlabel\r\na\tevent\r\n \t\r\nb\tquake\r\n", "line 4: {path}: label must be one of ('event', 'noise'), got 'quake'"),
        ("trace_id\tprobability\na\t0.5\n\t\nb\thigh\n",
         "line 4: {path}: probability: could not convert string to float: 'high'"),
        ("probability\ttrace_id\n0.5\ta\nhigh\tb\n",
         "line 3: {path}: probability: could not convert string to float: 'high'"),
    ], ids=["label", "column-count", "text-probability", "threshold-7", "label-no-final-newline", "label-crlf",
            "probability-last", "trace-id-last"])
    def test_bad_row_names_file_and_line(self, tmp_path, text, named):
        path = self.write(tmp_path, text)
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == named.format(path=path)

    @pytest.mark.parametrize("header,named", [
        ("trace_id\tprobability\tprobability", "column(s) repeated in header: probability"),
        ("trace_id\tlabel\t", "header column 3 has an empty name"),
        ("id\tprobability", "header lacks a trace_id column"),
        ("trace_id\tscore", "need a label or probability column"),
    ], ids=["repeated-column", "empty-column-name", "no-trace-id", "no-label-or-probability"])
    def test_header_error_before_row_error(self, tmp_path, header, named):
        path = self.write(tmp_path, f"{header}\na\n")  # the row has too few columns
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 1: {path}: {named}"

    @pytest.mark.parametrize("cell", ["1_0", "１", "#3", '"4"'],
                             ids=["underscore", "fullwidth-digit", "hash", "quoted"])
    def test_probability_outside_the_number_grammar_names_its_line(self, tmp_path, cell):
        path = self.write(tmp_path, f"trace_id\tprobability\na\t0.5\nb\t{cell}\n")
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 3: {path}: probability: could not convert string to float: {cell!r}"

    def test_extra_column_after_the_last_read_column_refused(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\na\t0.5\nb\t0.5\t0.9\n")
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 3: {path}: expected 2 columns, found 3"

    def test_nan_probability_refused(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\tthreshold\na\t0.5\t0.5\nb\t0.5\tnan\n")
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 3: {path}: threshold nan outside [0, 1]"

    def test_bad_probability_ignored_beside_a_label_column(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tlabel\tprobability\tthreshold\na\tevent\thigh\t7\nb\tnoise\t1_0\t\n")
        assert bench.ingest_predictions(path) == {"a": "event", "b": "noise"}

    def test_repeated_id_with_a_bad_probability_reports_the_repeat(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\na\t0.7\nb\t0.2\na\thigh\nb\t7\n")
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 4: {path}: probability: could not convert string to float: 'high'"

    def test_padded_probability_reads_as_float(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\tthreshold\na\t 0.5\t0.5 \nb\t 0.25\t1\n")
        assert bench.ingest_predictions(path) == {"a": "event", "b": "noise"}

    @pytest.mark.parametrize("text", [
        "trace_id\tlabel\na\tevent\nb\tnoise",
        "trace_id\tlabel\r\na\tevent\r\n\r\nb\tnoise\r\n",
        "probability\ttrace_id\n0.7\ta\n \t \n0.2\tb\n",
        "probability\ttrace_id\r\n0.7\ta\r\n0.2\tb",
        "label\ttrace_id\nevent\ta\nnoise\tb\n",
    ], ids=["no-final-newline", "crlf", "trace-id-last", "trace-id-last-crlf", "label-first"])
    def test_line_endings_blank_lines_and_column_order_read_alike(self, tmp_path, text):
        path = self.write(tmp_path, text)
        assert bench.ingest_predictions(path) == {"a": "event", "b": "noise"}

    @pytest.mark.parametrize("text", ["probability\ttrace_id\n0.7\ta\n0.2\ta",
                                      "label\ttrace_id\nevent\ta\r\nnoise\ta\n"], ids=["no-final-newline", "crlf"])
    def test_repeated_id_in_the_last_column_rejected(self, tmp_path, text):
        path = self.write(tmp_path, text)
        with pytest.raises(FormatError) as err:
            bench.ingest_predictions(path)
        assert str(err.value) == f"line 3: {path}: trace_id a repeats line 2"

    def test_extra_ids_tolerated(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tlabel\na\tevent\nzz\tnoise\n")
        out = bench.ingest_predictions(path)
        assert out == {"a": "event", "zz": "noise"}
        assert out.predict_labels(self.matrix("a")) == ["event"]

    def test_bad_probability_rejected(self, tmp_path):
        path = self.write(tmp_path, "trace_id\tprobability\na\t1.4\n")
        with pytest.raises(Exception, match="outside"):
            bench.ingest_predictions(path)


@pytest.mark.parametrize("build", [
    lambda: PenaltyConfig(lam=math.nan),
    lambda: TrainOptions(tol=math.nan),
    lambda: bench.RatioSpec(ratios=(1.0, math.nan)),
    lambda: bench.RatioSpec(ratios=(math.inf,)),
    lambda: bench.SyntheticSpec(fs=math.nan),
    lambda: bench.SyntheticSpec(fs=math.inf),
    lambda: bench.SyntheticSpec(snr_range=(1.0, math.inf)),
    lambda: EnsembleConfig(tie_tolerance=math.nan),
    lambda: bench.SplitSpec(fractions=(math.nan, 0.5, 0.5)),
    lambda: make_record("ev1", label="event", magnitude=math.nan),
], ids=["lambda", "tol", "ratio-nan", "ratio-inf", "fs-nan", "fs-inf", "snr-inf", "tie-tolerance",
        "fraction", "magnitude"])
def test_range_checks_refuse_non_finite(build):
    # each check is a negated in-range test, which NaN fails
    with pytest.raises(ValueError):
        build()
