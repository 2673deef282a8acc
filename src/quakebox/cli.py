"""Command-line front door.

Every subcommand reads one JSON config (field-qualified validation errors),
honors ``--seed`` as a master-seed override and ``--out-dir`` as an output
prefix, and writes byte-deterministic artifacts: the same config and seed
always reproduce the same files.  Training and selection refuse inputs
tagged with the test role; evaluation commands take anything.

    quakebox synth    -c synth.json        waveform corpus from a generator spec
    quakebox split    -c split.json        event-wise train/validation/test files
    quakebox extract  -c extract.json      preprocess + feature matrix
    quakebox train    -c train.json        penalized logistic regression model
    quakebox select   -c select.json       ensemble feature discovery report
    quakebox eval     -c eval.json         metrics + paired significance tests
    quakebox sweep    -c sweep.json        noise-ratio stress grid
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import bench, fields, selection
from .errors import ConfigError, QuakeboxError
from .features import (
    canonical_registry,
    extract_matrix,
    read_matrix,
    reproduction_registry,
    selected_profile,
    standardize_apply,
    standardize_fit,
    write_matrix,
)
from .metrics import mcnemar_test, report
from .model import (
    ModelArtifact,
    PenaltyConfig,
    TrainOptions,
    load_model,
    save_model,
    train,
)
from .seeds import derive_seed
from .waveform import PreprocessConfig, preprocess
from .waveform_io import read_waveforms, write_waveforms

FEATURE_PROFILES = {
    "canonical22": lambda: canonical_registry().codes(),
    "discovery26": lambda: reproduction_registry().codes(),
    "selected8": selected_profile,
}


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return cfg


def _positive(cfg: Mapping[str, Any], field: str, kind, default):
    value = fields.get(cfg, field, kind, ConfigError, default)
    if not value > 0:
        raise ConfigError(field, f"must be positive, got {value}")
    return value


def _resolve(out_dir: str | None, path: str) -> Path:
    p = Path(path)
    if out_dir and not p.is_absolute():
        return Path(out_dir) / p
    return p


def _master_seed(cfg: Mapping[str, Any], override: int | None) -> int:
    if override is not None:
        return override
    return fields.get(cfg, "master_seed", int, ConfigError, 0)


def _preprocess_config(cfg: Mapping[str, Any]) -> PreprocessConfig:
    params = dict(
        band_low_hz=_positive(cfg, "preprocess.band_low_hz", float, 5.0),
        band_high_hz=_positive(cfg, "preprocess.band_high_hz", float, 25.0),
        downsample_factor=fields.get(cfg, "preprocess.downsample_factor", int, ConfigError, 2),
        filter_order=fields.get(cfg, "preprocess.filter_order", int, ConfigError, 4),
        window_len=fields.get(cfg, "preprocess.window_len", int, ConfigError, None),
    )
    try:
        return PreprocessConfig(**params)
    except (QuakeboxError, ValueError) as exc:
        raise ConfigError("preprocess", str(exc)) from exc


def _feature_codes(cfg: Mapping[str, Any]):
    features = cfg.get("features", "discovery26")
    if isinstance(features, str):
        if features not in FEATURE_PROFILES:
            raise ConfigError(
                "features",
                f"unknown profile {features!r}; choose from {sorted(FEATURE_PROFILES)} or list codes",
            )
        return tuple(FEATURE_PROFILES[features]())
    return fields.listed(cfg, "features", str, ConfigError)


def _forbid_test_role(field: str, role: str) -> None:
    if role == "test":
        raise ConfigError(field, "refuses test-partition data during training/selection")


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    master = _master_seed(cfg, seed)
    try:
        spec = bench.SyntheticSpec(
            n_events=fields.get(cfg, "synthetic.n_events", int, ConfigError, 47),
            traces_per_event=fields.listed(
                cfg, "synthetic.traces_per_event", int, ConfigError, [30, 68], length=2
            ),
            n_noise=fields.get(cfg, "synthetic.n_noise", int, ConfigError, 4000),
            fs=fields.get(cfg, "synthetic.fs", float, ConfigError, 200.0),
            window_len=fields.get(cfg, "synthetic.window_len", int, ConfigError, 600),
            snr_range=fields.listed(
                cfg, "synthetic.snr_range", float, ConfigError, [1.5, 12.0], length=2
            ),
            seed=derive_seed(master, "synth"),
        )
    except ValueError as exc:
        raise ConfigError("synthetic", str(exc)) from exc
    records = bench.generate_synthetic(spec)
    out = _resolve(out_dir, fields.get(cfg, "output", str, ConfigError))
    write_waveforms(out, records, role="all")
    print(f"wrote {len(records)} records to {out}")


def cmd_split(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    master = _master_seed(cfg, seed)
    records, _role = read_waveforms(fields.get(cfg, "input", str, ConfigError))
    fractions = fields.listed(cfg, "fractions", float, ConfigError, [0.6, 0.2, 0.2], length=3)
    try:
        spec = bench.SplitSpec(
            fractions=fractions,
            seed=derive_seed(master, "split"),
        )
    except ValueError as exc:
        raise ConfigError("fractions", str(exc)) from exc
    split = bench.partition_by_event(records, spec)
    target = Path(_resolve(out_dir, fields.get(cfg, "output_dir", str, ConfigError)))
    target.mkdir(parents=True, exist_ok=True)
    for role, subset in (
        ("train", split.train),
        ("validation", split.validation),
        ("test", split.test),
    ):
        write_waveforms(target / f"{role}.jsonl", subset, role=role)
        print(f"wrote {len(subset)} records to {target / (role + '.jsonl')}")


def cmd_extract(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    pcfg = _preprocess_config(cfg)
    codes = _feature_codes(cfg)
    records, role = read_waveforms(fields.get(cfg, "input", str, ConfigError))
    if not records:
        raise ConfigError("input", "waveform file contains no records")
    registry = reproduction_registry()
    processed = [preprocess(r, pcfg) for r in records]
    vectors = extract_matrix(processed, registry, codes)
    out = _resolve(out_dir, fields.get(cfg, "output", str, ConfigError))
    write_matrix(out, vectors, role=role)
    print(f"wrote {len(vectors)} x {len(codes)} matrix to {out}")


def cmd_train(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    master = _master_seed(cfg, seed)
    matrix, role = read_matrix(fields.get(cfg, "input", str, ConfigError))
    _forbid_test_role("input", role)
    try:
        pen = PenaltyConfig(
            alpha=fields.get(cfg, "model.alpha", float, ConfigError, 0.9),
            lam=fields.get(cfg, "model.lambda", float, ConfigError, 0.01),
            penalize_bias=fields.get(cfg, "model.penalize_bias", bool, ConfigError, False),
        )
        opt = TrainOptions(
            max_iters=_positive(cfg, "optimizer.max_iters", int, 10_000),
            tol=_positive(cfg, "optimizer.tol", float, 1e-8),
            seed=derive_seed(master, "train"),
        )
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc
    threshold = fields.get(cfg, "threshold", float, ConfigError, None)
    if threshold is not None and not 0.0 < threshold < 1.0:
        raise ConfigError("threshold", f"must lie in (0, 1), got {threshold}")
    params = standardize_fit(matrix)
    model = train(standardize_apply(matrix, params), pen, opt)
    if threshold is not None:
        model = replace(model, threshold=threshold)
    out = _resolve(out_dir, fields.get(cfg, "output", str, ConfigError))
    save_model(out, ModelArtifact(model=model, standardization=params))
    nonzero = sum(1 for w in model.weights.values() if w != 0)
    print(
        f"wrote model to {out} "
        f"(converged={model.training_meta['converged']}, nonzero weights={nonzero})"
    )


def cmd_select(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    master = _master_seed(cfg, seed)
    train_matrix, train_role = read_matrix(fields.get(cfg, "train_input", str, ConfigError))
    val_matrix, val_role = read_matrix(fields.get(cfg, "validation_input", str, ConfigError))
    _forbid_test_role("train_input", train_role)
    _forbid_test_role("validation_input", val_role)
    grid = fields.listed(cfg, "ensemble.lambda_grid", float, ConfigError, None)
    try:
        ecfg = selection.EnsembleConfig(
            n_runs=fields.get(cfg, "ensemble.n_runs", int, ConfigError, 200),
            alpha=fields.get(cfg, "ensemble.alpha", float, ConfigError, 0.9),
            vary=selection.VariationFlags(
                seed=fields.get(cfg, "ensemble.vary.seed", bool, ConfigError, True),
                lambda_grid=fields.get(cfg, "ensemble.vary.lambda_grid", bool, ConfigError, True),
                subsample=fields.get(cfg, "ensemble.vary.subsample", bool, ConfigError, True),
            ),
            lambda_grid=grid or None,
            tie_tolerance=fields.get(cfg, "ensemble.tie_tolerance", float, ConfigError, 0.0),
            subsample_fraction=fields.get(cfg, "ensemble.subsample_fraction", float, ConfigError, 0.8),
            seed=derive_seed(master, "select"),
            max_iters=fields.get(cfg, "ensemble.max_iters", int, ConfigError, 500),
            tol=fields.get(cfg, "ensemble.tol", float, ConfigError, 1e-6),
        )
        rule = selection.SelectionRule(
            min_fraction_nonzero=fields.get(cfg, "rule.min_fraction_nonzero", float, ConfigError, 0.9),
            min_median_abs=fields.get(cfg, "rule.min_median_abs", float, ConfigError, 0.05),
        )
    except ValueError as exc:
        raise ConfigError("ensemble", str(exc)) from exc
    base = fields.listed(cfg, "base_features", str, ConfigError, list(selected_profile()[:4]))
    for i, code in enumerate(base):
        if code not in train_matrix.codes:
            raise ConfigError(f"base_features[{i}]", f"{code} is not a column of train_input")
    report_obj = selection.discover_features(train_matrix, val_matrix, ecfg, rule, base=base)
    out = _resolve(out_dir, fields.get(cfg, "output", str, ConfigError))
    selection.save_selection_report(out, report_obj)
    unconverged = [r.run_id for r in report_obj.runs if not r.converged]
    if unconverged:
        tied = len(set(unconverged) & set(report_obj.tie_set_ids))
        print(
            f"warning: {len(unconverged)} of {len(report_obj.runs)} ensemble runs stopped at "
            f"ensemble.max_iters={ecfg.max_iters} unconverged ({tied} in the tie-set)",
            file=sys.stderr,
        )
    dist_out = fields.get(cfg, "distribution_output", str, ConfigError, None)
    if dist_out:
        _write_distribution_table(_resolve(out_dir, dist_out), report_obj)
    print(
        f"wrote selection report to {out} "
        f"(tie-set={len(report_obj.tie_set_ids)}, selected={','.join(report_obj.selected)})"
    )


def _write_distribution_table(path: Path, rep: selection.SelectionReport) -> None:
    lines = ["code\tmin\tmax\tmedian\tmedian_abs\tmean_abs\tfraction_nonzero"]
    for row in rep.distribution.table():
        lines.append("\t".join([row[0]] + [repr(v) for v in row[1:]]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_sources(cfg: dict, trace_ids: Sequence[str]):
    model_paths = fields.table(cfg, "models", str, ConfigError, {})
    prediction_paths = fields.table(cfg, "predictions", str, ConfigError, {})
    models = {name: load_model(path) for name, path in model_paths.items()}
    predictions = {
        name: bench.ingest_predictions(path, trace_ids) for name, path in prediction_paths.items()
    }
    if not models and not predictions:
        raise ConfigError("models", "need at least one model or prediction source")
    return models, predictions


def cmd_eval(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    level = fields.get(cfg, "significance_level", float, ConfigError, 0.05)
    if not 0.0 < level < 1.0:
        raise ConfigError("significance_level", f"must lie in (0, 1), got {level}")
    matrix, _role = read_matrix(fields.get(cfg, "input", str, ConfigError))
    labels = matrix.labels
    models, predictions = _load_sources(cfg, matrix.trace_ids)
    per_source_preds = {name: art.predict_labels(matrix) for name, art in models.items()}
    for name, pred_map in predictions.items():
        per_source_preds[name] = [pred_map[tid] for tid in matrix.trace_ids]
    results = {name: report(labels, preds).to_dict() for name, preds in per_source_preds.items()}
    names = list(per_source_preds)
    comparisons = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            test = mcnemar_test(labels, per_source_preds[names[i]], per_source_preds[names[j]], level)
            comparisons.append({"a": names[i], "b": names[j], **test})
    payload = {
        "format": "quakebox-eval-v1",
        "significance_level": level,
        "sources": results,
        "mcnemar": comparisons,
    }
    out = _resolve(out_dir, fields.get(cfg, "output", str, ConfigError))
    Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    summary = ", ".join(f"{n}: mcc={results[n]['mcc']:.4f}" for n in names)
    print(f"wrote evaluation to {out} ({summary})")


def cmd_sweep(cfg: dict, seed: int | None, out_dir: str | None) -> None:
    master = _master_seed(cfg, seed)
    positives, _prole = read_matrix(fields.get(cfg, "positives_input", str, ConfigError))
    pool, _nrole = read_matrix(fields.get(cfg, "noise_pool_input", str, ConfigError))
    positives = positives.take(positives.is_event)
    pool = pool.take(~pool.is_event)
    ratios = fields.listed(cfg, "ratios", float, ConfigError, [1.73, 5.0, 10.0, 25.0, 50.0])
    try:
        spec = bench.RatioSpec(
            ratios=ratios,
            seed=derive_seed(master, "sweep"),
        )
    except ValueError as exc:
        raise ConfigError("ratios", str(exc)) from exc
    models, predictions = _load_sources(cfg, positives.trace_ids + pool.trace_ids)
    table = bench.sweep(models, positives, pool, spec, external_preds=predictions)
    out = _resolve(out_dir, fields.get(cfg, "output", str, ConfigError))
    bench.save_sweep(out, table)
    text_out = fields.get(cfg, "text_output", str, ConfigError, None)
    if text_out:
        Path(_resolve(out_dir, text_out)).write_text(table.render_text(), encoding="utf-8")
    print(f"wrote sweep grid to {out}")
    print(table.render_text(), end="")


COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "extract": cmd_extract,
    "train": cmd_train,
    "select": cmd_select,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quakebox",
        description="White-box earthquake detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("-c", "--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out-dir", default=None, help="directory prefix for relative outputs")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        COMMANDS[args.command](cfg, args.seed, args.out_dir)
    except QuakeboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing input, or an output directory that does not exist
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
