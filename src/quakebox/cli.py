"""Command-line front door.

Every subcommand checks its whole JSON config, refusing unknown keys,
before it opens a file; honors ``--seed`` as a master-seed override; and
writes byte-deterministic artifacts: the same config and seed always
reproduce the same files.  Training and selection refuse inputs tagged
with the test role; evaluation commands take anything, but warn on stderr
about an input tagged train or validation.

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
from functools import cache
from pathlib import Path
from typing import Any, Mapping, Sequence

from . import bench, fields, selection
from .errors import ConfigError, QuakeboxError
from .features import (
    BASE_FEATURES,
    FeatureMatrix,
    FeatureRegistry,
    canonical_registry,
    constant_codes,
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
# ``preprocess`` is the one-record form of ``preprocess_records``; perfbench's
# traced run rebinds it here, so it stays importable from this module
from .waveform import PreprocessConfig, preprocess, preprocess_records  # noqa: F401
from .waveform_io import read_waveforms, write_waveforms

FEATURE_PROFILES = {
    "canonical22": lambda: canonical_registry().codes(),
    "discovery26": lambda: reproduction_registry().codes(),
    "selected8": selected_profile,
}


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    with fields.text_file(path) as fh:
        return fields.document(fh.read(), path)


def _known(cfg: Mapping[str, Any], *keys: str) -> None:
    """Refuses a top-level key the command does not read; every command takes ``master_seed``."""
    fields.known(cfg, {"master_seed", *keys}, ConfigError)


def _feature_codes(cfg: Mapping[str, Any], registry: FeatureRegistry):
    features = cfg.get("features", "discovery26")
    if isinstance(features, str):
        if features not in FEATURE_PROFILES:
            raise ConfigError(
                "features",
                f"unknown profile {features!r}; choose from {sorted(FEATURE_PROFILES)} or list codes",
            )
        return tuple(FEATURE_PROFILES[features]())
    codes = fields.listed(cfg, "features", str, ConfigError)
    if not codes:
        raise ConfigError("features", "must list at least one feature code")
    for i, code in enumerate(codes):
        if code not in registry:
            raise ConfigError(f"features[{i}]", f"{code} is not a registered feature code")
    fields.refuse_repeats("features", codes, ConfigError)
    return codes


def _columns_of(field: str, path: str, matrix: FeatureMatrix, codes: Sequence[str], of: str) -> FeatureMatrix:
    """The matrix read from ``path`` at ``field`` on ``codes``, the columns of
    the input at ``of``: it may hold more columns, but none fewer."""
    missing = [code for code in codes if code not in matrix.codes]
    if missing:
        raise ConfigError(field, f"{path} lacks feature(s) {', '.join(missing)} of {of}")
    return matrix.columns(codes)


def _source_paths(cfg: Mapping[str, Any]) -> tuple[dict, dict]:
    models = fields.table(cfg, "models", str, ConfigError, {})
    predictions = fields.table(cfg, "predictions", str, ConfigError, {})
    if not models and not predictions:
        raise ConfigError("models", "need at least one model or prediction source")
    for name in predictions:
        if name in models:
            raise ConfigError(f"predictions.{name}", "names a source already in models")
    return models, predictions


def _load_sources(paths: tuple[dict, dict]) -> dict:
    return {**{n: replace(load_model(p), source=f"models.{n}: {p}") for n, p in paths[0].items()},
            **{n: bench.ingest_predictions(p) for n, p in paths[1].items()}}


def _forbid_test_role(field: str, role: str) -> None:
    if role == "test":
        raise ConfigError(field, "refuses test-partition data during training/selection")


def _warn_on_fitting_role(field: str, source: str, role: str) -> None:
    if role in ("train", "validation"):
        print(f"warning: {field}: {source} is tagged role={role}, so its scores are not held out",
              file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands: each reads and checks its whole config before it opens a file


def cmd_synth(cfg: dict, master: int) -> None:
    spec = fields.spec(bench.SyntheticSpec, cfg, "synthetic", ConfigError,
                       seed=derive_seed(master, "synth"))
    out = fields.get(cfg, "output", str, ConfigError)
    _known(cfg, "synthetic", "output")
    records = bench.generate_synthetic(spec)
    write_waveforms(out, records, role="all")
    print(f"wrote {len(records)} records to {out}")


def cmd_split(cfg: dict, master: int) -> None:
    spec = fields.spec(bench.SplitSpec, cfg, "", ConfigError, seed=derive_seed(master, "split"))
    source = fields.get(cfg, "input", str, ConfigError)
    target = Path(fields.get(cfg, "output_dir", str, ConfigError))
    _known(cfg, "fractions", "input", "output_dir")
    records, role = read_waveforms(source)
    if role != "all":  # a partition split again would be written out under new roles
        raise ConfigError("input", f"{source} is tagged role={role}; split takes an unsplit file (role=all)")
    split = bench.partition_by_event(records, spec)
    target.mkdir(parents=True, exist_ok=True)
    for role, subset in (
        ("train", split.train),
        ("validation", split.validation),
        ("test", split.test),
    ):
        write_waveforms(target / f"{role}.jsonl", subset, role=role)
        print(f"wrote {len(subset)} records to {target / (role + '.jsonl')}")


def cmd_extract(cfg: dict, master: int) -> None:
    pcfg = fields.spec(PreprocessConfig, cfg, "preprocess", ConfigError)
    registry = reproduction_registry()
    codes = _feature_codes(cfg, registry)
    source = fields.get(cfg, "input", str, ConfigError)
    out = fields.get(cfg, "output", str, ConfigError)
    _known(cfg, "preprocess", "features", "input", "output")
    records, role = read_waveforms(source)
    if not records:
        raise ConfigError("input", "waveform file contains no records")
    vectors = extract_matrix(preprocess_records(records, pcfg), registry, codes)
    write_matrix(out, vectors, role=role)
    print(f"wrote {len(vectors)} x {len(codes)} matrix to {out}")


def cmd_train(cfg: dict, master: int) -> None:
    pen = fields.spec(PenaltyConfig, cfg, "model", ConfigError)
    opt = fields.spec(TrainOptions, cfg, "optimizer", ConfigError)
    if not opt.tol > 0:
        raise ConfigError("optimizer.tol", f"must be positive, got {opt.tol}")
    threshold = fields.get(cfg, "threshold", float, ConfigError, None)
    if threshold is not None and not 0.0 < threshold < 1.0:
        raise ConfigError("threshold", f"must lie in (0, 1), got {threshold}")
    source = fields.get(cfg, "input", str, ConfigError)
    out = fields.get(cfg, "output", str, ConfigError)
    _known(cfg, "model", "optimizer", "threshold", "input", "output")
    matrix, role = read_matrix(source)
    _forbid_test_role("input", role)
    params = standardize_fit(matrix)
    model = train(standardize_apply(matrix, params), pen, opt)
    if threshold is not None:
        model = replace(model, threshold=threshold)
    save_model(out, ModelArtifact(model=model, standardization=params))
    if not model.training_meta["converged"]:
        print(f"warning: training stopped at optimizer.max_iters={opt.max_iters} outer steps "
              f"unconverged: its last step moved more than optimizer.tol={opt.tol}", file=sys.stderr)
    nonzero = sum(1 for w in model.weights.values() if w != 0)
    print(
        f"wrote model to {out} "
        f"(converged={model.training_meta['converged']}, nonzero weights={nonzero})"
    )


def cmd_select(cfg: dict, master: int) -> None:
    ecfg = fields.spec(selection.EnsembleConfig, cfg, "ensemble", ConfigError,
                       seed=derive_seed(master, "select"))
    if not ecfg.tol > 0:
        raise ConfigError("ensemble.tol", f"must be positive, got {ecfg.tol}")
    rule = fields.spec(selection.SelectionRule, cfg, "rule", ConfigError)
    base = fields.listed(cfg, "base_features", str, ConfigError, list(BASE_FEATURES))
    train_source = fields.get(cfg, "train_input", str, ConfigError)
    val_source = fields.get(cfg, "validation_input", str, ConfigError)
    out = fields.get(cfg, "output", str, ConfigError)
    dist_out = fields.get(cfg, "distribution_output", str, ConfigError, None)
    _known(cfg, "ensemble", "rule", "base_features", "train_input", "validation_input", "output",
           "distribution_output")
    train_matrix, train_role = read_matrix(train_source)
    val_matrix, val_role = read_matrix(val_source)
    _forbid_test_role("train_input", train_role)
    _forbid_test_role("validation_input", val_role)
    for i, code in enumerate(base):
        if code not in train_matrix.codes:
            raise ConfigError(f"base_features[{i}]", f"{code} is not a column of train_input")
    fields.refuse_repeats("base_features", base, ConfigError)
    val_matrix = _columns_of("validation_input", val_source, val_matrix, train_matrix.codes, "train_input")
    constant = constant_codes(train_matrix)
    if constant:
        print(f"warning: train_input: {', '.join(constant)} constant in all {len(train_matrix)} rows of "
              f"{train_source}; set aside, weight 0.0 in every run", file=sys.stderr)
    try:
        report_obj = selection.discover_features(train_matrix, val_matrix, ecfg, rule, base=base)
    except ConfigError as exc:  # the default grid's own check, named as the config's fields
        raise ConfigError("train_input", f"{train_source}: {exc.reason}; set ensemble.{exc.field}") from None
    selection.save_selection_report(out, report_obj)
    unconverged = [r.run_id for r in report_obj.runs if not r.converged]
    if unconverged:
        tied = len(set(unconverged) & set(report_obj.tie_set_ids))
        print(
            f"warning: {len(unconverged)} of {len(report_obj.runs)} ensemble runs stopped at "
            f"ensemble.max_iters={ecfg.max_iters} unconverged ({tied} in the tie-set)",
            file=sys.stderr,
        )
    n_tied = len(report_obj.tie_set_ids)
    if len(report_obj.runs) > 1 and n_tied == len(report_obj.runs):
        top = max(r.val_mcc for r in report_obj.runs)
        print(f"warning: all {len(report_obj.runs)} runs tie at validation MCC {top:.4f}: "
              "the validation split does not rank them", file=sys.stderr)
    if selection.demands_unanimity(rule, n_tied):
        print(f"warning: the tie-set holds {n_tied} of {len(report_obj.runs)} runs, so "
              f"rule.min_fraction_nonzero={rule.min_fraction_nonzero} keeps only the codes "
              f"nonzero in all {n_tied}", file=sys.stderr)
    if dist_out:
        selection.save_distribution_table(dist_out, report_obj.distribution)
    print(
        f"wrote selection report to {out} "
        f"(tie-set={len(report_obj.tie_set_ids)}, selected={','.join(report_obj.selected)})"
    )


def cmd_eval(cfg: dict, master: int) -> None:
    level = fields.get(cfg, "significance_level", float, ConfigError, 0.05)
    if not 0.0 < level < 1.0:
        raise ConfigError("significance_level", f"must lie in (0, 1), got {level}")
    source = fields.get(cfg, "input", str, ConfigError)
    paths = _source_paths(cfg)
    out = fields.get(cfg, "output", str, ConfigError)
    _known(cfg, "significance_level", "input", "models", "predictions", "output")
    matrix, role = read_matrix(source)
    _warn_on_fitting_role("input", source, role)
    labels = matrix.labels
    sources = _load_sources(paths)
    per_source_preds = {name: src.predict_labels(matrix) for name, src in sources.items()}
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
    Path(out).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="\n")
    summary = ", ".join(f"{n}: mcc={results[n]['mcc']:.4f}" for n in names)
    print(f"wrote evaluation to {out} ({summary})")


def cmd_sweep(cfg: dict, master: int) -> None:
    spec = fields.spec(bench.RatioSpec, cfg, "", ConfigError, seed=derive_seed(master, "sweep"))
    positives_source = fields.get(cfg, "positives_input", str, ConfigError)
    pool_source = fields.get(cfg, "noise_pool_input", str, ConfigError)
    paths = _source_paths(cfg)
    out = fields.get(cfg, "output", str, ConfigError)
    text_out = fields.get(cfg, "text_output", str, ConfigError, None)
    _known(cfg, "ratios", "positives_input", "noise_pool_input", "models", "predictions", "output",
           "text_output")
    positives, positives_role = read_matrix(positives_source)
    pool, pool_role = read_matrix(pool_source)
    _warn_on_fitting_role("positives_input", positives_source, positives_role)
    _warn_on_fitting_role("noise_pool_input", pool_source, pool_role)
    pool = _columns_of("noise_pool_input", pool_source, pool, positives.codes, "positives_input")
    positives = positives.take(positives.is_event)
    pool = pool.take(~pool.is_event)
    if not positives:
        raise ConfigError("positives_input", f"{positives_source} holds no event rows")
    if not pool:
        raise ConfigError("noise_pool_input", f"{pool_source} holds no noise rows")
    sources = _load_sources(paths)
    table = bench.sweep(sources, positives, pool, spec)
    bench.save_sweep(out, table)
    if text_out:
        Path(text_out).write_text(table.render_text(), encoding="utf-8", newline="\n")
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="quakebox",
        description="White-box earthquake detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__)
        p.add_argument("-c", "--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        master = fields.get(cfg, "master_seed", int, ConfigError, 0)
        COMMANDS[args.command](cfg, master if args.seed is None else args.seed)
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
