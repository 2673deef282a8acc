"""The exact bytes of the JSON records that reruns are compared on.

Criterion 8 compares a campaign with its own rerun, so a reordered or
renamed key would pass it; these tests pin each record's keys, their order
and the file layout against literal text.
"""

import json
import textwrap

from quakebox.bench import SweepTable, save_sweep
from quakebox.metrics import ConfusionMatrix, summarize
from quakebox.selection import (
    EnsembleRunResult,
    FeatureWeightStats,
    SelectionReport,
    SelectionRule,
    WeightDistribution,
    save_distribution_table,
    save_selection_report,
)


def two_run_report():
    runs = [
        EnsembleRunResult(run_id=0, val_mcc=0.5, config_used={"lambda": 0.1, "n_train": 8},
                          weights={"C1": 0.25, "C2": 0.0}, iterations=3, converged=True,
                          objective=0.625, kkt_residual=1e-7, nnz=1),
        EnsembleRunResult(run_id=1, val_mcc=0.5, config_used={"lambda": 0.01, "n_train": 8},
                          weights={"C1": 0.75, "C2": -0.5}, iterations=12, converged=False,
                          objective=0.375, kkt_residual=0.002, nnz=2),
    ]
    stats = {
        "C1": FeatureWeightStats(minimum=0.25, maximum=0.75, median=0.5, median_abs=0.5,
                                 mean_abs=0.5, fraction_nonzero=1.0),
        "C2": FeatureWeightStats(minimum=-0.5, maximum=0.0, median=-0.25, median_abs=0.25,
                                 mean_abs=0.25, fraction_nonzero=0.5),
    }
    return SelectionReport(runs=runs, tie_set_ids=[0, 1],
                           distribution=WeightDistribution(stats=stats, n_models=2),
                           selected=("C1",), rule=SelectionRule(min_fraction_nonzero=0.9, min_median_abs=0.05))


REPORT_TEXT = textwrap.dedent("""\
    {
      "format": "quakebox-selection-v1",
      "rule": {
        "min_fraction_nonzero": 0.9,
        "min_median_abs": 0.05
      },
      "selected": [
        "C1"
      ],
      "tie_set_ids": [
        0,
        1
      ],
      "n_tie_models": 2,
      "distribution": {
        "C1": {
          "min": 0.25,
          "max": 0.75,
          "median": 0.5,
          "median_abs": 0.5,
          "mean_abs": 0.5,
          "fraction_nonzero": 1.0
        },
        "C2": {
          "min": -0.5,
          "max": 0.0,
          "median": -0.25,
          "median_abs": 0.25,
          "mean_abs": 0.25,
          "fraction_nonzero": 0.5
        }
      },
      "runs": [
        {
          "run_id": 0,
          "val_mcc": 0.5,
          "config_used": {
            "lambda": 0.1,
            "n_train": 8
          },
          "weights": {
            "C1": 0.25,
            "C2": 0.0
          },
          "iterations": 3,
          "converged": true,
          "objective": 0.625,
          "kkt_residual": 1e-07,
          "nnz": 1
        },
        {
          "run_id": 1,
          "val_mcc": 0.5,
          "config_used": {
            "lambda": 0.01,
            "n_train": 8
          },
          "weights": {
            "C1": 0.75,
            "C2": -0.5
          },
          "iterations": 12,
          "converged": false,
          "objective": 0.375,
          "kkt_residual": 0.002,
          "nnz": 2
        }
      ]
    }
    """)


def test_selection_report_bytes(tmp_path):
    path = tmp_path / "selection.json"
    save_selection_report(path, two_run_report())
    assert path.read_text(encoding="utf-8") == REPORT_TEXT


def test_distribution_table_bytes(tmp_path):
    path = tmp_path / "distribution.tsv"
    save_distribution_table(path, two_run_report().distribution)
    assert path.read_text(encoding="utf-8") == (
        "code\tmin\tmax\tmedian\tmedian_abs\tmean_abs\tfraction_nonzero\n"
        "C1\t0.25\t0.75\t0.5\t0.5\t0.5\t1.0\n"
        "C2\t-0.5\t0.0\t-0.25\t0.25\t0.25\t0.5\n"
    )


def test_eval_cell_keys_in_order():
    cell = summarize(ConfusionMatrix(tp=3, tn=3, fp=1, fn=1)).to_dict()
    assert json.dumps(cell) == ('{"tp": 3, "tn": 3, "fp": 1, "fn": 1, "mcc": 0.5, "accuracy": 0.75, '
                                '"n_pos": 4, "n_neg": 4, "noise_ratio": 1.0}')


def test_sweep_file_bytes(tmp_path):
    table = SweepTable(sources=("lr",), ratios=(1.0, 2.0), reports={
        ("lr", 1.0): summarize(ConfusionMatrix(tp=3, tn=3, fp=1, fn=1)),
        ("lr", 2.0): summarize(ConfusionMatrix(tp=3, tn=7, fp=1, fn=1)),
    })
    path = tmp_path / "sweep.json"
    save_sweep(path, table)
    assert path.read_text(encoding="utf-8") == textwrap.dedent("""\
        {
          "format": "quakebox-sweep-v1",
          "sources": [
            "lr"
          ],
          "ratios": [
            1.0,
            2.0
          ],
          "cells": [
            {
              "source": "lr",
              "ratio": 1.0,
              "tp": 3,
              "tn": 3,
              "fp": 1,
              "fn": 1,
              "mcc": 0.5,
              "accuracy": 0.75,
              "n_pos": 4,
              "n_neg": 4,
              "noise_ratio": 1.0
            },
            {
              "source": "lr",
              "ratio": 2.0,
              "tp": 3,
              "tn": 7,
              "fp": 1,
              "fn": 1,
              "mcc": 0.625,
              "accuracy": 0.8333333333333334,
              "n_pos": 4,
              "n_neg": 8,
              "noise_ratio": 2.0
            }
          ]
        }
        """)
