"""The traced benchmark run hooks quakebox functions by name.

A hook whose target was renamed or removed is only counted as
``trace.hooks_absent`` at run time; here it fails the suite instead.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while they are built
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_resolves():
    tracing = _load_tracing()
    rec = tracing.Recorder()
    with tracing.installed(tracing.HOOKS, rec):
        pass
    assert tracing.HOOKS
    assert rec.absent == []
