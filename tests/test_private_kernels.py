"""The private numpy and scipy kernels the package calls past their public
wrappers (README, "Private kernels").

They are not public API: a numpy or scipy release may rename or drop one.
numpy 1.x, for one, has no ``_umath_linalg.lstsq``.  Each test names the
kernel that is missing, and the last one keeps the list in step with the
source.
"""

import importlib
import re
from pathlib import Path

import pytest

KERNELS = [
    ("numpy.linalg._umath_linalg", "cholesky_lo"),  # model: the active-set Cholesky factor
    ("numpy.linalg._umath_linalg", "solve1"),  # model: the active-set solve
    ("numpy.linalg._umath_linalg", "lstsq"),  # waveform.detrend_linear: every row's line fit
    ("scipy.signal._sosfilt", "_sosfilt"),  # waveform._filtfilt: both filter passes
]

SRC = Path(__file__).resolve().parents[1] / "src" / "quakebox"


@pytest.mark.parametrize("module,name", KERNELS, ids=[f"{m}.{n}" for m, n in KERNELS])
def test_kernel_is_importable(module, name):
    try:
        kernel = getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError) as exc:
        pytest.fail(f"private kernel {module}.{name} is missing ({type(exc).__name__}: {exc})")
    assert callable(kernel), f"private kernel {module}.{name} is not callable"


def test_every_private_kernel_the_source_calls_is_listed():
    called = set()
    for path in SRC.rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        called |= {("numpy.linalg._umath_linalg", n) for n in re.findall(r"_umath_linalg\.(\w+)", text)}
        called |= {(m, n) for m, n in re.findall(r"from (scipy\.[\w.]*\._\w+) import (\w+)", text)}
    assert called == set(KERNELS)
