"""Stand-ins for the four waveform features of the prior detection model.

The original four statistics are not published, so the registry ships four
documented surrogates under the same W1..W4 codes: amplitude (RMS), two
spectral shape measures, and a transient-energy ratio.  Experiments
parameterize the feature set, so these can be swapped for the real ones
without touching the pipeline.

Each function is a block kernel over a
:class:`~quakebox.features.registry.SeriesBlock`, one value per row.
Unlike the canonical catalog these read the raw (not standardized) rows:
amplitude and transient energy are exactly the information standardization
would destroy.  The two spectral measures share the block's power spectrum
of its demeaned raw rows (``block.power``), computed once per block.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .registry import SeriesBlock


def root_mean_square(block: SeriesBlock) -> np.ndarray:
    """RMS amplitude of the trace."""
    return np.sqrt(np.mean(block.raw**2, axis=1))


def dominant_frequency(block: SeriesBlock) -> np.ndarray:
    """Frequency (cycles/sample) of the largest nonzero spectral peak."""
    return (block.power[:, 1:].argmax(axis=1) + 1) / block.raw.shape[1]


def spectral_centroid(block: SeriesBlock) -> np.ndarray:
    """Power-weighted mean frequency (cycles/sample), DC excluded."""
    power = block.power[:, 1:]
    freqs = np.arange(1, power.shape[1] + 1) / block.raw.shape[1]
    return (freqs * power).sum(axis=1) / power.sum(axis=1)


def short_long_energy_ratio(block: SeriesBlock) -> np.ndarray:
    """Maximum short-window to long-window mean energy ratio (STA/LTA style).

    Both windows end at the same sample; the short window is n/20 samples
    (at least 2) and the long one n/5 (at least twice the short).  Positions
    whose long window carries no energy are skipped.
    """
    x = block.raw
    n = x.shape[1]
    short = max(2, n // 20)
    long = max(2 * short, n // 5)
    cum = np.zeros((len(x), n + 1))
    np.cumsum(x**2, axis=1, out=cum[:, 1:])
    sta = (cum[:, long:] - cum[:, long - short : n + 1 - short]) / short
    lta = (cum[:, long:] - cum[:, : n + 1 - long]) / long
    ratio = np.divide(sta, lta, out=np.full_like(sta, -np.inf), where=lta > 0)
    return ratio.max(axis=1)
