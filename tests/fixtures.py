"""Deterministic selector fixtures.

The paper42 fixtures are separable score tables shaped so the selection
rules land exactly on that profile's published readout step and layer sets.
"""

from __future__ import annotations

import numpy as np

from bachkit.config import default_config
from bachkit.select import AnalysisGrid


def _paper_axes() -> tuple[tuple[int, ...], tuple[int, ...]]:
    cfg = default_config("paper42").model_config()
    return tuple(range(cfg.steps)), tuple(range(cfg.depth))


def paper_mask_grid() -> AnalysisGrid:
    """Quality grid whose best readout is step 10 over layers 5..19.

    Step response ramps linearly to a plateau at step 10; layer response is
    high on the target band with a slight inward tilt so ranks are strict.
    """
    steps, layers = _paper_axes()
    run = default_config("paper42")
    f = np.minimum(np.array(steps, dtype=np.float64) / run.tau_mask, 1.0)
    g = np.empty(len(layers))
    for l in layers:
        if l in run.mask_layers:
            g[l] = 0.95 - 0.001 * abs(l - 12)
        else:
            g[l] = 0.40 - 0.002 * l
    return AnalysisGrid(steps=steps, layers=layers, values=f[:, None] * g[None, :])


def paper_match_grid() -> AnalysisGrid:
    """Cost grid whose best readout is step 10 over layers 1..15."""
    steps, layers = _paper_axes()
    run = default_config("paper42")
    d = 0.05 * np.maximum(run.tau_match - np.array(steps, dtype=np.float64), 0.0)
    c = np.empty(len(layers))
    for l in layers:
        if l in run.match_layers:
            c[l] = 0.05 + 0.001 * abs(l - 8)
        else:
            c[l] = 0.60 + 0.002 * l
    return AnalysisGrid(steps=steps, layers=layers, values=d[:, None] + c[None, :])


def paper_vital_drops() -> dict[int, float]:
    """Per-layer skip-score drops ranking the published cache set on top."""
    run = default_config("paper42")
    depth = run.model_config().depth
    vital = set(run.kv_layers)
    drops = {}
    for l in range(depth):
        if l in vital:
            drops[l] = 2.0 - 0.01 * sorted(vital).index(l)
        else:
            drops[l] = 0.30 - 0.001 * l
    return drops

