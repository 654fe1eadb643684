"""Hyperparameter selection from analysis grids.

The harness sweeps a per-(step, layer) score table for each capability,
ranks layers by their step-averaged score, and picks the readout step from
the per-step curve averaged over a layer set. Mask grids hold
intersection-over-union (higher is better): the chosen step is the first
one exceeding 95% of the curve's maximum. Match grids hold matching error
(lower is better): the chosen step is the first one within 105% of the
curve's minimum.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

QUALITY = "quality"
COST = "cost"


def read_csv_records(path, header: tuple[str, ...], types, what: str):
    """Yield (line number, values) for each record of a CSV table with `header`,
    field i parsed by `types[i]`; ValueError naming the line of a bad record,
    also of one the csv module refuses (a field over its size limit)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != list(header):
                raise ValueError(f"unexpected {what} header {got}")
            for rec in reader:
                where = f"{what} line {reader.line_num}"
                if len(rec) != len(header):
                    raise ValueError(f"{where}: {len(rec)} fields, the header has {len(header)}")
                try:
                    values = tuple(t(f) for t, f in zip(types, rec))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if not all(math.isfinite(v) for v in values):
                    raise ValueError(f"{where}: non-finite value")
                yield reader.line_num, values
        except csv.Error as exc:
            raise ValueError(f"{what} line {reader.line_num}: {exc}") from None


@dataclass(frozen=True)
class AnalysisGrid:
    """A (steps x layers) score table with explicit axis labels."""

    steps: tuple[int, ...]
    layers: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (len(self.steps), len(self.layers)):
            raise ValueError(
                f"grid shape {v.shape} does not match {len(self.steps)} steps "
                f"x {len(self.layers)} layers"
            )
        if not np.isfinite(v).all():
            raise ValueError("grid holds non-finite entries")
        object.__setattr__(self, "values", v)

    def value(self, step: int, layer: int) -> float:
        return float(self.values[self.steps.index(step), self.layers.index(layer)])

    def step_curve(self, layers=None) -> np.ndarray:
        """Per-step mean over a layer subset (default: all layers). A
        ValueError names the subset's layers the grid lacks, and its own."""
        if layers is None:
            return self.values.mean(axis=1)
        layers = [int(l) for l in layers]
        if not layers:
            raise ValueError("empty layer subset")
        missing = [l for l in layers if l not in self.layers]
        if missing:
            raise ValueError(f"grid has no layer {missing}; its layers are {list(self.layers)}")
        return self.values[:, [self.layers.index(l) for l in layers]].mean(axis=1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "layer", "value"])
            for i, step in enumerate(self.steps):
                for j, layer in enumerate(self.layers):
                    writer.writerow([step, layer, repr(float(self.values[i, j]))])

    @classmethod
    def read_csv(cls, path) -> "AnalysisGrid":
        cells = {}
        for line, (step, layer, value) in read_csv_records(
            path, ("step", "layer", "value"), (int, int, float), "grid"
        ):
            if (step, layer) in cells:
                raise ValueError(f"grid line {line}: a second value for step {step} layer {layer}")
            cells[(step, layer)] = value
        steps = tuple(sorted({k[0] for k in cells}))
        layers = tuple(sorted({k[1] for k in cells}))
        values = np.full((len(steps), len(layers)), np.nan)
        for (s, l), v in cells.items():
            values[steps.index(s), layers.index(l)] = v
        if np.isnan(values).any():
            raise ValueError("grid csv is not a complete step x layer table")
        return cls(steps=steps, layers=layers, values=values)


def select_tau_mask(curve) -> int:
    """First step exceeding 95% of the curve's maximum.

    The curve is per-step quality (intersection-over-union) averaged over a
    layer set. Degenerate curves whose maximum is not positive fall back to
    the earliest maximum.
    """
    c = np.asarray(curve, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty per-step curve")
    hits = np.flatnonzero(c > 0.95 * c.max())
    return int(hits[0]) if hits.size else int(np.argmax(c))


def select_tau_match(curve) -> int:
    """First step within 105% of the curve's minimum.

    The curve is per-step matching error averaged over a layer set. Negative
    curves (which the rule's threshold would exclude entirely) fall back to
    the earliest minimum.
    """
    c = np.asarray(curve, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty per-step curve")
    hits = np.flatnonzero(c <= 1.05 * c.min())
    return int(hits[0]) if hits.size else int(np.argmin(c))


def _top_k(labels, scores, k: int, descending: bool) -> tuple[int, ...]:
    """The k labels with the best scores, ascending; ties go to the lower label."""
    if not 1 <= k <= len(labels):
        raise ValueError(f"k={k} out of range for {len(labels)} layers")
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((labels, -scores if descending else scores))
    return tuple(sorted(int(l) for l in labels[order[:k]]))


def select_layers(grid: AnalysisGrid, k: int, kind: str = QUALITY) -> tuple[int, ...]:
    """Top-k layers by step-averaged score; ties go to the lower layer index.

    Quality grids rank descending, cost grids ascending.
    """
    if kind not in (QUALITY, COST):
        raise ValueError(f"unknown grid kind {kind!r}")
    return _top_k(grid.layers, grid.values.mean(axis=0), k, kind == QUALITY)


def select_vital(drops: dict[int, float], k: int) -> tuple[int, ...]:
    """Layers whose removal hurts most: top-k by score drop, descending."""
    return _top_k(list(drops), list(drops.values()), k, True)
