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
import itertools
import math
from dataclasses import dataclass

import numpy as np

QUALITY = "quality"
COST = "cost"
GRID_HEADER = ("step", "layer", "value")


def write_csv_records(path, header: tuple[str, ...], rows) -> None:
    """Write a CSV table: the `header` row, then each of `rows`. Floats are
    written as their `repr`; `read_csv_records` reads the table back."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_records(path, header: tuple[str, ...], types, what: str, key_columns: int):
    """Yield (line number, values) for each record of a CSV table with `header`,
    field i parsed by `types[i]`; ValueError naming the line of a bad record,
    also of one the csv module refuses (a field over its size limit), and of
    a record repeating an earlier one's first `key_columns` values (its key),
    which is checked after the caller's own checks of that record."""
    seen = set()
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
                    finite = all(math.isfinite(v) for v in values)
                except (ValueError, OverflowError) as exc:  # an int past the float range
                    raise ValueError(f"{where}: {exc}") from None
                if not finite:
                    raise ValueError(f"{where}: non-finite value")
                yield reader.line_num, values
                key = values[:key_columns]  # checked once the caller has checked the record
                if key in seen:
                    named = " ".join(f"{n} {v}" for n, v in zip(header, key))
                    raise ValueError(f"{where}: a second row for {named}")
                seen.add(key)
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
        if not v.size:
            raise ValueError("grid holds no cells")
        if not np.isfinite(v).all():
            raise ValueError("grid holds non-finite entries")
        object.__setattr__(self, "values", v)

    def step_curve(self, layers=None) -> np.ndarray:
        """Per-step mean over a layer subset (default: all layers). A
        ValueError names the first of the subset's layers the grid lacks,
        how many it lacks, and how many layers the grid has."""
        if layers is None:
            return self.values.mean(axis=1)
        layers = [int(l) for l in layers]
        if not layers:
            raise ValueError("empty layer subset")
        missing = sorted(set(layers) - set(self.layers))
        if missing:
            raise ValueError(f"grid has no layer {missing[0]} ({len(missing)} layer(s) missing) "
                             f"among its {len(self.layers)} layers")
        return self.values[:, [self.layers.index(l) for l in layers]].mean(axis=1)

    def write_csv(self, path) -> None:
        cells = zip(itertools.product(self.steps, self.layers), self.values.ravel().tolist())
        write_csv_records(path, GRID_HEADER, ((step, layer, v) for (step, layer), v in cells))

    @classmethod
    def read_csv(cls, path) -> "AnalysisGrid":
        cells = {(step, layer): value for _, (step, layer, value)
                 in read_csv_records(path, GRID_HEADER, (int, int, float), "grid", 2)}
        steps = tuple(sorted({s for s, _ in cells}))
        layers = tuple(sorted({l for _, l in cells}))
        if len(cells) != len(steps) * len(layers):  # the reader refuses a repeated cell
            raise ValueError("grid csv is not a complete step x layer table")
        values = [cells[s, l] for s in steps for l in layers]
        return cls(steps=steps, layers=layers, values=np.reshape(values, (len(steps), len(layers))))


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
