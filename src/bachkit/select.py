"""Hyperparameter selection from analysis grids.

The harness sweeps a per-(step, layer) score table for each capability,
ranks layers by their step-averaged score, and picks the readout step from
the per-step curve averaged over a layer set. A grid names its measure,
and `GRID_MEASURES` says which way it is better. Mask grids hold
intersection-over-union (`iou`, higher is better): the chosen step is the
first one exceeding 95% of the curve's maximum. Match grids hold matching
error (`match_mse`, lower is better): the chosen step is the first one
within 105% of the curve's minimum.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

QUALITY = "quality"
COST = "cost"
GRID_MEASURES = {"iou": QUALITY, "match_mse": COST}  # a grid's measure -> which way is better
GRID_AXES = ("step", "layer")  # a grid's header: these, then its measure


def write_csv_records(path, header: tuple[str, ...], rows) -> None:
    """Write a CSV table: the `header` row, then each of `rows`. Floats are
    written as their `repr`; `read_csv_records` reads the table back."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_records(path, header: tuple[str, ...], types, what: str, key_columns: int):
    """Yield the header row's names past `header`, its first names (an empty
    tuple when `header` names every column), then (line number, values) for
    each record, field i parsed by `types[i]`. ValueError on a header row
    that does not start with `header` or is not as wide as `types`, naming
    the line of a bad record, also of one the csv module refuses (a field
    over its size limit), and of a record repeating an earlier one's first
    `key_columns` values (its key), checked after the caller's own checks."""
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, [])
            if got[:len(header)] != list(header) or len(got) != len(types):
                raise ValueError(f"unexpected {what} header {got}")
            yield tuple(got[len(header):])
            for rec in reader:
                where = f"{what} line {reader.line_num}"
                if len(rec) != len(types):
                    raise ValueError(f"{where}: {len(rec)} fields, the header has {len(types)}")
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
    """A (steps x layers) table of one measure, a key of `GRID_MEASURES`,
    with explicit axis labels."""

    steps: tuple[int, ...]
    layers: tuple[int, ...]
    values: np.ndarray
    measure: str

    def __post_init__(self):
        if self.measure not in GRID_MEASURES:
            raise ValueError(f"grid measure {self.measure!r} is none of {sorted(GRID_MEASURES)}")
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

    @property
    def kind(self) -> str:
        """QUALITY if the measure is better higher, COST if lower."""
        return GRID_MEASURES[self.measure]

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
        write_csv_records(path, (*GRID_AXES, self.measure), ((*c, v) for c, v in cells))

    @classmethod
    def read_csv(cls, path) -> "AnalysisGrid":
        records = read_csv_records(path, GRID_AXES, (int, int, float), "grid", 2)
        (measure,) = next(records)
        cells = {(step, layer): value for _, (step, layer, value) in records}
        steps = tuple(sorted({s for s, _ in cells}))
        layers = tuple(sorted({l for _, l in cells}))
        if len(cells) != len(steps) * len(layers):  # the reader refuses a repeated cell
            raise ValueError("grid csv is not a complete step x layer table")
        values = np.reshape([cells[s, l] for s in steps for l in layers], (len(steps), len(layers)))
        return cls(steps=steps, layers=layers, values=values, measure=measure)


def select_tau(curve, kind: str) -> int:
    """The readout step of a per-step curve averaged over a layer set.

    For a quality curve (intersection-over-union) it is the first step
    exceeding 95% of the maximum, for a cost curve (matching error) the first
    within 105% of the minimum. A curve no step passes (a quality maximum
    that is not positive, a negative cost curve) falls back to its earliest
    best step.
    """
    if kind not in (QUALITY, COST):
        raise ValueError(f"unknown grid kind {kind!r}")
    c = np.asarray(curve, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty per-step curve")
    best = int(np.argmax(c) if kind == QUALITY else np.argmin(c))
    hits = np.flatnonzero(c > 0.95 * c[best] if kind == QUALITY else c <= 1.05 * c[best])
    return int(hits[0]) if hits.size else best


def select_tau_mask(curve) -> int:
    """`select_tau` of a mask (quality) curve."""
    return select_tau(curve, QUALITY)


def select_tau_match(curve) -> int:
    """`select_tau` of a match (cost) curve."""
    return select_tau(curve, COST)


def _top_k(labels, scores, k: int, descending: bool) -> tuple[int, ...]:
    """The k labels with the best scores, ascending; ties go to the lower label."""
    if not 1 <= k <= len(labels):
        raise ValueError(f"k={k} out of range for {len(labels)} layers")
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((labels, -scores if descending else scores))
    return tuple(sorted(int(l) for l in labels[order[:k]]))


def select_layers(grid: AnalysisGrid, k: int, kind: str) -> tuple[int, ...]:
    """Top-k layers by step-averaged score; ties go to the lower layer index.

    Quality grids rank descending, cost grids ascending.
    """
    if kind not in (QUALITY, COST):
        raise ValueError(f"unknown grid kind {kind!r}")
    return _top_k(grid.layers, grid.values.mean(axis=0), k, kind == QUALITY)


def select_vital(drops: dict[int, float], k: int) -> tuple[int, ...]:
    """Layers whose removal hurts most: top-k by score drop, descending."""
    return _top_k(list(drops), list(drops.values()), k, True)
