"""Cross-generation point matching from attention outputs.

Attention-output rows of two runs are cosine-compared; each foreground pixel
of the frame run maps to the identity-run pixel with the highest similarity.
Multi-layer matching normalizes each layer's output rows first and sums the
per-layer similarity matrices, so no single layer's magnitude dominates. By
default candidates are restricted to the same frame index; global matching
searches the whole identity grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .select import write_csv_records
from .tensorops import cosine_normalize_rows

MATCH_HEADER = ("frame", "src_h", "src_w", "dst_t", "dst_h", "dst_w")


def _flat(cells: np.ndarray, height: int, width: int) -> np.ndarray:
    """Flat grid index of each (t, h, w) row of `cells`."""
    t, h, w = cells.T
    return (t * height + h) * width + w


@dataclass(frozen=True)
class MatchMap:
    """Foreground pixel correspondences, one row per source pixel.

    `rows` has columns (frame, src_h, src_w, dst_t, dst_h, dst_w), sorted by
    source pixel in row-major order.
    """

    rows: np.ndarray
    frames: int
    height: int
    width: int

    def as_lookup(self) -> np.ndarray:
        """(frames, height, width) int64 of flat destination indices, -1 where unmatched."""
        out = np.full((self.frames, self.height, self.width), -1, dtype=np.int64)
        out[tuple(self.rows[:, :3].T)] = _flat(self.rows[:, 3:], self.height, self.width)
        return out

    def write_csv(self, path) -> None:
        write_csv_records(path, MATCH_HEADER, self.rows.tolist())


def similarity(
    out_frame: list[np.ndarray],
    out_identity: list[np.ndarray],
) -> np.ndarray:
    """Summed per-layer cosine similarity between output rows, (THW, THW)."""
    if not out_frame or len(out_frame) != len(out_identity):
        raise ValueError("need the same nonempty layer list from both runs")
    n = out_frame[0].shape[0]
    acc = np.zeros((n, n), dtype=np.float64)
    for of, oi in zip(out_frame, out_identity):
        if of.shape != oi.shape or of.shape[0] != n:
            raise ValueError("attention-output shapes disagree between layers or runs")
        acc += cosine_normalize_rows(of).astype(np.float64) @ cosine_normalize_rows(
            oi
        ).astype(np.float64).T
    return acc


def match_foreground(
    sim: np.ndarray,
    fg_mask: np.ndarray,
    frames: int,
    height: int,
    width: int,
    global_match: bool = False,
) -> MatchMap:
    """Argmax-match each foreground pixel against identity-run pixels.

    `sim` is the (THW, THW) summed similarity and `fg_mask` the frame run's
    (frames, height, width) foreground mask. Ties resolve to the lowest
    destination index.
    """
    hw = height * width
    if sim.shape != (frames * hw, frames * hw):
        raise ValueError(f"similarity shape {sim.shape} does not match the grid")
    if fg_mask.shape != (frames, height, width):
        raise ValueError("mask shape does not match the grid")
    t, sh, sw = np.nonzero(fg_mask)
    p = sh * width + sw
    if global_match:
        dst = np.argmax(sim[t * hw + p], axis=1)
    else:
        dst = t * hw + np.argmax(sim.reshape(frames, hw, frames, hw)[t, p, t], axis=1)
    dt, dh, dw = np.unravel_index(dst, (frames, height, width))
    rows = np.stack([t, sh, sw, dt, dh, dw], axis=1).astype(np.int64)
    return MatchMap(rows=rows, frames=frames, height=height, width=width)


def _planted(found: MatchMap, true_lookup: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `found` that have a planted counterpart, and that counterpart."""
    want = true_lookup[tuple(found.rows[:, :3].T)]
    keep = want >= 0
    if not keep.any():
        raise ValueError("no matched pixels overlap the planted foreground")
    return found.rows[keep], want[keep]


def exact_fraction(found: MatchMap, true_lookup: np.ndarray) -> float:
    """Fraction of matched pixels agreeing with a planted correspondence.

    `true_lookup` is (frames, height, width) flat destination indices with -1
    marking pixels that have no planted counterpart; those rows are skipped.
    """
    rows, want = _planted(found, true_lookup)
    got = want == _flat(rows[:, 3:], found.height, found.width)
    return int(got.sum()) / len(want)


def match_mse(found: MatchMap, true_lookup: np.ndarray) -> float:
    """Mean squared in-frame coordinate error against a planted correspondence.

    Row and column errors are normalized by grid height and width, so one
    pixel off by a single column on an 8x8 grid scores (1/8)^2 = 1/64.
    Pixels without a planted counterpart (-1 in `true_lookup`) are skipped;
    a fully exact map scores 0.
    """
    rows, want = _planted(found, true_lookup)
    wh, ww = np.divmod(want % (found.height * found.width), found.width)
    err = ((rows[:, 4] - wh) / found.height) ** 2 + ((rows[:, 5] - ww) / found.width) ** 2
    # cumsum adds strictly left to right; np.sum blocks pairwise, which can move the last bit
    return float(np.cumsum(err)[-1]) / len(want)
