"""Foreground masks from video-to-text attention.

A pixel is called foreground when its mean attention weight onto the
character-segment prompt tokens is at least its mean weight onto the
background-segment tokens. Multi-layer extraction averages the head-averaged
video-to-text weight slices across the chosen layers before the comparison.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dit import PromptLayout
from .pgm import write_pgm
from .select import write_csv_records
from .tensorops import DTYPE

MASK_HEADER = ("frame", "h", "w", "fg")


def mask_from_slices(
    slices: list[np.ndarray],
    layout: PromptLayout,
    frames: int,
    height: int,
    width: int,
) -> np.ndarray:
    """Foreground verdicts, (frames, height, width), from weight slices each
    shaped (THW, L_text): the layers' average slice, then per pixel the
    character segment's mean weight against the background segment's. Ties
    go to foreground."""
    if not slices:
        raise ValueError("no weight slices to aggregate")
    if any(s.shape != slices[0].shape for s in slices):
        raise ValueError("weight slices disagree in shape")
    v2t = (np.sum(slices, axis=0, dtype=np.float64) / len(slices)).astype(DTYPE)
    if v2t.ndim != 2 or v2t.shape[1] != layout.total:
        raise ValueError(f"v2t shape {v2t.shape} does not match prompt layout")
    bg = v2t[:, layout.bg_slice].mean(axis=1)
    fg = v2t[:, layout.fg_slice].mean(axis=1)
    return (bg <= fg).reshape(frames, height, width)


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two boolean masks; two empty masks score 1."""
    if a.shape != b.shape:
        raise ValueError("mask shapes differ")
    union = np.logical_or(a, b).sum()
    if union == 0:
        return 1.0
    return float(np.logical_and(a, b).sum() / union)


def write_mask_pgms(mask: np.ndarray, base) -> list:
    """One P5 image per frame (0 background, 255 foreground): `<base>_f{t}.pgm`."""
    base = Path(base)
    paths = []
    for t, frame in enumerate(np.asarray(mask, dtype=bool)):
        p = base.with_name(f"{base.name}_f{t}.pgm")
        write_pgm(p, frame)
        paths.append(p)
    return paths


def write_mask_csv(mask: np.ndarray, path) -> None:
    """Flat per-pixel `MASK_HEADER` table with fg in {0, 1}."""
    m = np.asarray(mask, dtype=bool)
    cells = np.indices(m.shape).reshape(3, -1)
    write_csv_records(path, MASK_HEADER, np.vstack([cells, m.reshape(1, -1)]).T.tolist())


def write_mask(mask: np.ndarray, base) -> list:
    """`write_mask_pgms`, then `write_mask_csv` to `<base>.csv`; every path written."""
    write_mask_csv(mask, f"{base}.csv")
    return write_mask_pgms(mask, base) + [Path(f"{base}.csv")]

