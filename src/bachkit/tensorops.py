"""Dense attention and rotary-encoding kernels shared by every other module.

All arrays are float32, row-major. There is exactly one attention
implementation in the package (`joint_attention`); everything that needs to
observe or perturb attention goes through it, so instrumentation sees the
same numbers the model computes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

DTYPE = np.float32

# Additive masking constant. Entries of an additive attention mask are either
# 0 (permitted) or NEG (forbidden). After the max-subtracted softmax, weights
# at NEG positions are flushed to exact zero.
NEG = DTYPE(-1e9)

# Rotary base frequency shared by all axis groups.
ROPE_BASE = 10000.0


def grid_positions(t: int, h: int, w: int) -> np.ndarray:
    """All grid positions in flat row-major order, as an (T*H*W, 3) int array.

    Flat index of (ti, hi, wi) is (ti * h + hi) * w + wi.
    """
    tt, hh, ww = np.meshgrid(np.arange(t), np.arange(h), np.arange(w), indexing="ij")
    return np.stack([tt.ravel(), hh.ravel(), ww.ravel()], axis=1).astype(np.int64)


def softmax_rows(x: np.ndarray, forbidden: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    Entries where the boolean `forbidden` is set get weight exactly zero,
    assigned explicitly rather than left to `exp` underflow, and the rest of
    the row renormalizes to sum 1.

    Raises:
        ValueError: on any NaN/inf input or a row with every entry forbidden.
    """
    x = np.asarray(x, dtype=DTYPE)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite input")
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    if forbidden is not None:
        if forbidden.all(axis=-1).any():
            raise ValueError("fully masked query row")
        e[forbidden] = DTYPE(0.0)
    return (e / np.sum(e, axis=-1, keepdims=True)).astype(DTYPE)


def joint_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    add_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Scaled dot-product attention over a joint token sequence.

    W = softmax(q k^T / sqrt(C) + add_mask), O = W v. The additive mask uses
    entries in {0, NEG}; rows of W are exactly zero at NEG positions and the
    remaining entries renormalize to sum 1.

    Args:
        q: (N, C) queries.
        k: (M, C) keys.
        v: (M, C) values.
        add_mask: optional (N, M) additive mask with entries in {0, NEG}.

    Returns:
        (W, O) with W of shape (N, M) and O of shape (N, C).

    Raises:
        ValueError: on dimension mismatch or a fully-masked query row.
    """
    q = np.asarray(q, dtype=DTYPE)
    k = np.asarray(k, dtype=DTYPE)
    v = np.asarray(v, dtype=DTYPE)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ValueError("q, k, v must be 2-D")
    if q.shape[1] != k.shape[1]:
        raise ValueError(f"channel mismatch: q has {q.shape[1]}, k has {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise ValueError(f"row mismatch: k has {k.shape[0]}, v has {v.shape[0]}")

    scale = DTYPE(1.0 / np.sqrt(q.shape[1]))
    scores = (q @ k.T) * scale
    forbidden = None
    if add_mask is not None:
        add_mask = np.asarray(add_mask, dtype=DTYPE)
        if add_mask.shape != scores.shape:
            raise ValueError(
                f"mask shape {add_mask.shape} does not match scores {scores.shape}"
            )
        scores = scores + add_mask
        forbidden = add_mask == NEG

    w = softmax_rows(scores, forbidden)
    o = (w @ v).astype(DTYPE)
    return w, o


def rope_group_slices(channels: int, ratio: Sequence[int] = (1, 1, 1)) -> list[slice]:
    """Split `channels` into three contiguous per-axis groups of even width.

    Group widths are proportional to `ratio`; the default is equal thirds.
    """
    if len(ratio) != 3:
        raise ValueError("ratio must have three entries")
    total = sum(ratio)
    widths = []
    for r in ratio:
        w = channels * r / total
        if w != int(w) or int(w) % 2 != 0:
            raise ValueError(
                f"channel width {channels} not divisible into even groups with ratio {tuple(ratio)}"
            )
        widths.append(int(w))
    edges = np.cumsum([0] + widths)
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def rope_pair_angles(group_width: int, base: float = ROPE_BASE) -> np.ndarray:
    """Base angles theta_j = base^(-2j/width) for the pairs of one axis group."""
    j = np.arange(group_width // 2, dtype=np.float64)
    return (base ** (-2.0 * j / group_width)).astype(DTYPE)


def rope_encode(
    x: np.ndarray,
    positions,
    ratio: Sequence[int] = (1, 1, 1),
    base: float = ROPE_BASE,
) -> np.ndarray:
    """Three-axis rotary encoding of row vectors at grid positions.

    Channels split into three contiguous groups for the (t, h, w) axes; within
    a group, adjacent channel pairs (2j, 2j+1) rotate by theta_j * coordinate.
    Rotations are orthogonal, so row norms are preserved, and the dot product
    of two encoded rows depends on positions only through their difference.

    Args:
        x: (N, C) rows to encode.
        positions: (N, 3) int array of (t, h, w) grid coordinates.

    Returns:
        (N, C) encoded rows.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    pos = np.asarray(positions)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {pos.shape}")
    if pos.shape[0] != x.shape[0]:
        raise ValueError(f"{pos.shape[0]} positions for {x.shape[0]} rows")

    out = x.copy()
    for axis, sl in enumerate(rope_group_slices(x.shape[1], ratio)):
        g = out[:, sl]
        width = g.shape[1]
        theta = rope_pair_angles(width, base)
        ang = pos[:, axis : axis + 1].astype(DTYPE) * theta[None, :]
        cos = np.cos(ang)
        sin = np.sin(ang)
        even = g[:, 0::2].copy()
        odd = g[:, 1::2].copy()
        g[:, 0::2] = even * cos - odd * sin
        g[:, 1::2] = even * sin + odd * cos
    return out


def cosine_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; zero rows stay zero."""
    x = np.asarray(x, dtype=DTYPE)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, DTYPE(1.0), norms)
    return (x / safe).astype(DTYPE)
