"""Dense attention and rotary-encoding kernels shared by every other module.

All arrays are float32. There is exactly one attention implementation in
the package (`joint_attention`) and one softmax (`softmax_average`);
everything that needs to observe or perturb attention goes through them, so
instrumentation sees the same numbers the model computes.

`joint_attention` computes every head in one call: the (N, C) inputs are
viewed as `heads` stacks of C/heads channels. Its scores are held
key-major, as (heads, M keys, N queries), because numpy reduces down
contiguous columns two to three times faster than along rows of a few
hundred entries, and the per-query max and sum are the passes that
dominate at this size. The exponentials are multiplied with the values
before they are divided by their sums, as in FlashAttention (Dao et al.,
2022), which leaves out two passes over the scores. So the (N, C) output is
all a call computes; the normalized (heads, N, M) weights are formed only
for the block a caller asks `Attention.weights` or `Attention.head_mean`
for. An additive mask is
added transposed; `inject.region_mask` builds its mask in Fortran order so
that this add reads it contiguously.

A caller that evaluates attention many times passes a score buffer,
`joint_attention(..., out=buf)`: one C-contiguous float32 array that the
(heads, M, N) scores are formed in, as its first heads*M*N entries, through
`out=` on the score product, and that `softmax_average` then turns into the
exponentials in place. So the returned `Attention.exp` is a view of `buf`,
valid until the buffer's next use, and a loop of calls allocates no score
block. `dit.denoise` owns one such buffer per call (see `dit.forward`).
Without `out`, each call allocates its own scores.

The 1/sqrt(d) score scale is applied to the (N, C) queries before the score
product, not to the scores after it. When d is a power of four the scale is
a power of two, and both orders give the same bits (d = 16 in the shipped
profiles, d = 4 in the small test models); for other d they agree to float
round-off.

Rotary encoding splits the channels into equal thirds for the (t, h, w)
axes and uses one base frequency, `ROPE_BASE`, for all three. It comes in
two parts: `RotaryTable` holds the cos/sin of every rotary pair's angle at
a set of grid positions, and `rope_encode` applies the rotation. A model
computes its table once; rows of it encode any subset of positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DTYPE = np.float32

# Additive masking constant. Entries of an additive attention mask are either
# 0 (permitted) or NEG (forbidden). After the max subtraction, exp of a
# NEG-shifted score is exactly zero.
NEG = DTYPE(-1e9)

# Rotary base frequency shared by all axis groups.
ROPE_BASE = 10000.0


def grid_positions(t: int, h: int, w: int) -> np.ndarray:
    """All grid positions in flat row-major order, as an (T*H*W, 3) int array.

    Flat index of (ti, hi, wi) is (ti * h + hi) * w + wi.
    """
    tt, hh, ww = np.meshgrid(np.arange(t), np.arange(h), np.arange(w), indexing="ij")
    return np.stack([tt.ravel(), hh.ravel(), ww.ravel()], axis=1).astype(np.int64)


def scratch_block(buf: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray | None:
    """The first prod(shape) entries of the score buffer `buf` as a C-contiguous
    float32 view of `shape`, to pass as `out=`; None without a buffer.

    Raises:
        ValueError: if `buf` is not a C-contiguous float32 array of at least
            that many entries.
    """
    if buf is None:
        return None
    size = math.prod(shape)
    if buf.dtype != DTYPE or not buf.flags.c_contiguous or buf.size < size:
        raise ValueError(
            f"score buffer of {buf.size} {buf.dtype} entries cannot hold "
            f"{shape} float32 scores (it must be C-contiguous float32)"
        )
    return buf.reshape(-1)[:size].reshape(shape)


def softmax_average(
    scores: np.ndarray, values: np.ndarray, *, masked: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax-weighted average of `values`, normalized after the product.

    `scores` are key-major, (..., M keys, N queries), and `values` are
    (..., M, d). Each query's maximum over its keys is subtracted from
    `scores` in place, `exp` is applied in place, and the result

        out = (exp^T @ values) / sums,   sums = exp summed over the keys,

    is (..., N, d). `exp` (the overwritten `scores`) and `sums`, shaped
    (..., 1, N), are returned with it; `exp / sums` are the softmax weights.
    The maximum entry of every query has exp exactly 1, so each sum is at
    least 1 and finite input never gives a NaN.

    With `masked`, the scores carry the additive NEG at forbidden entries,
    whose exp is then exactly 0.

    Raises:
        ValueError: on any NaN/inf score, before anything is written; with
            `masked`, on a query whose maximum is at or below NEG/2, that
            is, one with every key forbidden.
    """
    col_max = np.max(scores, axis=-2, keepdims=True)
    # NaN propagates through both reductions; the minimum also catches -inf
    # and the query maxima +inf. `initial` keeps an empty input finite.
    if not (np.isfinite(scores.min(initial=0.0)) and np.isfinite(col_max).all()):
        raise ValueError("non-finite input")
    if masked and col_max.size and col_max.min() <= NEG / 2:
        raise ValueError("fully masked query row")
    exp = np.subtract(scores, col_max, out=scores)
    np.exp(exp, out=exp)
    sums = np.sum(exp, axis=-2, keepdims=True)
    out = np.swapaxes(exp, -1, -2) @ values
    out /= np.swapaxes(sums, -1, -2)
    return out, exp, sums


@dataclass(frozen=True)
class Attention:
    """What `joint_attention` returns: the (N, C) output and, on request,
    the softmax weights.

    The weights are held unnormalized and key-major, as the (heads, M, N)
    exponentials and their (heads, 1, N) sums over keys; `weights` and
    `head_mean` divide only the block they are asked for, into fresh
    arrays. When `joint_attention` was given a score buffer, `exp` is a view
    of it, so read the weights before the buffer is used again.
    """

    out: np.ndarray
    exp: np.ndarray = field(repr=False)
    sums: np.ndarray = field(repr=False)

    def weights(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """Normalized weights of the query `rows` over the key `cols`,
        (heads, rows, cols)."""
        return (self.exp[:, cols, rows] / self.sums[:, :, rows]).transpose(0, 2, 1)

    def head_mean(self, rows=slice(None), cols=slice(None)) -> np.ndarray:
        """The head average of `weights(rows, cols)`, (rows, cols).

        Heads are normalized and added one at a time in index order, so the
        float sum's bits are fixed and no (heads, rows, cols) array is formed.
        """
        exp, sums = self.exp[:, cols, rows], self.sums[:, :, rows]
        total = exp[0] / sums[0]
        for e, s in zip(exp[1:], sums[1:]):
            total += e / s
        total /= DTYPE(len(exp))
        return total.T


def joint_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    add_mask: np.ndarray | None = None,
    heads: int = 1,
    *,
    out: np.ndarray | None = None,
) -> Attention:
    """Multi-head scaled dot-product attention over a joint token sequence.

    Channels split into `heads` contiguous groups of d = C/heads. For each
    head h, W[h] = softmax(q_h k_h^T / sqrt(d) + add_mask) and its output
    W[h] v_h fills that head's channels of O. The additive mask is shared
    by every head and uses entries in {0, NEG}; rows of W are exactly zero
    at NEG positions and the remaining entries renormalize to sum 1.

    Args:
        q: (N, C) queries.
        k: (M, C) keys.
        v: (M, C) values.
        add_mask: optional (N, M) additive mask with entries in {0, NEG}.
            It is added transposed, so a Fortran-ordered mask is read
            contiguously.
        heads: number of attention heads; must divide C.
        out: optional C-contiguous float32 score buffer of at least
            heads*M*N entries. The scores are formed in its first entries,
            and the result's `exp` is a view of them.

    Returns:
        An `Attention` with `out` of shape (N, C) and `weights()` of shape
        (heads, N, M).

    Raises:
        ValueError: on dimension mismatch or a score buffer that cannot hold
            the scores, before anything is computed; on a non-finite score or
            a fully-masked query row.
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
    if heads < 1 or q.shape[1] % heads or v.shape[1] % heads:
        raise ValueError(f"{heads} heads do not divide {q.shape[1]} channels")
    n, m = q.shape[0], k.shape[0]
    if add_mask is not None:
        add_mask = np.asarray(add_mask, dtype=DTYPE)
        if add_mask.shape != (n, m):
            raise ValueError(f"mask shape {add_mask.shape} does not match scores {(n, m)}")
    block = scratch_block(out, (heads, m, n))

    def split(a):  # (rows, C) -> (heads, rows, C/heads) view
        return a.reshape(a.shape[0], heads, -1).transpose(1, 0, 2)

    scale = DTYPE(1.0 / np.sqrt(q.shape[1] // heads))
    scores = np.matmul(split(k), split(q * scale).transpose(0, 2, 1), out=block)
    if add_mask is not None:
        scores += add_mask.T

    o, exp, sums = softmax_average(scores, split(v), masked=add_mask is not None)
    return Attention(out=o.transpose(1, 0, 2).reshape(n, v.shape[1]), exp=exp, sums=sums)


def rope_group_slices(channels: int) -> list[slice]:
    """Split `channels` into three contiguous per-axis groups of equal, even
    width: the (t, h, w) thirds."""
    if channels % 6:
        raise ValueError(f"channel width {channels} not divisible into three even groups")
    w = channels // 3
    return [slice(0, w), slice(w, 2 * w), slice(2 * w, channels)]


def rope_pair_angles(group_width: int) -> np.ndarray:
    """Base angles theta_j = ROPE_BASE^(-2j/width) for the pairs of one axis group."""
    j = np.arange(group_width // 2, dtype=np.float64)
    return (ROPE_BASE ** (-2.0 * j / group_width)).astype(DTYPE)


@dataclass(frozen=True)
class RotaryTable:
    """cos/sin of every rotary pair's angle at N grid positions, (N, C/2) each.

    Pair j covers channels (2j, 2j+1). Indexing with rows selects the table
    of those positions, so one table computed for a whole grid serves every
    subset of it.
    """

    cos: np.ndarray
    sin: np.ndarray

    @classmethod
    def at(cls, positions, channels: int) -> "RotaryTable":
        """Table of (N, 3) int (t, h, w) grid coordinates for `channels`-wide rows."""
        pos = np.asarray(positions)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        ang = np.concatenate(
            [
                pos[:, axis : axis + 1].astype(DTYPE) * rope_pair_angles(sl.stop - sl.start)
                for axis, sl in enumerate(rope_group_slices(channels))
            ],
            axis=1,
        )
        return cls(cos=np.cos(ang), sin=np.sin(ang))

    def __len__(self) -> int:
        return self.cos.shape[0]

    def __getitem__(self, rows) -> "RotaryTable":
        return RotaryTable(cos=self.cos[rows], sin=self.sin[rows])


def rope_encode(x: np.ndarray, positions) -> np.ndarray:
    """Three-axis rotary encoding of row vectors at grid positions.

    Channels split into three equal contiguous groups for the (t, h, w) axes;
    within a group, adjacent channel pairs (2j, 2j+1) rotate by theta_j *
    coordinate, with theta_j from `rope_pair_angles` at base `ROPE_BASE`.
    Rotations are orthogonal, so row norms are preserved, and the dot product
    of two encoded rows depends on positions only through their difference.

    Args:
        x: (N, C) rows to encode.
        positions: (N, 3) int array of (t, h, w) grid coordinates, whose
            table is then computed for this call, or the `RotaryTable` of
            those positions, which a model computes once and reuses.

    Returns:
        (N, C) encoded rows.
    """
    x = np.asarray(x, dtype=DTYPE)
    if x.ndim != 2:
        raise ValueError("x must be 2-D")
    table = positions
    if not isinstance(table, RotaryTable):
        table = RotaryTable.at(positions, x.shape[1])
    if len(table) != x.shape[0]:
        raise ValueError(f"{len(table)} positions for {x.shape[0]} rows")
    if 2 * table.cos.shape[1] != x.shape[1]:
        raise ValueError(
            f"rotary table covers {2 * table.cos.shape[1]} channels, rows have {x.shape[1]}"
        )

    even, odd = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = even * table.cos - odd * table.sin
    out[:, 1::2] = even * table.sin + odd * table.cos
    return out


def cosine_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; zero rows stay zero."""
    x = np.asarray(x, dtype=DTYPE)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    safe = np.where(norms == 0.0, DTYPE(1.0), norms)
    return (x / safe).astype(DTYPE)
