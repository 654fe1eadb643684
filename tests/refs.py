"""Test-side references that the package itself does not need.

`without_layer` is the reference for `forward(skip=)`: a model built
without one block. `frame_digest` and `planted_scorer` rig a skip sweep so
that only runs reproducing tabulated frames bit for bit register a drop.
`write_kv_cache_of_earlier_format` makes the cache files that readers must
refuse. `trace_keys` spells out the keys of a whole-run trace.
`invert_decode` undoes `decode_video`. `random_grid` and `random_drops`
are the random tables that selection rules are checked on against
brute-force scans. `seeded_prompt` is the prompt embedding of the small
models, whose channels are too few to plant a scene on.
`write_container_of_entries` is the container writer for a list of
entries that holds them all in memory: the layout a store's save must
reproduce byte for byte, and the writer of the raw containers that the
readers are checked on.
"""

import hashlib
import itertools
import struct
from dataclasses import replace

import numpy as np

from bachkit.dit import (
    DECODE_GAIN,
    SIGNATURE_AMP,
    _DECODE_SEED,
    Model,
    PromptLayout,
    _orthogonal,
    _rng,
    channel_plan,
    patch_shape,
)
from bachkit.select import AnalysisGrid
from bachkit.tensorops import DTYPE
from bachkit.trace import MAGIC, VERSION


def without_layer(model: Model, layer: int) -> Model:
    """A depth-(d-1) model keeping the remaining blocks' weights."""
    keep = tuple(lw for i, lw in enumerate(model.layers) if i != layer)
    return replace(model, config=replace(model.config, depth=model.config.depth - 1), layers=keep)


def frame_digest(frame: np.ndarray) -> str:
    """Content hash of one decoded frame (row-major float32 bytes)."""
    return hashlib.sha256(np.ascontiguousarray(frame, dtype=DTYPE).tobytes()).hexdigest()


def planted_scorer(table: dict[str, float], default: float = 1.0):
    """Frame scorer keyed to planted content by digest.

    Frames whose hash appears in `table` get the tabulated value, everything
    else the default. Tabulating degraded frames at 0 with default 1 turns
    the sweep into a strict detector: only a run reproducing the tabulated
    video bit-for-bit registers a drop.
    """

    def score(frame: np.ndarray) -> float:
        return float(table.get(frame_digest(frame), default))

    return score


def write_kv_cache_of_earlier_format(path, step: int, layer: int, rows: int, cols: int) -> None:
    """A cache as written before caches held layer inputs: separate K (tag 3)
    and V (tag 4) records, zero-filled, as raw container bytes."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHI", MAGIC, VERSION, 0, 2))
        for i, tag in enumerate((3, 4)):
            fh.write(struct.pack("<IIHHIIQ", step, layer, tag, 0, rows, cols, i * rows * cols * 4))
        fh.write(bytes(2 * rows * cols * 4))


_ROLE_EMBED = 7  # the prompt streams' role tag, beside the model's weight-stream tags


def seeded_prompt(layout: PromptLayout, channels: int, seed: int = 0) -> np.ndarray:
    """A scene-less prompt embedding, (layout.total, channels): each of the
    bg, fg and action segments carries a seeded unit vector on the signature
    channels, scaled as a scene's signatures are; padding rows are zero."""
    amp = DTYPE(SIGNATURE_AMP)
    plan = channel_plan(channels)

    def seg_vector(tag: int) -> np.ndarray:
        rng = _rng(seed, tag, _ROLE_EMBED)
        v = np.zeros(channels, dtype=DTYPE)
        v[plan.signature] = rng.standard_normal(len(plan.signature)).astype(DTYPE)
        return amp * v / np.linalg.norm(v)

    rows = np.zeros((layout.total, channels), dtype=DTYPE)
    rows[layout.bg_slice] = seg_vector(0)
    rows[layout.fg_slice] = seg_vector(1)
    rows[layout.bg + layout.fg : layout.bg + layout.fg + layout.action] = seg_vector(2)
    return rows


def trace_keys(steps, layers, fields=("v2t", "attn_out")) -> list[tuple[int, int, str]]:
    """Every (step, layer, field) key over the given steps and layers."""
    return list(itertools.product(steps, layers, fields))


def invert_decode(video: np.ndarray, channels: int) -> np.ndarray:
    """Inverse of `decode_video` (up to float round-off)."""
    ph, pw = patch_shape(channels)
    t, hp, wp = video.shape
    h, w = hp // ph, wp // pw
    patches = video.reshape(t, h, ph, w, pw).transpose(0, 1, 3, 2, 4)
    y = np.arctanh(np.clip((patches.reshape(-1, channels) - 0.5) * 2.0, -1 + 1e-7, 1 - 1e-7))
    mix = _orthogonal(channels, _rng(_DECODE_SEED, channels))
    z = (y / DECODE_GAIN) @ mix
    return z.reshape(t, h, w, channels).astype(DTYPE)


def write_container_of_entries(entries, path) -> None:
    """Write distinct (step, layer, field-tag, matrix) entries as a container:
    header, table in key order, then the payloads, float32."""
    entries = sorted(entries, key=lambda e: e[:3])
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sHHI", MAGIC, VERSION, 0, len(entries)))
        offset = 0
        for step, layer, tag, a in entries:
            rows, cols = a.shape
            fh.write(struct.pack("<IIHHIIQ", step, layer, tag, 0, rows, cols, offset))
            offset += rows * cols * 4
        for *_, a in entries:
            fh.write(np.ascontiguousarray(a, dtype=DTYPE).tobytes())


def random_grid(seed: int, n_steps: int = 12, n_layers: int = 9) -> AnalysisGrid:
    """Uniform random score table on the unit interval; its measure is "iou",
    and the selection rules are checked on it in both directions."""
    rng = _rng(seed, 0xF1)
    return AnalysisGrid(
        steps=tuple(range(n_steps)),
        layers=tuple(range(n_layers)),
        values=rng.random((n_steps, n_layers)),
        measure="iou",
    )


def random_drops(seed: int, depth: int = 16) -> dict[int, float]:
    """Random per-layer drops (may include ties at zero)."""
    rng = _rng(seed, 0xF2)
    vals = np.round(rng.random(depth), 2)
    return {l: float(vals[l]) for l in range(depth)}
