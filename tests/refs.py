"""Test-side references that the package itself does not need.

`without_layer` is the reference for `forward(skip=)`: a model built
without one block. `frame_digest` and `planted_scorer` rig a skip sweep so
that only runs reproducing tabulated frames bit for bit register a drop.
`write_kv_cache_of_earlier_format` makes the cache files that readers must
refuse. `trace_keys` spells out the keys of a whole-run trace.
"""

import hashlib
import itertools
import struct
from dataclasses import replace

import numpy as np

from bachkit.dit import Model
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


def trace_keys(steps, layers, fields=("v2t", "attn_out")) -> list[tuple[int, int, str]]:
    """Every (step, layer, field) key over the given steps and layers."""
    return list(itertools.product(steps, layers, fields))
