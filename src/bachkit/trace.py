"""Attention traces and their binary container.

A trace holds per-(step, layer) attention internals captured during a
denoising run: head-averaged video-to-text weight slices and attention
outputs. Traces and layer-input caches round-trip bit-exactly
through a small binary container (magic "BVTR"): a fixed-size little-endian
entry table followed by raw float32 payloads.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dit import Hooks
from .tensorops import DTYPE

MAGIC = b"BVTR"
VERSION = 1

FIELD_V2T = 1
FIELD_ATTN_OUT = 2
# A layer's input rows. Tags 3 and 4 stay unused, so that caches of the earlier
# format (separate K and V records) are refused as unknown tags.
FIELD_X = 5

FIELD_NAMES = {FIELD_V2T: "v2t", FIELD_ATTN_OUT: "attn_out", FIELD_X: "x"}
FIELD_TAGS = {name: tag for tag, name in FIELD_NAMES.items()}

_HEADER = struct.Struct("<4sHHI")
_ENTRY = struct.Struct("<IIHHIIQ")


def write_container(entries: list[tuple[int, int, int, np.ndarray]], path) -> None:
    """Write (step, layer, field-tag, matrix) entries; sorted, f32 LE.

    Raises:
        ValueError: before anything is written, for an entry that is not a
            matrix, an unknown tag or a (step, layer, tag) key given twice.
    """
    norm = []
    for step, layer, tag, arr in entries:
        a = np.ascontiguousarray(arr, dtype=DTYPE)
        if a.ndim != 2:
            raise ValueError(f"container entries must be matrices, got shape {a.shape}")
        if tag not in FIELD_NAMES:
            raise ValueError(f"unknown field tag {tag}")
        norm.append((int(step), int(layer), int(tag), a))
    norm.sort(key=lambda e: e[:3])
    for prev, cur in zip(norm, norm[1:]):
        if prev[:3] == cur[:3]:
            raise ValueError(f"two entries have the key (step, layer, tag) {cur[:3]}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(norm)))
        offset = 0
        for step, layer, tag, a in norm:
            fh.write(_ENTRY.pack(step, layer, tag, 0, a.shape[0], a.shape[1], offset))
            offset += a.nbytes
        for _, _, _, a in norm:
            fh.write(a.tobytes())


class TableEntry(NamedTuple):
    """One checked entry of a container's table; `offset` counts from the
    start of the file."""

    step: int
    layer: int
    tag: int
    rows: int
    cols: int
    offset: int

    @property
    def nbytes(self) -> int:
        return self.rows * self.cols * 4


def read_table(fh) -> list[TableEntry]:
    """Read and check the header and entry table of the container open in `fh`.

    Every tag must be a known field, the (step, layer, tag) keys must be
    strictly increasing, and the payloads must lie back to back in table
    order from the end of the table and end exactly at the end of the file,
    as `write_container` lays them out. No payload is read; `fh` is left at
    the first one.

    Raises:
        ValueError: for a bad magic or version, an unknown field tag, keys
            out of order or repeated, a truncated file, misplaced payloads or
            trailing bytes.
    """
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size or head[:4] != MAGIC:
        raise ValueError("not a trace container (bad magic)")
    _, version, _, count = _HEADER.unpack(head)
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    table_end = _HEADER.size + count * _ENTRY.size
    size = os.fstat(fh.fileno()).st_size
    if table_end > size:
        raise ValueError("container truncated")
    table = list(_ENTRY.iter_unpack(fh.read(count * _ENTRY.size)))
    out = []
    payload_end = 0
    for i, (step, layer, tag, _, rows, cols, off) in enumerate(table):
        if tag not in FIELD_NAMES:
            raise ValueError(f"entry {i} has unknown field tag {tag}")
        if i and table[i - 1][:3] >= (step, layer, tag):
            raise ValueError(
                f"entry {i} key {(step, layer, tag)} does not follow entry {i - 1} key "
                f"{table[i - 1][:3]}: keys must be strictly increasing"
            )
        if off != payload_end:
            raise ValueError(f"entry {i} payload at offset {off}, expected {payload_end}")
        out.append(TableEntry(step, layer, tag, rows, cols, table_end + off))
        payload_end += out[-1].nbytes
    if table_end + payload_end > size:
        raise ValueError("container truncated")
    if table_end + payload_end < size:
        raise ValueError(f"{size - table_end - payload_end} trailing bytes after the payloads")
    return out


def read_entry(path, entry: TableEntry) -> np.ndarray:
    """Read one checked entry's matrix from the container at `path` into a
    fresh read-only array.

    Raises:
        ValueError: when the file no longer holds the whole payload.
    """
    a = np.empty((entry.rows, entry.cols), dtype="<f4")
    with open(path, "rb") as fh:
        fh.seek(entry.offset)
        if fh.readinto(a) != entry.nbytes:
            raise ValueError("container truncated")
    a = a.astype(DTYPE, copy=False)
    a.flags.writeable = False
    return a


def read_container(path) -> list[tuple[int, int, int, np.ndarray]]:
    """Read back (step, layer, field-tag, matrix) entries from a container.

    The entry table is checked by `read_table` before any payload is read.
    The payloads are then read with one call into one read-only buffer, and
    every matrix is a view of it, so a container's data is held once, in one
    allocation.

    Raises:
        ValueError: as `read_table`, or for a file cut while it is read.
    """
    with open(path, "rb") as fh:
        table = read_table(fh)
        start = fh.tell()
        payload = np.empty(sum(e.nbytes for e in table), dtype=np.uint8)
        if fh.readinto(payload) != payload.size:
            raise ValueError("container truncated")
    payload.flags.writeable = False
    out = []
    for e in table:
        a = np.frombuffer(payload, "<f4", e.rows * e.cols, e.offset - start).reshape(e.rows, e.cols)
        out.append((e.step, e.layer, e.tag, a.astype(DTYPE, copy=False)))
    return out


@dataclass
class AttentionTrace:
    """Captured attention internals keyed by (step, layer, field name)."""

    entries: dict[tuple[int, int, str], np.ndarray] = field(default_factory=dict)

    def put(self, step: int, layer: int, name: str, value: np.ndarray) -> None:
        if name not in FIELD_TAGS:
            raise ValueError(f"unknown trace field {name!r}")
        self.entries[(step, layer, name)] = value

    def get(self, step: int, layer: int, name: str) -> np.ndarray:
        key = (step, layer, name)
        if key not in self.entries:
            raise KeyError(f"trace holds no {name!r} at step {step} layer {layer}")
        return self.entries[key]

    def has(self, step: int, layer: int, name: str) -> bool:
        return (step, layer, name) in self.entries

    def layer_slices(self, step: int, layers, name: str) -> list[np.ndarray]:
        return [self.get(step, layer, name) for layer in layers]

    def steps(self) -> list[int]:
        return sorted({k[0] for k in self.entries})

    def layers(self) -> list[int]:
        return sorted({k[1] for k in self.entries})

    def save(self, path) -> None:
        write_container(
            [(s, l, FIELD_TAGS[n], a) for (s, l, n), a in self.entries.items()], path
        )

    @classmethod
    def load(cls, path) -> "AttentionTrace":
        trace = cls()
        for step, layer, tag, a in read_container(path):
            trace.put(step, layer, FIELD_NAMES[tag], a)
        return trace


class TraceRecorder(Hooks):
    """Observation hook whose keys are its plan: it records a copy of each
    (step, layer, field) entry in `keys` into an AttentionTrace, and never
    alters the run.

    Raises:
        ValueError: naming the first key whose field is not a trace field.
    """

    def __init__(self, keys):
        keys = tuple(keys)
        for key in keys:
            if key[2] not in FIELD_TAGS:
                raise ValueError(f"trace key {key} names no field of {sorted(FIELD_TAGS)}")
        self.keys = frozenset(keys)
        self.trace = AttentionTrace()

    def observe(self, step, layer, name, value) -> None:
        self.trace.put(step, layer, name, value.copy())
