"""Attention traces and their binary container.

A trace holds per-(step, layer) attention internals captured during a
denoising run: head-averaged video-to-text weight slices and attention
outputs. Traces and layer-input caches round-trip bit-exactly
through a small binary container (magic "BVTR"): a fixed-size little-endian
entry table followed by raw float32 payloads. Recorded and loaded entries
alike live in a container-layout file (`EntryStore`), not in memory.
"""

from __future__ import annotations

import os
import struct
import tempfile
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field

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


def read_table(fh) -> list[tuple[int, int, int, int, int, int]]:
    """Read and check the header and entry table of the container open in
    `fh`: its (step, layer, tag, rows, cols, offset) entries, the offset
    counted from the start of the file.

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
        out.append((step, layer, tag, rows, cols, table_end + off))
        payload_end += rows * cols * 4
    if table_end + payload_end > size:
        raise ValueError("container truncated")
    if table_end + payload_end < size:
        raise ValueError(f"{size - table_end - payload_end} trailing bytes after the payloads")
    return out


class EntryStore(Mapping):
    """Container entries in a file, with only their table in memory.

    A recorded store writes each entry when it is put to an unlinked
    temporary file, made at the first put; `read_container` opens a saved
    container as a read-only store. Memory holds each key's (offset, rows,
    cols) only: `in`, `len` and iteration read no payload, and a lookup reads
    one entry into a fresh read-only array. The file is closed when the
    store is dropped. Keys are (step, layer, field name).
    """

    def __init__(self):
        self._table: dict[tuple, tuple[int, int, int]] = {}
        self._file = None
        self._end = 0
        self._writable = True

    def _attach(self, fh) -> None:
        self._file = fh
        weakref.finalize(self, fh.close)

    def _container_key(self, key) -> tuple[int, int, int]:
        """(step, layer, field tag); a ValueError for an unknown field."""
        step, layer, name = key
        if name not in FIELD_TAGS:
            raise ValueError(f"unknown trace field {name!r}")
        return step, layer, FIELD_TAGS[name]

    def put(self, key, value) -> None:
        """Write the matrix `value` as the entry at `key`, in place of an
        entry of the same shape.

        Raises:
            ValueError: in a loaded store, for an unknown field or a value
                that is not a matrix.
        """
        if not self._writable:
            raise ValueError("a loaded container is read-only")
        self._container_key(key)
        a = np.ascontiguousarray(value, dtype=DTYPE)
        if a.ndim != 2:
            raise ValueError(f"container entries must be matrices, got shape {a.shape}")
        if self._file is None:
            self._attach(tempfile.TemporaryFile())
        held = self._table.get(key)
        offset = held[0] if held is not None and held[1:] == a.shape else self._end
        if os.pwrite(self._file.fileno(), a, offset) != a.nbytes:
            raise OSError(f"short write of a {a.nbytes}-byte entry")
        self._table[key] = (offset, *a.shape)
        self._end = max(self._end, offset + a.nbytes)

    def shape(self, key) -> tuple[int, int]:
        return self._table[key][1:]

    def __getitem__(self, key) -> np.ndarray:
        """The entry at `key`, read from the file; a KeyError names a missing key."""
        try:
            offset, rows, cols = self._table[key]
        except KeyError:
            step, layer, name = key
            raise KeyError(f"no {name!r} entry at step {step} layer {layer}") from None
        a = np.empty((rows, cols), dtype="<f4")
        if os.preadv(self._file.fileno(), [a], offset) != a.nbytes:
            raise ValueError("container truncated")
        a = a.astype(DTYPE, copy=False)
        a.flags.writeable = False
        return a

    def __contains__(self, key) -> bool:
        return key in self._table

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def save(self, path) -> None:
        """Write the header, the table in (step, layer, tag) order, then the
        payloads one entry at a time. A loaded store saved over its own file
        leaves it as it is; one whose file was cut since raises ValueError."""
        if not self._writable and os.path.exists(path):
            if os.path.samefile(path, self._file.fileno()):
                return
        keys = sorted(self._table, key=self._container_key)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(keys)))
            offset = 0
            for key in keys:
                _, rows, cols = self._table[key]
                fh.write(_ENTRY.pack(*self._container_key(key), 0, rows, cols, offset))
                offset += rows * cols * 4
            for key in keys:
                fh.write(self[key])


def write_container(store: EntryStore, path) -> None:
    """Write `store` as a container at `path`: sorted, f32 LE. Anything but
    an `EntryStore` is a TypeError, raised before `path` is opened."""
    if not isinstance(store, EntryStore):
        raise TypeError(f"write_container takes an EntryStore, not {type(store).__name__}")
    store.save(path)


def read_container(path) -> EntryStore:
    """Open the container at `path` as a read-only store, once `read_table`
    has checked its table; no payload is read until an entry is looked up."""
    store = EntryStore()
    store._attach(open(path, "rb"))
    store._writable = False
    for step, layer, tag, rows, cols, offset in read_table(store._file):
        store._table[step, layer, FIELD_NAMES[tag]] = (offset, rows, cols)
    return store


@dataclass
class AttentionTrace:
    """Captured attention internals keyed by (step, layer, field name), in a
    file-backed `EntryStore`."""

    entries: EntryStore = field(default_factory=EntryStore)

    def put(self, step: int, layer: int, name: str, value: np.ndarray) -> None:
        self.entries.put((step, layer, name), value)

    def layer_slices(self, step: int, layers, name: str) -> list[np.ndarray]:
        return [self.entries[step, layer, name] for layer in layers]

    def steps(self) -> list[int]:
        return sorted({k[0] for k in self.entries})

    def layers(self) -> list[int]:
        return sorted({k[1] for k in self.entries})

    def save(self, path) -> None:
        write_container(self.entries, path)

    @classmethod
    def load(cls, path) -> "AttentionTrace":
        return cls(read_container(path))


class TraceRecorder(Hooks):
    """Observation hook whose keys are its plan: it records each (step,
    layer, field) entry in `keys` into an AttentionTrace, and never alters
    the run. `denoise` refuses a key outside the run before step 0.
    """

    def __init__(self, keys):
        self.keys = frozenset(keys)
        self.trace = AttentionTrace()

    def observe(self, step, layer, name, value) -> None:
        self.trace.put(step, layer, name, value)
