"""Binary trace container format, its file-backed entry store, and capture
plumbing."""

import gc
import itertools
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from refs import seeded_prompt, write_container_of_entries

import bachkit.dit as dit
from bachkit.dit import (
    ChainedHooks,
    ModelConfig,
    PromptLayout,
    StepSchedule,
    denoise,
    init_model,
)
from bachkit.inject import KvCache
from bachkit.trace import (
    AttentionTrace,
    EntryStore,
    FIELD_ATTN_OUT,
    FIELD_NAMES,
    FIELD_TAGS,
    FIELD_V2T,
    FIELD_X,
    MAGIC,
    TraceRecorder,
    VERSION,
    read_container,
    write_container,
)

SMALL = ModelConfig(
    depth=3, channels=12, heads=3, frames=2, height=3, width=3,
    text_len=6, steps=8, seed=4,
)
LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


def test_field_tables_consistent():
    assert FIELD_NAMES == {1: "v2t", 2: "attn_out", 5: "x"}
    assert FIELD_X == 5
    assert {FIELD_TAGS[n] for n in FIELD_NAMES.values()} == set(FIELD_NAMES)


def _store(entries) -> EntryStore:
    """A recorded store of (step, layer, field-tag, matrix) entries."""
    store = EntryStore()
    for step, layer, tag, a in entries:
        store.put((step, layer, FIELD_NAMES[tag]), a)
    return store


def _read_entries(path):
    """(step, layer, tag, matrix) entries of the container at `path`, in file
    order, each read now."""
    return [(s, l, FIELD_TAGS[n], a) for (s, l, n), a in read_container(path).items()]


def test_container_roundtrip_sorts_entries(tmp_path):
    rng = np.random.default_rng(0)
    entries = [
        (5, 1, FIELD_V2T, rng.random((3, 2)).astype(np.float32)),
        (0, 2, FIELD_ATTN_OUT, rng.random((2, 4)).astype(np.float32)),
        (0, 0, FIELD_X, rng.random((4, 4)).astype(np.float32)),
    ]
    p = tmp_path / "t.bvtr"
    write_container(_store(entries), p)
    back = _read_entries(p)
    assert [(s, l, t) for s, l, t, _ in back] == [
        (0, 0, FIELD_X), (0, 2, FIELD_ATTN_OUT), (5, 1, FIELD_V2T)
    ]
    for s, l, t, a in back:
        src = next(e for e in entries if e[:3] == (s, l, t))
        np.testing.assert_array_equal(a, src[3])


def test_container_exact_bytes(tmp_path):
    """Pin the on-disk layout: header, 28-byte entries, raw f32 LE payload."""
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    b = np.array([[5.0]], dtype=np.float32)
    p = tmp_path / "t.bvtr"
    write_container(_store([(1, 0, FIELD_X, b), (0, 0, FIELD_V2T, a)]), p)
    want = struct.pack("<4sHHI", MAGIC, VERSION, 0, 2)
    want += struct.pack("<IIHHIIQ", 0, 0, FIELD_V2T, 0, 2, 2, 0)
    want += struct.pack("<IIHHIIQ", 1, 0, FIELD_X, 0, 1, 1, 16)
    want += a.tobytes() + b.tobytes()
    assert p.read_bytes() == want


def _refused(path, match):
    """The trace reader and the cache loader both refuse `path`, with one message."""
    for read in (read_container, KvCache.load):
        with pytest.raises(ValueError, match=match):
            read(path)


def test_container_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bvtr"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    _refused(p, "magic")
    p.write_bytes(struct.pack("<4sHHI", MAGIC, 9, 0, 0))
    _refused(p, "version")
    good = struct.pack("<4sHHI", MAGIC, VERSION, 0, 1)
    good += struct.pack("<IIHHIIQ", 0, 0, FIELD_V2T, 0, 8, 8, 0)
    p.write_bytes(good)  # promises 256 payload bytes, delivers none
    _refused(p, "truncated")
    p.write_bytes(good[:20])  # the entry table itself ends early
    _refused(p, "truncated")


# Field layout of the header and of one table entry: (format, offset) pairs.
_HEADER_FIELDS = (("4s", 0), ("H", 4), ("H", 6), ("I", 8))
_ENTRY_FIELDS = (("I", 0), ("I", 4), ("H", 8), ("H", 10), ("I", 12), ("I", 16), ("Q", 20))
_HEADER_SIZE = struct.calcsize("<4sHHI")
_ENTRY_SIZE = struct.calcsize("<IIHHIIQ")


def _table_bytes(entries) -> bytes:
    """A header and entry table with back-to-back offsets, payloads left out."""
    out = struct.pack("<4sHHI", MAGIC, VERSION, 0, len(entries))
    off = 0
    for step, layer, tag, rows, cols in entries:
        out += struct.pack("<IIHHIIQ", step, layer, tag, 0, rows, cols, off)
        off += rows * cols * 4
    return out


def test_container_rejects_unknown_tag_before_payload(tmp_path):
    p = tmp_path / "t.bvtr"
    # the table promises a payload the file lacks: the tag is rejected first
    p.write_bytes(_table_bytes([(0, 0, FIELD_V2T, 1, 1), (0, 1, 9, 1000, 1000)]))
    _refused(p, "entry 1 has unknown field tag 9")
    p.write_bytes(_table_bytes([(0, 0, 9, 1, 1)]) + b"\x00" * 4)
    with pytest.raises(ValueError, match="entry 0 has unknown field tag 9"):
        AttentionTrace.load(p)


def test_container_requires_back_to_back_payloads(tmp_path):
    p = tmp_path / "t.bvtr"
    a = np.arange(4, dtype=np.float32).reshape(2, 2)
    write_container_of_entries([(0, 0, FIELD_V2T, a), (1, 0, FIELD_V2T, a)], p)
    good = p.read_bytes()
    second_offset = _HEADER_SIZE + _ENTRY_SIZE + 20  # the second entry's offset field
    for off in (0, 8, 20):
        bad = bytearray(good)
        struct.pack_into("<Q", bad, second_offset, off)
        p.write_bytes(bytes(bad))
        _refused(p, "entry 1 payload at offset")
    p.write_bytes(good + b"\x00")
    _refused(p, "1 trailing bytes")


_entries = st.lists(
    st.tuples(
        st.integers(0, 60), st.integers(0, 50), st.sampled_from(sorted(FIELD_NAMES)),
        st.integers(1, 3), st.integers(1, 3),
    ),
    max_size=3,
    unique_by=lambda e: e[:3],  # a container holds each (step, layer, tag) key once
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "c.bvtr"


def _check_hostile(path, data, expected):
    """Reading `data` gives `expected` or raises ValueError, no other error,
    and then loading it as a cache raises the same; `expected` None means it
    must raise."""
    path.write_bytes(data)
    try:
        got = _read_entries(path)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):  # one table check for both
            KvCache.load(path)
        return
    assert expected is not None, "read a container holding an unknown field tag"
    assert [e[:3] for e in got] == [e[:3] for e in expected]
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g[3], e[3])


@settings(max_examples=300, deadline=None)
@given(entries=_entries, cut=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1))
def test_truncated_container_reads_back_or_raises_value_error(fuzz_path, entries, cut, seed):
    rng = np.random.default_rng(seed)
    write_container_of_entries(
        [(s, l, t, rng.random((r, c)).astype(np.float32)) for s, l, t, r, c in entries], fuzz_path
    )
    data = fuzz_path.read_bytes()
    expected = _read_entries(fuzz_path)
    _check_hostile(fuzz_path, data[: cut % (len(data) + 1)], expected)


@settings(max_examples=500, deadline=None)
@given(entries=_entries, data=st.data())
def test_overwritten_table_field_reads_back_or_raises_value_error(fuzz_path, entries, data):
    write_container_of_entries(
        [(s, l, t, np.full((r, c), s + 0.5, dtype=np.float32)) for s, l, t, r, c in entries],
        fuzz_path,
    )
    raw = bytearray(fuzz_path.read_bytes())
    expected = _read_entries(fuzz_path)
    # (entry or None for the header, field index, format, byte offset)
    fields = [(None, j, f, o) for j, (f, o) in enumerate(_HEADER_FIELDS)]
    for i in range(len(expected)):
        at = _HEADER_SIZE + i * _ENTRY_SIZE
        fields += [(i, j, f, at + o) for j, (f, o) in enumerate(_ENTRY_FIELDS)]
    entry, j, fmt, at = data.draw(st.sampled_from(fields))
    if fmt == "4s":
        value = data.draw(st.binary(min_size=4, max_size=4))
    else:
        value = data.draw(st.integers(0, 2 ** (8 * struct.calcsize(fmt)) - 1))
    struct.pack_into("<" + fmt, raw, at, value)
    if entry is not None and j < 3:  # step, layer and a known tag read back as written
        key = list(expected[entry][:3])
        key[j] = value
        expected[entry] = (*key, expected[entry][3])
        if j == 2 and value not in FIELD_NAMES:
            expected = None
    _check_hostile(fuzz_path, bytes(raw), expected)


def test_write_container_validates(tmp_path):
    """The store checks each entry as it is put; the writer takes only a store."""
    store = EntryStore()
    with pytest.raises(ValueError, match="matrices"):
        store.put((0, 0, "v2t"), np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError, match="unknown trace field 'k'"):
        store.put((0, 0, "k"), np.zeros((1, 1), dtype=np.float32))
    assert len(store) == 0
    p = tmp_path / "t.bvtr"
    with pytest.raises(TypeError, match="takes an EntryStore, not list"):
        write_container([(0, 0, FIELD_V2T, np.zeros((1, 1), dtype=np.float32))], p)
    assert not p.exists()  # rejected before the file is opened


def test_container_rejects_repeated_keys(tmp_path):
    p = tmp_path / "t.bvtr"
    a = np.zeros((1, 1), dtype=np.float32)
    # a store holds a key once: a second put replaces the first
    write_container(_store([(0, 0, FIELD_V2T, a), (1, 0, FIELD_V2T, a), (0, 0, FIELD_V2T, a + 1)]), p)
    assert [(e[:3], e[3].item()) for e in _read_entries(p)] == [
        ((0, 0, FIELD_V2T), 1.0), ((1, 0, FIELD_V2T), 0.0)
    ]
    # a hand-written table repeating a key, then one out of order
    p.write_bytes(_table_bytes([(0, 0, FIELD_V2T, 1, 1), (0, 0, FIELD_V2T, 1000, 1000)]))
    # refused before the missing payload is read
    _refused(p, r"entry 1 key \(0, 0, 1\) does not follow entry 0 key")
    with pytest.raises(ValueError, match="strictly increasing"):
        AttentionTrace.load(p)
    p.write_bytes(_table_bytes([(2, 0, FIELD_V2T, 1, 1), (1, 5, FIELD_V2T, 1, 1)]) + bytes(8))
    _refused(p, r"entry 1 key \(1, 5, 1\) does not follow entry 0 key \(2, 0, 1\)")


def test_recorder_keeps_exactly_its_keys():
    keys = [(2, 0, "v2t"), (2, 1, "attn_out"), (5, 0, "v2t"), (6, 2, "x")]
    rec = TraceRecorder(keys)
    assert rec.keys == set(keys)
    every = TraceRecorder(itertools.product(range(SMALL.steps), range(SMALL.depth), FIELD_TAGS))
    model = init_model(SMALL)
    prompt = seeded_prompt(LAYOUT, SMALL.channels, seed=0)
    denoise(model, prompt, StepSchedule.linear(SMALL.steps), seed=1,
            hooks=ChainedHooks(rec, every))
    assert sorted(rec.trace.entries) == sorted(keys)
    assert len(every.trace.entries) == SMALL.steps * SMALL.depth * len(FIELD_TAGS)
    for key in keys:
        got = rec.trace.entries[key]
        assert got.base is None  # a copy, not the hook's view
        assert got is not every.trace.entries[key]
        np.testing.assert_array_equal(got, every.trace.entries[key])
    assert not TraceRecorder([]).keys


def test_recorder_refuses_a_field_nobody_forms(monkeypatch):
    model = init_model(SMALL)
    prompt = seeded_prompt(LAYOUT, SMALL.channels, seed=0)
    monkeypatch.setattr(dit, "forward", lambda *a, **k: pytest.fail("a step ran"))
    # refused by `denoise` before step 0, also from a recorder given an iterator
    for rec, key in [(TraceRecorder([(0, 0, "v2t"), (0, 0, "v2T"), (1, 0, "k")]), (0, 0, "v2T")),
                     (TraceRecorder(iter([(3, 1, "k")])), (3, 1, "k"))]:
        with pytest.raises(ValueError, match=re.escape(f"hook key {key} is outside the run")):
            denoise(model, prompt, StepSchedule.linear(SMALL.steps), seed=1, hooks=rec)


def test_trace_accessors():
    tr = AttentionTrace()
    tr.put(3, 1, "v2t", np.ones((2, 2), dtype=np.float32))
    tr.put(3, 0, "v2t", np.zeros((2, 2), dtype=np.float32))
    assert tr.steps() == [3] and tr.layers() == [0, 1]
    assert (3, 1, "v2t") in tr.entries and (3, 1, "attn_out") not in tr.entries
    assert len(tr.layer_slices(3, [0, 1], "v2t")) == 2
    assert sum(a.nbytes for a in tr.entries.values()) == 2 * 4 * 4
    with pytest.raises(ValueError):
        tr.put(0, 0, "nope", np.ones((1, 1)))
    with pytest.raises(KeyError, match="^\"no 'v2t' entry at step 9 layer 9\"$"):
        tr.entries[9, 9, "v2t"]


def test_recorder_capture_and_save(tmp_path):
    model = init_model(SMALL)
    prompt = seeded_prompt(LAYOUT, SMALL.channels, seed=0)
    rec = TraceRecorder([(s, 1, name) for s in (0, 3) for name in ("v2t", "attn_out")])
    denoise(model, prompt, StepSchedule.linear(SMALL.steps), seed=1, hooks=rec)
    keys = sorted(rec.trace.entries)
    assert keys == [(0, 1, "attn_out"), (0, 1, "v2t"), (3, 1, "attn_out"), (3, 1, "v2t")]
    assert rec.trace.entries[0, 1, "v2t"].shape == (SMALL.thw, SMALL.text_len)
    assert rec.trace.entries[0, 1, "attn_out"].shape == (SMALL.thw, SMALL.channels)
    p = tmp_path / "rec.bvtr"
    rec.trace.save(p)
    back = AttentionTrace.load(p)
    assert sorted(back.entries) == keys
    for key, arr in rec.trace.entries.items():
        np.testing.assert_array_equal(back.entries[key], arr)


def _random_trace_and_cache(rng):
    """A recorded trace and cache, entries put out of key order, the cache
    filling part of its plan, and one entry of each overwritten (the trace's
    by a matrix of another shape); with the (step, layer, tag, matrix)
    entries each should save."""
    plan = [(s, l) for s in (3, 4) for l in (0, 2, 5)]
    cache = KvCache(rows=6, channels=4, plan=plan)
    x = {}
    for key in plan[::-2]:
        x[key] = rng.random((6, 4)).astype(np.float32)
        cache.admit(*key, x[key])
    x[plan[-1]] = -x[plan[-1]]
    cache.admit(*plan[-1], x[plan[-1]])
    trace = AttentionTrace()
    t = {}
    for s, l in plan[::-1]:
        for name, cols in (("v2t", 3), ("attn_out", 4)):
            t[s, l, name] = rng.random((5, cols)).astype(np.float32)
            trace.put(s, l, name, t[s, l, name])
    t[3, 2, "v2t"] = rng.random((2, 7)).astype(np.float32)
    trace.put(3, 2, "v2t", t[3, 2, "v2t"])
    return (trace, [(s, l, FIELD_TAGS[n], a) for (s, l, n), a in t.items()]), \
        (cache, [(s, l, FIELD_X, a) for (s, l), a in x.items()])


def test_store_save_is_byte_identical_to_the_in_memory_writer(tmp_path):
    for i, (recorded, entries) in enumerate(_random_trace_and_cache(np.random.default_rng(4))):
        want, got = tmp_path / f"want{i}.bvtr", tmp_path / f"got{i}.bvtr"
        write_container_of_entries(entries, want)
        recorded.save(got)
        assert got.read_bytes() == want.read_bytes()
        loaded = type(recorded).load(got)
        again = tmp_path / f"again{i}.bvtr"
        loaded.save(again)
        assert again.read_bytes() == want.read_bytes()
        loaded.save(got)  # over its own file: left as it is
        assert got.read_bytes() == want.read_bytes()


def test_store_reads_are_fresh_and_read_only(tmp_path):
    store = EntryStore()
    src = np.arange(6, dtype=np.float32).reshape(2, 3)
    store.put((0, 0, "v2t"), src)
    src[0, 0] = -1  # the store holds what was put, not the caller's array
    a, b = store[(0, 0, "v2t")], store[(0, 0, "v2t")]
    assert a is not b and not np.shares_memory(a, b)
    assert a.flags.owndata and not a.flags.writeable and a.dtype == np.float32
    with pytest.raises(ValueError):
        a[0, 0] = 1
    assert a[0, 0] == 0
    store.put((0, 0, "v2t"), src)  # an overwrite leaves earlier reads as they were
    assert a[0, 0] == 0 and store[(0, 0, "v2t")][0, 0] == -1
    p = tmp_path / "s.bvtr"
    write_container(store, p)
    loaded = read_container(p)
    c, d = loaded[(0, 0, "v2t")], loaded[(0, 0, "v2t")]
    assert not np.shares_memory(c, d) and not c.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        loaded.put((1, 0, "v2t"), src)


def test_store_membership_length_and_iteration_read_no_payload(tmp_path, monkeypatch):
    (trace, _), (cache, _) = _random_trace_and_cache(np.random.default_rng(6))
    trace.save(tmp_path / "t.bvtr")
    cache.save(tmp_path / "c.bvtr")
    loaded_trace = AttentionTrace.load(tmp_path / "t.bvtr")
    loaded_cache = KvCache.load(tmp_path / "c.bvtr")
    monkeypatch.setattr(os, "preadv", lambda *a: pytest.fail("a payload was read"))
    monkeypatch.setattr(os, "pread", lambda *a: pytest.fail("a payload was read"))
    for t in (trace, loaded_trace):
        assert len(t.entries) == 12 and (3, 2, "v2t") in t.entries and (3, 2, "x") not in t.entries
        assert sorted(t.entries) == sorted(trace.entries)
        assert t.steps() == [3, 4] and t.layers() == [0, 2, 5] and (4, 5, "attn_out") in t.entries
        assert t.entries.shape((3, 2, "v2t")) == (2, 7)
    for c in (cache, loaded_cache):
        assert len(c.entries) == 3 and c.nbytes == 3 * 6 * 4 * 4
        assert sorted(c.entries) == [(3, 2, "x"), (4, 0, "x"), (4, 5, "x")]
        assert (3, 0, "x") not in c.entries


def test_loaded_trace_entry_cut_from_its_file_raises_container_truncated(tmp_path):
    (trace, _), _ = _random_trace_and_cache(np.random.default_rng(7))
    p = tmp_path / "t.bvtr"
    trace.save(p)
    back = AttentionTrace.load(p)
    last = list(back.entries)[-1]  # the last payload in the file
    os.truncate(p, p.stat().st_size - 4)
    assert len(back.entries) == 12  # the table was checked when it was opened
    with pytest.raises(ValueError, match="^container truncated$"):
        back.entries[last]
    with pytest.raises(ValueError, match="^container truncated$"):
        back.save(tmp_path / "copy.bvtr")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_dropped_stores_close_their_files(tmp_path):
    def open_files():
        return len(os.listdir("/proc/self/fd"))

    gc.collect()  # stores other tests left in reference cycles
    before = open_files()
    recorders = [TraceRecorder([(0, 0, "v2t")]) for _ in range(200)]
    assert open_files() == before  # a store makes its file at the first put
    for rec in recorders:
        rec.observe(0, 0, "v2t", np.ones((2, 2), dtype=np.float32))
    assert open_files() == before + 200
    recorders[0].trace.save(tmp_path / "t.bvtr")
    del recorders, rec
    assert open_files() == before
    loaded = [AttentionTrace.load(tmp_path / "t.bvtr") for _ in range(200)]
    assert open_files() == before + 200
    del loaded
    assert open_files() == before
