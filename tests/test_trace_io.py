"""Binary trace container format and capture plumbing."""

import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachkit.dit import (
    ChainedHooks,
    ModelConfig,
    PromptLayout,
    StepSchedule,
    denoise,
    embed_prompt,
    init_model,
)
from bachkit.inject import KvCache
from bachkit.trace import (
    AttentionTrace,
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


def test_container_roundtrip_sorts_entries(tmp_path):
    rng = np.random.default_rng(0)
    entries = [
        (5, 1, FIELD_V2T, rng.random((3, 2)).astype(np.float32)),
        (0, 2, FIELD_ATTN_OUT, rng.random((2, 4)).astype(np.float32)),
        (0, 0, FIELD_X, rng.random((4, 4)).astype(np.float32)),
    ]
    p = tmp_path / "t.bvtr"
    write_container(entries, p)
    back = read_container(p)
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
    write_container([(1, 0, FIELD_X, b), (0, 0, FIELD_V2T, a)], p)
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
    write_container([(0, 0, FIELD_V2T, a), (1, 0, FIELD_V2T, a)], p)
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
        got = read_container(path)
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
    write_container(
        [(s, l, t, rng.random((r, c)).astype(np.float32)) for s, l, t, r, c in entries], fuzz_path
    )
    data = fuzz_path.read_bytes()
    expected = read_container(fuzz_path)
    _check_hostile(fuzz_path, data[: cut % (len(data) + 1)], expected)


@settings(max_examples=500, deadline=None)
@given(entries=_entries, data=st.data())
def test_overwritten_table_field_reads_back_or_raises_value_error(fuzz_path, entries, data):
    write_container(
        [(s, l, t, np.full((r, c), s + 0.5, dtype=np.float32)) for s, l, t, r, c in entries],
        fuzz_path,
    )
    raw = bytearray(fuzz_path.read_bytes())
    expected = read_container(fuzz_path)
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


def test_write_container_validates():
    with pytest.raises(ValueError, match="matrices"):
        write_container([(0, 0, FIELD_V2T, np.zeros(3, dtype=np.float32))], "/dev/null")
    with pytest.raises(ValueError, match="tag"):
        write_container([(0, 0, 99, np.zeros((1, 1), dtype=np.float32))], "/dev/null")


def test_container_rejects_repeated_keys(tmp_path):
    p = tmp_path / "t.bvtr"
    a = np.zeros((1, 1), dtype=np.float32)
    with pytest.raises(ValueError, match=r"two entries have the key \(step, layer, tag\) \(0, 0, 1\)"):
        write_container([(0, 0, FIELD_V2T, a), (1, 0, FIELD_V2T, a), (0, 0, FIELD_V2T, a + 1)], p)
    assert not p.exists()  # rejected before the file is opened
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
    prompt = embed_prompt(LAYOUT, channels=SMALL.channels, seed=0)
    denoise(model, prompt, StepSchedule.linear(SMALL.steps), seed=1,
            hooks=ChainedHooks(rec, every))
    assert sorted(rec.trace.entries) == sorted(keys)
    assert len(every.trace.entries) == SMALL.steps * SMALL.depth * len(FIELD_TAGS)
    for key in keys:
        got = rec.trace.get(*key)
        assert got.base is None  # a copy, not the hook's view
        assert got is not every.trace.get(*key)
        np.testing.assert_array_equal(got, every.trace.get(*key))
    assert not TraceRecorder([]).keys


def test_recorder_refuses_a_field_nobody_forms():
    with pytest.raises(ValueError, match=r"trace key \(0, 0, 'v2T'\) names no field"):
        TraceRecorder([(0, 0, "v2t"), (0, 0, "v2T"), (1, 0, "k")])
    with pytest.raises(ValueError, match=r"\(3, 1, 'k'\)"):
        TraceRecorder(iter([(3, 1, "k")]))


def test_trace_accessors():
    tr = AttentionTrace()
    tr.put(3, 1, "v2t", np.ones((2, 2), dtype=np.float32))
    tr.put(3, 0, "v2t", np.zeros((2, 2), dtype=np.float32))
    assert tr.steps() == [3] and tr.layers() == [0, 1]
    assert tr.has(3, 1, "v2t") and not tr.has(3, 1, "attn_out")
    assert len(tr.layer_slices(3, [0, 1], "v2t")) == 2
    assert sum(a.nbytes for a in tr.entries.values()) == 2 * 4 * 4
    with pytest.raises(ValueError):
        tr.put(0, 0, "nope", np.ones((1, 1)))
    with pytest.raises(KeyError):
        tr.get(9, 9, "v2t")


def test_recorder_capture_and_save(tmp_path):
    model = init_model(SMALL)
    prompt = embed_prompt(LAYOUT, channels=SMALL.channels, seed=0)
    rec = TraceRecorder([(s, 1, name) for s in (0, 3) for name in ("v2t", "attn_out")])
    denoise(model, prompt, StepSchedule.linear(SMALL.steps), seed=1, hooks=rec)
    keys = sorted(rec.trace.entries)
    assert keys == [(0, 1, "attn_out"), (0, 1, "v2t"), (3, 1, "attn_out"), (3, 1, "v2t")]
    assert rec.trace.get(0, 1, "v2t").shape == (SMALL.thw, SMALL.text_len)
    assert rec.trace.get(0, 1, "attn_out").shape == (SMALL.thw, SMALL.channels)
    p = tmp_path / "rec.bvtr"
    rec.trace.save(p)
    back = AttentionTrace.load(p)
    assert sorted(back.entries) == keys
    for key, arr in rec.trace.entries.items():
        np.testing.assert_array_equal(back.entries[key], arr)
