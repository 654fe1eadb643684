"""Binary trace container format and capture plumbing."""

import struct

import numpy as np
import pytest

from bachkit.dit import ModelConfig, PromptLayout, StepSchedule, denoise, embed_prompt, init_model
from bachkit.trace import (
    AttentionTrace,
    CaptureFlags,
    FIELD_ATTN_OUT,
    FIELD_NAMES,
    FIELD_PRE_K,
    FIELD_PRE_V,
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
    assert FIELD_NAMES == {1: "v2t", 2: "attn_out", 3: "pre_k", 4: "pre_v", 5: "x"}
    assert FIELD_X == 5
    assert {FIELD_TAGS[n] for n in FIELD_NAMES.values()} == set(FIELD_NAMES)


def test_container_roundtrip_sorts_entries(tmp_path):
    rng = np.random.default_rng(0)
    entries = [
        (5, 1, FIELD_V2T, rng.random((3, 2)).astype(np.float32)),
        (0, 2, FIELD_ATTN_OUT, rng.random((2, 4)).astype(np.float32)),
        (0, 0, FIELD_PRE_K, rng.random((4, 4)).astype(np.float32)),
    ]
    p = tmp_path / "t.bvtr"
    write_container(entries, p)
    back = read_container(p)
    assert [(s, l, t) for s, l, t, _ in back] == [
        (0, 0, FIELD_PRE_K), (0, 2, FIELD_ATTN_OUT), (5, 1, FIELD_V2T)
    ]
    for s, l, t, a in back:
        src = next(e for e in entries if e[:3] == (s, l, t))
        np.testing.assert_array_equal(a, src[3])


def test_container_exact_bytes(tmp_path):
    """Pin the on-disk layout: header, 24-byte entries, raw f32 LE payload."""
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    b = np.array([[5.0]], dtype=np.float32)
    p = tmp_path / "t.bvtr"
    write_container([(1, 0, FIELD_PRE_V, b), (0, 0, FIELD_V2T, a)], p)
    want = struct.pack("<4sHHI", MAGIC, VERSION, 0, 2)
    want += struct.pack("<IIHHIIQ", 0, 0, FIELD_V2T, 0, 2, 2, 0)
    want += struct.pack("<IIHHIIQ", 1, 0, FIELD_PRE_V, 0, 1, 1, 16)
    want += a.tobytes() + b.tobytes()
    assert p.read_bytes() == want


def test_container_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bvtr"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_container(p)
    p.write_bytes(struct.pack("<4sHHI", MAGIC, 9, 0, 0))
    with pytest.raises(ValueError, match="version"):
        read_container(p)
    good = struct.pack("<4sHHI", MAGIC, VERSION, 0, 1)
    good += struct.pack("<IIHHIIQ", 0, 0, FIELD_V2T, 0, 8, 8, 0)
    p.write_bytes(good)  # promises 256 payload bytes, delivers none
    with pytest.raises(ValueError, match="truncated"):
        read_container(p)
    p.write_bytes(good[:20])  # the entry table itself ends early
    with pytest.raises(ValueError, match="truncated"):
        read_container(p)


def test_write_container_validates():
    with pytest.raises(ValueError, match="matrices"):
        write_container([(0, 0, FIELD_V2T, np.zeros(3, dtype=np.float32))], "/dev/null")
    with pytest.raises(ValueError, match="tag"):
        write_container([(0, 0, 99, np.zeros((1, 1), dtype=np.float32))], "/dev/null")


def test_capture_flags_wants():
    flags = CaptureFlags(steps=frozenset({2}), layers=frozenset({0, 1}))
    assert flags.wants(2, 0) and flags.wants(2, 1)
    assert not flags.wants(3, 0) and not flags.wants(2, 2)
    assert not CaptureFlags(v2t=False).wants(0, 0)
    assert CaptureFlags.all().wants(123, 456)


def test_trace_accessors():
    tr = AttentionTrace()
    tr.put(3, 1, "v2t", np.ones((2, 2), dtype=np.float32))
    tr.put(3, 0, "v2t", np.zeros((2, 2), dtype=np.float32))
    assert tr.steps() == [3] and tr.layers() == [0, 1]
    assert tr.has(3, 1, "v2t") and not tr.has(3, 1, "pre_k")
    assert len(tr.layer_slices(3, [0, 1], "v2t")) == 2
    assert sum(a.nbytes for a in tr.entries.values()) == 2 * 4 * 4
    with pytest.raises(ValueError):
        tr.put(0, 0, "nope", np.ones((1, 1)))
    with pytest.raises(KeyError):
        tr.get(9, 9, "v2t")


def test_recorder_capture_and_save(tmp_path):
    model = init_model(SMALL)
    prompt = embed_prompt(LAYOUT, channels=SMALL.channels, seed=0)
    flags = CaptureFlags(
        v2t=True, x=True,
        steps=frozenset({0, 3}), layers=frozenset({1}),
    )
    rec = TraceRecorder(flags)
    denoise(model, prompt, StepSchedule.linear(SMALL.steps), seed=1, hooks=rec)
    keys = sorted(rec.trace.entries)
    assert keys == [(0, 1, "v2t"), (0, 1, "x"), (3, 1, "v2t"), (3, 1, "x")]
    assert rec.trace.get(0, 1, "v2t").shape == (SMALL.thw, SMALL.text_len)
    assert rec.trace.get(0, 1, "x").shape == (SMALL.joint_len, SMALL.channels)
    p = tmp_path / "rec.bvtr"
    rec.trace.save(p)
    back = AttentionTrace.load(p)
    assert sorted(back.entries) == keys
    for key, arr in rec.trace.entries.items():
        np.testing.assert_array_equal(back.entries[key], arr)
