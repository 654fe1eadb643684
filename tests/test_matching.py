"""Cross-generation point matching and its error metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachkit.matching import (
    MATCH_HEADER,
    MatchMap,
    exact_fraction,
    match_foreground,
    match_mse,
    similarity,
)
from bachkit.select import read_csv_records
from bachkit.tensorops import cosine_normalize_rows


def test_similarity_is_summed_cosine_grams():
    rng = np.random.default_rng(0)
    a = [rng.standard_normal((6, 4)).astype(np.float32) for _ in range(3)]
    b = [rng.standard_normal((6, 4)).astype(np.float32) for _ in range(3)]
    got = similarity(a, b)
    want = sum(
        cosine_normalize_rows(x).astype(np.float64)
        @ cosine_normalize_rows(y).astype(np.float64).T
        for x, y in zip(a, b)
    )
    np.testing.assert_allclose(got, want, atol=1e-6)
    assert got.shape == (6, 6)


def test_similarity_scale_invariance_per_layer():
    rng = np.random.default_rng(1)
    a = [rng.standard_normal((5, 3)).astype(np.float32)]
    b = [rng.standard_normal((5, 3)).astype(np.float32)]
    np.testing.assert_allclose(
        similarity(a, b), similarity([a[0] * 100.0], [b[0] * 0.01]), atol=1e-5
    )


def test_similarity_validates():
    a = np.zeros((4, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        similarity([], [])
    with pytest.raises(ValueError):
        similarity([a], [a, a])
    with pytest.raises(ValueError):
        similarity([a], [a[:3]])


def _diag_sim(frames, hw, pairs):
    """Similarity favoring dst=src everywhere except explicit (src, dst) pairs."""
    n = frames * hw
    sim = np.eye(n) * 0.5
    for src, dst in pairs:
        sim[src] = 0.0
        sim[src, dst] = 1.0
    return sim


def test_match_foreground_per_frame_blocks():
    frames, h, w = 2, 2, 2
    hw = h * w
    fg = np.zeros((frames, h, w), dtype=bool)
    fg[0, 0, 1] = True   # flat 1
    fg[1, 1, 0] = True   # flat 6
    sim = _diag_sim(frames, hw, [(1, 3), (6, 4)])
    mm = match_foreground(sim, fg, frames, h, w)
    assert mm.rows.tolist() == [[0, 0, 1, 0, 1, 1], [1, 1, 0, 1, 0, 0]]


def test_match_foreground_global_can_cross_frames():
    frames, h, w = 2, 2, 2
    fg = np.zeros((frames, h, w), dtype=bool)
    fg[0, 0, 0] = True
    sim = np.zeros((8, 8))
    sim[0, 7] = 1.0  # best match lives in the other frame
    local = match_foreground(sim, fg, frames, h, w)
    assert local.rows[0, 3] == 0  # per-frame stays in frame 0
    globl = match_foreground(sim, fg, frames, h, w, global_match=True)
    assert globl.rows[0].tolist() == [0, 0, 0, 1, 1, 1]


def test_match_foreground_tie_to_lowest_index():
    fg = np.ones((1, 1, 2), dtype=bool)
    sim = np.ones((2, 2))
    mm = match_foreground(sim, fg, 1, 1, 2)
    assert (mm.rows[:, 3:] == [[0, 0, 0], [0, 0, 0]]).all()


def test_match_foreground_validates():
    fg = np.ones((1, 2, 2), dtype=bool)
    with pytest.raises(ValueError):
        match_foreground(np.ones((3, 3)), fg, 1, 2, 2)
    with pytest.raises(ValueError):
        match_foreground(np.ones((4, 4)), np.ones((1, 1, 2), dtype=bool), 1, 2, 2)


def _map_of(rows, frames=1, h=8, w=8):
    return MatchMap(
        rows=np.array(rows, dtype=np.int64).reshape(len(rows), 6),
        frames=frames, height=h, width=w,
    )


def test_exact_fraction_and_skips():
    true = np.full((1, 8, 8), -1, dtype=np.int64)
    true[0, 2, 2] = 2 * 8 + 2
    true[0, 3, 3] = 3 * 8 + 3
    found = _map_of([[0, 2, 2, 0, 2, 2], [0, 3, 3, 0, 3, 4], [0, 5, 5, 0, 1, 1]])
    assert exact_fraction(found, true) == 0.5  # third row has no planted truth
    with pytest.raises(ValueError, match="no matched pixels"):
        exact_fraction(_map_of([[0, 5, 5, 0, 1, 1]]), true)


def test_match_mse_normalized_coordinates():
    true = np.full((1, 8, 8), -1, dtype=np.int64)
    true[0, 2, 2] = 2 * 8 + 2
    exact = _map_of([[0, 2, 2, 0, 2, 2]])
    assert match_mse(exact, true) == 0.0
    off_by_one_col = _map_of([[0, 2, 2, 0, 2, 3]])
    assert match_mse(off_by_one_col, true) == pytest.approx(1.0 / 64.0)
    off_both = _map_of([[0, 2, 2, 0, 4, 2]])
    assert match_mse(off_both, true) == pytest.approx((2.0 / 8.0) ** 2)


def test_match_map_lookup_and_csv(tmp_path):
    mm = _map_of([[0, 0, 1, 0, 2, 3], [0, 1, 0, 0, 0, 0]], frames=1, h=4, w=4)
    lk = mm.as_lookup()
    assert lk.shape == (1, 4, 4)
    assert lk[0, 0, 1] == 2 * 4 + 3
    assert lk[0, 1, 0] == 0
    assert (lk == -1).sum() == 14
    p = tmp_path / "match.csv"
    mm.write_csv(p)
    assert p.read_bytes() == (b"frame,src_h,src_w,dst_t,dst_h,dst_w\r\n"
                              b"0,0,1,0,2,3\r\n0,1,0,0,0,0\r\n")


def test_match_map_empty_csv(tmp_path):
    p = tmp_path / "empty.csv"
    _map_of([], frames=1, h=2, w=2).write_csv(p)
    assert p.read_bytes() == b"frame,src_h,src_w,dst_t,dst_h,dst_w\r\n"


def test_match_map_read_csv_rejects_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="header"):
        list(read_csv_records(p, MATCH_HEADER, (int,) * 6, "match table", 3))


# Brute-force per-row references for the vectorized matching code.

def _loop_match_foreground(sim, fg_mask, frames, height, width, global_match):
    hw = height * width
    rows = []
    for t in range(frames):
        block = sim[t * hw : (t + 1) * hw]
        if not global_match:
            block = block[:, t * hw : (t + 1) * hw]
        dst = np.argmax(block, axis=1)
        for p in np.flatnonzero(fg_mask[t].reshape(-1)):
            flat = int(dst[p]) if global_match else t * hw + int(dst[p])
            dt, rem = divmod(flat, hw)
            dh, dw = divmod(rem, width)
            rows.append((t, p // width, p % width, dt, dh, dw))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 6)


def _loop_lookup(found):
    out = np.full((found.frames, found.height, found.width), -1, dtype=np.int64)
    hw = found.height * found.width
    for f, sh, sw, dt, dh, dw in found.rows:
        out[f, sh, sw] = dt * hw + dh * found.width + dw
    return out


def _loop_exact_fraction(found, true_lookup):
    got = 0
    total = 0
    for f, sh, sw, dt, dh, dw in found.rows:
        want = true_lookup[f, sh, sw]
        if want < 0:
            continue
        total += 1
        if want == dt * found.height * found.width + dh * found.width + dw:
            got += 1
    if total == 0:
        raise ValueError("no matched pixels overlap the planted foreground")
    return got / total


def _loop_match_mse(found, true_lookup):
    hw = found.height * found.width
    err = 0.0
    total = 0
    for f, sh, sw, dt, dh, dw in found.rows:
        want = true_lookup[f, sh, sw]
        if want < 0:
            continue
        total += 1
        wh, ww = divmod(int(want) % hw, found.width)
        err += ((dh - wh) / found.height) ** 2 + ((dw - ww) / found.width) ** 2
    if total == 0:
        raise ValueError("no matched pixels overlap the planted foreground")
    return err / total


def _same_result(fn, oracle, *args):
    try:
        want = oracle(*args)
    except ValueError:
        with pytest.raises(ValueError):
            fn(*args)
        return
    assert fn(*args) == want


@settings(max_examples=200, deadline=None)
@given(
    frames=st.integers(1, 4),
    height=st.integers(1, 6),
    width=st.integers(1, 6),
    mask_kind=st.sampled_from(["random", "empty", "full"]),
    global_match=st.booleans(),
    tied=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_vectorized_matching_equals_row_loops(
    frames, height, width, mask_kind, global_match, tied, seed
):
    rng = np.random.default_rng(seed)
    n = frames * height * width
    # small integer similarities make argmax ties common
    sim = rng.integers(0, 3, size=(n, n)).astype(np.float64) if tied else rng.random((n, n))
    fg = {
        "random": rng.random((frames, height, width)) < 0.5,
        "empty": np.zeros((frames, height, width), dtype=bool),
        "full": np.ones((frames, height, width), dtype=bool),
    }[mask_kind]
    found = match_foreground(sim, fg, frames, height, width, global_match=global_match)
    want = _loop_match_foreground(sim, fg, frames, height, width, global_match)
    assert found.rows.dtype == np.int64
    np.testing.assert_array_equal(found.rows, want)
    np.testing.assert_array_equal(found.as_lookup(), _loop_lookup(found))

    # planted truth: the found destination, another pixel, or no counterpart
    pick = rng.integers(0, 3, size=(frames, height, width))
    truth = np.where(pick == 0, _loop_lookup(found), rng.integers(0, n, size=pick.shape))
    truth[pick == 2] = -1
    _same_result(exact_fraction, _loop_exact_fraction, found, truth)
    _same_result(match_mse, _loop_match_mse, found, truth)
