"""Attention and rotary kernels against hand computations and brute force."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachkit.tensorops import (
    DTYPE,
    NEG,
    cosine_normalize_rows,
    grid_positions,
    joint_attention,
    rope_encode,
    rope_group_slices,
    rope_pair_angles,
    softmax_average,
)


def brute_softmax(row):
    m = max(row)
    e = [math.exp(x - m) for x in row]
    s = sum(e)
    return [x / s for x in e]


def brute_attention(q, k, v, forbidden=None):
    """Loop-and-math.exp reference; restricted rows renormalize over permitted keys."""
    n, c = q.shape
    m = k.shape[0]
    w = np.zeros((n, m))
    o = np.zeros((n, c))
    for i in range(n):
        cols = [j for j in range(m) if forbidden is None or not forbidden[i, j]]
        scores = [float(q[i] @ k[j]) / math.sqrt(c) for j in cols]
        probs = brute_softmax(scores)
        for j, p in zip(cols, probs):
            w[i, j] = p
            o[i] += p * v[j]
    return w, o


def softmax_weights(x, forbidden=None, masked=False):
    """Row-major (..., N, M) softmax weights through `softmax_average`: the
    scores go in key-major, forbidden entries carry NEG, and identity values
    make the output the weights themselves."""
    x = np.array(x, dtype=DTYPE)
    if forbidden is not None:
        x = x + np.where(forbidden, NEG, DTYPE(0.0))
    m = x.shape[-1]
    out, _, _ = softmax_average(np.swapaxes(x, -1, -2).copy(), np.eye(m, dtype=DTYPE),
                                masked=masked or forbidden is not None)
    return out


def test_softmax_known_row():
    got = softmax_weights([[1.0, 2.0, 3.0]])
    np.testing.assert_allclose(got[0], [0.09003057, 0.24472847, 0.66524096], atol=1e-4)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    w = softmax_weights(rng.standard_normal((40, 17)))
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
    assert (w >= 0).all()


def test_softmax_average_returns_exp_and_sums():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((2, 5, 3)).astype(DTYPE)  # (heads, keys, queries)
    values = rng.standard_normal((2, 5, 4)).astype(DTYPE)
    want = np.exp(scores - scores.max(axis=1, keepdims=True))
    out, exp, sums = softmax_average(scores, values)
    assert exp is scores  # computed in place
    np.testing.assert_allclose(exp, want, rtol=1e-6)
    np.testing.assert_allclose(sums, want.sum(axis=1, keepdims=True), rtol=1e-6)
    assert exp.max(axis=1).tolist() == [[1.0] * 3] * 2  # each query's maximum
    weights = np.swapaxes(want / want.sum(axis=1, keepdims=True), 1, 2)
    np.testing.assert_allclose(out, weights @ values, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-20, 20))
def test_softmax_shift_invariance(seed, shift):
    x = np.random.default_rng(seed).standard_normal((3, 8)).astype(DTYPE)
    np.testing.assert_allclose(softmax_weights(x + DTYPE(shift)), softmax_weights(x), atol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        softmax_weights([[0.0, bad]])
    with pytest.raises(ValueError, match="non-finite"):  # at a forbidden position too
        softmax_weights([[0.0, bad, 1.0]], np.array([[False, True, False]]))


def _forbidden_without_full_rows(rng, n, m):
    forbidden = rng.random((n, m)) < 0.4
    forbidden[np.arange(n), rng.integers(0, m, n)] = False  # one permitted key per row
    return forbidden


@settings(max_examples=300, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_softmax_raises_on_any_non_finite_entry(lead, n, m, bad, masked, seed):
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((*lead, m, n)) * 10).astype(DTYPE)  # key-major scores
    if masked:
        x += np.where(_forbidden_without_full_rows(rng, n, m).T, NEG, DTYPE(0.0))
    x[tuple(rng.integers(0, d) for d in x.shape)] = bad
    before = x.copy()
    with pytest.raises(ValueError, match="non-finite"):
        softmax_average(x, np.ones((m, 2), dtype=DTYPE), masked=masked)
    np.testing.assert_array_equal(x, before)  # nothing written before the check


@settings(max_examples=200, deadline=None)
@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    masked=st.booleans(),
    data=st.data(),
)
def test_softmax_accepts_every_finite_input(lead, n, m, masked, data):
    values = st.floats(width=32, allow_nan=False, allow_infinity=False)
    x = np.array(
        data.draw(st.lists(values, min_size=int(np.prod(lead)) * n * m,
                           max_size=int(np.prod(lead)) * n * m)),
        dtype=DTYPE,
    ).reshape(*lead, n, m)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    forbidden = _forbidden_without_full_rows(rng, n, m) if masked else None
    if forbidden is not None and (
        (x + np.where(forbidden, NEG, DTYPE(0.0))).max(axis=-1) <= NEG / 2
    ).any():  # every entry of a row at or below NEG/2 reads as fully masked
        with pytest.raises(ValueError, match="fully masked"):
            softmax_weights(x, forbidden)
        return
    w = softmax_weights(x, forbidden)
    assert np.isfinite(w).all()
    np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)


def test_softmax_zeroes_forbidden_entries_explicitly():
    # forbidden entries hold the row maximum; NEG added there makes exp exactly 0
    x = np.array([[5.0, 1.0, 2.0], [0.0, 30.0, 30.0]], dtype=DTYPE)
    forbidden = np.array([[True, False, False], [False, True, False]])
    w = softmax_weights(x, forbidden)
    assert w[0, 0] == 0.0 and w[1, 1] == 0.0
    np.testing.assert_allclose(w[0, 1:], brute_softmax(x[0, 1:]), atol=1e-6)
    np.testing.assert_allclose(w[1], [0.0, 0.0, 1.0], atol=1e-6)
    with pytest.raises(ValueError, match="fully masked"):
        softmax_weights(x, np.ones_like(forbidden))


def test_forbidden_entry_far_above_its_row_gets_zero_weight():
    # the score at the forbidden key is 200 above the permitted one
    q = np.ones((1, 1), dtype=DTYPE)
    k = np.array([[0.0], [200.0], [-1.0]], dtype=DTYPE)
    v = np.array([[1.0], [1000.0], [3.0]], dtype=DTYPE)
    mask = np.array([[0.0, NEG, 0.0]], dtype=DTYPE)
    att = joint_attention(q, k, v, mask)
    w = att.weights()[0, 0]
    assert np.isfinite(w).all() and w[1] == 0.0
    np.testing.assert_allclose(w.sum(), 1.0, atol=1e-6)
    np.testing.assert_allclose(w[[0, 2]], brute_softmax([0.0, -1.0]), atol=1e-6)
    np.testing.assert_allclose(att.out[0], w[0] * 1.0 + w[2] * 3.0, atol=1e-5)


def test_attention_matches_brute_force():
    rng = np.random.default_rng(7)
    q = rng.standard_normal((9, 6)).astype(DTYPE)
    k = rng.standard_normal((11, 6)).astype(DTYPE)
    v = rng.standard_normal((11, 6)).astype(DTYPE)
    att = joint_attention(q, k, v)
    bw, bo = brute_attention(q, k, v)
    np.testing.assert_allclose(att.weights()[0], bw, atol=1e-5)
    np.testing.assert_allclose(att.out, bo, atol=1e-5)


def test_attention_weights_of_a_block():
    rng = np.random.default_rng(9)
    q = rng.standard_normal((7, 6)).astype(DTYPE)
    k = rng.standard_normal((10, 6)).astype(DTYPE)
    att = joint_attention(q, k, k, heads=2)
    full = att.weights()
    assert full.shape == (2, 7, 10)
    np.testing.assert_array_equal(att.weights(slice(2, 5), slice(6, 10)), full[:, 2:5, 6:10])
    np.testing.assert_array_equal(att.weights(cols=slice(0, 1)), full[:, :, :1])
    # the head average adds the heads in index order
    np.testing.assert_array_equal(att.head_mean(slice(2, 5), slice(6, 10)),
                                  (full[0, 2:5, 6:10] + full[1, 2:5, 6:10]) / DTYPE(2))
    assert att.head_mean().shape == (7, 10)


def test_attention_single_token_is_identity():
    q = np.array([[2.0, -1.0]], dtype=DTYPE)
    v = np.array([[5.0, 7.0]], dtype=DTYPE)
    att = joint_attention(q, q, v)
    assert att.weights()[0, 0, 0] == 1.0
    np.testing.assert_array_equal(att.out, v)


def test_masked_attention_zeroes_and_renormalizes():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((6, 4)).astype(DTYPE)
    k = rng.standard_normal((8, 4)).astype(DTYPE)
    v = rng.standard_normal((8, 4)).astype(DTYPE)
    mask = np.zeros((6, 8), dtype=DTYPE)
    mask[0, 1:] = NEG  # row 0: single permitted key
    mask[2, ::2] = NEG
    att = joint_attention(q, k, v, mask)
    w, o = att.weights()[0], att.out
    assert (w[mask == NEG] == 0.0).all()
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-6)
    assert w[0, 0] == 1.0
    np.testing.assert_allclose(o[0], v[0], atol=1e-6)
    bw, _ = brute_attention(q, k, v, forbidden=(mask == NEG))
    np.testing.assert_allclose(w, bw, atol=1e-5)
    # a Fortran-ordered mask gives the same bits
    again = joint_attention(q, k, v, np.asfortranarray(mask))
    np.testing.assert_array_equal(again.out, o)


def test_softmax_batched_equals_each_slice():
    # NEG at one (M, N) forbidden pattern in every leading slice, bit for bit
    rng = np.random.default_rng(8)
    x = rng.standard_normal((3, 7, 5)).astype(DTYPE)
    forbidden = rng.random((7, 5)) < 0.3
    forbidden[0] = False
    x += np.where(forbidden, NEG, DTYPE(0.0))
    values = rng.standard_normal((3, 7, 2)).astype(DTYPE)
    out, exp, sums = softmax_average(x.copy(), values, masked=True)
    for h in range(3):
        o_h, e_h, s_h = softmax_average(x[h].copy(), values[h], masked=True)
        np.testing.assert_array_equal(out[h], o_h)
        np.testing.assert_array_equal(exp[h], e_h)
        np.testing.assert_array_equal(sums[h], s_h)
    assert (exp[:, forbidden] == 0.0).all()


def test_attention_heads_must_divide_channels():
    a = np.ones((2, 6), dtype=DTYPE)
    with pytest.raises(ValueError, match="heads"):
        joint_attention(a, a, a, heads=4)
    with pytest.raises(ValueError, match="heads"):
        joint_attention(a, a, a, heads=0)
    att = joint_attention(a, a, a, heads=3)
    assert att.weights().shape == (3, 2, 2) and att.out.shape == (2, 6)


def test_fully_masked_row_raises():
    q = np.ones((1, 2), dtype=DTYPE)
    mask = np.full((1, 1), NEG, dtype=DTYPE)
    with pytest.raises(ValueError, match="fully masked"):
        joint_attention(q, q, q, mask)
    q = np.ones((2, 2), dtype=DTYPE)
    mask = np.array([[0.0, 0.0], [NEG, NEG]], dtype=DTYPE)  # the second row only
    with pytest.raises(ValueError, match="fully masked"):
        joint_attention(q, q, q, mask)


def test_attention_shape_errors():
    a = np.ones((2, 3), dtype=DTYPE)
    with pytest.raises(ValueError):
        joint_attention(a, np.ones((2, 4), dtype=DTYPE), a)
    with pytest.raises(ValueError):
        joint_attention(a, a, np.ones((3, 3), dtype=DTYPE))
    with pytest.raises(ValueError):
        joint_attention(a, a, a, np.zeros((1, 1), dtype=DTYPE))


@pytest.mark.parametrize("masked", [False, True])
def test_attention_into_a_score_buffer_equals_a_fresh_one(masked):
    rng = np.random.default_rng(12)
    q = rng.standard_normal((7, 6)).astype(DTYPE)
    k = rng.standard_normal((10, 6)).astype(DTYPE)
    v = rng.standard_normal((10, 6)).astype(DTYPE)
    mask = np.where(rng.random((7, 10)) < 0.3, NEG, DTYPE(0.0)) if masked else None
    if masked:
        mask[:, 0] = 0.0
    want = joint_attention(q, k, v, mask, heads=3)
    buf = np.full(3 * 10 * 7 + 5, np.nan, dtype=DTYPE)  # longer than the scores
    got = joint_attention(q, k, v, mask, heads=3, out=buf)
    np.testing.assert_array_equal(got.out, want.out)
    np.testing.assert_array_equal(got.exp, want.exp)
    np.testing.assert_array_equal(got.sums, want.sums)
    np.testing.assert_array_equal(got.weights(), want.weights())
    np.testing.assert_array_equal(got.head_mean(), want.head_mean())
    assert np.shares_memory(got.exp, buf) and not np.shares_memory(got.out, buf)
    assert np.isnan(buf[3 * 10 * 7:]).all()  # only the first heads*M*N entries are used


def test_attention_refuses_a_score_buffer_that_cannot_hold_the_scores():
    a = np.ones((4, 6), dtype=DTYPE)
    for buf in (np.zeros(2 * 4 * 4 - 1, dtype=DTYPE),  # one entry short
                np.zeros(2 * 4 * 4, dtype=np.float64),  # wrong dtype
                np.zeros((2 * 4 * 4, 2), dtype=DTYPE)[:, 0]):  # not contiguous
        before = buf.copy()
        with pytest.raises(ValueError, match="score buffer of .* cannot hold"):
            joint_attention(a, a, a, heads=2, out=buf)
        np.testing.assert_array_equal(buf, before)  # nothing was written
    joint_attention(a, a, a, heads=2, out=np.zeros(2 * 4 * 4, dtype=DTYPE))


def test_grid_positions_row_major():
    pos = grid_positions(2, 3, 4)
    assert pos.shape == (24, 3)
    assert pos[0].tolist() == [0, 0, 0]
    assert pos[(1 * 3 + 2) * 4 + 3].tolist() == [1, 2, 3]


def test_rope_group_slices_cover_channels():
    slices = rope_group_slices(48)
    assert [s.stop - s.start for s in slices] == [16, 16, 16]
    assert slices[0].start == 0 and slices[-1].stop == 48
    assert rope_group_slices(12) == [slice(0, 4), slice(4, 8), slice(8, 12)]
    with pytest.raises(ValueError):
        rope_group_slices(9)  # odd thirds
    with pytest.raises(ValueError):
        rope_group_slices(16)  # not divisible by three


def test_rope_zero_position_identity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 12)).astype(DTYPE)
    pos = np.zeros((10, 3), dtype=np.int64)
    np.testing.assert_allclose(rope_encode(x, pos), x, atol=1e-6)


def test_rope_preserves_norms():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((32, 24)).astype(DTYPE)
    pos = rng.integers(0, 10, size=(32, 3))
    y = rope_encode(x, pos)
    np.testing.assert_allclose(
        np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), atol=1e-5
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rope_relative_position_law(seed):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((1, 12)).astype(DTYPE)
    k = rng.standard_normal((1, 12)).astype(DTYPE)
    p1 = rng.integers(0, 8, size=(1, 3))
    p2 = rng.integers(0, 8, size=(1, 3))
    d = rng.integers(0, 5, size=(1, 3))
    a = (rope_encode(q, p1).astype(np.float64) @ rope_encode(k, p2).astype(np.float64).T).item()
    b = (rope_encode(q, p1 + d).astype(np.float64) @ rope_encode(k, p2 + d).astype(np.float64).T).item()
    assert abs(a - b) < 1e-5


def test_rope_pair_angles_decay():
    theta = rope_pair_angles(8)
    assert theta[0] == 1.0
    assert (np.diff(theta) < 0).all()


def test_cosine_normalize_rows():
    got = cosine_normalize_rows(np.array([[3.0, 4.0], [0.0, 0.0]]))
    np.testing.assert_allclose(got[0], [0.6, 0.8], atol=1e-6)
    np.testing.assert_array_equal(got[1], [0.0, 0.0])
