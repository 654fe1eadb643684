"""Layer-input cache accounting, region masks, and fused-attention plans."""

import os
import tempfile
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bachkit.inject import (
    CacheBudgetError,
    CacheRecorder,
    Injector,
    KvCache,
    build_plan,
    cache_nbytes,
    entry_nbytes,
    region_mask,
)
from bachkit.dit import ChainedHooks, LayerWeights, forward, score_workspace
from bachkit.pipeline import run_frame
from bachkit.tensorops import (
    DTYPE,
    NEG,
    RotaryTable,
    grid_positions,
    joint_attention,
    rope_encode,
)
from bachkit.trace import FIELD_V2T, FIELD_X, TraceRecorder
from refs import write_container_of_entries, write_kv_cache_of_earlier_format


def test_byte_formula():
    assert entry_nbytes(1000, 64) == 1000 * 64 * 4
    assert cache_nbytes(50, 15, 1000, 64) == 192_000_000
    assert cache_nbytes(0, 15, 1000, 64) == 0


def test_paper_layer_ratio_exact():
    full = cache_nbytes(50, 42, 1000, 64)
    kept = cache_nbytes(50, 15, 1000, 64)
    assert Fraction(kept, full) == Fraction(15, 42)


def test_cache_admit_get_and_counter():
    cache = KvCache(rows=6, channels=4, plan=[(2, 1), (0, 0)])
    assert cache.nbytes == 0
    x = np.arange(24, dtype=DTYPE).reshape(6, 4)
    cache.admit(2, 1, x)
    assert cache.nbytes == entry_nbytes(6, 4)
    cache.admit(2, 1, x)  # overwrite, not double-count
    assert cache.nbytes == entry_nbytes(6, 4)
    np.testing.assert_array_equal(cache.entries[2, 1, "x"], x)
    x[0, 0] = -1  # cache stores copies
    assert cache.entries[2, 1, "x"][0, 0] == 0
    with pytest.raises(KeyError, match="^\"no 'x' entry at step 0 layer 0\"$"):
        cache.entries[0, 0, "x"]
    with pytest.raises(ValueError, match="cache rows must be"):
        cache.admit(0, 0, x[:3])
    with pytest.raises(ValueError, match="step 3 layer 1 is outside the cache plan"):
        cache.admit(3, 1, x)
    assert sorted(cache.entries) == [(2, 1, "x")]


def test_cache_entries_are_not_a_constructor_argument():
    # entries come from `admit` or `load` only, which hold them to the plan,
    # the row shape and the budget
    with pytest.raises(TypeError, match="entries"):
        KvCache(2, 2, [(0, 0)], budget_bytes=16, entries={(7, 7): np.zeros((5, 5))})


def test_cache_entries_share_one_buffer():
    # the one buffer is the cache store's unlinked temporary file: each
    # admission writes there, and memory holds the entry table only
    plan = [(s, l) for s in (11, 12) for l in (0, 2)]
    cache = KvCache(rows=5, channels=4, plan=plan)
    rng = np.random.default_rng(2)
    rows = {key: rng.random((5, 4)).astype(DTYPE) for key in plan[::-1]}
    for (s, l), x in rows.items():
        cache.admit(s, l, x)
    fd = cache.entries._file.fileno()
    st = os.fstat(fd)
    assert st.st_nlink == 0  # unlinked, so dropping the cache frees it
    assert st.st_size == len(plan) * entry_nbytes(5, 4)
    held = np.frombuffer(os.pread(fd, st.st_size, 0), DTYPE).reshape(len(plan), 5, 4)
    for i, key in enumerate(rows):  # each key's rows sit where it was admitted
        np.testing.assert_array_equal(held[i], rows[key])
        np.testing.assert_array_equal(cache.entries[(*key, "x")], rows[key])
    a, b = cache.entries[(11, 0, "x")], cache.entries[(11, 0, "x")]
    assert a.flags.owndata and b.flags.owndata and not np.shares_memory(a, b)


def test_cache_counter_random_admissions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        rows, c = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        keys = {(int(s), int(l)) for s, l in rng.integers(0, 6, size=(rng.integers(1, 12), 2))}
        cache = KvCache(rows=rows, channels=c, plan=[(s, l) for s in range(6) for l in range(6)])
        for s, l in keys:
            cache.admit(s, l, np.zeros((rows, c), dtype=DTYPE))
        assert cache.nbytes == len(keys) * rows * c * 4
        assert cache.nbytes == cache_nbytes(1, len(keys), rows, c)


def test_budget_rejects_before_admission(monkeypatch):
    one = entry_nbytes(4, 2)
    plan = [(0, 0), (0, 1)]
    with monkeypatch.context() as m:  # the plan is refused before any buffer exists
        m.setattr(np, "empty", lambda *a, **k: pytest.fail("buffer allocated over budget"))
        m.setattr(tempfile, "TemporaryFile", lambda *a, **k: pytest.fail("file made over budget"))
        with pytest.raises(CacheBudgetError,
                           match=rf"^cache plan needs {2 * one} bytes \(2 entries of 4x2 rows\), "
                                 rf"budget is {one}$"):
            KvCache(rows=4, channels=2, plan=plan, budget_bytes=one)
    cache = KvCache(rows=4, channels=2, plan=plan, budget_bytes=2 * one)  # exact fit
    z = np.zeros((4, 2), dtype=DTYPE)
    for key in plan:  # a fitting plan admits every key
        cache.admit(*key, z)
    assert cache.nbytes == 2 * one and sorted(cache.entries) == [(s, l, "x") for s, l in plan]
    cache.admit(0, 0, z + 1)  # overwrites never grow the footprint
    assert cache.nbytes == 2 * one


def test_budget_zero_admits_any_plan_and_negative_is_refused(tmp_path):
    plan = [(s, l) for s in range(50) for l in range(8)]
    cache = KvCache(rows=4, channels=2, plan=plan, budget_bytes=0)
    for key in plan:
        cache.admit(*key, np.ones((4, 2), dtype=DTYPE))
    assert cache.nbytes == len(plan) * entry_nbytes(4, 2)
    cache.save(tmp_path / "cache.bvtr")
    assert KvCache.load(tmp_path / "cache.bvtr", budget_bytes=0).plan == tuple(plan)
    for load in (lambda b: KvCache(4, 2, plan, budget_bytes=b),
                 lambda b: KvCache.load(tmp_path / "cache.bvtr", budget_bytes=b)):
        with pytest.raises(ValueError, match="^budget_bytes=-1 is negative; 0 means unlimited$"):
            load(-1)


def test_cache_save_load(tmp_path):
    rng = np.random.default_rng(1)
    plan = [(11, 0), (11, 2), (12, 0), (12, 2)]
    cache = KvCache(rows=5, channels=4, plan=plan)
    for s, l in plan[2::-1]:  # admitted out of order; (12, 2) never
        cache.admit(s, l, rng.random((5, 4)).astype(DTYPE))
    p = tmp_path / "cache.bvtr"
    cache.save(p)
    assert p.stat().st_size == 12 + 3 * (28 + entry_nbytes(5, 4))
    # the same bytes as a cache of separately stored entries
    separate = tmp_path / "separate.bvtr"
    write_container_of_entries(
        [(s, l, FIELD_X, x) for (s, l, _), x in cache.entries.items()], separate)
    assert p.read_bytes() == separate.read_bytes()
    back = KvCache.load(p)
    assert back.rows == 5 and back.channels == 4 and back.plan == tuple(plan[:3])
    assert sorted(back.entries) == sorted(cache.entries)
    for key, x in cache.entries.items():
        np.testing.assert_array_equal(back.entries[key], x)
        assert back.entries[key].dtype == DTYPE and not back.entries[key].flags.writeable

    # each read is a fresh array of its own: the loaded cache holds no payload
    a, b = back.entries[(11, 0, "x")], back.entries[(11, 0, "x")]
    assert a is not b and a.flags.owndata and b.flags.owndata and not np.shares_memory(a, b)


def test_loaded_cache_reads_entries_only_when_asked(tmp_path):
    rng = np.random.default_rng(3)
    plan = [(11, 0), (11, 2), (12, 0)]
    cache = KvCache(rows=5, channels=4, plan=plan)
    for key in plan:
        cache.admit(*key, rng.random((5, 4)).astype(DTYPE))
    p = tmp_path / "cache.bvtr"
    cache.save(p)
    back = KvCache.load(p)
    one = entry_nbytes(5, 4)
    payload_at = p.stat().st_size - 3 * one
    new = -np.arange(60, dtype=DTYPE).reshape(3, 5, 4)
    with open(p, "r+b") as fh:  # overwrite every payload after the load
        fh.seek(payload_at)
        fh.write(new.tobytes())

    def table_only():
        assert list(back.entries) == [(s, l, "x") for s, l in plan] and back.plan == tuple(plan)
        assert (12, 0, "x") in back.entries and (12, 2, "x") not in back.entries
        assert back.nbytes == 3 * one

    table_only()
    for i, key in enumerate(plan):  # read from the file as it is now
        np.testing.assert_array_equal(back.entries[(*key, "x")], new[i])
    with open(p, "r+b") as fh:  # cut inside the second payload
        fh.truncate(payload_at + one + 8)
    table_only()
    np.testing.assert_array_equal(back.entries[11, 0, "x"], new[0])
    for key in plan[1:]:
        with pytest.raises(ValueError, match="^container truncated$"):
            back.entries[(*key, "x")]
    with pytest.raises(KeyError, match="no 'x' entry at step 12 layer 2"):
        back.entries[12, 2, "x"]


def test_cache_load_checks_shape_and_budget(tmp_path):
    p = tmp_path / "cache.bvtr"
    x = np.zeros((5, 4), dtype=DTYPE)
    write_container_of_entries([(0, 0, FIELD_X, x), (1, 0, FIELD_X, x[:4])], p)
    with pytest.raises(ValueError, match="cache rows must be"):
        KvCache.load(p)
    write_container_of_entries([(0, 0, FIELD_X, x), (1, 0, FIELD_X, x)], p)
    assert KvCache.load(p, budget_bytes=2 * entry_nbytes(5, 4)).nbytes == 2 * entry_nbytes(5, 4)
    with pytest.raises(CacheBudgetError, match=f"cache plan needs {2 * entry_nbytes(5, 4)} bytes"):
        KvCache.load(p, budget_bytes=2 * entry_nbytes(5, 4) - 1)
    write_container_of_entries([], p)
    with pytest.raises(ValueError, match="empty"):
        KvCache.load(p)


def test_cache_load_rejects_kv_record_format(tmp_path, monkeypatch):
    """A cache of separate K and V rows (the earlier format) is refused by
    the container reader, whose tags no longer include theirs."""
    p = tmp_path / "cache.bvtr"
    kv = np.zeros((6, 4), dtype=DTYPE)
    write_kv_cache_of_earlier_format(p, 11, 0, 6, 4)
    with pytest.raises(ValueError, match="^entry 0 has unknown field tag 3$"):
        KvCache.load(p)
    write_container_of_entries([(11, 0, FIELD_X, kv), (11, 1, FIELD_V2T, kv)], p)
    monkeypatch.setattr(os, "preadv", lambda *a: pytest.fail("a payload was read"))
    with pytest.raises(ValueError, match=r"^'x' container holds unexpected fields \[1\]$"):
        KvCache.load(p)


def test_regions_from_masks_planted_example(bench, desk_cfg, identity):
    _, injector = run_frame(bench, desk_cfg, identity, seed=21)
    mask_frame, mask_identity = injector.mask_frame, injector.mask_identity
    np.testing.assert_array_equal(injector.background, ~(mask_frame | mask_identity))
    fg = np.flatnonzero(mask_frame)
    bg = np.flatnonzero(~mask_frame & ~mask_identity)
    cfg = bench.model.config
    assert fg.size and bg.size and fg.size + bg.size < cfg.thw
    identity_rows = injector.match.as_lookup().ravel()[fg]
    assert (identity_rows >= 0).all()  # every foreground pixel has a matched identity token
    np.testing.assert_array_equal(injector.cached_rows, np.concatenate([identity_rows, bg]))
    # foreground keys at the frame pixels' positions, background keys at their own
    want = bench.model.rotary[np.concatenate([fg, bg])]
    np.testing.assert_array_equal(injector.key_table.cos, want.cos)
    np.testing.assert_array_equal(injector.key_table.sin, want.sin)
    np.testing.assert_array_equal(
        injector.add_mask, region_mask(cfg.joint_len, cfg.thw, fg, len(fg), len(bg)))


def test_region_mask_layout():
    # joint = 4 video + 2 text pixels; one injected fg key, two injected bg keys
    thw, joint_len = 4, 6
    fg = np.array([1])
    m = region_mask(joint_len, thw, fg, n_fg=1, n_bg=2)
    assert m.shape == (6, 9)
    np.testing.assert_array_equal(m[:, :joint_len], 0.0)  # joint keys open to all
    assert m[1, 6] == 0.0  # fg query -> injected fg block
    assert (m[1, 7:] == NEG).all()  # fg query cannot see injected bg
    for q in (0, 2, 3):  # video bg queries -> injected bg block only
        assert m[q, 6] == NEG
        assert (m[q, 7:] == 0.0).all()
    assert (m[4:, joint_len:] == NEG).all()  # text queries see no injected keys


def test_fused_attention_empty_injection_is_vanilla():
    rng = np.random.default_rng(2)
    q = rng.standard_normal((5, 4)).astype(DTYPE)
    k = rng.standard_normal((5, 4)).astype(DTYPE)
    v = rng.standard_normal((5, 4)).astype(DTYPE)
    a0 = joint_attention(q, k, v)
    a1 = joint_attention(q, k, v, np.zeros((5, 5), dtype=DTYPE))
    np.testing.assert_array_equal(a1.weights(), a0.weights())
    np.testing.assert_array_equal(a1.out, a0.out)


def test_fused_attention_restricted_oracle():
    rng = np.random.default_rng(3)
    thw, text, c = 6, 2, 4
    joint_len = thw + text
    fg = np.array([0, 4])
    n_fg, n_bg = 2, 3
    q = rng.standard_normal((joint_len, c)).astype(DTYPE)
    k_star = rng.standard_normal((joint_len + n_fg + n_bg, c)).astype(DTYPE)
    v_star = rng.standard_normal((joint_len + n_fg + n_bg, c)).astype(DTYPE)
    mask = region_mask(joint_len, thw, fg, n_fg, n_bg)
    att = joint_attention(q, k_star, v_star, mask)
    w, o = att.weights()[0], att.out
    for i in range(joint_len):
        cols = np.flatnonzero(mask[i] != NEG)
        scores = (q[i] @ k_star[cols].T) / np.sqrt(c)
        e = np.exp(scores - scores.max())
        probs = e / e.sum()
        np.testing.assert_allclose(w[i, cols], probs, atol=1e-5)
        assert (w[i, np.flatnonzero(mask[i] == NEG)] == 0.0).all()
        np.testing.assert_allclose(o[i], probs @ v_star[cols], atol=1e-5)


def test_build_plan_reencodes_keys_at_frame_positions():
    rng = np.random.default_rng(4)
    frames, h, w, c = 2, 2, 2, 12
    thw = frames * h * w
    text = 2
    joint_len = thw + text
    rotary = RotaryTable.at(grid_positions(frames, h, w), c)
    roped_k = rng.standard_normal((joint_len, c)).astype(DTYPE)
    pre_v = rng.standard_normal((joint_len, c)).astype(DTYPE)
    cached_x = rng.standard_normal((thw, c)).astype(DTYPE)
    weights = LayerWeights(
        qk_gain=rng.random(c).astype(DTYPE) + 0.5,
        w_value=rng.standard_normal((c, c)).astype(DTYPE),
        w_out=None, w_mlp1=None, w_mlp2=None,
    )
    cached_k = cached_x * weights.qk_gain[None, :]
    cached_v = cached_x @ weights.w_value
    fg, bg, identity_rows = np.array([1, 5]), np.array([0, 7]), np.array([2, 6])
    cached_rows = np.concatenate([identity_rows, bg])
    key_table = rotary[np.concatenate([fg, bg])]
    add_mask = region_mask(joint_len, thw, fg, len(fg), len(bg))
    plan = build_plan(roped_k, pre_v, cached_x, weights, cached_rows, key_table, add_mask)
    assert plan.k.shape == (joint_len + 4, c)
    np.testing.assert_array_equal(plan.k[:joint_len], roped_k)
    np.testing.assert_array_equal(plan.v[:joint_len], pre_v)
    # fg keys: cached identity rows re-encoded at the *frame* pixels' positions
    want_fg = rope_encode(cached_k[[2, 6]], rotary[[1, 5]])
    np.testing.assert_allclose(plan.k[joint_len : joint_len + 2], want_fg, atol=1e-6)
    # bg keys: cached rows at their own positions
    want_bg = rope_encode(cached_k[[0, 7]], rotary[[0, 7]])
    np.testing.assert_allclose(plan.k[joint_len + 2 :], want_bg, atol=1e-6)
    # values are the cached rows' value projections, unencoded
    np.testing.assert_array_equal(plan.v[joint_len : joint_len + 2], cached_v[[2, 6]])
    np.testing.assert_array_equal(plan.v[joint_len + 2 :], cached_v[[0, 7]])
    assert plan.add_mask is add_mask
    assert plan.add_mask.shape == (joint_len, joint_len + 4)


def test_cache_recorder_plans_the_cache_keys(bench):
    cfg = bench.model.config
    cache = KvCache(cfg.thw, cfg.channels, plan=[(1, 0), (2, 3)])
    rec = CacheRecorder(cache)
    assert rec.keys == {(1, 0, "x"), (2, 3, "x")}  # the layer inputs of the plan's keys
    every = TraceRecorder((s, l, "x") for s in range(3) for l in range(cfg.depth))
    z = np.random.default_rng(5).standard_normal(
        (cfg.frames, cfg.height, cfg.width, cfg.channels)).astype(DTYPE)
    for step in range(3):
        forward(bench.model, z, bench.prompt(0), step, hooks=ChainedHooks(rec, every),
                scratch=score_workspace(cfg))
    assert sorted(cache.entries) == [(1, 0, "x"), (2, 3, "x")]
    for step, layer in cache.plan:  # the video rows of the layer input, copied
        np.testing.assert_array_equal(cache.entries[step, layer, "x"],
                                      every.trace.entries[step, layer, "x"])
    with pytest.raises(ValueError, match="step 1 layer 1 is outside the cache plan"):
        rec.observe(1, 1, "x", cache.entries[1, 0, "x"])


def test_injector_rejects_bad_schedule(identity, bench, desk_cfg):
    kw = dict(model=bench.model, layout=bench.layout, identity=identity)
    schedule = dict(tau_mask=10, tau_match=10)
    with pytest.raises(ValueError, match="tau_inject must come after"):
        Injector(run_cfg=replace(desk_cfg, tau_inject=10, **schedule), **kw)
    Injector(run_cfg=replace(desk_cfg, tau_inject=11, **schedule), **kw)  # boundary is fine
