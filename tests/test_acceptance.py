"""Acceptance gates for the assembled system.

One test per criterion, so `pytest -v tests/test_acceptance.py` prints one
pass/fail line each. Tolerances and time budgets live in the asserts; the
heavier gates drive whole planted-scene generations end to end.
"""

import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bachkit.cli import main
from bachkit.config import default_config
from bachkit.dit import (
    Hooks,
    InjectionPlan,
    ModelConfig,
    PromptLayout,
    StepSchedule,
    denoise,
    init_model,
)
from bachkit.inject import (
    CacheBudgetError,
    KvCache,
    cache_nbytes,
    entry_nbytes,
    region_mask,
)
from bachkit.masks import mask_from_slices, mask_iou
from bachkit.matching import exact_fraction, match_foreground, match_mse, similarity
from bachkit.pipeline import (
    capture_trace,
    make_workbench,
    mask_grid,
    run_group,
    run_identity,
    write_group_outputs,
)
from bachkit.scene import FRAME, IDENTITY
from bachkit.select import (
    COST,
    QUALITY,
    AnalysisGrid,
    select_layers,
    select_tau_mask,
    select_tau_match,
    select_vital,
)
from bachkit.tensorops import DTYPE, NEG, joint_attention, rope_encode
from bachkit.trace import TraceRecorder
from bachkit.vital import aesthetic_score, collect_skip_runs, report_from_runs
from fixtures import paper_mask_grid, paper_match_grid, paper_vital_drops
from refs import (
    frame_digest,
    planted_scorer,
    random_drops,
    random_grid,
    seeded_prompt,
    trace_keys,
)


def _brute_attention(q, k, v, mask=None):
    """Loop-and-math.exp reference for scaled dot-product attention."""
    n, c = q.shape
    m = k.shape[0]
    w = np.zeros((n, m))
    o = np.zeros((n, c))
    for i in range(n):
        scores = []
        for j in range(m):
            if mask is not None and mask[i, j] == NEG:
                scores.append(None)
                continue
            scores.append(
                sum(float(q[i, t]) * float(k[j, t]) for t in range(c)) / math.sqrt(c)
            )
        top = max(s for s in scores if s is not None)
        es = [0.0 if s is None else math.exp(s - top) for s in scores]
        tot = sum(es)
        for j in range(m):
            w[i, j] = es[j] / tot
            for t in range(c):
                o[i, t] += w[i, j] * float(v[j, t])
    return w, o


def test_ac01_attention_matches_brute_force():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    for case in range(100):
        n, m, c = (int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 17)))
        q = rng.standard_normal((n, c)).astype(DTYPE)
        k = rng.standard_normal((m, c)).astype(DTYPE)
        v = rng.standard_normal((m, c)).astype(DTYPE)
        mask = None
        if case % 2:
            mask = np.where(rng.random((n, m)) < 0.4, NEG, DTYPE(0.0)).astype(DTYPE)
            mask[np.arange(n), rng.integers(0, m, size=n)] = 0.0  # keep rows alive
        got = joint_attention(q, k, v, mask)
        got_w, got_o = got.weights(), got.out
        want_w, want_o = _brute_attention(q, k, v, mask)
        np.testing.assert_allclose(got_w[0], want_w, atol=1e-5)
        np.testing.assert_allclose(got_o, want_o, atol=1e-5)
    assert time.perf_counter() - start < 10.0


def _per_head(q, k, v, mask, heads):
    """`_brute_attention` on each head's channel slice: (heads, N, M) weights, (N, C) outputs."""
    d = q.shape[1] // heads
    parts = [
        _brute_attention(q[:, h * d : (h + 1) * d], k[:, h * d : (h + 1) * d],
                         v[:, h * d : (h + 1) * d], mask)
        for h in range(heads)
    ]
    return np.stack([w for w, _ in parts]), np.concatenate([o for _, o in parts], axis=1)


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_ac01_multihead_attention_matches_brute_force_per_head(heads):
    rng = np.random.default_rng(100 + heads)
    for case in range(25):
        n, m, d = (int(rng.integers(1, 9)), int(rng.integers(1, 9)), int(rng.integers(1, 5)))
        q = rng.standard_normal((n, heads * d)).astype(DTYPE)
        k = rng.standard_normal((m, heads * d)).astype(DTYPE)
        v = rng.standard_normal((m, heads * d)).astype(DTYPE)
        mask = None
        if case % 2:
            mask = np.where(rng.random((n, m)) < 0.4, NEG, DTYPE(0.0)).astype(DTYPE)
            mask[np.arange(n), rng.integers(0, m, size=n)] = 0.0  # keep rows alive
        got = joint_attention(q, k, v, mask, heads=heads)
        got_w, got_o = got.weights(), got.out
        assert got_w.shape == (heads, n, m) and got_o.shape == (n, heads * d)
        want_w, want_o = _per_head(q, k, v, mask, heads)
        np.testing.assert_allclose(got_w, want_w, atol=1e-5)
        np.testing.assert_allclose(got_o, want_o, atol=1e-5)


def test_ac02_rotary_encoding_laws():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = int(rng.choice([6, 12, 24, 36, 48]))
        n = int(rng.integers(1, 8))
        x = rng.standard_normal((n, c)).astype(DTYPE)
        pos = rng.integers(0, 12, size=(n, 3))
        np.testing.assert_allclose(
            rope_encode(x, np.zeros((n, 3), dtype=np.int64)), x, atol=1e-6
        )
        np.testing.assert_allclose(
            np.linalg.norm(rope_encode(x, pos), axis=1),
            np.linalg.norm(x, axis=1),
            atol=1e-5,
        )
        # scores depend on positions only through their difference
        q = rng.standard_normal((1, c)).astype(DTYPE)
        k = rng.standard_normal((1, c)).astype(DTYPE)
        p1, p2 = rng.integers(0, 12, size=(1, 3)), rng.integers(0, 12, size=(1, 3))
        d = rng.integers(0, 8, size=(1, 3))

        def dot(a, b):
            return (a.astype(np.float64) @ b.astype(np.float64).T).item()

        lhs = dot(rope_encode(q, p1), rope_encode(k, p2))
        rhs = dot(rope_encode(q, p1 + d), rope_encode(k, p2 + d))
        assert math.isclose(lhs, rhs, rel_tol=1e-5, abs_tol=1e-5)


def test_ac03_mask_recovery_at_selected_readout():
    cfg = default_config("desk8")
    start = time.perf_counter()
    for scene_seed in (1, 2, 3):
        wb = make_workbench(cfg, scene_seed=scene_seed)
        mc = wb.model.config
        planted = wb.scene.mask(IDENTITY)
        for sigma in (0.0, 0.05, 0.1):
            trace = capture_trace(wb, IDENTITY, seed=100 + scene_seed, scene_sigma=sigma)
            grid = mask_grid(trace, wb.layout, mc.frames, mc.height, mc.width, planted)
            layers = select_layers(grid, 4, QUALITY)
            tau = grid.steps[select_tau_mask(grid.step_curve(layers))]
            got = mask_from_slices(
                trace.layer_slices(tau, layers, "v2t"),
                wb.layout, mc.frames, mc.height, mc.width,
            )
            assert mask_iou(got, planted) >= 0.95, (scene_seed, sigma)
    assert time.perf_counter() - start < 120.0


def test_ac04_planted_correspondence_recovered():
    cfg = default_config("desk8")
    start = time.perf_counter()
    for scene_seed in (1, 2, 3):
        wb = make_workbench(cfg, scene_seed=scene_seed)
        mc = wb.model.config
        true_lookup = wb.scene.correspondence()
        fg = wb.scene.mask(FRAME)
        for sigma in (0.0, 0.05):
            tr_id = capture_trace(
                wb, IDENTITY, seed=100 + scene_seed, scene_sigma=sigma, attn_out=True
            )
            tr_fr = capture_trace(
                wb, FRAME, seed=200 + scene_seed, scene_sigma=sigma,
                attn_out=True, action_seed=1,
            )
            sim = similarity(
                tr_fr.layer_slices(cfg.tau_match, cfg.match_layers, "attn_out"),
                tr_id.layer_slices(cfg.tau_match, cfg.match_layers, "attn_out"),
            )
            found = match_foreground(sim, fg, mc.frames, mc.height, mc.width)
            frac = exact_fraction(found, true_lookup)
            if sigma == 0.0:
                assert frac == 1.0, scene_seed
                assert match_mse(found, true_lookup) == 0.0
            else:
                assert frac >= 0.95, scene_seed
    assert time.perf_counter() - start < 120.0


def _scan_tau_mask(curve):
    best = max(curve)
    for s, val in enumerate(curve):
        if val > 0.95 * best:
            return s
    return int(np.argmax(curve))


def _scan_tau_match(curve):
    low = min(curve)
    for s, val in enumerate(curve):
        if val <= 1.05 * low:
            return s
    return int(np.argmin(curve))


def _scan_layers(grid, k, quality):
    means = [(float(np.mean(grid.values[:, j])), l) for j, l in enumerate(grid.layers)]
    key = (lambda p: (-p[0], p[1])) if quality else (lambda p: (p[0], p[1]))
    return tuple(sorted(l for _, l in sorted(means, key=key)[:k]))


def _scan_vital(drops, k):
    return tuple(sorted(sorted(drops, key=lambda l: (-drops[l], l))[:k]))


def test_ac05_selection_rules_agree_with_scans():
    rng = np.random.default_rng(5)
    checked = 0
    for i in range(200):
        curve = rng.random(int(rng.integers(2, 30)))
        assert select_tau_mask(curve) == _scan_tau_mask(curve)
        assert select_tau_match(curve) == _scan_tau_match(curve)
        grid = random_grid(i)
        k = int(rng.integers(1, len(grid.layers) + 1))
        assert select_layers(grid, k, QUALITY) == _scan_layers(grid, k, True)
        assert select_layers(grid, k, COST) == _scan_layers(grid, k, False)
        drops = random_drops(i)
        kd = int(rng.integers(1, 17))
        assert select_vital(drops, kd) == _scan_vital(drops, kd)
        checked += 5
    assert checked == 1000

    run = default_config("paper42")
    gm = paper_mask_grid()
    assert select_layers(gm, run.vital_k, QUALITY) == run.mask_layers
    assert gm.steps[select_tau_mask(gm.step_curve(run.mask_layers))] == run.tau_mask
    gc = paper_match_grid()
    assert select_layers(gc, run.vital_k, COST) == run.match_layers
    assert gc.steps[select_tau_match(gc.step_curve(run.match_layers))] == run.tau_match
    assert select_vital(paper_vital_drops(), run.vital_k) == run.kv_layers


def test_ac06_region_weights_zero_and_normalized():
    rng = np.random.default_rng(6)
    for _ in range(100):
        thw = int(rng.integers(2, 12))
        text = int(rng.integers(1, 5))
        joint = thw + text
        fg = np.flatnonzero(rng.random(thw) < 0.4)
        n_fg, n_bg = len(fg), int(rng.integers(0, 5))
        c = int(rng.integers(2, 10))
        mask = region_mask(joint, thw, fg, n_fg, n_bg)
        q = rng.standard_normal((joint, c)).astype(DTYPE)
        k = rng.standard_normal((joint + n_fg + n_bg, c)).astype(DTYPE)
        v = rng.standard_normal((joint + n_fg + n_bg, c)).astype(DTYPE)
        w = joint_attention(q, k, v, mask).weights()
        assert (w[0][mask == NEG] == 0.0).all()
        np.testing.assert_allclose(w[0].sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("heads", [1, 2, 3, 4])
def test_ac06_region_weights_zero_and_normalized_every_head(heads):
    rng = np.random.default_rng(600 + heads)
    for _ in range(25):
        thw = int(rng.integers(2, 12))
        text = int(rng.integers(1, 5))
        joint = thw + text
        fg = np.flatnonzero(rng.random(thw) < 0.4)
        n_fg, n_bg = len(fg), int(rng.integers(0, 5))
        c = heads * int(rng.integers(1, 5))
        mask = region_mask(joint, thw, fg, n_fg, n_bg)
        q = rng.standard_normal((joint, c)).astype(DTYPE)
        k = rng.standard_normal((joint + n_fg + n_bg, c)).astype(DTYPE)
        v = rng.standard_normal((joint + n_fg + n_bg, c)).astype(DTYPE)
        w = joint_attention(q, k, v, mask, heads=heads).weights()
        for w_h in w:
            assert (w_h[mask == NEG] == 0.0).all()
            np.testing.assert_allclose(w_h.sum(axis=1), 1.0, atol=1e-6)
        np.testing.assert_allclose(w, _per_head(q, k, v, mask, heads)[0], atol=1e-5)


def test_ac07_cache_accounting_and_budget(bench, desk_cfg, monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(50):
        t, l, n, c = (int(x) for x in rng.integers(1, 60, size=4))
        assert entry_nbytes(n, c) == n * c * 4
        assert cache_nbytes(t, l, n, c) == t * l * n * c * 4
    assert cache_nbytes(50, 15, 1000, 64) == 192_000_000
    full = cache_nbytes(50, 42, 1000, 64)
    assert Fraction(cache_nbytes(50, 15, 1000, 64), full) == Fraction(15, 42)

    plan, budget = [(0, 0), (0, 1), (0, 2)], 2 * entry_nbytes(8, 4)
    with monkeypatch.context() as m:  # rejected at construction, before any buffer exists
        m.setattr(np, "empty", lambda *a, **k: pytest.fail("buffer allocated over budget"))
        with pytest.raises(CacheBudgetError, match=f"cache plan needs {3 * entry_nbytes(8, 4)} "):
            KvCache(rows=8, channels=4, plan=plan, budget_bytes=budget)
    cache = KvCache(rows=8, channels=4, plan=plan[:2], budget_bytes=budget)
    z = np.zeros((8, 4), dtype=DTYPE)
    cache.admit(0, 0, z)
    cache.admit(0, 1, z)
    assert sorted(cache.entries) == [(0, 0, "x"), (0, 1, "x")]  # a fitting plan admits every key
    cache.admit(0, 1, z + 1)
    assert cache.nbytes == budget  # overwrites never grow the footprint

    tight = dataclasses.replace(desk_cfg, kv_budget_bytes=1)
    with pytest.raises(CacheBudgetError, match="cache plan needs"):
        run_identity(bench, tight, seed=1)


def test_ac08_rigged_scorer_recovers_planted_layers():
    cfg = ModelConfig(
        depth=6, channels=12, heads=3, frames=2, height=3, width=3,
        text_len=6, steps=6, seed=7,
    )
    model = init_model(cfg)
    prompt = seeded_prompt(PromptLayout(bg=2, fg=2, action=1, pad=1), cfg.channels, seed=0)
    runs = collect_skip_runs(model, prompt, StepSchedule.linear(cfg.steps), seed=9)
    digests = {l: {frame_digest(f) for f in video} for l, video in runs.items()}
    rng = np.random.default_rng(8)
    for _ in range(10):
        k = int(rng.integers(1, cfg.depth + 1))
        planted = tuple(sorted(rng.choice(cfg.depth, size=k, replace=False).tolist()))
        marked = set().union(*(digests[l] for l in planted))
        others = set().union(*(digests[l] for l in digests if l not in planted))
        assert not marked & others  # rigging is unambiguous for this draw
        table = dict.fromkeys(marked, 0.0)
        report = report_from_runs(
            runs, lambda v: aesthetic_score(v, planted_scorer(table, default=1.0))
        )
        assert select_vital(report.drops(), k) == planted


def test_ac09_injection_raises_background_psnr(bench, desk_cfg):
    report = run_group(
        bench, desk_cfg, seed_identity=11,
        frame_seeds=[21, 22, 23, 24, 25], ablate=True,
    )
    injected = [f.psnr_bg_injected for f in report.frames]
    vanilla = [f.psnr_bg_vanilla for f in report.frames]
    assert float(np.mean(injected)) > float(np.mean(vanilla))


def test_ac10_identical_runs_write_identical_bytes(desk_cfg, tmp_path):
    dirs = []
    for name in ("a", "b"):
        wb = make_workbench(desk_cfg, scene_seed=1)
        report = run_group(wb, desk_cfg, seed_identity=11, frame_seeds=[21])
        write_group_outputs(report, tmp_path / name)
        dirs.append(tmp_path / name)
    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


class _EmptyInjection(Hooks):
    """Substitutes the layer's own K/V with an all-permitted mask."""

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        n = pre_k.shape[0]
        return InjectionPlan(k=roped_k, v=pre_v, add_mask=np.zeros((n, n), dtype=DTYPE))


def test_ac11_observation_and_empty_injection_change_nothing():
    cfg = ModelConfig(
        depth=4, channels=12, heads=3, frames=2, height=3, width=3,
        text_len=6, steps=6, seed=3,
    )
    model = init_model(cfg)
    prompt = seeded_prompt(PromptLayout(bg=2, fg=2, action=1, pad=1), cfg.channels, seed=0)
    schedule = StepSchedule.linear(cfg.steps)
    plain = denoise(model, prompt, schedule, seed=5)

    recorder = TraceRecorder(trace_keys(range(cfg.steps), range(cfg.depth)))
    observed = denoise(model, prompt, schedule, seed=5, hooks=recorder)
    np.testing.assert_array_equal(observed, plain)
    assert recorder.trace.steps() == list(range(cfg.steps))  # the hook really fired

    empty = denoise(model, prompt, schedule, seed=5, hooks=_EmptyInjection())
    np.testing.assert_array_equal(empty, plain)


def test_ac12_analysis_tables_complete(tmp_path):
    out = tmp_path / "analysis"
    assert main(["analyze", "mask", "--out", str(out), "--seed", "11"]) == 0
    assert main(["analyze", "match", "--out", str(out), "--seed", "11"]) == 0
    mc = default_config("desk8").model_config()
    for name in ("grid_mask.csv", "grid_match.csv"):
        grid = AnalysisGrid.read_csv(out / name)
        assert grid.steps == tuple(range(mc.steps))
        assert grid.layers == tuple(range(mc.depth))
        assert np.isfinite(grid.values).all()
