"""Group drivers: budgeted identity runs, background PSNR, artifact layout."""

import dataclasses
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import bachkit.dit as dit
from bachkit.config import default_config
from bachkit.dit import PromptLayout, StepSchedule, init_model
from bachkit.inject import CacheBudgetError, CacheRecorder, Injector, KvCache, entry_nbytes
from bachkit.masks import mask_iou
import bachkit.pipeline as pipeline
from bachkit.pipeline import (
    Workbench,
    make_injector,
    mask_grid,
    match_grid,
    psnr_bg,
    run_frame,
    run_group,
    run_identity,
    upsample_mask,
    write_group_outputs,
)
from bachkit.scene import FRAME
from bachkit.tensorops import Attention
from bachkit.trace import AttentionTrace, EntryStore, TraceRecorder


def test_identity_budget_prechecked_before_any_step(bench, desk_cfg):
    tight = dataclasses.replace(desk_cfg, kv_budget_bytes=entry_nbytes(4 * 8 * 8 + 17, 48))
    with pytest.raises(CacheBudgetError, match="cache plan needs"):
        run_identity(bench, tight, seed=11)


def test_identity_bundle_contents(bench, desk_cfg, identity):
    cfg = bench.model.config
    assert identity.z0.shape == (cfg.frames, cfg.height, cfg.width, cfg.channels)
    # cache holds exactly the injection plan: steps tau_inject..end at kv layers
    want = {(s, l, "x") for s in range(desk_cfg.tau_inject, cfg.steps) for l in desk_cfg.kv_layers}
    assert set(identity.cache.entries) == want
    # readout trace is confined to the readout step
    assert identity.trace.steps() == [desk_cfg.tau_mask]
    assert identity.trace.layers() == list(range(cfg.depth))
    assert set(identity.trace.entries) == set(desk_cfg.readout_keys())


def test_identity_and_frame_record_exactly_the_readout_keys(bench, desk_cfg):
    # two readout steps and two layer sets that differ, as paper42's layer sets do
    cfg = dataclasses.replace(desk_cfg, tau_mask=8, tau_match=9, mask_layers=(0, 1, 2, 3),
                              match_layers=(2, 3, 4, 5))
    identity = run_identity(bench, cfg, seed=11)
    want = {(8, l, "v2t") for l in range(4)} | {(9, l, "attn_out") for l in range(2, 6)}
    assert set(identity.trace.entries) == want == set(cfg.readout_keys())
    _, injector = run_frame(bench, cfg, identity, seed=21)
    assert set(injector.own.entries) == want


def test_psnr_identical_is_infinite():
    a = np.random.default_rng(0).random((2, 3, 3))
    assert psnr_bg(a, a.copy(), np.ones_like(a, dtype=bool)) == np.inf


def test_psnr_known_mse():
    a = np.zeros((1, 2, 2))
    b = np.full_like(a, 0.1)
    assert psnr_bg(a, b, np.ones_like(a, dtype=bool)) == pytest.approx(20.0)


def test_psnr_scores_region_only():
    a = np.zeros((1, 2, 2))
    b = a.copy()
    b[0, 0, 0] = 0.7
    region = np.ones_like(a, dtype=bool)
    region[0, 0, 0] = False
    assert psnr_bg(a, b, region) == np.inf
    assert psnr_bg(a, b, np.ones_like(a, dtype=bool)) < np.inf


def test_psnr_validations():
    a = np.zeros((1, 2, 2))
    with pytest.raises(ValueError, match="share one shape"):
        psnr_bg(a, np.zeros((1, 2, 3)), np.ones_like(a, dtype=bool))
    with pytest.raises(ValueError, match="empty background"):
        psnr_bg(a, a, np.zeros_like(a, dtype=bool))


def test_upsample_mask_blocks():
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[1, 0, 1] = True
    up = upsample_mask(mask, 48)  # decoded patches are 6x8 per latent pixel
    assert up.shape == (2, 12, 16)
    assert up.sum() == 6 * 8
    assert up[1, 0:6, 8:16].all() and not up[0].any()
    assert upsample_mask(mask, 12).shape == (2, 6, 8)


def test_run_frame_deterministic(bench, desk_cfg, identity):
    z_a, inj_a = run_frame(bench, desk_cfg, identity, seed=31)
    z_b, inj_b = run_frame(bench, desk_cfg, identity, seed=31)
    np.testing.assert_array_equal(z_a, z_b)
    np.testing.assert_array_equal(inj_a.mask_frame, inj_b.mask_frame)
    np.testing.assert_array_equal(inj_a.match.as_lookup(), inj_b.match.as_lookup())


def _with_entry(store, key, value):
    """A recorded copy of the trace or cache `store` holding `value` at `key`."""
    copy = EntryStore()
    for k, a in store.items():
        copy.put(k, a)
    copy.put(key, value)
    return copy


def test_frame_run_checks_identity_coverage_before_compute(bench, desk_cfg, identity, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("denoising started before the coverage check")

    monkeypatch.setattr(pipeline, "denoise", no_compute)
    mc = bench.model.config
    uncached = next(l for l in range(mc.depth) if l not in desk_cfg.kv_layers)
    early_mask, early_match = desk_cfg.tau_mask - 1, desk_cfg.tau_match - 1
    tau = desk_cfg.tau_inject
    cases = [
        (dict(kv_layers=tuple(sorted(desk_cfg.kv_layers + (uncached,)))), identity,
         f"identity_cache.bvtr holds no 'x' at step {tau} layer {uncached}"),
        (dict(tau_mask=early_mask), identity,
         f"identity_trace.bvtr holds no 'v2t' at step {early_mask} layer "
         f"{desk_cfg.mask_layers[0]}"),
        (dict(tau_match=early_match), identity,
         f"identity_trace.bvtr holds no 'attn_out' at step {early_match} layer "
         f"{desk_cfg.match_layers[0]}"),
    ]
    narrow = _with_entry(identity.trace.entries, (desk_cfg.tau_mask, 3, "v2t"),
                         np.zeros((mc.thw, 8), dtype=np.float32))
    cases.append(({}, dataclasses.replace(identity, trace=AttentionTrace(narrow)),
                  f"identity_trace.bvtr holds 'v2t' at step {desk_cfg.tau_mask} layer 3 "
                  f"as (256, 8), the model's is (256, 16)"))
    for change, bundle, message in cases:
        cfg = dataclasses.replace(desk_cfg, **change)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_frame(bench, cfg, bundle, seed=31)
    injector = make_injector(bench, desk_cfg, identity)
    assert injector.injects == set(desk_cfg.cache_keys(bench.model.config.steps))
    assert injector.keys == set(desk_cfg.readout_keys())


def _short_bench(bench, steps: int):
    """`bench` with a model and schedule of `steps` steps."""
    mc = dataclasses.replace(bench.model.config, steps=steps)
    return dataclasses.replace(bench, model=init_model(mc), schedule=StepSchedule.linear(steps))


def test_runs_check_the_config_against_the_model_before_compute(bench, desk_cfg, identity,
                                                               monkeypatch):
    short = _short_bench(bench, 6)
    shallow = dataclasses.replace(
        bench, model=init_model(dataclasses.replace(bench.model.config, depth=4)))
    cases = [
        (short, dict(tau_mask=2, tau_match=2, tau_inject=40), r"^tau_inject=40 outside 0\.\.5$"),
        (shallow, {}, r"^mask_layers has 4 layer\(s\) outside 0\.\.3, the first 4$"),
    ]
    with monkeypatch.context() as m:
        m.setattr(pipeline, "denoise", lambda *a, **k: pytest.fail("denoising started"))
        for model_bench, change, message in cases:
            cfg = dataclasses.replace(desk_cfg, **change)  # valid for the desk8 profile
            with pytest.raises(ValueError, match=message):
                run_identity(model_bench, cfg, seed=11)
            with pytest.raises(ValueError, match=message):
                make_injector(model_bench, cfg, identity)
    # readouts at step 2 and injection from step 3 fit a 6-step model
    cfg = dataclasses.replace(desk_cfg, tau_mask=2, tau_match=2, tau_inject=3)
    short_identity = run_identity(short, cfg, seed=11)
    assert len(short_identity.cache.plan) == 3 * len(cfg.kv_layers)
    _, injector = run_frame(short, cfg, short_identity, seed=21)
    assert injector.cached_rows is not None and injector.match is not None


def test_frame_run_reads_each_saved_cache_entry_once(bench, desk_cfg, identity, tmp_path,
                                                     monkeypatch):
    identity.cache.save(tmp_path / "cache.bvtr")
    loaded = dataclasses.replace(identity, cache=KvCache.load(tmp_path / "cache.bvtr"))
    reads = Counter()
    read = EntryStore.__getitem__

    def counted(store, key):
        if store is loaded.cache.entries:
            reads[key] += 1
        return read(store, key)

    monkeypatch.setattr(EntryStore, "__getitem__", counted)
    z_loaded, _ = run_frame(bench, desk_cfg, loaded, seed=21)
    assert reads == Counter((s, l, "x") for s, l in desk_cfg.cache_keys(bench.model.config.steps))
    z_held, _ = run_frame(bench, desk_cfg, identity, seed=21)
    np.testing.assert_array_equal(z_loaded, z_held)


def test_workbench_refuses_a_schedule_of_other_length(bench):
    short = _short_bench(bench, 6)  # model and schedule replaced together
    assert short.schedule.step_count == short.model.config.steps == 6
    with pytest.raises(ValueError, match="^schedule has 50 steps, the model 6$"):
        Workbench(short.model, bench.scene, bench.layout, bench.schedule)
    with pytest.raises(ValueError, match="^schedule has 6 steps, the model 50$"):
        dataclasses.replace(bench, schedule=short.schedule)


def test_recorded_runs_hold_no_payload_in_memory(bench, desk_cfg):
    runs = {
        "capture_trace": lambda: pipeline.capture_trace(bench, FRAME, seed=5, attn_out=True),
        "run_identity": lambda: run_identity(bench, desk_cfg, seed=11),
    }
    tracemalloc.start()
    try:
        for name, run in runs.items():
            before = tracemalloc.get_traced_memory()[0]
            kept = run()
            held = tracemalloc.get_traced_memory()[0] - before
            assert held < 1_000_000, f"{name} holds {held} bytes"
            del kept
    finally:
        tracemalloc.stop()


def test_capture_trace_records_one_field(bench):
    short = _short_bench(bench, 3)
    depth = short.model.config.depth
    for attn_out, name in ((False, "v2t"), (True, "attn_out")):
        trace = pipeline.capture_trace(short, FRAME, seed=5, attn_out=attn_out)
        assert set(trace.entries) == {(s, l, name) for s in range(3) for l in range(depth)}


def test_frame_run_rejects_cache_of_other_rows(bench, desk_cfg, identity, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("denoising started before the cache shape check")

    monkeypatch.setattr(pipeline, "denoise", no_compute)
    cfg = bench.model.config
    tau, first_kv = desk_cfg.tau_inject, desk_cfg.kv_layers[0]
    for rows, channels in [(cfg.joint_len, cfg.channels), (cfg.thw, cfg.channels + 2)]:
        cache = KvCache(rows, channels, plan=[(tau, first_kv)])  # the first entry read
        cache.admit(tau, first_kv, np.zeros((rows, channels), dtype=np.float32))
        other = dataclasses.replace(identity, cache=cache)
        with pytest.raises(ValueError, match=re.escape(
            f"identity_cache.bvtr holds 'x' at step {tau} layer {first_kv} "
            f"as ({rows}, {channels}), the model's is (256, 48)"
        )):
            run_frame(bench, desk_cfg, other, seed=31)


def test_frame_run_records_only_readout_keys_and_recovers_the_mask(bench, desk_cfg, identity):
    _, injector = run_frame(bench, desk_cfg, identity, seed=12)
    assert set(injector.own.entries) == set(desk_cfg.readout_keys())
    assert mask_iou(injector.mask_frame, bench.scene.mask(FRAME)) >= 0.95


def test_group_outputs_inventory(bench, desk_cfg, tmp_path):
    report = run_group(bench, desk_cfg, seed_identity=11, frame_seeds=[21], ablate=True)
    frame = report.frames[0]
    assert np.isfinite(frame.psnr_bg_injected)
    assert np.isfinite(frame.psnr_bg_vanilla)
    assert frame.psnr_bg_gain == frame.psnr_bg_injected - frame.psnr_bg_vanilla
    assert report.mean_gain() == pytest.approx(frame.psnr_bg_gain)
    assert frame.mask_frame.shape == (4, 8, 8)

    paths = write_group_outputs(report, tmp_path)
    names = {p.name for p in paths}
    want = {"identity_trace.bvtr", "identity_video.pgm", "identity_mask.csv",
            "frame0_video.pgm", "frame0_mask.csv", "frame0_match.csv",
            "frame0_vanilla.pgm", "report.txt"}
    want |= {f"identity_mask_f{t}.pgm" for t in range(4)}
    want |= {f"frame0_mask_f{t}.pgm" for t in range(4)}
    assert names == want
    assert all(p.exists() and p.stat().st_size > 0 for p in paths)
    text = (tmp_path / "report.txt").read_text()
    assert "gain" in text and "frame 0" in text


def test_ablated_vanilla_frames_equal_full_vanilla_runs(bench, desk_cfg, identity):
    seeds = [23, 24]
    report = run_group(bench, desk_cfg, seed_identity=11, frame_seeds=seeds, ablate=True)
    for i, (frame, seed) in enumerate(zip(report.frames, seeds)):
        z_full, _ = run_frame(bench, desk_cfg, identity, seed=seed, action_seed=i + 1,
                              inject=False)
        np.testing.assert_array_equal(frame.z_vanilla, z_full)


def test_ablated_group_resumes_each_vanilla_run(bench, desk_cfg, monkeypatch):
    steps = 6
    short = dataclasses.replace(
        bench,
        model=init_model(dataclasses.replace(bench.model.config, steps=steps)),
        schedule=StepSchedule.linear(steps),
    )
    cfg = dataclasses.replace(desk_cfg, tau_mask=2, tau_match=2, tau_inject=3)
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dit, "forward")  # looked up by denoise at call time
    counted(pipeline, "denoise")
    k = 3
    run_group(short, cfg, seed_identity=11, frame_seeds=range(21, 21 + k), ablate=True)
    # identity, k injected runs, k vanilla runs from tau_inject on
    assert calls["forward"] == steps + k * steps + k * (steps - cfg.tau_inject)
    assert calls["denoise"] == 2 * k + 1


def test_ablated_group_forms_only_the_planned_entries(bench, desk_cfg, monkeypatch):
    calls = Counter()

    def counted(cls, name):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[f"{cls.__name__}.{name}"] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(Attention, "head_mean")
    for cls in (TraceRecorder, CacheRecorder, Injector):
        counted(cls, "observe")
    frames = 5
    run_group(bench, desk_cfg, seed_identity=11, frame_seeds=range(21, 21 + frames), ablate=True)
    # the identity and each injected frame read the readout keys; vanilla runs observe nothing
    runs = 1 + frames
    assert calls["Attention.head_mean"] == runs * len(desk_cfg.mask_layers) == 48
    assert calls["CacheRecorder.observe"] == len(desk_cfg.cache_keys(bench.model.config.steps))
    assert calls["TraceRecorder.observe"] == len(desk_cfg.readout_keys())
    assert calls["Injector.observe"] == frames * len(desk_cfg.readout_keys())
    assert sum(v for k, v in calls.items() if k.endswith(".observe")) == 252


def test_group_without_frame_seeds_fails_before_compute(bench, desk_cfg, monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("denoising started")

    monkeypatch.setattr(pipeline, "denoise", no_compute)
    for seeds in ([], range(0)):
        with pytest.raises(ValueError, match="a group needs at least one frame seed"):
            run_group(bench, desk_cfg, seed_identity=11, frame_seeds=seeds)


def test_frame_without_ablation_has_no_gain(bench, desk_cfg):
    report = run_group(bench, desk_cfg, seed_identity=11, frame_seeds=[22], ablate=False)
    with pytest.raises(ValueError, match="vanilla counterpart"):
        report.frames[0].psnr_bg_gain


_LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


def _fake_v2t(fg_pixels, thw=4, text=6):
    sl = np.zeros((thw, text), dtype=np.float32)
    sl[:, :2] = 0.2  # background segment
    for p in fg_pixels:
        sl[p, 2:4] = 0.9  # foreground segment wins for these pixels
    return sl


def test_mask_grid_cells_score_single_layer_masks():
    reference = np.array([True, True, False, False]).reshape(1, 2, 2)
    trace = AttentionTrace()
    for s in (0, 1):
        for l in (0, 1):
            fg = (0, 1) if (s, l) != (1, 1) else (2, 3)  # one cell disagrees
            trace.put(s, l, "v2t", _fake_v2t(fg))
    grid = mask_grid(trace, _LAYOUT, 1, 2, 2, reference)
    assert grid.steps == (0, 1) and grid.layers == (0, 1)
    assert grid.values[0, 0] == 1.0  # rows are steps 0, 1; columns are layers 0, 1
    assert grid.values[1, 0] == 1.0
    assert grid.values[1, 1] == 0.0  # disjoint rectangles


def test_match_grid_zero_error_for_identical_traces():
    rng = np.random.default_rng(5)
    frame, ident = AttentionTrace(), AttentionTrace()
    for s in (3, 4):
        for l in (0, 2):
            out = rng.standard_normal((4, 5)).astype(np.float32)
            frame.put(s, l, "attn_out", out)
            ident.put(s, l, "attn_out", out)
    fg = np.ones((1, 2, 2), dtype=bool)
    grid = match_grid(frame, ident, 1, 2, 2, fg, true_lookup=np.arange(4).reshape(1, 2, 2))
    assert grid.steps == (3, 4) and grid.layers == (0, 2)
    assert (grid.values == 0.0).all()


def test_work_ledger_of_one_ablated_desk8_group(monkeypatch):
    """The work one desk8 `run_group(frames=5, ablate=True)` does, counted
    exactly: denoiser forwards, attention calls and attention score elements
    (the sum of heads * N * M over the calls). Equal code does equal work, so
    these counts change only when the work does; a change that moves them
    says why in CHANGES.md."""
    ledger = Counter()
    forward, attention = dit.forward, dit.joint_attention

    def counted_forward(*args, **kwargs):
        ledger["forwards"] += 1
        return forward(*args, **kwargs)

    def counted_attention(q, k, v, add_mask=None, heads=1, **kwargs):
        ledger["attention calls"] += 1
        ledger["score elements"] += heads * q.shape[0] * k.shape[0]
        return attention(q, k, v, add_mask, heads, **kwargs)

    monkeypatch.setattr(dit, "forward", counted_forward)
    monkeypatch.setattr(dit, "joint_attention", counted_attention)  # forward's global
    cfg = default_config("desk8")
    run_group(pipeline.make_workbench(cfg, scene_seed=1), cfg, seed_identity=0,
              frame_seeds=range(1, 6), scene_sigma=0.05, ablate=True)
    mc = cfg.model_config()
    assert ledger["forwards"] == 495 == 50 + 5 * 50 + 5 * (50 - cfg.tau_inject)
    assert ledger["attention calls"] == 3_960 == 495 * mc.depth
    assert ledger["score elements"] == 1_024_047_360
    # injected layers attend to more keys than joint_len: all-plain layers would give
    assert 3_960 * mc.heads * mc.joint_len**2 == 878_929_920
