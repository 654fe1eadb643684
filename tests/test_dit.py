"""Model construction, the denoising loop, hooks, and the decode path."""

import itertools
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import bachkit.dit as dit
from bachkit.config import default_config
from bachkit.dit import (
    OBSERVED_FIELDS,
    ChainedHooks,
    Hooks,
    InjectionPlan,
    ModelConfig,
    PROFILES,
    PromptLayout,
    StepSchedule,
    channel_plan,
    decode_video,
    denoise,
    embed_prompt,
    forward,
    init_model,
    initial_latent,
    patch_shape,
)
from bachkit.inject import CacheRecorder, Injector, KvCache
from bachkit.scene import IDENTITY
from bachkit.tensorops import DTYPE, Attention
from bachkit.trace import TraceRecorder
from refs import invert_decode, seeded_prompt, without_layer

SMALL = ModelConfig(
    depth=3, channels=12, heads=3, frames=2, height=3, width=3,
    text_len=6, steps=8, seed=4,
)
LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


@pytest.fixture(scope="module")
def small_model():
    return init_model(SMALL)


@pytest.fixture(scope="module")
def small_prompt():
    return seeded_prompt(LAYOUT, SMALL.channels, seed=0)


def test_profiles():
    assert PROFILES["desk8"].depth == 8
    assert PROFILES["paper42"].depth == 42
    for cfg in PROFILES.values():
        assert cfg.channels == 48 and cfg.heads == 3
        assert cfg.joint_len == cfg.thw + cfg.text_len


def test_fingerprints_pinned():
    assert PROFILES["desk8"].fingerprint() == "26022edfbb13c3aa"
    assert PROFILES["paper42"].fingerprint() == "3c756cbf4a7b037b"


def test_channel_plan_partitions():
    plan = channel_plan(48)
    bands = np.concatenate([plan.signature, plan.texture, plan.spare])
    assert sorted(bands.tolist()) == list(range(48))
    # texture pairs sit at the most position-sensitive (highest-frequency) end
    assert plan.texture.min() == 0


def test_schedule_linear():
    sched = StepSchedule.linear(50)
    assert sched.step_count == 50
    assert sched.sigmas[0] == DTYPE(0.5)
    assert sched.sigmas[-1] == 0.0
    assert (np.diff(sched.sigmas) < 0).all()


def test_patch_shape():
    assert patch_shape(48) == (6, 8)
    assert patch_shape(12) == (3, 4)


def test_initial_latent_rides_on_clean():
    sched = StepSchedule.linear(SMALL.steps)
    clean = np.full((2, 3, 3, 12), 0.25, dtype=DTYPE)
    z = initial_latent(SMALL, sched, seed=9, init_clean=clean)
    noise = initial_latent(SMALL, sched, seed=9)
    np.testing.assert_allclose(z, clean + noise, atol=1e-6)
    with pytest.raises(ValueError):
        initial_latent(SMALL, sched, seed=9, init_clean=clean[:1])


def test_denoise_deterministic(small_model, small_prompt):
    sched = StepSchedule.linear(SMALL.steps)
    a = denoise(small_model, small_prompt, sched, seed=3)
    b = denoise(small_model, small_prompt, sched, seed=3)
    c = denoise(small_model, small_prompt, sched, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_skip_equals_model_without_layer(small_model, small_prompt):
    # bypassing block l is the same computation as a model built without it
    sched = StepSchedule.linear(SMALL.steps)
    for layer in range(SMALL.depth):
        skipped = denoise(small_model, small_prompt, sched, seed=1, skip=layer)
        removed = denoise(without_layer(small_model, layer), small_prompt, sched, seed=1)
        np.testing.assert_array_equal(skipped, removed)
    baseline = denoise(small_model, small_prompt, sched, seed=1)
    assert not np.array_equal(baseline, denoise(small_model, small_prompt, sched, seed=1, skip=0))


def test_forward_validates_shapes_and_skip(small_model, small_prompt):
    z = np.zeros((2, 3, 3, 12), dtype=DTYPE)
    with pytest.raises(ValueError):
        forward(small_model, z[:1], small_prompt, 0)
    with pytest.raises(ValueError):
        forward(small_model, z, small_prompt[:2], 0)
    with pytest.raises(ValueError):
        forward(small_model, z, small_prompt, 0, skip=SMALL.depth)


class _BadPlanHook(Hooks):
    def __init__(self, extra_mask_cols=0, extra_v_rows=0):
        self.extra_mask_cols, self.extra_v_rows = extra_mask_cols, extra_v_rows

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        n = roped_k.shape[0]
        v = np.concatenate([pre_v, pre_v[: self.extra_v_rows]])
        return InjectionPlan(
            k=roped_k, v=v, add_mask=np.zeros((n, n + self.extra_mask_cols), dtype=DTYPE)
        )


def test_forward_rejects_inconsistent_plan(small_model, small_prompt):
    # forward hands the plan to joint_attention, whose checks raise
    z = np.zeros((2, 3, 3, 12), dtype=DTYPE)
    n = SMALL.joint_len
    with pytest.raises(ValueError, match=rf"mask shape \({n}, {n + 1}\) does not match scores"):
        forward(small_model, z, small_prompt, 0, hooks=_BadPlanHook(extra_mask_cols=1))
    with pytest.raises(ValueError, match=f"row mismatch: k has {n}, v has {n + 2}"):
        forward(small_model, z, small_prompt, 0, hooks=_BadPlanHook(extra_v_rows=2))


class _LongPlanHook(Hooks):
    """Injects a plan of `keys` fused keys: the joint rows, then repeats of them."""

    def __init__(self, keys):
        self.keys_in_plan = keys

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        rows = np.arange(self.keys_in_plan) % len(roped_k)
        return InjectionPlan(k=roped_k[rows], v=pre_v[rows],
                             add_mask=np.zeros((len(roped_k), len(rows)), dtype=DTYPE))


def test_forward_refuses_a_plan_longer_than_the_workspace(small_model, small_prompt):
    z = np.zeros((2, 3, 3, 12), dtype=DTYPE)
    most = SMALL.max_keys
    assert most == SMALL.joint_len + SMALL.thw
    message = f"injection plan carries {most + 1} keys; at most {most} "
    with pytest.raises(ValueError, match=message):
        forward(small_model, z, small_prompt, 0, hooks=_LongPlanHook(most + 1))
    forward(small_model, z, small_prompt, 0, hooks=_LongPlanHook(most))


def _desk8_inputs(bench):
    return bench.model, bench.scene.noisy_latent(IDENTITY, 0.05, 0), bench.prompt(0)


def test_observed_values_never_alias_the_score_workspace(bench):
    model, z, text = _desk8_inputs(bench)
    cfg = model.config
    scratch = dit.score_workspace(cfg)
    seen = []

    class Check(Hooks):
        keys = frozenset(itertools.product([0], range(cfg.depth), OBSERVED_FIELDS))

        def observe(self, step, layer, name, value):
            seen.append((layer, name))
            assert not np.shares_memory(value, scratch), (layer, name)

    forward(model, z, text, 0, hooks=Check(), scratch=scratch)
    assert len(seen) == cfg.depth * len(OBSERVED_FIELDS)


def test_warm_forward_with_its_workspace_allocates_less_than_one_score_block(bench):
    model, z, text = _desk8_inputs(bench)
    cfg = model.config
    scratch = dit.score_workspace(cfg)
    forward(model, z, text, 0, scratch=scratch)  # warm
    tracemalloc.start()
    try:
        forward(model, z, text, 0, scratch=scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < cfg.heads * cfg.joint_len**2 * DTYPE().itemsize


def test_concurrent_denoise_on_one_model_equals_serial_runs(bench):
    model, text, schedule = bench.model, bench.prompt(0), bench.schedule
    skips = [None, 3, None, 3]  # more threads than cores, plain and skipped
    serial = {skip: denoise(model, text, schedule, 7, skip=skip) for skip in set(skips)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        with ThreadPoolExecutor(max_workers=len(skips)) as pool:
            runs = [pool.submit(denoise, model, text, schedule, 7, skip=skip) for skip in skips]
            got = [run.result(timeout=300) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for skip, z in zip(skips, got):
        np.testing.assert_array_equal(z, serial[skip], err_msg=f"skip={skip}")


_EVERY_ENTRY = frozenset(
    itertools.product(range(SMALL.steps), range(SMALL.depth), OBSERVED_FIELDS)
)
_SHAPES = {
    "v2t": (SMALL.thw, SMALL.text_len),
    "attn_out": (SMALL.thw, SMALL.channels),
    "x": (SMALL.thw, SMALL.channels),  # the layer input's video rows
}


class _Counter(Hooks):
    keys = _EVERY_ENTRY

    def __init__(self):
        self.observed = []
        self.steps_ended = []

    def observe(self, step, layer, name, value):
        self.observed.append((step, layer, name))
        assert value.shape == _SHAPES[name]

    def step_end(self, step, z):
        self.steps_ended.append(step)
        assert z.shape == (SMALL.frames, SMALL.height, SMALL.width, SMALL.channels)


def test_hooks_see_every_step_and_layer(small_model, small_prompt):
    sched = StepSchedule.linear(SMALL.steps)
    counter = _Counter()
    denoise(small_model, small_prompt, sched, seed=2, hooks=counter)
    assert counter.observed == list(
        itertools.product(range(SMALL.steps), range(SMALL.depth), OBSERVED_FIELDS)
    )
    assert counter.steps_ended == list(range(SMALL.steps))


class _Planned(Hooks):
    """Logs every entry it is handed; plans `keys`."""

    def __init__(self, keys, log):
        self.keys = frozenset(keys)
        self.log = log

    def observe(self, step, layer, name, value):
        self.log.append((self, (step, layer, name)))


def test_forward_forms_only_the_planned_entries(small_model, small_prompt, monkeypatch):
    head_means = []
    head_mean = Attention.head_mean

    def counted(self, *args):
        head_means.append(args)
        return head_mean(self, *args)

    monkeypatch.setattr(Attention, "head_mean", counted)
    sched = StepSchedule.linear(SMALL.steps)
    log = []
    hook = _Planned({(3, 0, "x"), (2, 1, "v2t")}, log)
    plain = denoise(small_model, small_prompt, sched, seed=2)
    np.testing.assert_array_equal(denoise(small_model, small_prompt, sched, seed=2, hooks=hook),
                                  plain)
    assert log == [(hook, (2, 1, "v2t")), (hook, (3, 0, "x"))]
    assert len(head_means) == 1

    # a chain hands each entry only to the hook that planned it
    log.clear()
    a = _Planned({(1, 2, "attn_out"), (4, 0, "v2t")}, log)
    b = _Planned({(4, 0, "v2t"), (5, 1, "x")}, log)
    c = _Planned(set(), log)
    chain = ChainedHooks(a, None, b, c)
    assert chain.keys == a.keys | b.keys
    denoise(small_model, small_prompt, sched, seed=2, hooks=chain)
    assert log == [(a, (1, 2, "attn_out")), (a, (4, 0, "v2t")), (b, (4, 0, "v2t")),
                   (b, (5, 1, "x"))]
    assert len(head_means) == 2  # formed once for both hooks


class _Latents(Hooks):
    """Keeps a copy of the latent entering every step, the initial one first."""

    def __init__(self, z_init):
        self.entering = [z_init]

    def step_end(self, step, z):
        assert not z.flags.writeable
        assert step == len(self.entering) - 1
        self.entering.append(z.copy())


class _Captures(Hooks):
    """Copies of every entry of every field, the layer input `x` included."""

    keys = _EVERY_ENTRY

    def __init__(self):
        self.entries = {}

    def observe(self, step, layer, name, value):
        self.entries[(step, layer, name)] = value.copy()


def test_resumed_denoise_equals_full_run_at_every_step(small_model, small_prompt):
    sched = StepSchedule.linear(SMALL.steps)
    latents = _Latents(initial_latent(SMALL, sched, seed=5))
    full = denoise(small_model, small_prompt, sched, seed=5, hooks=latents)
    assert len(latents.entering) == SMALL.steps + 1
    np.testing.assert_array_equal(latents.entering[-1], full)

    whole = _Captures()
    denoise(small_model, small_prompt, sched, seed=5, hooks=whole)
    for s, z in enumerate(latents.entering):
        # the seed only makes the initial latent, which `start` replaces
        np.testing.assert_array_equal(
            denoise(small_model, small_prompt, sched, seed=99, start=(s, z)), full
        )
        rec = _Captures()
        resumed = denoise(small_model, small_prompt, sched, seed=5, hooks=rec, start=(s, z))
        np.testing.assert_array_equal(resumed, full)
        assert sorted({k[0] for k in rec.entries}) == list(range(s, SMALL.steps))
        for key, a in rec.entries.items():
            np.testing.assert_array_equal(a, whole.entries[key])
        assert resumed is not z  # the caller's latent is never handed back


def test_denoise_refuses_hook_keys_outside_the_run(small_model, small_prompt, monkeypatch):
    monkeypatch.setattr(dit, "forward", lambda *a, **k: pytest.fail("a step ran"))
    unknown_field = Hooks()
    unknown_field.keys = frozenset({(1, 1, "pre_k")})
    cache = KvCache(SMALL.thw, SMALL.channels, [(2, 0), (2, SMALL.depth)])
    cases = [
        (TraceRecorder([(0, 99, "v2t"), (70, 0, "x")]), (0, 99, "v2t")),
        (TraceRecorder([(0, 0, "v2t"), (SMALL.steps, 0, "x")]), (SMALL.steps, 0, "x")),
        (TraceRecorder([(-1, 0, "attn_out")]), (-1, 0, "attn_out")),
        (CacheRecorder(cache), (2, SMALL.depth, "x")),
        # desk8's readout keys lie at step 10, after this 8-step schedule
        (Injector(model=small_model, layout=LAYOUT, identity=None,
                  run_cfg=default_config("desk8")), (10, 0, "attn_out")),
        (ChainedHooks(TraceRecorder([(0, 0, "v2t")]), unknown_field), (1, 1, "pre_k")),
    ]
    for hooks, key in cases:
        with pytest.raises(ValueError, match=re.escape(
            f"hook key {key} is outside the run: steps 0..{SMALL.steps - 1}, "
            f"layers 0..{SMALL.depth - 1}, fields {OBSERVED_FIELDS}"
        )):
            denoise(small_model, small_prompt, StepSchedule.linear(SMALL.steps), 5, hooks=hooks)


def test_resumed_denoise_validates_start(small_model, small_prompt):
    sched = StepSchedule.linear(SMALL.steps)
    z = initial_latent(SMALL, sched, seed=5)
    with pytest.raises(ValueError, match="exclusive"):
        denoise(small_model, small_prompt, sched, seed=5, init_clean=z, start=(0, z))
    for step in (-1, SMALL.steps + 1):
        with pytest.raises(ValueError, match=f"start step {step} outside 0..{SMALL.steps}"):
            denoise(small_model, small_prompt, sched, seed=5, start=(step, z))
    with pytest.raises(ValueError, match="start latent shape"):
        denoise(small_model, small_prompt, sched, seed=5, start=(2, z[:1]))


def test_v2t_rows_are_probabilities(small_model, small_prompt):
    caught = {}

    class Grab(Hooks):
        keys = frozenset({(0, 0, "v2t")})

        def observe(self, step, layer, name, value):
            caught[(step, layer)] = value

    z = np.zeros((2, 3, 3, 12), dtype=DTYPE)
    forward(small_model, z, small_prompt, 0, hooks=Grab())
    v2t = caught[(0, 0)]
    # head-averaged slice of a full softmax: rows sum to < 1 (video keys take the rest)
    assert (v2t >= 0).all()
    assert (v2t.sum(axis=1) <= 1.0 + 1e-5).all()


def test_embed_prompt_layout_segments(bench):
    rows = embed_prompt(LAYOUT, bench.scene, seed=0)
    assert rows.shape == (LAYOUT.total, 48)
    np.testing.assert_array_equal(rows[LAYOUT.bg_slice][0], rows[LAYOUT.bg_slice][1])
    np.testing.assert_array_equal(rows[-1], np.zeros(48))  # pad
    assert np.linalg.norm(rows[0]) > 0


def test_decode_invert_roundtrip():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((2, 3, 3, 12)).astype(DTYPE)
    video = decode_video(z)
    assert video.shape == (2, 3 * 3, 3 * 4)
    assert video.min() > 0.0 and video.max() < 1.0
    back = invert_decode(video, 12)
    np.testing.assert_allclose(back, z, atol=1e-3)


def test_model_checksum_stable(small_model):
    from dataclasses import replace

    assert small_model.weights_checksum() == init_model(SMALL).weights_checksum()
    other = init_model(replace(SMALL, seed=5))
    assert other.weights_checksum() != small_model.weights_checksum()
