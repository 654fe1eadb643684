"""Batched-head `forward` against the per-head loop it replaced, bit for bit.

The reference below is the earlier formulation kept as an oracle: one
single-head attention call per head on strided channel slices, and rotary
cos/sin recomputed on every call. Its attention is key-major and normalized
after the value product, the arithmetic of `joint_attention`. The model's
`forward` runs all heads in one call and reads its rotary table from the
model; both must produce identical bits for plain, skipped, observed and
injected runs.

A second reference keeps the order of operations used before the key-major
layout (query-major scores and logits, normalized before the value
product). It agrees with the model to float round-off over a full desk8
denoise.
"""

import numpy as np
import pytest

import bachkit.dit as dit
from bachkit.dit import (
    Hooks,
    ModelConfig,
    PromptLayout,
    StepSchedule,
    denoise,
    init_model,
    predict_clean,
)
from bachkit.inject import build_plan, region_mask
from bachkit.scene import IDENTITY
from bachkit.tensorops import (
    DTYPE,
    NEG,
    cosine_normalize_rows,
    grid_positions,
    rope_encode,
    rope_group_slices,
    rope_pair_angles,
)
from bachkit.trace import TraceRecorder
from refs import seeded_prompt, trace_keys

SMALL = ModelConfig(
    depth=3, channels=12, heads=3, frames=2, height=3, width=3,
    text_len=6, steps=8, seed=4,
)
LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


def _reference_rope(x, pos):
    """Rotary encoding with cos/sin recomputed per call, one axis group at a time."""
    out = x.astype(DTYPE).copy()
    for axis, sl in enumerate(rope_group_slices(x.shape[1])):
        g = out[:, sl]
        theta = rope_pair_angles(g.shape[1])
        ang = pos[:, axis : axis + 1].astype(DTYPE) * theta[None, :]
        cos, sin = np.cos(ang), np.sin(ang)
        even = g[:, 0::2].copy()
        odd = g[:, 1::2].copy()
        g[:, 0::2] = even * cos - odd * sin
        g[:, 1::2] = even * sin + odd * cos
    return out


def _reference_attention(q, k, v, add_mask):
    """Single-head attention, key-major and normalized after the value product,
    with the boolean-index zeroing and trailing copies."""
    scores = k @ (q * DTYPE(1.0 / np.sqrt(q.shape[1]))).T  # (M, N)
    forbidden = None
    if add_mask is not None:
        scores = scores + add_mask.T
        forbidden = add_mask.T == NEG
    e = np.exp(scores - np.max(scores, axis=0, keepdims=True))
    if forbidden is not None:
        e[forbidden] = DTYPE(0.0)
    sums = np.sum(e, axis=0, keepdims=True)
    w = (e / sums).T.astype(DTYPE)
    return w, ((e.T @ v) / sums.T).astype(DTYPE)


def _parent_order_attention(q, k, v, add_mask):
    """Single-head attention as it was computed before the key-major layout:
    query-major scores, normalized before the value product."""
    scores = (q @ k.T) * DTYPE(1.0 / np.sqrt(q.shape[1]))
    if add_mask is not None:
        scores = scores + add_mask
    e = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    w = (e / np.sum(e, axis=-1, keepdims=True)).astype(DTYPE)
    return w, (w @ v).astype(DTYPE)


def _parent_order_predict_clean(model, hidden_video, z_text, *, out):
    """`predict_clean` with query-major logits, normalized before the product.
    It allocates its own logits, so the score buffer `out` is unused."""

    def softmax(x):
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    x_text = softmax(dit.BETA_TEXT * (hidden_video @ z_text.T)) @ z_text
    bank = model.texture_bank
    blend = softmax(dit.BETA_TEXTURE * (hidden_video @ bank.T)) @ bank
    direction = cosine_normalize_rows(blend)
    coeff = np.maximum(np.sum(hidden_video * direction, axis=1), 0.0).astype(DTYPE)
    return (x_text + coeff[:, None] * direction).astype(DTYPE)


def _reference_forward(model, z_video, z_text, t, hooks=None, skip=None, sigma=1.0, *,
                       scratch, attention=_reference_attention, head=predict_clean):
    """`forward` as one attention call per head on strided channel slices.
    `scratch`, the score workspace `denoise` hands `forward`, goes to `head` only."""
    cfg = model.config
    thw = cfg.thw
    hd = cfg.channels // cfg.heads
    heads = [slice(h * hd, (h + 1) * hd) for h in range(cfg.heads)]
    positions = grid_positions(cfg.frames, cfg.height, cfg.width)
    z_flat = z_video.reshape(thw, cfg.channels).astype(DTYPE)
    x = np.concatenate([z_flat, z_text.astype(DTYPE)], axis=0)
    for layer in range(cfg.depth):
        if layer == skip:
            continue
        lw = model.layers[layer]
        pre_k = x * lw.qk_gain[None, :]
        pre_v = x @ lw.w_value
        roped_k = pre_k.copy()
        roped_k[:thw] = _reference_rope(pre_k[:thw], positions)
        plan = hooks.inject(t, layer, pre_k, pre_v, roped_k) if hooks is not None else None
        if plan is None:
            k_eff, v_eff, mask = roped_k, pre_v, None
        else:
            k_eff, v_eff, mask = plan.k, plan.v, plan.add_mask
        attn = np.empty_like(x)
        v2t_sum = None
        for hs in heads:
            w_h, o_h = attention(roped_k[:, hs], k_eff[:, hs], v_eff[:, hs], mask)
            attn[:, hs] = o_h
            sl = w_h[:thw, thw : thw + cfg.text_len]
            v2t_sum = sl.copy() if v2t_sum is None else v2t_sum + sl
        if hooks is not None:
            entries = {"v2t": (v2t_sum / DTYPE(cfg.heads)).astype(DTYPE),
                       "attn_out": attn[:thw], "x": x[:thw]}
            for name, value in entries.items():
                if (t, layer, name) in hooks.keys:
                    hooks.observe(t, layer, name, value)
        x = x + attn @ lw.w_out
        x = x + np.tanh(x @ lw.w_mlp1) @ lw.w_mlp2
    x0_hat = head(model, x[:thw], z_text, out=scratch)
    return ((z_flat - x0_hat) / DTYPE(sigma)).reshape(z_video.shape)


class _Injecting(Hooks):
    """Fuses fixed random identity rows into every layer from step 2 on."""

    def __init__(self, model):
        cfg = model.config
        rng = np.random.default_rng(17)
        self.weights = model.layers
        self.cached = [
            rng.standard_normal((cfg.thw, cfg.channels)).astype(DTYPE) for _ in range(cfg.depth)
        ]
        fg, bg = np.array([1, 2, 4, 10, 13]), np.array([0, 6, 8, 9, 17])
        self.cached_rows = np.concatenate([[3, 2, 5, 10, 12], bg])  # matched rows, then bg
        self.key_table = model.rotary[np.concatenate([fg, bg])]
        self.add_mask = region_mask(cfg.joint_len, cfg.thw, fg, 5, 5)

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        if step < 2:
            return None
        return build_plan(roped_k, pre_v, self.cached[layer], self.weights[layer],
                          self.cached_rows, self.key_table, self.add_mask)


@pytest.fixture(scope="module")
def small():
    model = init_model(SMALL)
    prompt = seeded_prompt(LAYOUT, SMALL.channels, seed=0)
    return model, prompt, StepSchedule.linear(SMALL.steps)


def _both(monkeypatch, model, prompt, schedule, make_hooks=lambda: None, skip=None):
    got_hooks, want_hooks = make_hooks(), make_hooks()
    got = denoise(model, prompt, schedule, seed=5, hooks=got_hooks, skip=skip)
    with monkeypatch.context() as m:
        m.setattr(dit, "forward", _reference_forward)
        want = denoise(model, prompt, schedule, seed=5, hooks=want_hooks, skip=skip)
    np.testing.assert_array_equal(got, want)
    return got_hooks, want_hooks


def test_plain_run_matches_per_head_loop(small, monkeypatch):
    _both(monkeypatch, *small)


def test_skip_run_matches_per_head_loop(small, monkeypatch):
    _both(monkeypatch, *small, skip=1)


def test_observed_run_matches_per_head_loop(small, monkeypatch):
    got, want = _both(monkeypatch, *small,
                      make_hooks=lambda: TraceRecorder(trace_keys(
                          range(SMALL.steps), range(SMALL.depth), ("v2t", "attn_out", "x"))))
    assert got.trace.entries.keys() == want.trace.entries.keys()
    assert len(got.trace.entries) == 3 * SMALL.steps * SMALL.depth
    for key, value in want.trace.entries.items():
        np.testing.assert_array_equal(got.trace.entries[key], value, err_msg=str(key))


def test_injected_run_matches_per_head_loop(small, monkeypatch):
    model = small[0]
    # the plan re-encodes rows from the model's table; the reference path uses the same plan
    _both(monkeypatch, *small, make_hooks=lambda: _Injecting(model))


@pytest.mark.parametrize("shape", [(2, 3, 3, 12), (4, 8, 8, 48)])
def test_rotary_table_equals_per_position_encoding(shape):
    frames, height, width, channels = shape
    cfg = ModelConfig(depth=1, channels=channels, heads=3, frames=frames, height=height,
                      width=width, text_len=1, steps=1)
    model = init_model(cfg)
    x = np.random.default_rng(3).standard_normal((cfg.thw, channels)).astype(DTYPE)
    want = _reference_rope(x, grid_positions(frames, height, width))
    np.testing.assert_array_equal(rope_encode(x, model.rotary), want)
    rows = np.array([cfg.thw - 1, 0, 5, 5])
    np.testing.assert_array_equal(rope_encode(x[rows], model.rotary[rows]), want[rows])


def test_full_desk8_denoise_matches_parent_order_arithmetic(bench, desk_cfg, monkeypatch):
    def parent_forward(*args, **kwargs):
        return _reference_forward(*args, **kwargs, attention=_parent_order_attention,
                                  head=_parent_order_predict_clean)

    def run():
        rec = TraceRecorder(trace_keys([desk_cfg.tau_mask], range(bench.model.config.depth)))
        z0 = denoise(bench.model, bench.prompt(0), bench.schedule, 11, hooks=rec,
                     init_clean=bench.scene.noisy_latent(IDENTITY, 0.05, 11))
        return z0, rec.trace

    got, got_trace = run()
    with monkeypatch.context() as m:
        m.setattr(dit, "forward", parent_forward)
        want, want_trace = run()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
    assert got_trace.entries.keys() == want_trace.entries.keys()
    for key, value in want_trace.entries.items():
        np.testing.assert_allclose(got_trace.entries[key], value, rtol=0, atol=1e-5,
                                   err_msg=str(key))
