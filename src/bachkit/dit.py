"""Miniature joint-sequence diffusion transformer with trace hooks.

The denoiser runs full self-attention over the concatenated video+text token
sequence, hands observation hooks the per-layer entries they ask for, accepts
key/value substitution from injection hooks, and supports skipping a single
block. Weights are generated from a counter-based PRNG keyed by
(seed, layer, role), so a config identifies a model bit-exactly.

Content convention
------------------
The channel axis is split by `channel_plan` into rotary-frequency bands:

* texture channels (high-frequency rotary pairs): carry per-pixel content as
  rotations of a fixed basis vector, so spatial offsets are distinguishable;
* signature channels (low-frequency pairs): carry segment-level content that
  survives rotary encoding nearly unchanged, so video-to-text attention can
  compare it against prompt rows;
* spare channels: denoised toward zero.

The denoising head predicts the clean latent by snapping each video token
onto the prompt rows (signature bands) and onto the rotation bank of the
texture basis (texture bands), then converts that to a noise estimate for an
explicit Euler update.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, field

import numpy as np

from .tensorops import (
    DTYPE,
    RotaryTable,
    cosine_normalize_rows,
    grid_positions,
    joint_attention,
    rope_encode,
    rope_group_slices,
    scratch_block,
    softmax_average,
)

# Denoising / content-scale defaults. Texture runs hotter than signatures so
# attention outputs stay pixel-specific; sigma_max keeps the per-pixel flip
# probability of the prompt snap negligible over a full run.
SIGMA_MAX_DEFAULT = 0.5
SIGNATURE_AMP = 3.0
TEXTURE_AMP = 6.0

# Denoising-head snap temperatures.
BETA_TEXT = 0.5
BETA_TEXTURE = 8.0

# Weight-generation scales. Output projections are scaled near-inverses of
# the value projection, so attention genuinely averages token content into
# the residual stream instead of scattering it across channels.
QK_LOG_SPREAD = 0.35
RESIDUAL_GAIN = 0.08
OUT_PROJ_NOISE = 0.3

# Decoded-video squash gain (latent -> enforced (0, 1) range).
DECODE_GAIN = 0.25

# PRNG role tags; a weight stream is keyed by (seed, layer, role).
_ROLE_QK_GAIN = 1
_ROLE_VALUE = 2
_ROLE_OUT = 3
_ROLE_MLP1 = 4
_ROLE_MLP2 = 5
_ROLE_NOISE = 6

# Fixed streams shared by every model (decode map, texture dictionaries).
_DECODE_SEED = 0x0DEC
_TEXTURE_BASIS_SEED = 0x7E87


def _rng(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key))))


def _orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))[None, :]
    return q.astype(DTYPE)


@dataclass(frozen=True)
class ModelConfig:
    """Shape and determinism parameters of one model instance."""

    depth: int
    channels: int
    heads: int
    frames: int
    height: int
    width: int
    text_len: int
    steps: int
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.channels % self.heads != 0:
            raise ValueError("channels must divide evenly into heads")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        rope_group_slices(self.channels)  # validates per-axis splitting

    @property
    def thw(self) -> int:
        return self.frames * self.height * self.width

    @property
    def joint_len(self) -> int:
        return self.thw + self.text_len

    @property
    def max_keys(self) -> int:
        """Most fused keys an injection plan may carry: the joint sequence
        plus one injected row per video token (n_fg + n_bg <= THW)."""
        return self.joint_len + self.thw

    def fingerprint(self) -> str:
        payload = ",".join(str(v) for v in astuple(self))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: Shipped profiles: `paper42` mirrors the reference 42-layer stack for
#: selector fixtures and cache arithmetic; `desk8` is the fast test profile.
PROFILES = {
    "paper42": ModelConfig(
        depth=42, channels=48, heads=3, frames=4, height=8, width=8, text_len=16, steps=50
    ),
    "desk8": ModelConfig(
        depth=8, channels=48, heads=3, frames=4, height=8, width=8, text_len=16, steps=50
    ),
}


@dataclass(frozen=True)
class PromptLayout:
    """Token counts of the [background],[character],[action] prompt segments."""

    bg: int
    fg: int
    action: int = 0
    pad: int = 0

    def __post_init__(self):
        if self.bg < 1 or self.fg < 1:
            raise ValueError("bg and fg segments need at least one token each")
        if self.action < 0 or self.pad < 0:
            raise ValueError("segment lengths must be nonnegative")

    @property
    def total(self) -> int:
        return self.bg + self.fg + self.action + self.pad

    @property
    def bg_slice(self) -> slice:
        return slice(0, self.bg)

    @property
    def fg_slice(self) -> slice:
        return slice(self.bg, self.bg + self.fg)


@dataclass(frozen=True)
class StepSchedule:
    """Sigma ladder for the explicit Euler denoiser; sigmas[-1] is exactly 0."""

    sigmas: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigmas, dtype=DTYPE)
        if s.ndim != 1 or len(s) < 2:
            raise ValueError("schedule needs at least one step")
        if s[-1] != 0.0:
            raise ValueError("schedule must end at sigma 0")
        if not np.all(np.diff(s) < 0):
            raise ValueError("sigmas must be strictly decreasing")
        object.__setattr__(self, "sigmas", s)

    @property
    def step_count(self) -> int:
        return len(self.sigmas) - 1

    @classmethod
    def linear(cls, steps: int) -> "StepSchedule":
        return cls(np.linspace(SIGMA_MAX_DEFAULT, 0.0, steps + 1, dtype=DTYPE))


@dataclass(frozen=True)
class ChannelPlan:
    """Index sets of the texture / signature / spare channel bands."""

    texture: np.ndarray
    signature: np.ndarray
    spare: np.ndarray


def channel_plan(channels: int) -> ChannelPlan:
    """Partition each axis group's rotary pairs into texture (first, highest
    frequency), one spare pair when room allows, and signature (lowest
    frequency, least rotated by position)."""
    tex, sig, spare = [], [], []
    for sl in rope_group_slices(channels):
        pairs = (sl.stop - sl.start) // 2
        n_tex = max(1, pairs // 2)
        n_spare = 1 if pairs >= 6 else 0
        n_sig = pairs - n_tex - n_spare
        if n_sig < 1:
            raise ValueError(f"too few rotary pairs per axis ({pairs}) for a channel plan")
        for p in range(pairs):
            chans = [sl.start + 2 * p, sl.start + 2 * p + 1]
            if p < n_tex:
                tex.extend(chans)
            elif p < n_tex + n_spare:
                spare.extend(chans)
            else:
                sig.extend(chans)
    return ChannelPlan(
        texture=np.array(tex, dtype=np.int64),
        signature=np.array(sig, dtype=np.int64),
        spare=np.array(spare, dtype=np.int64),
    )


def texture_dictionary(frames: int, height: int, width: int, channels: int) -> np.ndarray:
    """Fixed per-cell unit subject-texture vectors, (T*H*W, C), supported on
    the texture channels. Entries are generated in orthonormal blocks, so
    nearby cells are exactly orthogonal and attention rows concentrate on
    content-matched tokens. Shared by scenes and models."""
    plan = channel_plan(channels)
    d = len(plan.texture)
    rng = _rng(_TEXTURE_BASIS_SEED, channels, 0)
    n = frames * height * width
    rows = []
    while len(rows) * d < n + d:
        rows.append(_orthogonal(d, rng))
    block = np.concatenate(rows, axis=0)[:n]
    out = np.zeros((n, channels), dtype=DTYPE)
    out[:, plan.texture] = block.astype(DTYPE)
    return out


def detail_direction(channels: int) -> np.ndarray:
    """Fixed unit vector carrying background shading, (C,). Backgrounds ride
    on one shared direction so attention-averaged content preserves it."""
    plan = channel_plan(channels)
    rng = _rng(_TEXTURE_BASIS_SEED, channels, 1)
    vec = np.zeros(channels, dtype=DTYPE)
    vec[plan.texture] = rng.standard_normal(len(plan.texture)).astype(DTYPE)
    return (vec / np.linalg.norm(vec)).astype(DTYPE)


def texture_bank(frames: int, height: int, width: int, channels: int) -> np.ndarray:
    """Snap targets of the denoising head: the subject texture dictionary plus
    the background detail direction as the final row, (T*H*W + 1, C)."""
    return np.concatenate(
        [
            texture_dictionary(frames, height, width, channels),
            detail_direction(channels)[None, :],
        ],
        axis=0,
    )


@dataclass(frozen=True)
class LayerWeights:
    qk_gain: np.ndarray  # (C,) tied diagonal query/key projection
    w_value: np.ndarray  # (C, C) orthogonal value projection
    w_out: np.ndarray  # (C, C) small-gain output projection
    w_mlp1: np.ndarray  # (C, 2C)
    w_mlp2: np.ndarray  # (2C, C) small-gain


def layer_kv(x: np.ndarray, weights: LayerWeights) -> tuple[np.ndarray, np.ndarray]:
    """Pre-rotary keys and values of layer input rows `x`: the tied query/key
    projection `x * qk_gain` and the value projection `x @ w_value`, row by
    row, so an injection derives identity rows from cached inputs bit for bit."""
    return x * weights.qk_gain[None, :], x @ weights.w_value


@dataclass(frozen=True)
class InjectionPlan:
    """Fused key/value rows plus the additive region mask, as returned by an
    injection hook. Key/value rows beyond the joint sequence are the injected
    block; `add_mask` has one row per query and one column per fused key."""

    k: np.ndarray
    v: np.ndarray
    add_mask: np.ndarray


#: Fields a hook can ask `forward` for, in the order it forms them per layer.
OBSERVED_FIELDS = ("v2t", "attn_out", "x")


class Hooks:
    """Observation / injection callbacks for `forward` and `denoise`.

    `keys` is the hook's plan: the (step, layer, field) entries it observes.
    `forward` forms an entry only when `keys` holds it and hands it to
    `observe(step, layer, name, value)`, one call per entry, as a view (copy
    to retain). The fields are "v2t", the head-averaged video-to-text weights
    (THW, text_len); "attn_out", the attention output's video rows (THW, C);
    and "x", the layer input's video rows (THW, C), from which `layer_kv`
    gives the layer's pre-rotary keys and values.
    `inject` may return an InjectionPlan to substitute fused key/value rows
    before attention; returning None leaves the layer untouched. A plan
    carries at most `ModelConfig.max_keys` keys (joint_len + THW), the most
    the score workspace holds; `forward` refuses a longer one. The layer's
    attention scores live in that workspace, which the next layer reuses,
    but no observed value aliases it: "v2t" is formed fresh by
    `Attention.head_mean`, "attn_out" and "x" are rows of arrays `forward`
    allocates. `step_end`
    fires after each Euler update with `z`, the latent that update produced:
    the state entering step `step + 1`, as a read-only view (copy to
    retain). The base class plans no entries and does nothing, and pure
    observation must never change generated values.
    """

    keys: frozenset = frozenset()

    def observe(self, step: int, layer: int, name: str, value: np.ndarray) -> None:
        pass

    def inject(self, step: int, layer: int, pre_k, pre_v, roped_k) -> InjectionPlan | None:
        return None

    def step_end(self, step: int, z: np.ndarray) -> None:
        pass


class ChainedHooks(Hooks):
    """Fan-out to several hooks. The keys are the union of theirs, and each
    entry goes only to the hooks whose keys hold it; at most one hook may
    inject per (step, layer)."""

    def __init__(self, *hooks: Hooks):
        self.hooks = [h for h in hooks if h is not None]
        self.keys = frozenset().union(*(h.keys for h in self.hooks))

    def observe(self, step, layer, name, value):
        for h in self.hooks:
            if (step, layer, name) in h.keys:
                h.observe(step, layer, name, value)

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        plan = None
        for h in self.hooks:
            p = h.inject(step, layer, pre_k, pre_v, roped_k)
            if p is not None:
                if plan is not None:
                    raise ValueError(f"two hooks injected at step {step} layer {layer}")
                plan = p
        return plan

    def step_end(self, step, z):
        for h in self.hooks:
            h.step_end(step, z)


@dataclass(frozen=True)
class Model:
    """Immutable model instance; safe to share across concurrent denoise calls."""

    config: ModelConfig
    layers: tuple[LayerWeights, ...]
    texture_bank: np.ndarray = field(repr=False)  # (THW + 1, C): detail direction last
    rotary: RotaryTable = field(repr=False)  # cos/sin at the THW grid positions, (THW, C/2) each

    def weights_checksum(self) -> str:
        h = hashlib.sha256()
        for lw in self.layers:
            for a in (lw.qk_gain, lw.w_value, lw.w_out, lw.w_mlp1, lw.w_mlp2):
                h.update(a.tobytes())
        return h.hexdigest()


def init_model(config: ModelConfig) -> Model:
    """Generate all projection weights from (seed, layer, role) PRNG streams."""
    c = config.channels
    layers = []
    for layer in range(config.depth):
        gain = np.exp(
            QK_LOG_SPREAD * _rng(config.seed, layer, _ROLE_QK_GAIN).standard_normal(c)
        ).astype(DTYPE)
        w_value = _orthogonal(c, _rng(config.seed, layer, _ROLE_VALUE))
        w_out = (
            (RESIDUAL_GAIN / np.sqrt(config.depth))
            * (
                w_value.T
                + OUT_PROJ_NOISE
                * _rng(config.seed, layer, _ROLE_OUT).standard_normal((c, c))
                / np.sqrt(c)
            )
        ).astype(DTYPE)
        w_mlp1 = (
            _rng(config.seed, layer, _ROLE_MLP1).standard_normal((c, 2 * c)) / np.sqrt(c)
        ).astype(DTYPE)
        w_mlp2 = (
            _rng(config.seed, layer, _ROLE_MLP2).standard_normal((2 * c, c))
            * (RESIDUAL_GAIN / np.sqrt(config.depth))
            / np.sqrt(2 * c)
        ).astype(DTYPE)
        layers.append(LayerWeights(gain, w_value, w_out, w_mlp1, w_mlp2))
    positions = grid_positions(config.frames, config.height, config.width)
    return Model(
        config=config,
        layers=tuple(layers),
        texture_bank=texture_bank(config.frames, config.height, config.width, config.channels),
        rotary=RotaryTable.at(positions, c),
    )


def score_workspace(config: ModelConfig) -> np.ndarray:
    """The score buffer of one `denoise` call: heads * max_keys * joint_len
    float32 entries, room for any layer's key-major scores and for the
    denoising head's logits."""
    return np.empty(config.heads * config.max_keys * config.joint_len, dtype=DTYPE)


def predict_clean(
    model: Model, hidden_video: np.ndarray, z_text: np.ndarray, *, out: np.ndarray
) -> np.ndarray:
    """Snap hidden video rows onto prompt content and the texture-rotation bank.

    Signature bands come from a softmax mixture of prompt rows; texture bands
    from the nonnegative projection onto the softmax-blended rotation of the
    texture basis. All other channels are pulled to zero. Both softmaxes run
    key-major through `softmax_average`; the temperatures are powers of two,
    so folding them into the (keys, C) operand scales the logits exactly.
    The logits, (text_len, THW) and then (THW + 1, THW), are formed in the
    score buffer `out` (see `tensorops.scratch_block`).
    """
    n, bank = hidden_video.shape[0], model.texture_bank
    with np.errstate(over="ignore", invalid="ignore"):  # softmax_average refuses non-finite
        logits = np.matmul(BETA_TEXT * z_text, hidden_video.T,
                           out=scratch_block(out, (len(z_text), n)))
    x_text, _, _ = softmax_average(logits, z_text)
    with np.errstate(over="ignore", invalid="ignore"):  # softmax_average refuses non-finite
        logits = np.matmul(BETA_TEXTURE * bank, hidden_video.T,
                           out=scratch_block(out, (len(bank), n)))
    blend, _, _ = softmax_average(logits, bank)
    direction = cosine_normalize_rows(blend)
    coeff = np.maximum(np.sum(hidden_video * direction, axis=1), 0.0).astype(DTYPE)
    return (x_text + coeff[:, None] * direction).astype(DTYPE)


def forward(
    model: Model,
    z_video: np.ndarray,
    z_text: np.ndarray,
    t: int,
    hooks: Hooks | None = None,
    skip: int | None = None,
    sigma: float = 1.0,
    *,
    scratch: np.ndarray,
) -> np.ndarray:
    """One denoiser evaluation over the joint sequence.

    Runs `depth` residual blocks (block `skip` replaced by identity), hands
    hooks the (step, layer, field) entries their keys plan and lets them
    substitute fused key/value rows, then converts the clean-latent snap
    into a noise prediction at noise level `sigma`.

    Every layer's attention scores and the head's logits are formed in
    `scratch`, a `score_workspace` of the model's config; `denoise` passes
    the one it owns.

    Returns:
        Noise prediction shaped like `z_video`.

    Raises:
        ValueError: on a latent or prompt of another shape, a skip layer out
            of range, or an injection plan of more than `max_keys` keys.
    """
    cfg = model.config
    if z_video.shape != (cfg.frames, cfg.height, cfg.width, cfg.channels):
        raise ValueError(f"z_video shape {z_video.shape} does not match config")
    if z_text.shape != (cfg.text_len, cfg.channels):
        raise ValueError(f"z_text shape {z_text.shape} does not match config")
    if skip is not None and not (0 <= skip < cfg.depth):
        raise ValueError(f"skip layer {skip} out of range")

    thw = cfg.thw
    z_flat = z_video.reshape(thw, cfg.channels).astype(DTYPE)
    x = np.concatenate([z_flat, z_text.astype(DTYPE)], axis=0)

    for layer in range(cfg.depth):
        if layer == skip:
            continue
        lw = model.layers[layer]
        pre_k, pre_v = layer_kv(x, lw)
        roped_k = pre_k.copy()
        roped_k[:thw] = rope_encode(pre_k[:thw], model.rotary)

        plan = hooks.inject(t, layer, pre_k, pre_v, roped_k) if hooks is not None else None
        if plan is None:
            k_eff, v_eff, mask = roped_k, pre_v, None
        else:  # joint_attention checks the plan's row counts and mask shape
            k_eff, v_eff, mask = plan.k, plan.v, plan.add_mask
            if len(k_eff) > cfg.max_keys:
                raise ValueError(
                    f"injection plan carries {len(k_eff)} keys; at most {cfg.max_keys} "
                    f"(joint_len + THW) fit the score workspace"
                )

        att = joint_attention(roped_k, k_eff, v_eff, mask, heads=cfg.heads, out=scratch)
        attn = att.out
        if hooks is not None:
            for name in OBSERVED_FIELDS:
                if (t, layer, name) not in hooks.keys:
                    continue
                if name == "v2t":
                    value = att.head_mean(slice(0, thw), slice(thw, thw + cfg.text_len))
                else:
                    value = (attn if name == "attn_out" else x)[:thw]
                hooks.observe(t, layer, name, value)

        x = x + attn @ lw.w_out
        x = x + np.tanh(x @ lw.w_mlp1) @ lw.w_mlp2

    x0_hat = predict_clean(model, x[:thw], z_text, out=scratch)
    eps = (z_flat - x0_hat) / DTYPE(sigma)
    return eps.reshape(z_video.shape)


def initial_latent(
    config: ModelConfig,
    schedule: StepSchedule,
    seed: int,
    init_clean: np.ndarray | None = None,
) -> np.ndarray:
    """Starting state z_T: seeded Gaussian noise at sigma[0], optionally riding
    on a clean latent (the planted-scene harness convention)."""
    rng = _rng(seed, 0, _ROLE_NOISE)
    shape = (config.frames, config.height, config.width, config.channels)
    noise = rng.standard_normal(shape).astype(DTYPE) * schedule.sigmas[0]
    if init_clean is None:
        return noise
    if init_clean.shape != shape:
        raise ValueError(f"init_clean shape {init_clean.shape} does not match config")
    return (init_clean.astype(DTYPE) + noise).astype(DTYPE)


def denoise(
    model: Model,
    prompt_embedding: np.ndarray,
    schedule: StepSchedule,
    seed: int,
    hooks: Hooks | None = None,
    skip: int | None = None,
    init_clean: np.ndarray | None = None,
    start: tuple[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Explicit Euler denoising loop; step 0 is the noisiest step.

    Deterministic in (model, prompt, schedule, seed, hooks, skip, init_clean).
    The call allocates one `score_workspace` and every `forward` of the loop
    forms its attention scores and logits in it; the buffer is the call's
    own, so concurrent calls may share a model.
    `start=(step, z)` resumes the loop at `step` from `z`, the latent
    entering that step (as `step_end(step - 1, z)` saw it, or the initial
    latent for step 0); `seed` is then unused. A resumed run returns the same
    bits as the full run it was taken from, provided no hook changed the
    steps before `step`. Hooks see only the steps from `step` on.

    Returns:
        Clean latent z_0 of shape (frames, height, width, channels).

    Raises:
        ValueError: if `start` is given with `init_clean`, names a step
            outside 0..step_count, or holds a latent of another shape; or,
            before step 0, naming the first hook key outside the run.
    """
    if hooks is not None:
        steps, layers = range(schedule.step_count), range(model.config.depth)
        outside = [k for k in hooks.keys
                   if k[0] not in steps or k[1] not in layers or k[2] not in OBSERVED_FIELDS]
        if outside:
            raise ValueError(
                f"hook key {min(outside)} is outside the run: steps 0..{len(steps) - 1}, "
                f"layers 0..{len(layers) - 1}, fields {OBSERVED_FIELDS}"
            )
    if start is None:
        first, z = 0, initial_latent(model.config, schedule, seed, init_clean)
    else:
        if init_clean is not None:
            raise ValueError("start and init_clean are exclusive: a resumed run has its latent")
        first, z = start
        if not 0 <= first <= schedule.step_count:
            raise ValueError(f"start step {first} outside 0..{schedule.step_count}")
        cfg = model.config
        shape = (cfg.frames, cfg.height, cfg.width, cfg.channels)
        if np.shape(z) != shape:
            raise ValueError(f"start latent shape {np.shape(z)} does not match config {shape}")
        z = np.array(z, dtype=DTYPE)  # a copy: the caller's array is never returned
    sig = schedule.sigmas
    scratch = score_workspace(model.config)
    for s in range(first, schedule.step_count):
        eps = forward(model, z, prompt_embedding, s, hooks=hooks, skip=skip,
                      sigma=float(sig[s]), scratch=scratch)
        z = (z + (sig[s + 1] - sig[s]) * eps).astype(DTYPE)
        if hooks is not None:
            seen = z.view()
            seen.flags.writeable = False
            hooks.step_end(s, seen)
    return z


def embed_prompt(layout: PromptLayout, scene, *, seed: int = 0) -> np.ndarray:
    """Deterministic synthetic prompt embedding of a planted scene,
    (layout.total, C).

    The bg/fg segments carry the scene's planted signature vectors and the
    action segment the scene's action vector of `seed`; padding rows are
    zero.
    """
    amp = DTYPE(SIGNATURE_AMP)
    rows = np.zeros((layout.total, scene.channels), dtype=DTYPE)
    rows[layout.bg_slice] = amp * scene.bg_signature
    rows[layout.fg_slice] = amp * scene.fg_signature
    rows[layout.bg + layout.fg : layout.bg + layout.fg + layout.action] = (
        amp * scene.action_vector(seed)
    )
    return rows


def patch_shape(channels: int) -> tuple[int, int]:
    """Decoded patch height/width per latent pixel; ph*pw == channels."""
    ph = int(np.sqrt(channels))
    while channels % ph != 0:
        ph -= 1
    return ph, channels // ph


def decode_video(latent: np.ndarray) -> np.ndarray:
    """Fixed invertible patch expansion of a clean latent into (0, 1) frames.

    Each latent pixel's channel vector is rotated by a fixed orthogonal map,
    reshaped to a (ph, pw) patch with ph*pw == C, and squashed by tanh into
    (0, 1). Output shape (T, H*ph, W*pw).
    """
    t, h, w, c = latent.shape
    ph, pw = patch_shape(c)
    mix = _orthogonal(c, _rng(_DECODE_SEED, c))
    y = latent.reshape(-1, c) @ mix.T
    y = 0.5 + 0.5 * np.tanh(DECODE_GAIN * y)
    patches = y.reshape(t, h, w, ph, pw)
    return patches.transpose(0, 1, 3, 2, 4).reshape(t, h * ph, w * pw).astype(DTYPE)

