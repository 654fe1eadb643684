"""Synthetic scenes with planted ground truth.

A scene plants a rectangular foreground subject on a uniform background in
latent space. Background pixels carry a background signature vector;
foreground pixels carry a foreground signature plus a rotary-encoded texture
whose rotation depends on the pixel's offset inside the rectangle. Two
variants share all content but place the rectangle differently, so the true
foreground mask and the true cross-variant pixel correspondence are known
exactly and can score every downstream extraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dit import (
    SIGNATURE_AMP,
    TEXTURE_AMP,
    _rng,
    channel_plan,
    detail_direction,
    texture_dictionary,
)
from .tensorops import DTYPE, rope_group_slices

#: Scale of the background shading field. Each variant draws its own base
#: level plus per-pixel jitter, so two independently generated videos have
#: visibly different backgrounds that cache injection can pull together.
DETAIL_AMP = 2.0

#: (rows, columns) of the planted subject rectangle.
SUBJECT_SHAPE = (3, 3)

IDENTITY = "identity"
FRAME = "frame"
_VARIANT_IDS = {IDENTITY: 0, FRAME: 1}

# PRNG role tags under the scene seed.
_ROLE_SIGNATURE = 11
_ROLE_ORIGINS = 12
_ROLE_NOISE = 13
_ROLE_ACTION = 14
_ROLE_DETAIL = 15


def _unit_on(channels: int, idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    v = np.zeros(channels, dtype=np.float64)
    v[idx] = rng.standard_normal(len(idx))
    return v / np.linalg.norm(v)


def _balanced_signatures(channels: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Three mutually orthogonal unit vectors on the signature channels with
    equal mass in every rotary axis group, so no attention head is starved."""
    plan = channel_plan(channels)
    groups = rope_group_slices(channels)
    vecs = [np.zeros(channels, dtype=np.float64) for _ in range(3)]
    for sl in groups:
        idx = plan.signature[(plan.signature >= sl.start) & (plan.signature < sl.stop)]
        if len(idx) < 3:
            raise ValueError("signature band too narrow for three orthogonal vectors")
        basis = []
        for v in vecs:
            g = rng.standard_normal(len(idx))
            for b in basis:
                g = g - np.dot(g, b) * b
            g = g / np.linalg.norm(g)
            basis.append(g)
            v[idx] = g / np.sqrt(len(groups))
    return tuple(vecs)


@dataclass(frozen=True)
class Scene:
    """Planted two-variant scene; every field is deterministic in the seed."""

    frames: int
    height: int
    width: int
    channels: int
    origins_identity: np.ndarray  # (frames, 2) top-left corners
    origins_frame: np.ndarray
    bg_signature: np.ndarray  # (channels,) unit
    fg_signature: np.ndarray  # (channels,) unit, orthogonal to bg
    seed: int

    def _origins(self, variant: str) -> np.ndarray:
        if variant == IDENTITY:
            return self.origins_identity
        if variant == FRAME:
            return self.origins_frame
        raise ValueError(f"unknown variant {variant!r}")

    def _offsets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frame, row offset, column offset) of every subject pixel, flat."""
        return tuple(np.indices((self.frames, *SUBJECT_SHAPE)).reshape(3, -1))

    def mask(self, variant: str) -> np.ndarray:
        """Planted foreground mask, (frames, height, width) bool."""
        out = np.zeros((self.frames, self.height, self.width), dtype=bool)
        t, dh, dw = self._offsets()
        o = self._origins(variant)
        out[t, o[t, 0] + dh, o[t, 1] + dw] = True
        return out

    def detail_field(self, variant: str) -> np.ndarray:
        """Per-pixel background shading coefficients, (THW,).

        Each variant has its own base level in [0.7, 1.3] times `DETAIL_AMP`
        plus small per-pixel jitter; the base gap between variants is the
        planted background discrepancy.
        """
        rng = _rng(self.seed, _ROLE_DETAIL, _VARIANT_IDS[variant])
        n = self.frames * self.height * self.width
        base = 0.7 + 0.6 * rng.random()
        jitter = 0.15 * (2.0 * rng.random(n) - 1.0)
        return (DETAIL_AMP * (base + jitter)).astype(DTYPE)

    def clean_latent(self, variant: str) -> np.ndarray:
        """Noise-free latent of one variant, (frames, height, width, channels).

        Background pixels carry the background signature plus the shading
        field riding on the shared detail direction. Subject pixels carry the
        foreground signature plus a hot subject texture keyed by the pixel's
        offset inside the rectangle, so corresponding pixels of the two
        variants are bitwise-equal content.
        """
        dims = (self.frames, self.height, self.width, self.channels)
        z = np.tile((SIGNATURE_AMP * self.bg_signature).astype(DTYPE), dims[:3] + (1,))
        coeff = self.detail_field(variant) * (~self.mask(variant)).reshape(-1)
        z += (coeff[:, None] * detail_direction(self.channels)[None, :]).reshape(z.shape)
        subject = texture_dictionary(*dims)
        fg_vec = (SIGNATURE_AMP * self.fg_signature).astype(DTYPE)
        t, dh, dw = self._offsets()
        o = self._origins(variant)
        rel_flat = (t * self.height + dh) * self.width + dw
        z[t, o[t, 0] + dh, o[t, 1] + dw] = fg_vec + TEXTURE_AMP * subject[rel_flat]
        return z

    def noisy_latent(self, variant: str, sigma: float, seed: int = 0) -> np.ndarray:
        """Clean latent plus per-entry Gaussian noise at level `sigma`."""
        z = self.clean_latent(variant)
        if sigma == 0.0:
            return z
        rng = _rng(self.seed, _ROLE_NOISE, _VARIANT_IDS[variant], seed)
        return (z + DTYPE(sigma) * rng.standard_normal(z.shape).astype(DTYPE)).astype(DTYPE)

    def correspondence(self) -> np.ndarray:
        """True frame->identity pixel match, (frames, height, width) int64.

        Entry [t, h, w] is the flat pixel index (within the full video grid)
        of the identity pixel carrying the same texture rotation, or -1 for
        background pixels of the frame variant.
        """
        out = np.full((self.frames, self.height, self.width), -1, dtype=np.int64)
        t, dh, dw = self._offsets()
        of, oi = self.origins_frame[t], self.origins_identity[t]
        out[t, of[:, 0] + dh, of[:, 1] + dw] = (
            (t * self.height + oi[:, 0] + dh) * self.width + oi[:, 1] + dw
        )
        return out

    def action_vector(self, seed: int = 0) -> np.ndarray:
        """Unit action-segment vector orthogonal to both planted signatures."""
        plan = channel_plan(self.channels)
        v = _unit_on(self.channels, plan.signature, _rng(self.seed, _ROLE_ACTION, seed))
        for u in (self.bg_signature, self.fg_signature):
            v = v - np.dot(v, u) * u
        return (v / np.linalg.norm(v)).astype(DTYPE)


def _walk_origins(
    frames: int, max_h: int, max_w: int, rng: np.random.Generator
) -> np.ndarray:
    """Random-walk rectangle corners staying inside the grid."""
    out = np.empty((frames, 2), dtype=np.int64)
    oh = int(rng.integers(0, max_h + 1))
    ow = int(rng.integers(0, max_w + 1))
    for t in range(frames):
        out[t] = (oh, ow)
        oh = int(np.clip(oh + rng.integers(-1, 2), 0, max_h))
        ow = int(np.clip(ow + rng.integers(-1, 2), 0, max_w))
    return out


def make_scene(
    frames: int,
    height: int,
    width: int,
    channels: int,
    seed: int = 0,
) -> Scene:
    """Build a planted scene whose two variants differ in the placement of a
    `SUBJECT_SHAPE` rectangle."""
    sh, sw = SUBJECT_SHAPE
    if sh > height or sw > width:
        raise ValueError("rectangle does not fit the grid")
    bg, fg, _ = _balanced_signatures(channels, _rng(seed, _ROLE_SIGNATURE))

    rng_o = _rng(seed, _ROLE_ORIGINS)
    origins_id = _walk_origins(frames, height - sh, width - sw, rng_o)
    origins_fr = _walk_origins(frames, height - sh, width - sw, rng_o)
    return Scene(
        frames=frames,
        height=height,
        width=width,
        channels=channels,
        origins_identity=origins_id,
        origins_frame=origins_fr,
        bg_signature=bg.astype(DTYPE),
        fg_signature=fg.astype(DTYPE),
        seed=seed,
    )
