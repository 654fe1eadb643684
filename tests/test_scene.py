"""Planted scenes: masks, correspondences, and latent construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bachkit.dit import SIGNATURE_AMP, TEXTURE_AMP, detail_direction, texture_dictionary
from bachkit.scene import FRAME, IDENTITY, SUBJECT_SHAPE, make_scene


@pytest.fixture(scope="module")
def scene():
    return make_scene(4, 8, 8, 48, seed=1)


def test_masks_are_planted_rectangles(scene):
    for variant in (IDENTITY, FRAME):
        m = scene.mask(variant)
        assert m.shape == (4, 8, 8) and m.dtype == bool
        assert m.sum() == 4 * 3 * 3  # one rect per frame


def test_variants_differ(scene):
    assert not np.array_equal(scene.mask(IDENTITY), scene.mask(FRAME))
    assert not np.array_equal(
        scene.clean_latent(IDENTITY), scene.clean_latent(FRAME)
    )


def test_correspondence_maps_fg_onto_fg(scene):
    lookup = scene.correspondence()
    fg = scene.mask(FRAME)
    mi = scene.mask(IDENTITY).reshape(-1)
    assert lookup.shape == fg.shape
    assert (lookup[fg] >= 0).all()
    assert mi[lookup[fg]].all()  # every target is identity foreground
    assert (lookup[~fg] == -1).all()
    # bijective frame-by-frame: planted rigid translation
    assert len(set(lookup[fg].tolist())) == int(fg.sum())


def test_correspondence_preserves_signature_content(scene):
    zi = scene.clean_latent(IDENTITY).reshape(-1, 48)
    zf = scene.clean_latent(FRAME).reshape(-1, 48)
    fg = scene.mask(FRAME).reshape(-1)
    lookup = scene.correspondence().reshape(-1)
    src = np.flatnonzero(fg)
    np.testing.assert_allclose(zf[src], zi[lookup[src]], atol=1e-5)


def test_noisy_latent_sigma_zero_is_clean(scene):
    np.testing.assert_array_equal(
        scene.noisy_latent(IDENTITY, 0.0, seed=5), scene.clean_latent(IDENTITY)
    )
    a = scene.noisy_latent(IDENTITY, 0.1, seed=5)
    b = scene.noisy_latent(IDENTITY, 0.1, seed=5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, scene.clean_latent(IDENTITY))


def test_signatures_orthonormal(scene):
    assert abs(np.linalg.norm(scene.bg_signature) - 1.0) < 1e-5
    assert abs(np.linalg.norm(scene.fg_signature) - 1.0) < 1e-5
    assert abs(float(scene.bg_signature @ scene.fg_signature)) < 1e-5


def test_action_vector_seed_dependence(scene):
    a0, a1 = scene.action_vector(0), scene.action_vector(1)
    assert not np.array_equal(a0, a1)
    np.testing.assert_array_equal(a0, scene.action_vector(0))


def test_scene_determinism():
    a = make_scene(2, 6, 6, 24, seed=9)
    b = make_scene(2, 6, 6, 24, seed=9)
    np.testing.assert_array_equal(a.clean_latent(IDENTITY), b.clean_latent(IDENTITY))
    np.testing.assert_array_equal(a.origins_frame, b.origins_frame)
    c = make_scene(2, 6, 6, 24, seed=10)
    assert not np.array_equal(a.clean_latent(IDENTITY), c.clean_latent(IDENTITY))


# Brute-force per-pixel references for the vectorized scene construction.

def _loop_correspondence(sc):
    out = np.full((sc.frames, sc.height, sc.width), -1, dtype=np.int64)
    hw = sc.height * sc.width
    for t in range(sc.frames):
        oh_f, ow_f = sc.origins_frame[t]
        oh_i, ow_i = sc.origins_identity[t]
        for dh in range(SUBJECT_SHAPE[0]):
            for dw in range(SUBJECT_SHAPE[1]):
                out[t, oh_f + dh, ow_f + dw] = t * hw + (oh_i + dh) * sc.width + (ow_i + dw)
    return out


def _loop_clean_latent(sc, variant):
    dims = (sc.frames, sc.height, sc.width, sc.channels)
    z = np.tile((SIGNATURE_AMP * sc.bg_signature).astype(np.float32), dims[:3] + (1,))
    coeff = sc.detail_field(variant) * (~sc.mask(variant)).reshape(-1)
    z += (coeff[:, None] * detail_direction(sc.channels)[None, :]).reshape(z.shape)
    subject = texture_dictionary(*dims)
    fg_vec = (SIGNATURE_AMP * sc.fg_signature).astype(np.float32)
    origins = sc.origins_identity if variant == IDENTITY else sc.origins_frame
    for t, (oh, ow) in enumerate(origins):
        for dh in range(SUBJECT_SHAPE[0]):
            for dw in range(SUBJECT_SHAPE[1]):
                rel_flat = (t * sc.height + dh) * sc.width + dw
                z[t, oh + dh, ow + dw] = fg_vec + TEXTURE_AMP * subject[rel_flat]
    return z


@settings(max_examples=60, deadline=None)
@given(
    frames=st.integers(1, 4),
    height=st.integers(3, 8),
    width=st.integers(3, 8),
    channels=st.sampled_from([24, 48]),
    seed=st.integers(0, 10_000),
)
def test_vectorized_scene_equals_pixel_loops(frames, height, width, channels, seed):
    sc = make_scene(frames, height, width, channels, seed=seed)
    np.testing.assert_array_equal(sc.correspondence(), _loop_correspondence(sc))
    for variant in (IDENTITY, FRAME):
        got = sc.clean_latent(variant)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, _loop_clean_latent(sc, variant))


def test_scene_refuses_a_grid_smaller_than_the_subject():
    with pytest.raises(ValueError, match="does not fit the grid"):
        make_scene(1, SUBJECT_SHAPE[0] - 1, 8, 24)
