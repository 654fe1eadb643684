"""The layer-input cache against the key/value cache it replaced, bit for bit.

An identity cache holds the video rows of each injection layer's input;
injection derives the keys (`x * qk_gain`) and values (`x @ w_value`) of the
rows it needs from them. The oracle below is the earlier formulation: the
pre-rotary K and V rows that `forward` computed, cached over the whole joint
sequence and fused by the earlier `build_plan`. Both must give the same
derived rows and the same injected frames.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bachkit.pipeline as pipeline
from bachkit.config import default_config
from bachkit.dit import (
    ChainedHooks,
    Hooks,
    InjectionPlan,
    denoise,
    forward,
    init_model,
    layer_kv,
    score_workspace,
)
from bachkit.inject import CacheRecorder, Injector, KvCache
from bachkit.pipeline import IdentityBundle, run_frame
from bachkit.scene import IDENTITY
from bachkit.tensorops import DTYPE, rope_encode
from bachkit.trace import TraceRecorder


class _KvGrab(Hooks):
    """Keeps, at the (step, layer) pairs of `steps` x `layers`, the pre-rotary
    K/V rows `forward` hands to injection hooks and the layer inputs' video
    rows it hands to observers; injects nothing."""

    def __init__(self, steps, layers):
        self.keys = frozenset((s, l, "x") for s in steps for l in layers)
        self.kv: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.x: dict[tuple[int, int], np.ndarray] = {}

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        if (step, layer, "x") in self.keys:
            self.kv[(step, layer)] = (pre_k.copy(), pre_v.copy())
        return None

    def observe(self, step, layer, name, value):
        self.x[(step, layer)] = value.copy()


@functools.lru_cache(maxsize=None)
def _desk8_layer_captures():
    """One desk8 `forward` at step 3: every layer's input and its K/V rows."""
    cfg = default_config("desk8").model_config()
    model = init_model(cfg)
    rng = np.random.default_rng(42)
    z = rng.standard_normal((cfg.frames, cfg.height, cfg.width, cfg.channels)).astype(DTYPE)
    text = 3 * rng.standard_normal((cfg.text_len, cfg.channels)).astype(DTYPE)
    grab = _KvGrab(steps=[3], layers=range(cfg.depth))
    forward(model, z, text, 3, hooks=grab, scratch=score_workspace(cfg))
    assert sorted(grab.x) == sorted(grab.kv) == [(3, l) for l in range(cfg.depth)]
    return model, grab


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_derived_rows_equal_forward_kv_rows(data):
    model, grab = _desk8_layer_captures()
    thw = model.config.thw
    layer = data.draw(st.integers(0, model.config.depth - 1))
    rows = np.array(
        data.draw(st.lists(st.integers(0, thw - 1), min_size=0, max_size=2 * thw)),
        dtype=np.int64,
    )
    pre_k, pre_v = grab.kv[(3, layer)]
    k, v = layer_kv(grab.x[(3, layer)][rows], model.layers[layer])
    np.testing.assert_array_equal(k, pre_k[rows])
    np.testing.assert_array_equal(v, pre_v[rows])


def _kv_build_plan(roped_k, pre_v, cached_k, cached_v, regions, rotary, add_mask):
    """The earlier `build_plan`: fused rows taken from cached K and V."""
    k_fg = rope_encode(cached_k[regions.identity_rows], rotary[regions.fg])
    k_bg = rope_encode(cached_k[regions.bg], rotary[regions.bg])
    k = np.concatenate([roped_k, k_fg, k_bg], axis=0)
    v = np.concatenate([pre_v, cached_v[regions.identity_rows], cached_v[regions.bg]], axis=0)
    return InjectionPlan(k=k, v=v, add_mask=add_mask)


class _KvInjector(Injector):
    """`Injector` fed from a cache of forward's own K/V rows over the joint sequence."""

    def __init__(self, kv, **kw):
        super().__init__(**kw)
        self.kv = kv

    def inject(self, step, layer, pre_k, pre_v, roped_k):
        if (step, layer) not in self.injects or self.regions is None:
            return None
        k, v = self.kv[(step, layer)]
        return _kv_build_plan(roped_k, pre_v, k, v, self.regions, self.model.rotary,
                              self.add_mask)


@pytest.fixture(scope="module")
def both_caches(bench, desk_cfg):
    """One desk8 identity run recording its readout trace, the layer-input
    cache and, as the oracle, the K/V rows forward computed."""
    cfg = bench.model.config
    steps = range(desk_cfg.tau_inject, cfg.steps)
    cache = KvCache(cfg.thw, cfg.channels, desk_cfg.cache_keys(cfg.steps))
    recorder = TraceRecorder(desk_cfg.readout_keys())
    grab = _KvGrab(steps=steps, layers=desk_cfg.kv_layers)
    z0 = denoise(
        bench.model, bench.prompt(0), bench.schedule, 11,
        hooks=ChainedHooks(recorder, CacheRecorder(cache), grab),
        init_clean=bench.scene.noisy_latent(IDENTITY, 0.05, 11),
    )
    assert sorted((s, l, "x") for s, l in grab.kv) == sorted(cache.entries)
    kv_nbytes = sum(k.nbytes + v.nbytes for k, v in grab.kv.values())
    assert Fraction(cache.nbytes, kv_nbytes) == Fraction(cfg.thw, 2 * cfg.joint_len)
    return IdentityBundle(z0=z0, trace=recorder.trace, cache=cache), grab.kv


def test_injected_frame_equals_kv_cache_oracle(bench, desk_cfg, both_caches, monkeypatch):
    bundle, kv = both_caches
    got, got_inj = run_frame(bench, desk_cfg, bundle, seed=21)

    def kv_injector(bench_, cfg_, identity):
        return _KvInjector(kv, model=bench_.model, layout=bench_.layout, identity=identity,
                           run_cfg=cfg_)

    monkeypatch.setattr(pipeline, "make_injector", kv_injector)
    want, want_inj = run_frame(bench, desk_cfg, bundle, seed=21)
    assert isinstance(want_inj, _KvInjector) and not isinstance(got_inj, _KvInjector)
    assert len(want_inj.regions.fg) and len(want_inj.regions.bg)  # injection really engaged
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_inj.mask_frame, want_inj.mask_frame)
    np.testing.assert_array_equal(got_inj.match.as_lookup(), want_inj.match.as_lookup())
