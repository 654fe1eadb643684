"""Wrappers that time bachkit's public functions from outside the package.

Nothing under `src/` is changed. A wrapper replaces a function at every name
its callers look it up by: each attribute of a loaded `bachkit` module that
refers to the function (so `bachkit.dit.joint_attention` and
`bachkit.inject.rope_encode` are wrapped, not only the defining module), or
the class attribute for a method. Every replacement is recorded and undone
by `uninstall`; `installed_wrappers` finds any that was left behind.

Two users share the mechanism:

* `GenClock` wraps `denoise` only. It times each generation at its caller,
  keeps a digest of every generated latent and whether it is finite. It is
  the only instrument of the untraced run; it costs two clock reads per
  generation of about a second.
* `Tracer` records one span per call of each layer function. A layer's self
  time is its spans' duration minus the time covered by child spans. Some
  counters are computed from array shapes rather than measured; their names
  are listed in `COMPUTED_FROM_SHAPES`.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

MARK = "__perfbench_wrapper__"

# Span name -> the functions it covers, as "module:qualname". Several
# functions may share one span name; their calls and times add up.
SPANS = {
    "tensorops.joint_attention": ["bachkit.tensorops:joint_attention"],
    "tensorops.rope_encode": ["bachkit.tensorops:rope_encode"],
    "dit.init_model": ["bachkit.dit:init_model"],
    "dit.forward": ["bachkit.dit:forward"],
    "dit.predict_clean": ["bachkit.dit:predict_clean"],
    "dit.denoise": ["bachkit.dit:denoise"],
    "dit.decode_video": ["bachkit.dit:decode_video"],
    "inject.Injector.inject": ["bachkit.inject:Injector.inject"],
    "inject.build_plan": ["bachkit.inject:build_plan"],
    "inject.region_mask": ["bachkit.inject:region_mask"],
    "inject.KvCache.admit": ["bachkit.inject:KvCache.admit"],
    "inject.KvCache.save": ["bachkit.inject:KvCache.save"],
    "inject.KvCache.load": ["bachkit.inject:KvCache.load"],
    "trace.write_container": ["bachkit.trace:write_container"],
    "trace.read_container": ["bachkit.trace:read_container"],
    "trace.observe": [
        "bachkit.trace:TraceRecorder.observe",
        "bachkit.inject:CacheRecorder.observe",
        "bachkit.inject:Injector.observe",
    ],
    "masks.mask_from_slices": ["bachkit.masks:mask_from_slices"],
    "masks.write_mask_csv": ["bachkit.masks:write_mask_csv"],
    "matching.similarity": ["bachkit.matching:similarity"],
    "matching.match_foreground": ["bachkit.matching:match_foreground"],
    "matching.match_mse": ["bachkit.matching:match_mse"],
    "select": [
        "bachkit.select:select_layers",
        "bachkit.select:select_tau_mask",
        "bachkit.select:select_tau_match",
        "bachkit.select:select_vital",
        "bachkit.select:AnalysisGrid.step_curve",
        "bachkit.select:AnalysisGrid.write_csv",
        "bachkit.select:AnalysisGrid.read_csv",
    ],
    "vital.score": ["bachkit.vital:embed_similarity_score", "bachkit.vital:aesthetic_score"],
    "scene.make_scene": ["bachkit.scene:make_scene"],
    "scene.noisy_latent": ["bachkit.scene:Scene.noisy_latent"],
    "scene.correspondence": ["bachkit.scene:Scene.correspondence"],
    "pgm.write_pgm": ["bachkit.pgm:write_pgm"],
    "pipeline.run_identity": ["bachkit.pipeline:run_identity"],
    "pipeline.run_frame": ["bachkit.pipeline:run_frame"],
    "pipeline.run_group": ["bachkit.pipeline:run_group"],
    "pipeline.write_group_outputs": ["bachkit.pipeline:write_group_outputs"],
    "pipeline.capture_trace": ["bachkit.pipeline:capture_trace"],
    "pipeline.mask_grid": ["bachkit.pipeline:mask_grid"],
    "pipeline.match_grid": ["bachkit.pipeline:match_grid"],
}

COMPUTED_FROM_SHAPES = (
    "tensorops.joint_attention.gflop",
    "tensorops.joint_attention.score_mb",
    "inject.region_mask.mb",
    "inject.region_mask.open_frac",
    "inject.plan_keys",
    "inject.cache_mb",
)


def _bachkit_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "bachkit" or n.startswith("bachkit."))]


def _resolve(spec: str):
    """(owner, attribute) of the defining site of "module:qualname"."""
    modname, qualname = spec.split(":")
    owner = sys.modules[modname]
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def installed_wrappers() -> list[str]:
    """Every bachkit module or class attribute that is still one of our wrappers."""
    found = []
    for mod in _bachkit_modules():
        for name, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == mod.__name__:
                for meth, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", raw), MARK, False):
                        found.append(f"{mod.__name__}.{name}.{meth}")
    return found


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, spec: str, make_wrapper) -> None:
        """Replace the function named by `spec` at every site it is looked up by."""
        owner, attr = _resolve(spec)
        if inspect.isclass(owner):
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(owner, attr, make_wrapper(raw))
            return
        target = inspect.unwrap(getattr(owner, attr))
        for mod in _bachkit_modules():
            for name, value in list(vars(mod).items()):
                if callable(value) and inspect.unwrap(value) is target:
                    self._set(mod, name, make_wrapper(value))

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _marked(fn, wrapper):
    functools.update_wrapper(wrapper, fn)
    setattr(wrapper, MARK, True)
    return wrapper


@dataclass(frozen=True)
class Generation:
    seconds: float
    finite: bool
    digest: str


class GenClock:
    """Times each `denoise` call at its caller and fingerprints its latent."""

    def __init__(self):
        self.samples: list[Generation] = []
        self._patches = Patches()

    def install(self) -> None:
        def make(fn):
            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                z = fn(*args, **kwargs)
                dt = time.perf_counter() - t0
                self.samples.append(Generation(
                    dt, bool(np.isfinite(z).all()), hashlib.sha256(z.tobytes()).hexdigest()))
                return z
            return _marked(fn, timed)

        self._patches.wrap("bachkit.dit:denoise", make)

    def uninstall(self) -> None:
        self._patches.undo()


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _stored_entries(hook) -> int:
    """Entries held by an observing hook: TraceRecorder.trace,
    CacheRecorder.cache or Injector.own."""
    for attr in ("trace", "cache", "own"):
        store = getattr(hook, attr, None)
        if store is not None:
            return len(store.entries)
    raise TypeError(f"unknown observing hook {type(hook).__name__}")


# Counters taken at a span: name -> (before(args), after(stats, args, result, before)).
def _attention(st, args, result, _):
    (n, d), m = args[0].shape, args[1].shape[0]
    st.add("gflop", 4.0 * n * m * d / 1e9)
    st.add("score_mb", 4.0 * n * m / 1e6)


def _region_mask(st, args, result, _):
    joint_len, thw, fg, n_fg, n_bg = args
    st.add("mb", 4.0 * joint_len * (joint_len + n_fg + n_bg) / 1e6)
    if n_fg + n_bg:
        st.add("open_sum", (len(fg) * n_fg + (thw - len(fg)) * n_bg) / (joint_len * (n_fg + n_bg)))
        st.add("open_n", 1)


def _build_plan(st, args, result, _):
    st.add("keys_sum", result.k.shape[0])


def _admit(st, args, result, _):
    st.extra["cache_mb"] = max(st.extra.get("cache_mb", 0.0), args[0].nbytes / 1e6)


def _container_write(st, args, result, _):
    st.add("mb", os.path.getsize(args[1]) / 1e6)


def _container_read(st, args, result, _):
    st.add("mb", os.path.getsize(args[0]) / 1e6)


def _observe(st, args, result, before):
    st.add("kept", float(_stored_entries(args[0]) > before))


COUNTERS = {
    "tensorops.joint_attention": (None, _attention),
    "inject.region_mask": (None, _region_mask),
    "inject.build_plan": (None, _build_plan),
    "inject.KvCache.admit": (None, _admit),
    "trace.write_container": (None, _container_write),
    "trace.read_container": (None, _container_read),
    "trace.observe": (lambda args: _stored_entries(args[0]), _observe),
}


class Tracer:
    """Span recorder over the functions in SPANS; install, run, uninstall."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in SPANS}
        self._stack: list[float] = []
        self._patches = Patches()

    def install(self) -> None:
        for name, specs in SPANS.items():
            for spec in specs:
                self._patches.wrap(spec, functools.partial(self._span, name))

    def uninstall(self) -> None:
        self._patches.undo()

    def _span(self, name, fn):
        st = self.stats[name]
        before, after = COUNTERS.get(name, (None, None))
        stack = self._stack

        def span(*args, **kwargs):
            pre = before(args) if before else None
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                st.calls += 1
                st.total_s += dt
                st.child_s += stack.pop()
                if stack:
                    stack[-1] += dt
            if after:
                after(st, args, result, pre)
            return result

        return _marked(fn, span)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since install."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        s = self.stats
        jat = s["tensorops.joint_attention"].extra
        out["tensorops.joint_attention.gflop"] = jat.get("gflop", 0.0)
        out["tensorops.joint_attention.score_mb"] = jat.get("score_mb", 0.0)
        rm = s["inject.region_mask"].extra
        out["inject.region_mask.mb"] = rm.get("mb", 0.0)
        out["inject.region_mask.open_frac"] = rm.get("open_sum", 0.0) / max(rm.get("open_n", 0), 1)
        bp = s["inject.build_plan"]
        out["inject.plan_keys"] = bp.extra.get("keys_sum", 0.0) / max(bp.calls, 1)
        out["inject.cache_mb"] = s["inject.KvCache.admit"].extra.get("cache_mb", 0.0)
        out["trace.write_container.mb"] = s["trace.write_container"].extra.get("mb", 0.0)
        out["trace.read_container.mb"] = s["trace.read_container"].extra.get("mb", 0.0)
        ob = s["trace.observe"]
        out["trace.observe.kept_frac"] = ob.extra.get("kept", 0.0) / max(ob.calls, 1)
        return out
