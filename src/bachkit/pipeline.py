"""Run-group drivers and analysis grids over planted scenes.

A consistency group is one identity run plus k frame runs sharing the
identity's scene and background/foreground prompt segments; each frame
varies only the action segment and receives, by injection, key/value rows
derived from the identity's cached layer inputs. Planted scenes make every
intermediate checkable: masks against the planted rectangle, matches
against the planted correspondence, and background fidelity via peak
signal-to-noise ratio against the decoded identity. Decoded videos live in
(0, 1), so the PSNR peak is 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .dit import (
    ChainedHooks,
    Model,
    ModelConfig,
    PromptLayout,
    StepSchedule,
    decode_video,
    denoise,
    embed_prompt,
    init_model,
    observed_shape,
    patch_shape,
)
from .inject import CacheBudgetError, CacheRecorder, Injector, KvCache
from .masks import mask_from_slices, mask_iou, write_mask
from .matching import MatchMap, match_foreground, match_mse, similarity
from .pgm import video_sheet, write_pgm
from .scene import FRAME, IDENTITY, Scene, make_scene
from .select import AnalysisGrid
from .trace import AttentionTrace, TraceRecorder

DEFAULT_LAYOUT = PromptLayout(bg=5, fg=5, action=4, pad=2)
SCENE_SIGMA_DEFAULT = 0.05
#: An identity directory's files, in the order `IdentityBundle.save` writes them.
IDENTITY_FILES = IDENTITY_TRACE, IDENTITY_CACHE, IDENTITY_Z0, IDENTITY_VIDEO = (
    "identity_trace.bvtr", "identity_cache.bvtr", "identity_z0.npy", "identity_video.pgm")


def write_video(latent: np.ndarray, path) -> None:
    """Write a latent as the PGM sheet of its decoded video."""
    write_pgm(path, video_sheet(decode_video(latent)))


@dataclass(frozen=True)
class Workbench:
    """One model plus the planted scene and prompt layout it generates from.

    Raises:
        ValueError: for a schedule of other than the model's step count,
            which every run plans by.
    """

    model: Model
    scene: Scene
    layout: PromptLayout
    schedule: StepSchedule

    def __post_init__(self):
        steps = self.model.config.steps
        if self.schedule.step_count != steps:
            raise ValueError(f"schedule has {self.schedule.step_count} steps, the model {steps}")

    def prompt(self, action_seed: int = 0) -> np.ndarray:
        return embed_prompt(self.layout, self.scene, seed=action_seed)


def make_workbench(run_cfg: RunConfig, *, scene_seed: int) -> Workbench:
    """The profile's model, a scene with a 3x3 planted rectangle, and
    `DEFAULT_LAYOUT`."""
    cfg = run_cfg.model_config()
    return Workbench(
        model=init_model(cfg),
        scene=make_scene(cfg.frames, cfg.height, cfg.width, cfg.channels, seed=scene_seed),
        layout=DEFAULT_LAYOUT,
        schedule=StepSchedule.linear(cfg.steps),
    )


@dataclass(frozen=True)
class IdentityBundle:
    """An identity run's outputs: final latent, readout trace, layer-input cache."""

    z0: np.ndarray
    trace: AttentionTrace
    cache: KvCache

    def save(self, directory) -> None:
        """Write the `IDENTITY_FILES` into `directory`, made if need be."""
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        self.trace.save(d / IDENTITY_TRACE)
        self.cache.save(d / IDENTITY_CACHE)
        np.save(d / IDENTITY_Z0, self.z0)
        write_video(self.z0, d / IDENTITY_VIDEO)

    @classmethod
    def load(cls, directory, config: ModelConfig, budget_bytes: int) -> "IdentityBundle":
        """Read what `save` wrote, before any compute: a ValueError starts with the
        path of the file at fault, a latent `np.load` refuses or that is not float32
        of the model's shape, or a trace or cache container that fails its checks;
        so does the CacheBudgetError of a cache over `budget_bytes`."""
        d = Path(directory)

        def read(name, load, **kw):
            try:
                return load(d / name, **kw)
            except CacheBudgetError as exc:
                raise CacheBudgetError(f"{d / name}: {exc}") from None
            except (EOFError, ValueError) as exc:
                raise ValueError(f"{d / name}: {exc}") from None

        shape = (config.frames, config.height, config.width, config.channels)
        z0 = read(IDENTITY_Z0, np.load, mmap_mode="r")  # reads and checks the header only
        if not isinstance(z0, np.ndarray) or z0.dtype != np.float32 or z0.shape != shape:
            raise ValueError(f"{d / IDENTITY_Z0} does not hold a float32 latent of shape {shape}")
        return cls(z0=np.array(z0), trace=read(IDENTITY_TRACE, AttentionTrace.load),
                   cache=read(IDENTITY_CACHE, KvCache.load, budget_bytes=budget_bytes))


def run_identity(
    bench: Workbench,
    run_cfg: RunConfig,
    *,
    seed: int,
    scene_sigma: float = SCENE_SIGMA_DEFAULT,
) -> IdentityBundle:
    """Generate the identity while tracing readouts and caching layer inputs.

    The trace holds exactly `run_cfg.readout_keys()`, and the cache's plan
    is `run_cfg.cache_keys(steps)`. Before the run starts, the config is
    checked against the model's depth and steps (`RunConfig.check_fits`) and
    the cache checks its plan against the budget, so a layer or step outside
    the model or an undersized budget fails fast instead of mid-generation.
    """
    cfg = bench.model.config
    run_cfg.check_fits(cfg.depth, cfg.steps)
    cache = KvCache(cfg.thw, cfg.channels, run_cfg.cache_keys(cfg.steps),
                    budget_bytes=run_cfg.kv_budget_bytes)
    recorder = TraceRecorder(run_cfg.readout_keys())
    z0 = denoise(
        bench.model, bench.prompt(0), bench.schedule, seed,
        hooks=ChainedHooks(recorder, CacheRecorder(cache)),
        init_clean=bench.scene.noisy_latent(IDENTITY, scene_sigma, seed),
    )
    return IdentityBundle(z0=z0, trace=recorder.trace, cache=cache)


def make_injector(bench: Workbench, run_cfg: RunConfig, identity: IdentityBundle) -> Injector:
    """The injection hook of one frame run.

    Raises:
        ValueError: if a layer or step of `run_cfg` lies outside the model
            (`RunConfig.check_fits`), or naming the identity file, field,
            step and layer of the first entry the run would read that the
            identity lacks or holds in another shape than `forward` forms
            (`observed_shape`): the cache plan's rows, then the readout
            entries. The checks run before any compute.
    """
    cfg = bench.model.config
    run_cfg.check_fits(cfg.depth, cfg.steps)
    cache_keys = [(step, layer, "x") for step, layer in run_cfg.cache_keys(cfg.steps)]
    for file, entries, keys in ((IDENTITY_CACHE, identity.cache.entries, cache_keys),
                                (IDENTITY_TRACE, identity.trace.entries, run_cfg.readout_keys())):
        for step, layer, name in keys:
            if (step, layer, name) not in entries:
                raise ValueError(f"{file} holds no {name!r} at step {step} layer {layer}")
            got, want = entries.shape((step, layer, name)), observed_shape(cfg, name)
            if got != want:
                raise ValueError(f"{file} holds {name!r} at step {step} layer {layer} as {got}, "
                                 f"the model's is {want}")
    return Injector(model=bench.model, layout=bench.layout, identity=identity, run_cfg=run_cfg)


def run_frame(
    bench: Workbench,
    run_cfg: RunConfig,
    identity: IdentityBundle | None,
    *,
    seed: int,
    action_seed: int = 1,
    scene_sigma: float = SCENE_SIGMA_DEFAULT,
    inject: bool = True,
) -> tuple[np.ndarray, Injector | None]:
    """One frame generation against a finished identity run.

    With `inject` the identity's cached rows are fused in from the readout
    step onward; without it the run is vanilla and `identity` is not read.
    Both paths share the same noise so the injection is the only difference.
    """
    injector = make_injector(bench, run_cfg, identity) if inject else None
    z0 = denoise(
        bench.model, bench.prompt(action_seed), bench.schedule, seed,
        hooks=injector,
        init_clean=bench.scene.noisy_latent(FRAME, scene_sigma, seed),
    )
    return z0, injector


def psnr_bg(video_a: np.ndarray, video_b: np.ndarray, bg_region: np.ndarray) -> float:
    """Peak signal-to-noise ratio over the background of two (0, 1) videos."""
    if video_a.shape != video_b.shape or bg_region.shape != video_a.shape:
        raise ValueError("videos and background region must share one shape")
    if not bg_region.any():
        raise ValueError("empty background region")
    d = video_a[bg_region].astype(np.float64) - video_b[bg_region].astype(np.float64)
    mse = float(np.mean(d * d))
    return np.inf if mse == 0.0 else 10.0 * np.log10(1.0 / mse)


def upsample_mask(mask: np.ndarray, channels: int) -> np.ndarray:
    """Expand a latent-pixel mask to decoded-video resolution."""
    ph, pw = patch_shape(channels)
    return mask.repeat(ph, 1).repeat(pw, 2)


@dataclass(frozen=True)
class FrameResult:
    """One frame generation inside a group, with its diagnostics."""

    index: int
    z_injected: np.ndarray
    mask_frame: np.ndarray
    match: MatchMap
    psnr_bg_injected: float
    z_vanilla: np.ndarray | None = None
    psnr_bg_vanilla: float | None = None

    @property
    def psnr_bg_gain(self) -> float:
        if self.psnr_bg_vanilla is None:
            raise ValueError("frame was run without its vanilla counterpart")
        return self.psnr_bg_injected - self.psnr_bg_vanilla


@dataclass(frozen=True)
class GroupReport:
    """One identity run plus its injected frame runs."""

    identity: IdentityBundle
    mask_identity: np.ndarray
    frames: tuple[FrameResult, ...]

    def mean_gain(self) -> float:
        return float(np.mean([f.psnr_bg_gain for f in self.frames]))


def run_group(
    bench: Workbench,
    run_cfg: RunConfig,
    *,
    seed_identity: int,
    frame_seeds,
    scene_sigma: float = SCENE_SIGMA_DEFAULT,
    ablate: bool = False,
) -> GroupReport:
    """Drive one identity and one injected run per frame seed.

    Frame f uses action segment f+1, so frames differ in prompt action while
    sharing the identity's scene signatures. With `ablate` each frame is also
    generated vanilla from the same noise for a side-by-side background
    score. The two runs agree up to `tau_inject`, so the vanilla run resumes
    from the injected run's latent at that step: one `denoise` call per
    vanilla frame, bitwise equal to `run_frame(inject=False)`. Background
    fidelity is measured on the computed joint-background region against the
    decoded identity.

    Raises:
        ValueError: for no frame seeds, before any compute.
    """
    frame_seeds = list(frame_seeds)
    if not frame_seeds:
        raise ValueError("a group needs at least one frame seed")
    identity = run_identity(bench, run_cfg, seed=seed_identity, scene_sigma=scene_sigma)
    vid_identity = decode_video(identity.z0)
    channels = bench.model.config.channels
    results = []
    mask_identity = None
    for i, seed in enumerate(frame_seeds):
        z_inj, injector = run_frame(
            bench, run_cfg, identity,
            seed=seed, action_seed=i + 1, scene_sigma=scene_sigma,
        )
        mask_identity = injector.mask_identity
        region = upsample_mask(injector.background, channels)
        z_van = psnr_van = None
        if ablate:
            z_van = denoise(
                bench.model, bench.prompt(i + 1), bench.schedule, seed,
                start=(run_cfg.tau_inject, injector.latent_at_inject),
            )
            psnr_van = psnr_bg(decode_video(z_van), vid_identity, region)
        results.append(FrameResult(
            index=i,
            z_injected=z_inj,
            mask_frame=injector.mask_frame,
            match=injector.match,
            psnr_bg_injected=psnr_bg(decode_video(z_inj), vid_identity, region),
            z_vanilla=z_van,
            psnr_bg_vanilla=psnr_van,
        ))
    return GroupReport(identity=identity, mask_identity=mask_identity, frames=tuple(results))


def write_group_outputs(report: GroupReport, outdir) -> list[Path]:
    """Emit a group's artifacts: trace container, images, tables, summary.

    Everything written here is a pure function of the run, so two identical
    runs produce byte-identical files.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    def emit(name, writer):
        p = out / name
        writer(p)
        paths.append(p)

    emit(IDENTITY_TRACE, report.identity.trace.save)
    emit(IDENTITY_VIDEO, lambda p: write_video(report.identity.z0, p))
    paths.extend(write_mask(report.mask_identity, out / "identity_mask"))
    lines = ["group report", "decoded range (0, 1); psnr peak 1.0", ""]
    for f in report.frames:
        emit(f"frame{f.index}_video.pgm", lambda p, f=f: write_video(f.z_injected, p))
        paths.extend(write_mask(f.mask_frame, out / f"frame{f.index}_mask"))
        emit(f"frame{f.index}_match.csv", f.match.write_csv)
        line = f"frame {f.index}: psnr_bg injected {f.psnr_bg_injected:.6f}"
        if f.z_vanilla is not None:
            emit(f"frame{f.index}_vanilla.pgm", lambda p, f=f: write_video(f.z_vanilla, p))
            line += f", vanilla {f.psnr_bg_vanilla:.6f}, gain {f.psnr_bg_gain:+.6f}"
        lines.append(line)
    emit("report.txt", lambda p: p.write_text("\n".join(lines) + "\n"))
    return paths


def capture_trace(
    bench: Workbench,
    variant: str,
    *,
    seed: int,
    scene_sigma: float = SCENE_SIGMA_DEFAULT,
    attn_out: bool = False,
    action_seed: int = 0,
) -> AttentionTrace:
    """Full-run capture of one field at every (step, layer): the video-to-text
    slices (`v2t`, what `mask_grid` reads), or with `attn_out` the attention
    outputs only (what `match_grid` reads)."""
    cfg = bench.model.config
    field = "attn_out" if attn_out else "v2t"
    recorder = TraceRecorder(itertools.product(range(cfg.steps), range(cfg.depth), (field,)))
    denoise(
        bench.model, bench.prompt(action_seed), bench.schedule, seed,
        hooks=recorder,
        init_clean=bench.scene.noisy_latent(variant, scene_sigma, seed),
    )
    return recorder.trace


def mask_grid(
    trace: AttentionTrace,
    layout: PromptLayout,
    frames: int,
    height: int,
    width: int,
    reference: np.ndarray,
) -> AnalysisGrid:
    """Per-(step, layer) intersection-over-union of single-layer masks."""
    steps, layers = trace.steps(), trace.layers()
    values = np.empty((len(steps), len(layers)))
    for i, s in enumerate(steps):
        for j, l in enumerate(layers):
            m = mask_from_slices([trace.entries[s, l, "v2t"]], layout, frames, height, width)
            values[i, j] = mask_iou(m, reference)
    return AnalysisGrid(steps=tuple(steps), layers=tuple(layers), values=values, measure="iou")


def match_grid(
    trace_frame: AttentionTrace,
    trace_identity: AttentionTrace,
    frames: int,
    height: int,
    width: int,
    fg_mask: np.ndarray,
    true_lookup: np.ndarray,
    global_match: bool = False,
) -> AnalysisGrid:
    """Per-(step, layer) matching error of single-layer matching.

    Cell value is the normalized coordinate mean squared error against the
    planted correspondence, so lower is better and exact matching scores 0.
    """
    steps, layers = trace_frame.steps(), trace_frame.layers()
    values = np.empty((len(steps), len(layers)))
    for i, s in enumerate(steps):
        for j, l in enumerate(layers):
            sim = similarity([trace_frame.entries[s, l, "attn_out"]],
                             [trace_identity.entries[s, l, "attn_out"]])
            found = match_foreground(sim, fg_mask, frames, height, width, global_match=global_match)
            values[i, j] = match_mse(found, true_lookup)
    return AnalysisGrid(steps=tuple(steps), layers=tuple(layers), values=values,
                        measure="match_mse")
