"""The benchmark's four workloads and their oracle checks.

Each workload makes the public library calls that the CLI commands named in
its docstring make, with those commands' arguments and defaults. One call of
`run` is one iteration; time it spends under `watch.pause()` on the
benchmark's own bookkeeping is left out of the iteration's wall. Library functions are reached through their modules
at call time (`pipeline.run_group`, not a name bound at import), so the
benchmark's wrappers see every call.

`check` compares the iteration's results with the planted scene or with an
acceptance criterion of the test suite. A check marked `integrity` guards
the outputs themselves (bit-equal read-back, finite latents); a failed one
makes the run incorrect. The others are quality oracles, whose failures
count in `failed` but leave the run correct.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import bachkit.dit as dit
import bachkit.inject as inject
import bachkit.masks as masks
import bachkit.matching as matching
import bachkit.pgm as pgm
import bachkit.pipeline as pipeline
import bachkit.select as select
import bachkit.trace as trace
import bachkit.vital as vital
from bachkit.scene import FRAME, IDENTITY

SCENE_SIGMA = 0.05  # the CLI's --scene-sigma default
GROUP_FRAMES = 5  # run-group --frames 5
MASK_IOU_MIN = 0.95  # ac03
MATCH_EXACT_MIN = 0.95  # ac04


class Stopwatch:
    """Time an iteration spends in the benchmark's own bookkeeping, to take
    out of its wall."""

    def __init__(self) -> None:
        self.paused_s = 0.0

    @contextmanager
    def pause(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0


@dataclass(frozen=True)
class Check:
    op: str
    ok: bool
    detail: str
    integrity: bool = False


@dataclass
class Verdict:
    checks: list[Check] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)

    def add(self, op: str, ok: bool, detail: str, integrity: bool = False) -> None:
        self.checks.append(Check(op, bool(ok), detail, integrity))

    def mask(self, op: str, got, planted) -> float:
        if got is None:
            self.add(op, False, "no mask was derived")
            return 0.0
        iou = masks.mask_iou(got, planted)
        self.add(op, iou >= MASK_IOU_MIN, f"IoU {iou:.4f}, need >= {MASK_IOU_MIN}")
        return iou

    def match(self, op: str, found, truth) -> float:
        if found is None:
            self.add(op, False, "no match map was derived")
            return 0.0
        frac = matching.exact_fraction(found, truth)
        self.add(op, frac >= MATCH_EXACT_MIN, f"exact {frac:.4f}, need >= {MATCH_EXACT_MIN}")
        return frac

    def same_entries(self, op: str, written: dict[object, str], read: dict) -> None:
        """`written` holds the digests of the entries as written (`digests`)."""
        same = written == digests(read)
        self.add(op, same, "read back bit-equal" if same else "read back differs", integrity=True)


def _digest(value) -> str:
    """Digest of the dtype, shape and raw bytes of an array or of a pair of arrays."""
    h = hashlib.sha256()
    for a in value if isinstance(value, tuple) else (value,):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(memoryview(np.ascontiguousarray(a)).cast("B"))
    return h.hexdigest()


def digests(entries: dict) -> dict[object, str]:
    return {k: _digest(v) for k, v in entries.items()}


def _same_grid(a, b) -> bool:
    return a.steps == b.steps and a.layers == b.layers and _digest(a.values) == _digest(b.values)


class GroupDesk8:
    """`run-group --frames 5 --ablate` on desk8."""

    name = "group_desk8"
    profile = "desk8"

    def run(self, bench, cfg, out: Path, watch: Stopwatch):
        report = pipeline.run_group(
            bench, cfg,
            seed_identity=cfg.seed,
            frame_seeds=[cfg.seed + 1 + i for i in range(GROUP_FRAMES)],
            scene_sigma=SCENE_SIGMA,
            ablate=True,
        )
        pipeline.write_group_outputs(report, out)
        return report

    def check(self, bench, cfg, out: Path, report, vital_sets) -> Verdict:
        v = Verdict()
        ious = [v.mask("identity.mask_iou", report.mask_identity, bench.scene.mask(IDENTITY))]
        planted, truth = bench.scene.mask(FRAME), bench.scene.correspondence()
        exact = []
        for f in report.frames:
            ious.append(v.mask(f"frame{f.index}.mask_iou", f.mask_frame, planted))
            exact.append(v.match(f"frame{f.index}.match_exact", f.match, truth))
        injected = statistics.fmean(f.psnr_bg_injected for f in report.frames)
        vanilla = statistics.fmean(f.psnr_bg_vanilla for f in report.frames)
        gain = injected - vanilla
        v.add("group.psnr_gain", gain > 0.0,
              f"injected {injected:.4f} dB vs vanilla {vanilla:.4f} dB (ac09)")
        v.same_entries("identity_trace.read_back", digests(report.identity.trace.entries),
                       trace.AttentionTrace.load(out / "identity_trace.bvtr").entries)
        v.quality = {"psnr_gain_db": gain, "mask_iou": statistics.fmean(ious),
                     "match_exact": statistics.fmean(exact)}
        return v


class VitalDesk8:
    """`analyze vital --scorer embed`, then `select vital`, on desk8."""

    name = "vital_desk8"
    profile = "desk8"

    def run(self, bench, cfg, out: Path, watch: Stopwatch):
        init = bench.scene.noisy_latent(IDENTITY, SCENE_SIGMA, cfg.seed)
        report = vital.sweep_layers_embed(bench.model, bench.prompt(0), bench.schedule,
                                          cfg.seed, init_clean=init)
        report.write_csv(out / "layer_report.csv")
        read = vital.LayerReport.read_csv(out / "layer_report.csv")
        return report, read, select.select_vital(read.drops(), cfg.vital_k)

    def check(self, bench, cfg, out: Path, state, vital_sets) -> Verdict:
        report, read, chosen = state
        v = Verdict()
        v.add("layer_report.read_back", read == report,
              "read back equal" if read == report else "read back differs", integrity=True)
        recorded = vital_sets.get(str(cfg.seed))
        if recorded is not None:
            v.add("vital_set", list(chosen) == recorded,
                  f"chose {list(chosen)}, recorded {recorded}")
        return v


class IdentityPaper42:
    """`gen-identity`, then `gen-frame` against its directory, on paper42."""

    name = "identity_paper42"
    profile = "paper42"

    def run(self, bench, cfg, out: Path, watch: Stopwatch):
        bundle = pipeline.run_identity(bench, cfg, seed=cfg.seed, scene_sigma=SCENE_SIGMA)
        bundle.trace.save(out / "identity_trace.bvtr")
        bundle.cache.save(out / "identity_cache.bvtr")
        np.save(out / "identity_z0.npy", bundle.z0)
        pgm.write_pgm(out / "identity_video.pgm", pgm.video_sheet(dit.decode_video(bundle.z0)))
        # gen-frame runs in a process of its own: only what it loads is held.
        with watch.pause():
            written = {"trace": digests(bundle.trace.entries),
                       "cache": digests(bundle.cache.entries), "z0": digests({0: bundle.z0})}
        del bundle

        loaded = pipeline.IdentityBundle(
            z0=np.load(out / "identity_z0.npy"),
            trace=trace.AttentionTrace.load(out / "identity_trace.bvtr"),
            cache=inject.KvCache.load(out / "identity_cache.bvtr",
                                      budget_bytes=cfg.kv_budget_bytes),
        )
        z0, injector = pipeline.run_frame(
            bench, cfg, loaded,
            seed=cfg.seed + 1, action_seed=1, scene_sigma=SCENE_SIGMA, inject=True,
        )
        np.save(out / "frame_z0.npy", z0)
        pgm.write_pgm(out / "frame_video.pgm", pgm.video_sheet(dit.decode_video(z0)))
        if injector.mask_frame is not None:
            masks.write_mask_pgms(injector.mask_frame, out / "frame_mask")
            masks.write_mask_csv(injector.mask_frame, out / "frame_mask.csv")
            injector.match.write_csv(out / "frame_match.csv")
        return written, loaded, injector

    def check(self, bench, cfg, out: Path, state, vital_sets) -> Verdict:
        written, loaded, injector = state
        v = Verdict()
        v.same_entries("identity_trace.read_back", written["trace"], loaded.trace.entries)
        v.same_entries("identity_cache.read_back", written["cache"], loaded.cache.entries)
        v.same_entries("identity_z0.read_back", written["z0"], {0: loaded.z0})
        iou_id = v.mask("identity.mask_iou", injector.mask_identity, bench.scene.mask(IDENTITY))
        iou = v.mask("frame.mask_iou", injector.mask_frame, bench.scene.mask(FRAME))
        exact = v.match("frame.match_exact", injector.match, bench.scene.correspondence())
        v.quality = {"mask_iou": (iou_id + iou) / 2, "match_exact": exact}
        return v


class AnalyzeDesk8:
    """`analyze mask`, `analyze match`, then `select mask-layers`, `select tau
    --layers`, `select match-layers` and `select tau --kind cost --layers`,
    on desk8."""

    name = "analyze_desk8"
    profile = "desk8"

    def run(self, bench, cfg, out: Path, watch: Stopwatch):
        mc = bench.model.config
        tr_mask = pipeline.capture_trace(bench, IDENTITY, seed=cfg.seed, scene_sigma=SCENE_SIGMA)
        grid_mask = pipeline.mask_grid(tr_mask, bench.layout, mc.frames, mc.height, mc.width,
                                       bench.scene.mask(IDENTITY))
        grid_mask.write_csv(out / "grid_mask.csv")

        tr_id = pipeline.capture_trace(bench, IDENTITY, seed=cfg.seed,
                                       scene_sigma=SCENE_SIGMA, attn_out=True)
        tr_frm = pipeline.capture_trace(bench, FRAME, seed=cfg.seed + 1,
                                        scene_sigma=SCENE_SIGMA, attn_out=True, action_seed=1)
        grid_match = pipeline.match_grid(tr_frm, tr_id, mc.frames, mc.height, mc.width,
                                         bench.scene.mask(FRAME), bench.scene.correspondence(),
                                         global_match=cfg.global_match)
        grid_match.write_csv(out / "grid_match.csv")

        read_mask = select.AnalysisGrid.read_csv(out / "grid_mask.csv")
        mask_layers = select.select_layers(read_mask, cfg.vital_k, select.QUALITY)
        tau_mask = read_mask.steps[select.select_tau_mask(read_mask.step_curve(mask_layers))]
        read_match = select.AnalysisGrid.read_csv(out / "grid_match.csv")
        match_layers = select.select_layers(read_match, cfg.vital_k, select.COST)
        tau_match = read_match.steps[select.select_tau_match(read_match.step_curve(match_layers))]
        return dict(tr_mask=tr_mask, tr_id=tr_id, tr_frm=tr_frm,
                    grids=((grid_mask, read_mask), (grid_match, read_match)),
                    mask_readout=(tau_mask, mask_layers), match_readout=(tau_match, match_layers))

    def check(self, bench, cfg, out: Path, st, vital_sets) -> Verdict:
        mc = bench.model.config
        v = Verdict()
        for (written, read), name in zip(st["grids"], ("grid_mask", "grid_match")):
            ok = _same_grid(written, read)
            v.add(f"{name}.read_back", ok, "read back equal" if ok else "read back differs",
                  integrity=True)
        tau, layers = st["mask_readout"]
        got = masks.mask_from_slices(st["tr_mask"].layer_slices(tau, layers, "v2t"),
                                     bench.layout, mc.frames, mc.height, mc.width)
        iou = v.mask(f"mask_iou@selected_step{tau}", got, bench.scene.mask(IDENTITY))
        # Matching is checked at the readout `select` chose and, as ac04 does,
        # at the configured one.
        exact = []
        for where, (tau, layers) in (("selected", st["match_readout"]),
                                     ("configured", (cfg.tau_match, cfg.match_layers))):
            sim = matching.similarity(st["tr_frm"].layer_slices(tau, layers, "attn_out"),
                                      st["tr_id"].layer_slices(tau, layers, "attn_out"))
            found = matching.match_foreground(sim, bench.scene.mask(FRAME), mc.frames,
                                              mc.height, mc.width, global_match=cfg.global_match)
            exact.append(v.match(f"match_exact@{where}_step{tau}", found,
                                 bench.scene.correspondence()))
        v.quality = {"mask_iou": iou, "match_exact": exact[0]}
        return v


WORKLOADS = {w.name: w for w in (GroupDesk8(), VitalDesk8(), IdentityPaper42(), AnalyzeDesk8())}
