"""One consistency group end to end: identity run, injected frames, ablation.

The identity run caches the video rows of its injection layers' inputs
while its readout trace is recorded. Each frame run then derives
its own foreground mask, matches its subject pixels to identity tokens,
and from the injection step onward attends to fused key/value sequences:
matched identity foreground rows re-encoded at the frame pixels' grid
positions, identity background rows at their own positions, all guarded
by a region mask. The ablation pair regenerates each frame from the same
noise without injection, so the background PSNR gain isolates what the
cache sharing buys.
"""

import argparse
from pathlib import Path

from bachkit import default_config, make_workbench, run_group, write_group_outputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo-out/group")
    ap.add_argument("--frames", type=int, default=2)
    ap.add_argument("--scene-seed", type=int, default=1)
    args = ap.parse_args()

    cfg = default_config("desk8")
    wb = make_workbench(cfg, scene_seed=args.scene_seed)
    report = run_group(
        wb, cfg,
        seed_identity=cfg.seed,
        frame_seeds=[cfg.seed + 1 + i for i in range(args.frames)],
        ablate=True,
    )

    for f in report.frames:
        print(f"frame {f.index}: psnr_bg injected {f.psnr_bg_injected:.3f} dB, "
              f"vanilla {f.psnr_bg_vanilla:.3f} dB, gain {f.psnr_bg_gain:+.3f} dB")
    print(f"mean gain over {len(report.frames)} frames: {report.mean_gain():+.3f} dB")

    paths = write_group_outputs(report, args.out)
    print(f"\n{len(paths)} artifacts in {Path(args.out).resolve()}")
    for p in paths:
        print(f"  {p.name}")


if __name__ == "__main__":
    main()
