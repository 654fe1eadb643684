"""Recover a planted subject mask from video-to-text attention.

Generates the identity variant of a planted scene while recording every
layer's video-to-text attention slice, sweeps the per-(step, layer) IoU
grid against the planted rectangle, lets the selection rules pick the
readout step and layer set, and writes the recovered mask as PGM images.
"""

import argparse

from bachkit import default_config, make_workbench
from bachkit.masks import mask_from_slices, mask_iou, write_mask_pgms
from bachkit.pipeline import capture_trace, mask_grid
from bachkit.scene import IDENTITY
from bachkit.select import QUALITY, select_layers, select_tau_mask


def run(out: str, scene_seed: int, sigma: float) -> None:
    cfg = default_config("desk8")
    wb = make_workbench(cfg, scene_seed=scene_seed)
    mc = wb.model.config
    planted = wb.scene.mask(IDENTITY)
    print(f"planted rectangle covers {int(planted.sum())} of {planted.size} pixels")

    trace = capture_trace(wb, IDENTITY, seed=cfg.seed, scene_sigma=sigma)
    grid = mask_grid(trace, wb.layout, mc.frames, mc.height, mc.width, planted)

    layers = select_layers(grid, 4, QUALITY)
    tau = grid.steps[select_tau_mask(grid.step_curve(layers))]
    print(f"selected readout: step {tau}, layers {layers}")

    got = mask_from_slices(trace.layer_slices(tau, layers, "v2t"),
                           wb.layout, mc.frames, mc.height, mc.width)
    print(f"IoU against the planted mask: {mask_iou(got, planted):.4f}")
    for p in write_mask_pgms(got, f"{out}/recovered_mask"):
        print(f"  wrote {p}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="demo-out")
    ap.add_argument("--scene-seed", type=int, default=1)
    ap.add_argument("--sigma", type=float, default=0.05)
    args = ap.parse_args()
    import pathlib

    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    run(args.out, args.scene_seed, args.sigma)
