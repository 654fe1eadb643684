"""Apply the five selection rules to analysis grids.

A quality grid (mask IoU, higher is better) picks its layer set by
top-k step-averaged score and its readout step as the first step within
5% of the curve's peak. A cost grid (matching error, lower is better)
mirrors both rules. Per-layer skip drops rank the layers a cache must
keep. The shipped 42-layer fixtures land exactly on that profile's
configured sets; the same rules run here against a live desk-scale sweep.
"""

from bachkit import default_config, make_workbench
from bachkit.fixtures import paper_mask_grid, paper_match_grid, paper_vital_drops
from bachkit.pipeline import capture_trace, mask_grid
from bachkit.scene import IDENTITY
from bachkit.select import (
    COST,
    QUALITY,
    select_layers,
    select_tau_mask,
    select_tau_match,
    select_vital,
)

print("== 42-layer reference fixtures ==")
ref = default_config("paper42")
gm = paper_mask_grid()
layers = select_layers(gm, ref.vital_k, QUALITY)
tau = gm.steps[select_tau_mask(gm.step_curve(layers))]
print(f"mask readout: step {tau}, layers {layers[0]}..{layers[-1]} "
      f"(configured: {ref.tau_mask}, {ref.mask_layers[0]}..{ref.mask_layers[-1]})")

gc = paper_match_grid()
layers = select_layers(gc, ref.vital_k, COST)
tau = gc.steps[select_tau_match(gc.step_curve(layers))]
print(f"match readout: step {tau}, layers {layers[0]}..{layers[-1]} "
      f"(configured: {ref.tau_match}, {ref.match_layers[0]}..{ref.match_layers[-1]})")

vital = select_vital(paper_vital_drops(), ref.vital_k)
print(f"vital layers: {vital}")
print(f"  match configured cache set: {vital == ref.kv_layers}")

print("\n== live desk-scale mask sweep ==")
cfg = default_config("desk8")
wb = make_workbench(cfg, scene_seed=1)
mc = wb.model.config
trace = capture_trace(wb, IDENTITY, seed=cfg.seed)
grid = mask_grid(trace, wb.layout, mc.frames, mc.height, mc.width, wb.scene.mask(IDENTITY))
layers = select_layers(grid, 4, QUALITY)
tau = grid.steps[select_tau_mask(grid.step_curve(layers))]
print(f"selected: step {tau}, layers {layers}")
print(f"grid cell at the selection: IoU {grid.value(tau, layers[0]):.4f}")
