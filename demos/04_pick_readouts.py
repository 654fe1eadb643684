"""Pick a mask readout from a live desk-scale sweep with the selection rules.

A quality grid (mask IoU, higher is better) picks its layer set by
top-k step-averaged score and its readout step as the first step within
5% of the curve's peak. The cost-grid and vital-layer rules mirror these;
`bachkit select` applies all five to stored tables.
"""

from bachkit import default_config, make_workbench
from bachkit.pipeline import capture_trace, mask_grid
from bachkit.scene import IDENTITY
from bachkit.select import QUALITY, select_layers, select_tau_mask

print("== live desk-scale mask sweep ==")
cfg = default_config("desk8")
wb = make_workbench(cfg, scene_seed=1)
mc = wb.model.config
trace = capture_trace(wb, IDENTITY, seed=cfg.seed)
grid = mask_grid(trace, wb.layout, mc.frames, mc.height, mc.width, wb.scene.mask(IDENTITY))
layers = select_layers(grid, 4, QUALITY)
tau = grid.steps[select_tau_mask(grid.step_curve(layers))]
print(f"selected: step {tau}, layers {layers}")
print(f"grid cell at the selection: IoU {grid.value(tau, layers[0]):.4f}")
