"""Pick a mask readout from a live desk-scale sweep with the selection rules.

A quality grid (mask IoU, higher is better) picks its layer set by
top-k step-averaged score and its readout step as the first step within
5% of the curve's peak. The cost-grid and vital-layer rules mirror these;
`bachkit select {layers|tau} TABLE` applies them to stored tables, and a
table's header says which rule and which direction apply.
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
row = select_tau_mask(grid.step_curve(layers))
print(f"selected: step {grid.steps[row]}, layers {layers}")
print(f"grid cell at the selection: IoU {grid.values[row, grid.layers.index(layers[0])]:.4f}")
