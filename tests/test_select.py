"""Selection rules against explicit-scan references and shipped fixtures."""

import re

import numpy as np
import pytest

from bachkit.select import (
    AnalysisGrid,
    COST,
    QUALITY,
    select_layers,
    select_tau_mask,
    select_tau_match,
    select_vital,
)
from bachkit.vital import LayerReport, LayerScore
from fixtures import paper_mask_grid, paper_match_grid, paper_vital_drops
from refs import random_drops, random_grid


def scan_tau_mask(curve):
    best = max(curve)
    for s, v in enumerate(curve):
        if v > 0.95 * best:
            return s
    return int(np.argmax(curve))


def scan_tau_match(curve):
    low = min(curve)
    for s, v in enumerate(curve):
        if v <= 1.05 * low:
            return s
    return int(np.argmin(curve))


def test_tau_mask_threshold_cases():
    assert select_tau_mask([0.1, 0.5, 0.96, 1.0, 0.9]) == 2
    assert select_tau_mask([1.0, 0.5]) == 0
    assert select_tau_mask([0.0, 0.0, 0.0]) == 0  # degenerate: earliest max
    # strictly-greater: 0.95 of max exactly is not enough
    assert select_tau_mask([0.95, 1.0]) == 1


def test_tau_match_threshold_cases():
    assert select_tau_match([9, 3, 1.04, 1.0, 1.2]) == 2
    assert select_tau_match([0.0, 0.0]) == 0
    assert select_tau_match([2.0, 1.0, 1.05]) == 1
    # inclusive: exactly 1.05x the minimum qualifies
    assert select_tau_match([1.05, 1.0]) == 0


def test_tau_validates():
    with pytest.raises(ValueError):
        select_tau_mask([])
    with pytest.raises(ValueError):
        select_tau_match(np.zeros((2, 2)))


def test_tau_rules_match_scan_on_random_curves():
    rng = np.random.default_rng(0)
    for _ in range(300):
        curve = rng.random(rng.integers(1, 30))
        assert select_tau_mask(curve) == scan_tau_mask(curve.tolist())
        assert select_tau_match(curve) == scan_tau_match(curve.tolist())


def test_select_layers_by_step_mean():
    grid = AnalysisGrid(
        steps=(0, 1), layers=(4, 7, 9),
        values=np.array([[0.2, 0.9, 0.5], [0.4, 0.7, 0.5]]),
    )
    assert select_layers(grid, 1, QUALITY) == (7,)
    assert select_layers(grid, 2, QUALITY) == (7, 9)
    assert select_layers(grid, 1, COST) == (4,)
    assert select_layers(grid, 3, COST) == (4, 7, 9)
    with pytest.raises(ValueError):
        select_layers(grid, 0, QUALITY)
    with pytest.raises(ValueError):
        select_layers(grid, 4, QUALITY)
    with pytest.raises(ValueError):
        select_layers(grid, 1, "weird")


def test_select_layers_tie_to_lower_index():
    grid = AnalysisGrid(
        steps=(0,), layers=(2, 5, 8), values=np.array([[0.5, 0.5, 0.5]])
    )
    assert select_layers(grid, 2, QUALITY) == (2, 5)
    assert select_layers(grid, 2, COST) == (2, 5)


def test_select_vital_ranks_by_drop():
    drops = {0: 0.1, 1: 0.9, 2: 0.9, 3: -0.5}
    assert select_vital(drops, 1) == (1,)  # tie 1 vs 2 -> lower index
    assert select_vital(drops, 3) == (0, 1, 2)
    with pytest.raises(ValueError):
        select_vital(drops, 5)


def test_select_vital_accepts_report_drops_or_mapping():
    report = LayerReport(
        baseline=1.0,
        scores=(
            LayerScore(layer=0, score_skip=0.2, drop=0.8),
            LayerScore(layer=1, score_skip=0.9, drop=0.1),
        ),
    )
    assert select_vital(report.drops(), 1) == (0,)
    assert select_vital({0: 0.8, 1: 0.1}, 1) == (0,)


def test_select_vital_shift_invariant():
    rng = np.random.default_rng(1)
    for _ in range(50):
        drops = {l: float(v) for l, v in enumerate(rng.standard_normal(9))}
        shifted = {l: v + 3.7 for l, v in drops.items()}
        assert select_vital(drops, 4) == select_vital(shifted, 4)


def test_grid_validation():
    with pytest.raises(ValueError, match="shape"):
        AnalysisGrid(steps=(0, 1), layers=(0,), values=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="non-finite"):
        AnalysisGrid(steps=(0,), layers=(0,), values=np.array([[np.nan]]))


def test_grid_value_and_curve():
    grid = AnalysisGrid(
        steps=(3, 5), layers=(1, 2), values=np.array([[1.0, 3.0], [5.0, 7.0]])
    )
    assert grid.value(5, 2) == 7.0
    np.testing.assert_allclose(grid.step_curve(), [2.0, 6.0])
    np.testing.assert_allclose(grid.step_curve([2]), [3.0, 7.0])
    with pytest.raises(ValueError):
        grid.step_curve([])


def test_step_curve_names_the_layers_the_grid_lacks():
    grid = AnalysisGrid(steps=(0, 1), layers=(0, 1), values=np.zeros((2, 2)))
    with pytest.raises(ValueError,
                       match=r"^grid has no layer 5 \(1 layer\(s\) missing\) among its 2 layers$"):
        grid.step_curve([1, 5])
    with pytest.raises(ValueError, match=r"^grid has no layer 2 \(99998 layer\(s\) missing\)"):
        grid.step_curve(range(100_000))


def test_grid_csv_roundtrip(tmp_path):
    grid = random_grid(7)
    p = tmp_path / "grid.csv"
    grid.write_csv(p)
    assert p.read_text().splitlines()[0] == "step,layer,value"
    back = AnalysisGrid.read_csv(p)
    assert back.steps == grid.steps and back.layers == grid.layers
    np.testing.assert_array_equal(back.values, grid.values)


def test_grid_csv_rejects_holes(tmp_path):
    p = tmp_path / "holey.csv"
    p.write_text("step,layer,value\n0,0,1.0\n0,1,2.0\n1,0,3.0\n")
    with pytest.raises(ValueError, match="complete"):
        AnalysisGrid.read_csv(p)
    p.write_text("stop,layer,value\n")
    with pytest.raises(ValueError, match="header"):
        AnalysisGrid.read_csv(p)


def test_grid_csv_names_the_bad_line(tmp_path):
    p = tmp_path / "bad.csv"
    for body, message in (
        ("0,0,1.0\n0,1\n", "grid line 3: 2 fields, the header has 3"),
        ("0,0,1.0\n0,1,2.0,7\n", "grid line 3: 4 fields, the header has 3"),
        ("0,0,1.0\n0,0,2.0\n", "grid line 3: a second row for step 0 layer 0"),
        ("0,0,nan\n", "grid line 2: non-finite value"),
        ("0,x,1.0\n", "grid line 2: invalid literal for int"),
    ):
        p.write_text("step,layer,value\n" + body)
        with pytest.raises(ValueError, match=message):
            AnalysisGrid.read_csv(p)


def test_csv_field_over_the_csv_limit_names_the_table_and_line(tmp_path):
    p = tmp_path / "long.csv"
    long = "9" * 200_000
    limit = "field larger than field limit (131072)"
    for text, message in (
        (f"step,layer,value{long}\n0,0,1.0\n", f"grid line 1: {limit}"),
        (f"step,layer,value\n0,0,1.0\n0,1,{long}\n", f"grid line 3: {limit}"),
    ):
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            AnalysisGrid.read_csv(p)
        assert str(exc.value) == message
    p.write_text(f"layer,score_skip,baseline,drop\n0,{long},1.0,0.5\n")
    with pytest.raises(ValueError, match=rf"^layer report line 2: {re.escape(limit)}$"):
        LayerReport.read_csv(p)


def test_paper_fixture_selections():
    gm = paper_mask_grid()
    layers = select_layers(gm, 15, QUALITY)
    assert layers == tuple(range(5, 20))
    assert gm.steps[select_tau_mask(gm.step_curve(layers))] == 10
    gq = paper_match_grid()
    layers = select_layers(gq, 15, COST)
    assert layers == tuple(range(1, 16))
    assert gq.steps[select_tau_match(gq.step_curve(layers))] == 10
    assert select_vital(paper_vital_drops(), 15) == (
        0, 1, 11, 12, 13, 14, 15, 17, 19, 20, 21, 23, 29, 34, 41,
    )


def test_random_fixture_grids_are_stable():
    a, b = random_grid(3), random_grid(3)
    np.testing.assert_array_equal(a.values, b.values)
    assert random_drops(3) == random_drops(3)
    assert random_drops(3) != random_drops(4)
