"""Mask extraction from video-to-text weight slices, plus mask IO."""

import numpy as np
import pytest

from bachkit.dit import PromptLayout
from bachkit.masks import (
    aggregate_v2t,
    mask_from_slices,
    mask_iou,
    read_mask_csv,
    verdict_from_v2t,
    write_mask_csv,
    write_mask_pgms,
)
from bachkit.pgm import read_pgm

LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


def slice_for(bg_w, fg_w, rows=1):
    """One v2t row template with controlled segment means."""
    v = np.zeros((rows, LAYOUT.total), dtype=np.float32)
    v[:, LAYOUT.bg_slice] = bg_w
    v[:, LAYOUT.fg_slice] = fg_w
    return v


def test_verdict_compares_segment_means():
    v = np.vstack([slice_for(0.3, 0.1), slice_for(0.1, 0.3), slice_for(0.2, 0.2)])
    got = verdict_from_v2t(v, LAYOUT)
    assert got.tolist() == [False, True, True]  # tie goes to foreground


def test_verdict_ignores_action_and_pad():
    v = slice_for(0.2, 0.3)
    v[:, 4:] = 99.0
    assert verdict_from_v2t(v, LAYOUT).tolist() == [True]


def test_verdict_shape_check():
    with pytest.raises(ValueError):
        verdict_from_v2t(np.zeros((4, LAYOUT.total + 1)), LAYOUT)


def test_aggregate_is_mean_of_slices():
    rng = np.random.default_rng(0)
    slices = [rng.random((5, 6)).astype(np.float32) for _ in range(4)]
    np.testing.assert_allclose(
        aggregate_v2t(slices), np.mean(slices, axis=0), atol=1e-6
    )
    with pytest.raises(ValueError):
        aggregate_v2t([])
    with pytest.raises(ValueError):
        aggregate_v2t([slices[0], slices[0][:3]])


def test_aggregate_order_invariant():
    rng = np.random.default_rng(1)
    slices = [rng.random((4, 6)).astype(np.float32) for _ in range(3)]
    a = mask_from_slices(slices, LAYOUT, 2, 1, 2)
    b = mask_from_slices(slices[::-1], LAYOUT, 2, 1, 2)
    np.testing.assert_array_equal(a, b)


def test_mask_from_slices_reshape_row_major():
    v = np.vstack([slice_for(0.3, 0.1)] * 5 + [slice_for(0.1, 0.3)])
    m = mask_from_slices([v], LAYOUT, frames=1, height=2, width=3)
    assert m.shape == (1, 2, 3)
    assert m[0, 1, 2] and m.sum() == 1


def test_mask_iou_cases():
    a = np.zeros((1, 2, 2), dtype=bool)
    b = a.copy()
    assert mask_iou(a, b) == 1.0  # empty vs empty
    a[0, 0, 0] = True
    assert mask_iou(a, b) == 0.0
    b[0, 0, 0] = True
    b[0, 1, 1] = True
    assert mask_iou(a, b) == 0.5
    with pytest.raises(ValueError):
        mask_iou(a, np.zeros((1, 2, 3), dtype=bool))


def test_mask_pgm_export(tmp_path):
    mask = np.zeros((3, 4, 5), dtype=bool)
    mask[0, 1, 2] = mask[2, 0, 0] = True
    paths = write_mask_pgms(mask, tmp_path / "m")
    assert [p.name for p in paths] == ["m_f0.pgm", "m_f1.pgm", "m_f2.pgm"]
    img0 = read_pgm(paths[0])
    assert img0.shape == (4, 5) and img0.dtype == np.uint8
    assert img0[1, 2] == 255 and img0.sum() == 255
    assert read_pgm(paths[1]).sum() == 0


def test_read_pgm_rejects_non_positive_sizes(tmp_path):
    p = tmp_path / "bad.pgm"
    for size in (b"-1 4", b"0 3", b"2 0"):
        p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(8))
        with pytest.raises(ValueError, match="is not positive"):
            read_pgm(p)


def test_read_pgm_names_a_size_line_that_is_not_two_integers(tmp_path):
    p = tmp_path / "bad.pgm"
    for size in (b"2 1 1", b"2", b"2 x", b"2.0 1", b""):
        p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(2))
        with pytest.raises(ValueError) as exc:
            read_pgm(p)
        assert str(exc.value) == f"PGM size line {size!r} is not two integers"


def test_read_pgm_requires_exactly_w_times_h_bytes(tmp_path):
    p = tmp_path / "bad.pgm"
    for n in (3, 5, 9):
        p.write_bytes(b"P5\n2 2\n255\n" + bytes(n))
        with pytest.raises(ValueError, match=f"payload holds {n} bytes, 2x2 needs 4"):
            read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n" + b"\n\x01\x02\x03")  # a newline byte is pixel data
    assert read_pgm(p).tolist() == [[10, 1], [2, 3]]


def test_mask_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    mask = rng.random((2, 3, 4)) < 0.4
    p = tmp_path / "mask.csv"
    write_mask_csv(mask, p)
    header = p.read_text().splitlines()[0]
    assert header == "frame,h,w,fg"
    np.testing.assert_array_equal(read_mask_csv(p, 2, 3, 4), mask)


def test_mask_csv_rows_in_row_major_order(tmp_path):
    mask = np.random.default_rng(4).random((3, 2, 5)) < 0.5
    p = tmp_path / "mask.csv"
    write_mask_csv(mask, p)
    want = [f"{t},{i},{j},{int(mask[t, i, j])}"
            for t in range(3) for i in range(2) for j in range(5)]
    assert p.read_text().splitlines()[1:] == want


def test_mask_csv_rejects_cells_outside_grid(tmp_path):
    p = tmp_path / "outside.csv"
    for row in ("-1,0,0,1", "0,-1,0,1", "0,0,-1,1", "1,0,0,1", "0,0,1,1"):
        p.write_text(f"frame,h,w,fg\n{row}\n")
        with pytest.raises(ValueError, match="outside the grid"):
            read_mask_csv(p, 1, 1, 1)


def test_mask_csv_rejects_repeated_cells_and_bad_rows_naming_the_line(tmp_path):
    p = tmp_path / "bad.csv"
    for body, message in [
        ("0,0,0,1\n0,0,0,0\n", "mask table line 3: a second row for frame 0 h 0 w 0"),
        ("0,0,0,1\n0,0,1\n", "mask table line 3: 3 fields, the header has 4"),
        ("0,0,0,x\n", "mask table line 2: invalid literal"),
        ("0,0,9,1\n", r"mask table line 2: cell \(0, 0, 9\) lies outside the grid"),
    ]:
        p.write_text("frame,h,w,fg\n" + body)
        with pytest.raises(ValueError, match=message):
            read_mask_csv(p, 1, 1, 2)


def test_mask_csv_rejects_fg_other_than_zero_or_one(tmp_path):
    p = tmp_path / "fg.csv"
    for v in (7, -3, 2):
        p.write_text(f"frame,h,w,fg\n0,0,0,1\n0,0,1,{v}\n")
        with pytest.raises(ValueError, match=f"mask table line 3: fg {v} is neither 0 nor 1"):
            read_mask_csv(p, 1, 1, 2)


def test_mask_csv_rejects_incomplete(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("frame,h,w,fg\n0,0,0,1\n")
    with pytest.raises(ValueError, match="complete"):
        read_mask_csv(p, 1, 2, 2)
