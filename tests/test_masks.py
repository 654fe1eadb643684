"""Mask extraction from video-to-text weight slices, plus the mask writers."""

import numpy as np
import pytest

from bachkit.dit import PromptLayout
from bachkit.masks import MASK_HEADER, mask_from_slices, mask_iou, write_mask_csv, write_mask_pgms
from bachkit.select import read_csv_records

LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


def slice_for(bg_w, fg_w, rows=1):
    """One v2t row template with controlled segment means."""
    v = np.zeros((rows, LAYOUT.total), dtype=np.float32)
    v[:, LAYOUT.bg_slice] = bg_w
    v[:, LAYOUT.fg_slice] = fg_w
    return v


def verdicts(slices):
    """`mask_from_slices` of (rows, LAYOUT.total) slices, as one flat row of verdicts."""
    return mask_from_slices(slices, LAYOUT, 1, 1, len(slices[0])).ravel()


def test_verdict_compares_segment_means():
    v = np.vstack([slice_for(0.3, 0.1), slice_for(0.1, 0.3), slice_for(0.2, 0.2)])
    got = verdicts([v])
    assert got.tolist() == [False, True, True]  # tie goes to foreground


def test_verdict_ignores_action_and_pad():
    v = slice_for(0.2, 0.3)
    v[:, 4:] = 99.0
    assert verdicts([v]).tolist() == [True]


def test_verdict_shape_check():
    with pytest.raises(ValueError, match="does not match prompt layout"):
        verdicts([np.zeros((4, LAYOUT.total + 1))])


def test_aggregate_is_mean_of_slices():
    rng = np.random.default_rng(0)
    slices = [rng.random((5, 6)).astype(np.float32) for _ in range(4)]
    mean = np.zeros((5, 6))
    for s in slices:  # the reference: float64 sums, layer by layer
        mean += s
    mean = (mean / len(slices)).astype(np.float32)
    want = mean[:, LAYOUT.bg_slice].mean(axis=1) <= mean[:, LAYOUT.fg_slice].mean(axis=1)
    assert 0 < want.sum() < len(want)  # both verdicts occur
    assert verdicts(slices).tolist() == want.tolist()
    # the layers' mean, not one layer's verdicts: a slice alone may disagree with it
    assert any(verdicts([s]).tolist() != want.tolist() for s in slices)
    with pytest.raises(ValueError, match="no weight slices"):
        mask_from_slices([], LAYOUT, 1, 1, 5)
    with pytest.raises(ValueError, match="disagree in shape"):
        verdicts([slices[0], slices[0][:3]])


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
    head = b"P5\n5 4\n255\n"  # width, then height
    assert paths[0].read_bytes() == head + bytes(7) + b"\xff" + bytes(12)  # row 1, column 2
    assert paths[1].read_bytes() == head + bytes(20)
    assert paths[2].read_bytes() == head + b"\xff" + bytes(19)


def test_mask_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    mask = rng.random((2, 3, 4)) < 0.4
    p = tmp_path / "mask.csv"
    write_mask_csv(mask, p)
    header = p.read_text().splitlines()[0]
    assert header == "frame,h,w,fg"
    back = np.zeros(mask.shape, dtype=bool)
    for _, (t, i, j, fg) in read_csv_records(p, MASK_HEADER, (int,) * 4, "mask table", 3):
        back[t, i, j] = fg
    np.testing.assert_array_equal(back, mask)


def test_mask_csv_rows_in_row_major_order(tmp_path):
    mask = np.random.default_rng(4).random((3, 2, 5)) < 0.5
    p = tmp_path / "mask.csv"
    write_mask_csv(mask, p)
    want = ["frame,h,w,fg"] + [f"{t},{i},{j},{int(mask[t, i, j])}"
                               for t in range(3) for i in range(2) for j in range(5)]
    assert p.read_bytes() == "".join(line + "\r\n" for line in want).encode()
