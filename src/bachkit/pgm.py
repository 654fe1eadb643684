"""Minimal binary PGM (P5) image writer for masks and decoded frames."""

from __future__ import annotations

import numpy as np


def to_gray(image: np.ndarray) -> np.ndarray:
    """Coerce a 2-D array to uint8: bools map to {0, 255}, floats from (0, 1)."""
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError(f"need a 2-D image, got shape {a.shape}")
    if a.dtype == bool:
        return a.astype(np.uint8) * 255
    return np.clip(np.rint(a.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    gray = to_gray(image)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(gray).tobytes())


def video_sheet(video: np.ndarray) -> np.ndarray:
    """Stack a (T, H, W) video into one tall (T*H, W) image."""
    v = np.asarray(video)
    if v.ndim != 3:
        raise ValueError(f"need a (frames, height, width) video, got shape {v.shape}")
    return v.reshape(v.shape[0] * v.shape[1], v.shape[2])
