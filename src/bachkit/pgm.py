"""Minimal binary PGM (P5) image io for masks and decoded frames."""

from __future__ import annotations

import numpy as np


def to_gray(image: np.ndarray) -> np.ndarray:
    """Coerce a 2-D array to uint8: bools map to {0, 255}, floats from (0, 1)."""
    a = np.asarray(image)
    if a.ndim != 2:
        raise ValueError(f"need a 2-D image, got shape {a.shape}")
    if a.dtype == np.uint8:
        return a
    if a.dtype == bool:
        return a.astype(np.uint8) * 255
    return np.clip(np.rint(a.astype(np.float64) * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, image: np.ndarray) -> None:
    gray = to_gray(image)
    h, w = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(gray).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM; ValueError for another format, a size line that is
    not two integers, a size that is not positive, a maxval other than 255 or
    a payload of other than w*h bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    parts = raw.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5":
        raise ValueError("not a binary PGM file")
    try:
        w, h = (int(x) for x in parts[1].split())
    except ValueError:
        raise ValueError(f"PGM size line {parts[1]!r} is not two integers") from None
    if w < 1 or h < 1:
        raise ValueError(f"PGM size {w}x{h} is not positive")
    if parts[2] != b"255":
        raise ValueError("only maxval 255 is supported")
    if len(parts[3]) != w * h:
        raise ValueError(f"PGM payload holds {len(parts[3])} bytes, {w}x{h} needs {w * h}")
    return np.frombuffer(parts[3], dtype=np.uint8).reshape(h, w)


def video_sheet(video: np.ndarray) -> np.ndarray:
    """Stack a (T, H, W) video into one tall (T*H, W) image."""
    v = np.asarray(video)
    if v.ndim != 3:
        raise ValueError(f"need a (frames, height, width) video, got shape {v.shape}")
    return v.reshape(v.shape[0] * v.shape[1], v.shape[2])
