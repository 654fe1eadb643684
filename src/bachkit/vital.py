"""Layer importance via single-layer skipping.

Each transformer layer is bypassed in turn, the video is regenerated from
the same noise and decoded, and a scalar score grades the result. A layer's
importance is the score drop relative to the unskipped baseline; the most
vital layers are the top of that ranking.

A skip run is graded by its mean per-frame cosine similarity to the
baseline video under a fixed frame projection (`embed_similarity_score`),
as Stable Flow finds vital layers. `report_from_runs` grades collected
runs by any video score; `aesthetic_score` averages a frame scorer over
the video, for graders that look at single frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dit import Model, _rng, decode_video, denoise, patch_shape
from .select import read_csv_records, write_csv_records

_EMBED_TAG = 0xE3B  # stream tag for the fixed projection draw
EMBED_DIM = 32  # width of a frame embedding
REPORT_HEADER = ("layer", "score_skip", "baseline", "drop")


class FrameEmbedder:
    """Fixed random linear projection of a frame to a unit vector of
    `EMBED_DIM` entries."""

    def __init__(self, frame_shape: tuple[int, int], seed: int = 0):
        h, w = frame_shape
        rng = _rng(seed, _EMBED_TAG)
        self.frame_shape = (int(h), int(w))
        self.proj = rng.standard_normal((EMBED_DIM, int(h) * int(w)))

    def __call__(self, frame: np.ndarray) -> np.ndarray:
        f = np.asarray(frame, dtype=np.float64)
        if f.shape != self.frame_shape:
            raise ValueError(f"frame shape {f.shape} does not match {self.frame_shape}")
        v = self.proj @ f.reshape(-1)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValueError("frame embeds to the zero vector")
        return v / n


def aesthetic_score(video: np.ndarray, scorer) -> float:
    """Mean frame score over a decoded (frames, height, width) video."""
    v = np.asarray(video)
    if v.ndim != 3 or v.shape[0] < 1:
        raise ValueError("need a (frames, height, width) video with at least one frame")
    return float(np.mean([scorer(frame) for frame in v]))


def embed_similarity_score(video: np.ndarray, reference: np.ndarray, embedder) -> float:
    """Mean per-frame cosine similarity between two videos' embeddings."""
    a, b = np.asarray(video), np.asarray(reference)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"frame counts differ: {a.shape[0]} vs {b.shape[0]}")
    return float(np.mean([embedder(fa) @ embedder(fb) for fa, fb in zip(a, b)]))


def collect_skip_runs(
    model: Model,
    prompt_embedding: np.ndarray,
    schedule,
    seed: int,
    init_clean: np.ndarray | None = None,
) -> dict[int | None, np.ndarray]:
    """Decoded baseline (key None) plus one single-skip video per layer."""
    return {
        skip: decode_video(
            denoise(model, prompt_embedding, schedule, seed, skip=skip, init_clean=init_clean)
        )
        for skip in [None, *range(model.config.depth)]
    }


@dataclass(frozen=True)
class LayerScore:
    layer: int
    score_skip: float
    drop: float


@dataclass(frozen=True)
class LayerReport:
    """Per-layer skip scores against one baseline, sorted by layer."""

    baseline: float
    scores: tuple[LayerScore, ...]

    def drops(self) -> dict[int, float]:
        return {s.layer: s.drop for s in self.scores}

    def write_csv(self, path) -> None:
        write_csv_records(path, REPORT_HEADER, (
            (s.layer, s.score_skip, self.baseline, s.drop) for s in self.scores))

    @classmethod
    def read_csv(cls, path) -> "LayerReport":
        scores, baseline = {}, None
        records = read_csv_records(path, REPORT_HEADER, (int, float, float, float),
                                   "layer report", 1)
        next(records)  # REPORT_HEADER names every column
        for line, (layer, score_skip, b, drop) in records:
            if baseline is not None and baseline != b:
                raise ValueError(f"layer report line {line} disagrees on the baseline score")
            baseline = b
            scores[layer] = LayerScore(layer=layer, score_skip=score_skip, drop=drop)
        if baseline is None:
            raise ValueError("layer report holds no rows")
        return cls(baseline=baseline, scores=tuple(scores[l] for l in sorted(scores)))


def report_from_runs(runs: dict[int | None, np.ndarray], video_score) -> LayerReport:
    """Grade collected decoded videos; the None entry is the baseline."""
    if None not in runs:
        raise ValueError("runs lack a baseline entry (key None)")
    baseline = float(video_score(runs[None]))
    graded = [(layer, float(video_score(z)))  # one call per video
              for layer, z in sorted((k, v) for k, v in runs.items() if k is not None)]
    return LayerReport(baseline=baseline, scores=tuple(
        LayerScore(layer=layer, score_skip=s, drop=baseline - s) for layer, s in graded))


def sweep_layers_embed(
    model: Model,
    prompt_embedding: np.ndarray,
    schedule,
    seed: int,
    init_clean: np.ndarray | None = None,
) -> LayerReport:
    """Skip sweep over every layer, graded by embedding similarity to the
    unskipped baseline under a `FrameEmbedder` seeded with `seed`.

    The baseline scores 1 by construction, so a layer's drop is one minus
    the similarity its removal leaves behind.
    """
    runs = collect_skip_runs(model, prompt_embedding, schedule, seed, init_clean=init_clean)
    mc = model.config
    ph, pw = patch_shape(mc.channels)
    embedder = FrameEmbedder((mc.height * ph, mc.width * pw), seed=seed)
    base = runs[None]
    return report_from_runs(runs, lambda z: embed_similarity_score(z, base, embedder))
