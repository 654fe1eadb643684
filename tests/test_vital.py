"""Layer-skip sweeps, frame scorers, and the embedding score."""

import numpy as np
import pytest

from bachkit.dit import ModelConfig, PromptLayout, StepSchedule, init_model
from bachkit.vital import (
    EMBED_DIM,
    FrameEmbedder,
    LayerReport,
    LayerScore,
    aesthetic_score,
    collect_skip_runs,
    embed_similarity_score,
    report_from_runs,
    sweep_layers_embed,
)
from bachkit.select import select_vital
from refs import frame_digest, planted_scorer, seeded_prompt

CFG = ModelConfig(
    depth=4, channels=12, heads=3, frames=2, height=3, width=3,
    text_len=6, steps=6, seed=2,
)
LAYOUT = PromptLayout(bg=2, fg=2, action=1, pad=1)


def variance(frame) -> float:
    """Frame scorer: spatial variance, zero iff the frame is flat."""
    return float(np.var(np.asarray(frame, dtype=np.float64)))


@pytest.fixture(scope="module")
def runs():
    model = init_model(CFG)
    prompt = seeded_prompt(LAYOUT, CFG.channels, seed=0)
    return collect_skip_runs(model, prompt, StepSchedule.linear(CFG.steps), seed=3)


def test_aesthetic_score_examples():
    video = np.stack([np.full((2, 2), v) for v in (1.0, 2.0, 3.0)])
    assert aesthetic_score(video, lambda f: 5.5) == 5.5
    assert aesthetic_score(video, lambda f: float(f[0, 0])) == 2.0
    assert aesthetic_score(video, variance) == 0.0
    with pytest.raises(ValueError):
        aesthetic_score(np.zeros((2, 2)), lambda f: 1.0)


def test_aesthetic_score_linear_in_scorer():
    rng = np.random.default_rng(0)
    video = rng.random((3, 4, 4))
    a, b = 2.5, -1.0
    lhs = aesthetic_score(video, lambda f: a * variance(f) + b)
    rhs = a * aesthetic_score(video, variance) + b
    assert lhs == pytest.approx(rhs)


def test_planted_scorer_is_digest_keyed():
    frame = np.arange(6, dtype=np.float32).reshape(2, 3)
    table = {frame_digest(frame): 0.0}
    score = planted_scorer(table, default=1.0)
    assert score(frame) == 0.0
    assert score(frame + 1) == 1.0
    assert frame_digest(frame) == frame_digest(frame.astype(np.float64))


def test_embedder_unit_norm_and_determinism():
    e = FrameEmbedder((4, 5), seed=1)
    frame = np.random.default_rng(2).random((4, 5))
    v = e(frame)
    assert v.shape == (EMBED_DIM,) == (32,)
    assert np.linalg.norm(v) == pytest.approx(1.0)
    np.testing.assert_array_equal(v, FrameEmbedder((4, 5), seed=1)(frame))
    with pytest.raises(ValueError):
        e(np.zeros((4, 5)))
    with pytest.raises(ValueError):
        e(np.zeros((5, 4)))


def test_embed_similarity_self_is_one():
    rng = np.random.default_rng(3)
    video = rng.random((3, 4, 4)) + 0.1
    e = FrameEmbedder((4, 4), seed=0)
    assert embed_similarity_score(video, video, e) == pytest.approx(1.0, abs=1e-6)


def test_embed_similarity_orthogonal_is_zero():
    class TwoPixel:
        def __call__(self, frame):
            v = np.array([frame[0, 0], frame[0, 1]], dtype=np.float64)
            return v / np.linalg.norm(v)

    a = np.zeros((1, 2, 2))
    b = np.zeros((1, 2, 2))
    a[0, 0, 0] = 1.0
    b[0, 0, 1] = 1.0
    assert embed_similarity_score(a, b, TwoPixel()) == pytest.approx(0.0, abs=1e-6)


def test_embed_similarity_matches_per_frame_cosine():
    rng = np.random.default_rng(4)
    a, b = rng.random((3, 4, 4)), rng.random((3, 4, 4))
    e = FrameEmbedder((4, 4), seed=5)
    want = np.mean([float(e(x) @ e(y)) for x, y in zip(a, b)])
    assert embed_similarity_score(a, b, e) == pytest.approx(want)
    with pytest.raises(ValueError, match="frame counts"):
        embed_similarity_score(a, b[:2], e)


def test_skip_runs_decode_and_differ(runs):
    assert set(runs) == {None, 0, 1, 2, 3}
    baseline = runs[None]
    assert baseline.shape == (2, 3 * 3, 3 * 4)  # decoded patches
    for layer in range(CFG.depth):
        assert not np.array_equal(runs[layer], baseline)
    model = init_model(CFG)
    prompt = seeded_prompt(LAYOUT, CFG.channels, seed=0)
    again = collect_skip_runs(model, prompt, StepSchedule.linear(CFG.steps), 3)
    assert list(again) == [None, 0, 1, 2, 3]
    for skip, video in again.items():
        np.testing.assert_array_equal(video, runs[skip])


def test_sweep_constant_scorer_all_drops_zero(runs):
    report = report_from_runs(runs, lambda v: aesthetic_score(v, lambda f: 2.0))
    assert len(report.scores) == CFG.depth
    assert report.baseline == 2.0
    assert all(s.drop == 0.0 for s in report.scores)


def test_sweep_embed_baseline_is_one():
    model = init_model(CFG)
    prompt = seeded_prompt(LAYOUT, CFG.channels, seed=0)
    report = sweep_layers_embed(model, prompt, StepSchedule.linear(CFG.steps), 3)
    assert report.baseline == pytest.approx(1.0, abs=1e-6)
    assert len(report.scores) == CFG.depth
    assert all(np.isfinite(s.drop) for s in report.scores)


def test_planted_rigging_recovers_set(runs):
    planted = (1, 3)
    table = {frame_digest(f): 0.0 for l in planted for f in runs[l]}
    # rigging is only valid if no other run collides with the table
    for layer, video in runs.items():
        if layer in planted:
            continue
        assert not any(frame_digest(f) in table for f in video)
    report = report_from_runs(
        runs, lambda z: aesthetic_score(z, planted_scorer(table, default=1.0))
    )
    assert select_vital(report.drops(), len(planted)) == planted
    assert report.baseline == 1.0


def test_report_from_runs_grades_each_video_once():
    runs = {None: np.full((1, 2, 2), 0.5), 1: np.full((1, 2, 2), 0.25), 0: np.zeros((1, 2, 2))}
    calls = []

    def score(video):
        calls.append(float(video.mean()))
        return float(video.mean())

    report = report_from_runs(runs, score)
    assert sorted(calls) == [0.0, 0.25, 0.5]  # depth + 1 calls, not 2 * depth + 1
    assert report == LayerReport(baseline=0.5, scores=(
        LayerScore(layer=0, score_skip=0.0, drop=0.5),
        LayerScore(layer=1, score_skip=0.25, drop=0.25),
    ))


def test_report_from_runs_requires_baseline():
    with pytest.raises(ValueError, match="baseline"):
        report_from_runs({0: np.zeros((1, 2, 2))}, lambda z: 0.0)


def test_layer_report_csv_roundtrip(tmp_path):
    report = LayerReport(
        baseline=0.75,
        scores=(
            LayerScore(layer=0, score_skip=0.5, drop=0.25),
            LayerScore(layer=1, score_skip=0.8125, drop=-0.0625),
        ),
    )
    p = tmp_path / "report.csv"
    report.write_csv(p)
    assert p.read_text().splitlines()[0] == "layer,score_skip,baseline,drop"
    back = LayerReport.read_csv(p)
    assert back == report
    p.write_text("layer,score_skip,baseline,drop\n0,0.5,1.0,0.5\n1,0.5,2.0,1.5\n")
    with pytest.raises(ValueError, match="baseline"):
        LayerReport.read_csv(p)


def test_layer_report_csv_names_the_bad_line(tmp_path):
    p = tmp_path / "report.csv"
    for body, message in (
        ("0,0.5,1.0,0.5\n1,0.5\n", "layer report line 3: 2 fields, the header has 4"),
        ("0,0.5,1.0,0.5\n0,0.25,1.0,0.75\n", "layer report line 3: a second row for layer 0"),
        ("0,0.5,1.0,0.5\n1,0.5,1.0,nan\n", "layer report line 3: non-finite value"),
        ("0,0.5,1.0,0.5\n1,0.5,2.0,1.5\n", "layer report line 3 disagrees on the baseline"),
    ):
        p.write_text("layer,score_skip,baseline,drop\n" + body)
        with pytest.raises(ValueError, match=message):
            LayerReport.read_csv(p)
