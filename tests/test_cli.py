"""End-to-end command flows through the argparse entry point."""

import dataclasses
import io
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bachkit.pipeline as pipeline
from bachkit.cli import _build_parser, _run_config, main
from bachkit.config import default_config, read_ini
from bachkit.inject import CacheBudgetError
from bachkit.select import AnalysisGrid
from bachkit.trace import MAGIC, VERSION, AttentionTrace
from bachkit.vital import LayerReport, LayerScore
from refs import write_kv_cache_of_earlier_format

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")  # a leak fails, not just prints


def test_config_and_profile_are_exclusive(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nprofile = desk8\n")
    with pytest.raises(SystemExit) as exc:
        main(["run-group", "--config", str(ini), "--profile", "desk8"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "bachkit run-group: error: argument --profile: not allowed with argument --config"
    )


def test_identity_then_frame_flow(tmp_path, capsys):
    idir, fdir = tmp_path / "ident", tmp_path / "frame"
    assert main(["gen-identity", "--out", str(idir), "--seed", "11"]) == 0
    for name in ("identity_trace.bvtr", "identity_cache.bvtr",
                 "identity_z0.npy", "identity_video.pgm"):
        assert (idir / name).stat().st_size > 0

    assert main(["gen-frame", "--identity-dir", str(idir),
                 "--out", str(fdir), "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "frame run complete" in out
    for name in ("frame_z0.npy", "frame_video.pgm", "frame_mask.csv", "frame_match.csv"):
        assert (fdir / name).stat().st_size > 0
    assert sorted(p.name for p in fdir.glob("frame_mask_f*.pgm")) == [
        f"frame_mask_f{t}.pgm" for t in range(4)
    ]
    z = np.load(fdir / "frame_z0.npy")
    assert z.shape == (4, 8, 8, 48)

    assert main(["dump-trace", str(idir / "identity_trace.bvtr")]) == 0
    out = capsys.readouterr().out
    assert "entries" in out and "v2t" in out


def _one_line_error(capsys, message):
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"bachkit: error: {message}\n"


def test_run_group_then_report(tmp_path, capsys):
    d = tmp_path / "group"
    assert main(["run-group", "--out", str(d), "--frames", "1", "--seed", "11", "--ablate"]) == 0
    out = capsys.readouterr().out
    assert "psnr_bg injected" in out and "artifacts" in out
    assert (d / "frame0_vanilla.pgm").stat().st_size > 0
    assert "gain" in next(line for line in out.splitlines() if line.startswith("frame 0:"))

    assert main(["report", "--dir", str(d)]) == 0
    out = capsys.readouterr().out
    assert "group report" in out and "identity_trace.bvtr" in out

    assert main(["report", "--dir", str(tmp_path / "nowhere")]) == 2
    _one_line_error(capsys, f"no report at {tmp_path / 'nowhere' / 'report.txt'}")


@pytest.fixture()
def grid_csv(tmp_path):
    values = np.tile([0.9, 0.1, 0.8, 0.3], (5, 1))
    values[2, :] += 0.05
    values[4, 1] += 0.5
    grid = AnalysisGrid(steps=tuple(range(5)), layers=tuple(range(4)), values=values)
    p = tmp_path / "grid.csv"
    grid.write_csv(p)
    return p


def test_select_layer_rules(grid_csv, capsys):
    assert main(["select", "mask-layers", "--grid", str(grid_csv), "-k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "0,2"
    assert main(["select", "match-layers", "--grid", str(grid_csv), "-k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1,3"


def test_select_tau_rules(grid_csv, capsys):
    assert main(["select", "tau", "--grid", str(grid_csv)]) == 0
    assert capsys.readouterr().out.strip() == "4"  # late bump dominates the full curve
    assert main(["select", "tau", "--grid", str(grid_csv), "--layers", "0,2"]) == 0
    assert capsys.readouterr().out.strip() == "2"  # restricted curve peaks earlier
    assert main(["select", "tau", "--grid", str(grid_csv), "--kind", "cost"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_select_tau_names_the_layers_the_grid_lacks(grid_csv, capsys):
    assert main(["select", "tau", "--grid", str(grid_csv), "--layers", "2,5-6"]) == 2
    _one_line_error(capsys, "layer set has 2 layer(s) outside 0..3, the first 5")


def test_select_vital_from_report(tmp_path, capsys):
    report = LayerReport(baseline=2.0, scores=(
        LayerScore(0, 2.0, 0.0),
        LayerScore(1, 0.5, 1.5),
        LayerScore(2, 2.0, 0.0),
        LayerScore(3, 1.0, 1.0),
    ))
    p = tmp_path / "layers.csv"
    report.write_csv(p)
    assert main(["select", "vital", "--report", str(p), "-k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1,3"


def test_select_k_zero_is_one_line(tmp_path, grid_csv, capsys):
    report = LayerReport(baseline=2.0, scores=tuple(LayerScore(i, 1.0, 1.0) for i in range(4)))
    p = tmp_path / "layers.csv"
    report.write_csv(p)
    assert main(["select", "vital", "--report", str(p), "-k", "0"]) == 2
    _one_line_error(capsys, "k=0 out of range for 4 layers")
    assert main(["select", "mask-layers", "--grid", str(grid_csv), "-k", "0"]) == 2
    _one_line_error(capsys, "k=0 out of range for 4 layers")


def test_select_tau_empty_layer_set_is_one_line(grid_csv, capsys):
    assert main(["select", "tau", "--grid", str(grid_csv), "--layers", ""]) == 2
    _one_line_error(capsys, "empty layer set")
    for text in ("1-", "-1", "2-3-4"):
        assert main(["select", "tau", "--grid", str(grid_csv), "--layers", text]) == 2
        _one_line_error(capsys, f"layer set part {text!r} is not a layer or a lo-hi range")


def test_select_on_a_grid_of_only_its_header_is_one_line(tmp_path, capsys):
    p = tmp_path / "grid.csv"
    p.write_text("step,layer,value\n")
    for argv in (["tau"], ["mask-layers", "-k", "2"], ["match-layers"]):
        assert main(["select", *argv, "--grid", str(p)]) == 2
        _one_line_error(capsys, "grid holds no cells")


@pytest.mark.parametrize("what, flag, text", [
    ("vital", "--report", "layer,score_skip,baseline,drop\n0,0.5,1.0,0.5\n1\n"),
    ("tau", "--grid", "step,layer,value\n0,0,1.0\n0\n"),
])
def test_select_bad_row_is_one_line(tmp_path, capsys, what, flag, text):
    p = tmp_path / "table.csv"
    p.write_text(text)
    assert main(["select", what, flag, str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bachkit: error: ") and err.count("\n") == 1
    assert "line 3: 1 fields" in err


def test_select_tau_field_over_the_csv_limit_is_one_line(tmp_path, capsys):
    p = tmp_path / "grid.csv"
    p.write_text("step,layer,value\n0,0," + "9" * 200_000 + "\n")
    assert main(["select", "tau", "--grid", str(p)]) == 2
    _one_line_error(capsys, "grid line 2: field larger than field limit (131072)")


def test_select_tau_integer_past_the_float_range_is_one_line(tmp_path, capsys):
    p = tmp_path / "grid.csv"
    p.write_text("step,layer,value\n0," + "9" * 400 + ",1.0\n")
    assert main(["select", "tau", "--grid", str(p)]) == 2
    _one_line_error(capsys, "grid line 2: int too large to convert to float")


def test_config_that_is_not_utf8_is_one_line_naming_it(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    ini = tmp_path / "run.ini"
    ini.write_bytes(b"[model]\nprofile = desk8\xff\n")
    assert main(["gen-identity", "--config", str(ini), "--out", str(tmp_path / "i")]) == 2
    _one_line_error(capsys, f"{ini}: 'utf-8' codec can't decode byte 0xff in position 23: "
                            "invalid start byte")


def test_shared_flags_go_after_the_command(capsys):
    for argv in (["--global-match", "run-group"], ["--seed", "3", "run-group"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --global-match" in err and "invalid choice: '3'" in err


def test_each_command_takes_only_the_shared_flags_it_reads(capsys):
    run = {"--config", "--profile", "--seed", "--kv-budget-bytes", "--global-match",
           "--scene-seed", "--scene-sigma"}
    want = {
        "gen-identity": run - {"--global-match"} | {"--out"},
        "gen-frame": run | {"--identity-dir", "--out", "--action-seed", "--no-inject"},
        "run-group": run | {"--out", "--frames", "--ablate"},
        "analyze": run - {"--kv-budget-bytes"} | {"--out"},
        "select": {"--config", "--profile", "--grid", "--report", "-k", "--kind", "--layers"},
        "dump-trace": set(),
        "report": {"--dir"},
    }
    sub = next(a for a in _build_parser()._actions if a.choices and "select" in a.choices)
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == want
    for command, flag in ((["gen-identity"], ["--global-match"]),
                          (["analyze", "mask"], ["--kv-budget-bytes", "1"]),
                          (["select", "vital"], ["--seed", "3"]),
                          (["select", "tau"], ["--scene-sigma", "0"])):
        with pytest.raises(SystemExit) as exc:
            main(command + flag)  # a usage error, before any command runs
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_select_requires_its_input(capsys):
    assert main(["select", "vital"]) == 2
    _one_line_error(capsys, "select vital needs --report")
    assert main(["select", "tau"]) == 2
    _one_line_error(capsys, "select tau needs --grid")


def _no_compute(*args, **kwargs):
    raise AssertionError("denoising started before the input checks")


def test_budget_error_is_one_line_before_compute(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    assert main(["gen-identity", "--out", str(tmp_path), "--kv-budget-bytes", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bachkit: error: cache plan needs ")
    assert err.endswith("budget is 1\n") and err.count("\n") == 1


def test_budget_zero_is_unlimited_and_negative_is_one_line(tmp_path, monkeypatch, capsys):
    seen = []

    def stop_at_compute(*args, hooks=None, **kwargs):
        seen.append(hooks.hooks[1].cache.budget_bytes)  # the identity's CacheRecorder
        raise KeyError("stopped before compute")

    monkeypatch.setattr(pipeline, "denoise", stop_at_compute)
    ini = tmp_path / "run.ini"
    ini.write_text("[inject]\nkv_budget_bytes = 0\n")
    for flags in (["--kv-budget-bytes", "0"], ["--config", str(ini)]):
        assert main(["gen-identity", "--out", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err == "bachkit: error: stopped before compute\n"
    assert seen == [0, 0]  # the cache plan passed its budget check on both paths
    ini.write_text("[inject]\nkv_budget_bytes = -5\n")
    for flags, source in ((["--kv-budget-bytes", "-5"], ""), (["--config", str(ini)], f"{ini}: ")):
        assert main(["gen-identity", "--out", str(tmp_path), *flags]) == 2
        assert capsys.readouterr().err == (
            f"bachkit: error: {source}kv_budget_bytes=-5 is negative; 0 means unlimited\n")
    assert len(seen) == 2


@pytest.mark.parametrize("source", ["--config", "--profile"])
def test_flags_beat_the_config_source(tmp_path, source):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nprofile = paper42\nseed = 4\n\n"
                   "[inject]\nkv_budget_bytes = 77\nglobal_match = true\n")
    base = ["run-group", source, str(ini) if source == "--config" else "paper42"]
    file_cfg = read_ini(ini) if source == "--config" else default_config("paper42")
    parse = _build_parser().parse_args
    assert _run_config(parse(base)) == file_cfg  # a flag left out keeps the source's value
    cfg = _run_config(parse(base + ["--seed", "99", "--kv-budget-bytes", "0"]))
    assert cfg == dataclasses.replace(file_cfg, seed=99, kv_budget_bytes=0)
    cfg = _run_config(parse(base + ["--global-match"]))
    assert cfg == dataclasses.replace(file_cfg, global_match=True)


def test_run_group_without_frames_is_one_line_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    out = tmp_path / "g"
    for frames in ("0", "-1"):
        assert main(["run-group", "--out", str(out), "--frames", frames]) == 2
        _one_line_error(capsys, "a group needs at least one frame seed")
    assert not out.exists()


def test_negative_run_seed_is_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    assert main(["gen-identity", "--out", str(tmp_path), "--seed", "-1"]) == 2
    _one_line_error(capsys, "seed=-1 is negative")


@pytest.mark.parametrize("argv", [
    ["analyze", "vital", "--scene-seed", "-3"],
    ["gen-frame", "--identity-dir", "nowhere", "--action-seed", "-3"],
])
def test_negative_scene_and_action_seeds_are_usage_errors(argv, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument {argv[-2]}: expected a non-negative integer, got '-3'")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_scene_sigma_is_a_usage_error(value, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "mask", "--scene-sigma", value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument --scene-sigma: expected a finite number >= 0, got '{value}'")


def test_scene_sigma_past_the_score_range_is_one_line(tmp_path, capsys):
    # the scores overflow float32; the finiteness check refuses them, with no numpy warning
    assert main(["gen-identity", "--scene-sigma", "1e30", "--out", str(tmp_path)]) == 2
    _one_line_error(capsys, "non-finite input")


def test_zero_scene_sigma_runs(tmp_path, capsys):
    assert main(["analyze", "mask", "--scene-sigma", "0", "--out", str(tmp_path)]) == 0
    assert "mask grid" in capsys.readouterr().out
    assert (tmp_path / "grid_mask.csv").stat().st_size > 0


def test_gen_frame_errors_are_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    old = tmp_path / "old-identity"
    old.mkdir()
    np.save(old / "identity_z0.npy", np.zeros((4, 8, 8, 48), dtype=np.float32))
    AttentionTrace().save(old / "identity_trace.bvtr")
    # K and V over the joint rows
    write_kv_cache_of_earlier_format(old / "identity_cache.bvtr", 11, 3, 4 * 8 * 8 + 16, 48)
    assert main(["gen-frame", "--identity-dir", str(old), "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    cache = old / "identity_cache.bvtr"
    assert err == f"bachkit: error: {cache}: entry 0 has unknown field tag 3\n"

    missing = tmp_path / "nowhere"
    assert main(["gen-frame", "--identity-dir", str(missing), "--out", str(tmp_path / "f")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bachkit: error: ") and "identity_z0.npy" in err
    assert err.count("\n") == 1


@pytest.fixture(scope="module")
def identity_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("identity")
    assert main(["gen-identity", "--out", str(d), "--seed", "11"]) == 0
    return d


def _npy(array) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


def _flip_first_tag(data: bytes) -> bytes:
    # entry 0's field tag: 1 ("v2t") in the trace, 5 ("x") in the cache
    tag = struct.calcsize("<4sHHI") + struct.calcsize("<II")
    return data[:tag] + bytes([data[tag] ^ 0xFF]) + data[tag + 1:]


def _cut(data: bytes) -> bytes:
    return data[: len(data) // 2]


@pytest.mark.parametrize("name, spoil, message", [
    ("identity_z0.npy", lambda data: b"", "{path}: No data left in file"),
    ("identity_z0.npy", lambda data: _npy(np.zeros((2, 2), dtype=np.float32)),
     "{path} does not hold a float32 latent of shape (4, 8, 8, 48)"),
    ("identity_trace.bvtr", _cut, "{path}: container truncated"),
    ("identity_trace.bvtr", _flip_first_tag, "{path}: entry 0 has unknown field tag 254"),
    ("identity_cache.bvtr", _cut, "{path}: container truncated"),
    ("identity_cache.bvtr", _flip_first_tag, "{path}: entry 0 has unknown field tag 250"),
    ("identity_cache.bvtr", lambda data: data + bytes(4),
     "{path}: 4 trailing bytes after the payloads"),
], ids=["empty-z0", "z0-of-another-shape", "truncated-trace", "trace-tag-flipped",
        "truncated-cache", "cache-tag-flipped", "cache-trailing-bytes"])
def test_gen_frame_refuses_a_hostile_identity_file_in_one_line(
    identity_dir, tmp_path, monkeypatch, capsys, name, spoil, message
):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    d = tmp_path / "identity"
    shutil.copytree(identity_dir, d)
    path = d / name
    path.write_bytes(spoil(path.read_bytes()))
    assert main(["gen-frame", "--identity-dir", str(d), "--out", str(tmp_path / "f")]) == 2
    _one_line_error(capsys, message.format(path=path))
    assert not (tmp_path / "f").exists()


def test_gen_frame_budget_refusal_names_the_cache_file(identity_dir, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    message = (f"{identity_dir / 'identity_cache.bvtr'}: cache plan needs 7667712 bytes "
               "(156 entries of 256x48 rows), budget is 1000")
    with pytest.raises(CacheBudgetError) as exc:  # the refusal keeps its type
        pipeline.IdentityBundle.load(identity_dir, default_config("desk8").model_config(), 1000)
    assert str(exc.value) == message
    assert main(["gen-frame", "--identity-dir", str(identity_dir), "--out", str(tmp_path / "f"),
                 "--kv-budget-bytes", "1000"]) == 2
    _one_line_error(capsys, message)
    assert not (tmp_path / "f").exists()


def test_select_tau_huge_layer_range_is_one_short_line(grid_csv, capsys):
    assert main(["select", "tau", "--grid", str(grid_csv), "--layers", "0-2000000"]) == 2
    _one_line_error(capsys, "layer set has 1999997 layer(s) outside 0..3, the first 4")


def test_gen_frame_without_injection_reads_no_identity(tmp_path, bench, desk_cfg):
    empty, out = tmp_path / "empty", tmp_path / "f"
    empty.mkdir()
    assert main(["gen-frame", "--identity-dir", str(empty), "--out", str(out),
                 "--seed", "11", "--no-inject"]) == 0
    want, _ = pipeline.run_frame(bench, desk_cfg, None, seed=12, inject=False)
    np.testing.assert_array_equal(np.load(out / "frame_z0.npy"), want)
    assert not (out / "frame_mask.csv").exists()


def test_config_file_with_unknown_key_is_one_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(pipeline, "denoise", _no_compute)
    ini = tmp_path / "run.ini"
    ini.write_text("[inject]\nglobal_mtch = true\n")
    assert main(["run-group", "--config", str(ini), "--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err == (
        f"bachkit: error: {ini}: unknown key 'global_mtch' in section [inject]\n")


def test_dump_trace_rejects_unknown_tag_in_one_line(tmp_path, capsys):
    p = tmp_path / "tag9.bvtr"
    p.write_bytes(
        struct.pack("<4sHHI", MAGIC, VERSION, 0, 1)
        + struct.pack("<IIHHIIQ", 0, 0, 9, 0, 1, 1, 0)
        + np.zeros(1, dtype=np.float32).tobytes()
    )
    assert main(["dump-trace", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the table header is printed
    assert err == "bachkit: error: entry 0 has unknown field tag 9\n"


def test_dump_trace_rejects_repeated_key_in_one_line(tmp_path, capsys):
    p = tmp_path / "twice.bvtr"
    p.write_bytes(
        struct.pack("<4sHHI", MAGIC, VERSION, 0, 2)
        + struct.pack("<IIHHIIQ", 3, 1, 1, 0, 1, 1, 0)
        + struct.pack("<IIHHIIQ", 3, 1, 1, 0, 1, 1, 4)
        + np.zeros(2, dtype=np.float32).tobytes()
    )
    assert main(["dump-trace", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("bachkit: error: entry 1 key (3, 1, 1) does not follow entry 0 key "
                   "(3, 1, 1): keys must be strictly increasing\n")


def test_analyze_vital_has_no_constant_scorer(capsys):
    for scorer in ("constant", "variance"):  # the embedding scorer is the only one
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "vital", "--scorer", scorer])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --scorer {scorer}" in capsys.readouterr().err


def test_report_into_closed_pipe_ends_quietly(tmp_path):
    d = tmp_path / "group"
    d.mkdir()
    # more than a pipe buffer holds, so the writer meets the closed pipe
    (d / "report.txt").write_text("".join(f"frame {i}: line\n" for i in range(20_000)))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bachkit.cli", "report", "--dir", str(d)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"frame 0: line\n"
    proc.stdout.close()  # like `| head -1`
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""
