"""Command line interface.

Commands drive planted-scene runs end to end: generate an identity with its
trace and layer-input cache, generate frames with injection, sweep analysis
grids, apply the selection rules, and inspect stored artifacts. Shared
flags, given after the command name, choose the profile or config file
and set the run and scene; a command takes only the ones it reads.
Library errors end the command with a one-line `bachkit: error: ...` on
stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, default_config, format_layer_set, parse_layer_set, read_ini
from .dit import PROFILES
from .inject import CacheBudgetError
from .masks import write_mask
from .pipeline import (
    IDENTITY_FILES,
    SCENE_SIGMA_DEFAULT,
    IdentityBundle,
    capture_trace,
    make_workbench,
    mask_grid,
    match_grid,
    run_frame,
    run_group,
    run_identity,
    write_group_outputs,
    write_video,
)
from .scene import FRAME, IDENTITY
from .select import (
    AnalysisGrid,
    COST,
    QUALITY,
    select_layers,
    select_tau,
    select_vital,
)
from .trace import read_container
from .vital import LayerReport, sweep_layers_embed


def _seed(text: str) -> int:
    """A seed flag's value; anything but a non-negative integer is a usage
    error naming the flag."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _sigma(text: str) -> float:
    """A noise-level flag's value; anything but a finite number >= 0 is a
    usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return value


def _add_shared_flags(p: argparse.ArgumentParser, *without: str) -> None:
    """--config or --profile, then each run and scene flag not in `without`."""
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="INI run configuration (exclusive with --profile)")
    source.add_argument("--profile", choices=sorted(PROFILES), help="built-in defaults")

    def add(flag, **kw):
        if flag not in without:
            p.add_argument(flag, **kw)
    add("--seed", type=int, help="base run seed")
    add("--kv-budget-bytes", type=int, help="identity cache byte budget")
    add("--global-match", action="store_const", const=True,
        help="match across the whole grid, not per frame")
    add("--scene-seed", type=_seed, default=1, help="planted scene seed")
    add("--scene-sigma", type=_sigma, default=SCENE_SIGMA_DEFAULT, help="scene noise level")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bachkit",
        description="desk-scale consistent video generation with attention readouts",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen-identity", help="generate the identity run; save trace, cache, video")
    _add_shared_flags(sp, "--global-match")
    sp.add_argument("--out", default="bachkit-out", help="output directory")

    sp = sub.add_parser("gen-frame", help="generate one frame run against saved identity artifacts")
    _add_shared_flags(sp)
    sp.add_argument("--identity-dir", required=True, help="directory written by gen-identity")
    sp.add_argument("--out", default="bachkit-out", help="output directory")
    sp.add_argument("--action-seed", type=_seed, default=1, help="action segment seed")
    sp.add_argument("--no-inject", action="store_true", help="run vanilla instead of injecting")

    sp = sub.add_parser("run-group", help="identity plus injected frames, full artifact set")
    _add_shared_flags(sp)
    sp.add_argument("--out", default="bachkit-out", help="output directory")
    sp.add_argument("--frames", type=int, default=1, help="frame runs in the group")
    sp.add_argument("--ablate", action="store_true",
                    help="also run frames without injection for comparison")

    sp = sub.add_parser("analyze", help="sweep a per-(step, layer) analysis table")
    _add_shared_flags(sp, "--kv-budget-bytes")
    sp.add_argument("what", choices=["mask", "match", "vital"])
    sp.add_argument("--out", default="bachkit-out", help="output directory")

    sp = sub.add_parser("select", help="apply a selection rule to a stored table")
    _add_shared_flags(sp, "--seed", "--kv-budget-bytes", "--global-match", "--scene-seed",
                      "--scene-sigma")
    sp.add_argument("what", choices=["mask-layers", "match-layers", "tau", "vital"])
    sp.add_argument("--grid", help="analysis grid csv (mask-layers, match-layers, tau)")
    sp.add_argument("--report", help="layer report csv (vital)")
    sp.add_argument("-k", type=int, help="layer count (defaults to the profile's)")
    sp.add_argument("--kind", choices=[QUALITY, COST], default=QUALITY,
                    help="grid orientation for tau: quality peaks, cost bottoms out")
    sp.add_argument("--layers", help="layer subset for the tau curve, e.g. 1,3,5-9")

    sp = sub.add_parser("dump-trace", help="list the entries of a trace container")
    sp.add_argument("path", help="container file")

    sp = sub.add_parser("report", help="print a stored group report")
    sp.add_argument("--dir", default="bachkit-out", help="directory written by run-group")

    return p


def _run_config(args) -> RunConfig:
    """The config file or profile, with the run flags the command took on top of it."""
    cfg = read_ini(args.config) if args.config else default_config(args.profile or "desk8")
    flags = {k: getattr(args, k, None) for k in ("seed", "kv_budget_bytes", "global_match")}
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _cmd_gen_identity(args) -> int:
    cfg = _run_config(args)
    bench = make_workbench(cfg, scene_seed=args.scene_seed)
    bundle = run_identity(bench, cfg, seed=cfg.seed, scene_sigma=args.scene_sigma)
    bundle.save(args.out)
    print(f"identity run complete: {Path(args.out)}/{', '.join(IDENTITY_FILES)}")
    return 0


def _cmd_gen_frame(args) -> int:
    cfg = _run_config(args)
    bench = make_workbench(cfg, scene_seed=args.scene_seed)
    bundle = None if args.no_inject else IdentityBundle.load(  # a vanilla run reads no identity
        args.identity_dir, bench.model.config, cfg.kv_budget_bytes)
    z0, injector = run_frame(
        bench, cfg, bundle,
        seed=cfg.seed + 1, action_seed=args.action_seed,
        scene_sigma=args.scene_sigma, inject=not args.no_inject,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "frame_z0.npy", z0)
    write_video(z0, out / "frame_video.pgm")
    wrote = [out / "frame_z0.npy", out / "frame_video.pgm"]
    if injector is not None and injector.mask_frame is not None:
        injector.match.write_csv(out / "frame_match.csv")
        wrote += write_mask(injector.mask_frame, out / "frame_mask") + [out / "frame_match.csv"]
    print(f"frame run complete: {', '.join(map(str, wrote))}")
    return 0


def _cmd_run_group(args) -> int:
    cfg = _run_config(args)
    bench = make_workbench(cfg, scene_seed=args.scene_seed)
    report = run_group(
        bench, cfg,
        seed_identity=cfg.seed,
        frame_seeds=[cfg.seed + 1 + i for i in range(args.frames)],
        scene_sigma=args.scene_sigma,
        ablate=args.ablate,
    )
    paths = write_group_outputs(report, args.out)
    print((Path(args.out) / "report.txt").read_text().rstrip())
    print(f"{len(paths)} artifacts in {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    cfg = _run_config(args)
    bench = make_workbench(cfg, scene_seed=args.scene_seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mc = bench.model.config
    if args.what == "mask":
        trace = capture_trace(bench, IDENTITY, seed=cfg.seed, scene_sigma=args.scene_sigma)
        grid = mask_grid(trace, bench.layout, mc.frames, mc.height, mc.width,
                         bench.scene.mask(IDENTITY))
        grid.write_csv(out / "grid_mask.csv")
        print(f"mask grid ({len(grid.steps)} steps x {len(grid.layers)} layers): "
              f"{out / 'grid_mask.csv'}")
    elif args.what == "match":
        tr_id = capture_trace(bench, IDENTITY, seed=cfg.seed,
                              scene_sigma=args.scene_sigma, attn_out=True)
        tr_frm = capture_trace(bench, FRAME, seed=cfg.seed + 1,
                               scene_sigma=args.scene_sigma, attn_out=True, action_seed=1)
        grid = match_grid(tr_frm, tr_id, mc.frames, mc.height, mc.width,
                          bench.scene.mask(FRAME), bench.scene.correspondence(),
                          global_match=cfg.global_match)
        grid.write_csv(out / "grid_match.csv")
        print(f"match grid ({len(grid.steps)} steps x {len(grid.layers)} layers): "
              f"{out / 'grid_match.csv'}")
    else:
        init = bench.scene.noisy_latent(IDENTITY, args.scene_sigma, cfg.seed)
        report = sweep_layers_embed(bench.model, bench.prompt(0), bench.schedule,
                                    cfg.seed, init_clean=init)
        report.write_csv(out / "layer_report.csv")
        print(f"layer report ({len(report.scores)} layers): {out / 'layer_report.csv'}")
    return 0


def _named(label: str, read, *args):
    """`read(*args)`, with a ValueError's message prefixed by `label`, the file
    or flag it read, as `IdentityBundle.load` names a file."""
    try:
        return read(*args)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def _cmd_select(args) -> int:
    cfg = _run_config(args)
    k = cfg.vital_k if args.k is None else args.k
    k_flag = "-k" if args.k is not None else f"-k (default {k})"
    if args.what == "vital":
        if not args.report:
            raise ValueError("select vital needs --report")
        report = _named(args.report, LayerReport.read_csv, args.report)
        print(format_layer_set(_named(f"{args.report}: {k_flag}", select_vital, report.drops(), k)))
        return 0
    if not args.grid:
        raise ValueError(f"select {args.what} needs --grid")
    grid = _named(args.grid, AnalysisGrid.read_csv, args.grid)
    if args.what == "tau":
        depth = max(grid.layers, default=-1) + 1  # bounds --layers before a range is expanded
        layers = None if args.layers is None else _named("--layers", parse_layer_set,
                                                          args.layers, depth)
        curve = _named(f"{args.grid}: --layers", grid.step_curve, layers)
        print(grid.steps[select_tau(curve, args.kind)])
    else:
        kind = QUALITY if args.what == "mask-layers" else COST
        print(format_layer_set(_named(f"{args.grid}: {k_flag}", select_layers, grid, k, kind)))
    return 0


def _cmd_dump_trace(args) -> int:
    entries = _named(args.path, read_container, args.path)
    print("step layer field    rows cols")
    for step, layer, name in entries:
        rows, cols = entries.shape((step, layer, name))
        print(f"{step:4d} {layer:5d} {name:<8} {rows:4d} {cols:4d}")
    print(f"{len(entries)} entries")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.dir) / "report.txt"
    if not path.exists():
        raise ValueError(f"no report at {path}")
    print(path.read_text().rstrip())
    for p in sorted(Path(args.dir).iterdir()):
        if p.is_file():
            print(f"  {p.name}  {p.stat().st_size} bytes")
    return 0


_COMMANDS = {
    "gen-identity": _cmd_gen_identity,
    "gen-frame": _cmd_gen_frame,
    "run-group": _cmd_run_group,
    "analyze": _cmd_analyze,
    "select": _cmd_select,
    "dump-trace": _cmd_dump_trace,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe (`bachkit report | head`): send what is
        # still buffered to devnull, so the exit-time flush fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, KeyError, CacheBudgetError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        if str(message) == "non-finite input" and hasattr(args, "scene_sigma"):
            message = f"{message} at --scene-sigma {args.scene_sigma:g}"  # the latent's scale
        print(f"bachkit: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
