"""Closed-loop measurement of one workload in one process.

One caller runs whole iterations back to back until the time given has
passed (at least one iteration; at least one untraced and one traced in a
traced run). bachkit is an offline generator: a user starts a command and
waits for it, so there is no arrival schedule and nothing queues.

Untraced iterations give the end-to-end metrics. A traced run alternates
untraced and traced iterations; the traced ones give the per-layer metrics,
the difference of the two walls is the tracing overhead, and every
iteration's outputs (each generated latent and each written file) must be
bitwise equal to the first's, which also checks that the tracer is inert.

The oracle checks run on the first iteration; every later one is held to it
by that bitwise comparison, counted as one check per kind of iteration. So
`attempted` and `failed` depend on the workload and seed only, not on how
many iterations fit in the time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import bachkit.pipeline as pipeline
from bachkit.config import default_config
from bachkit.dit import StepSchedule, init_model

from tracer import COMPUTED_FROM_SHAPES, GenClock, Tracer, installed_wrappers
from workloads import WORKLOADS, Check, Stopwatch, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
# make_workbench calls before the first iteration and after each one; setup_s
# is their median. Spreading them over the run samples the machine's speed
# as often as the iterations do.
SETUPS = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
REDUCED_STEPS = 6  # self-test schedule, with readouts moved to steps 2 and 3

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "gen_mean_s": "s",
    "gen_tail_s": "s",
    "gens_per_s": "1/s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}
QUALITY_UNITS = {"psnr_gain_db": "dB", "mask_iou": "1", "match_exact": "1"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "inject.plan_keys":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".gflop"):
        return "GFLOP"
    if name.endswith("mb"):
        return "MB"
    if name.endswith("_frac"):
        return "1"
    raise KeyError(name)


@dataclass
class Iteration:
    traced: bool
    wall_s: float
    gen_s: list[float]
    artifact_bytes: int
    digest: str
    verdict: Verdict | None  # oracle checks, first iteration only
    layers: dict[str, float] | None


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    setup_s: list[float]
    record: dict
    iterations: list[Iteration] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)

    @property
    def untraced(self) -> list[Iteration]:
        return [it for it in self.iterations if not it.traced]

    @property
    def traced(self) -> list[Iteration]:
        return [it for it in self.iterations if it.traced]

    @property
    def correct(self) -> bool:
        return all(c.ok for c in self.checks if c.integrity)

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def end_to_end(self) -> dict[str, float]:
        unt = self.untraced
        gens = [g for it in unt for g in it.gen_s]
        return {
            "setup_s": statistics.median(self.setup_s),
            "wall_s": statistics.median(it.wall_s for it in unt),
            "gen_mean_s": statistics.fmean(gens),
            "gen_tail_s": statistics.quantiles(gens, n=10, method="inclusive")[-1],
            "gens_per_s": statistics.median(len(it.gen_s) / it.wall_s for it in unt),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "artifact_mb": statistics.median(it.artifact_bytes for it in unt) / 1e6,
        }

    def per_layer(self) -> dict[str, float]:
        tr = self.traced
        out = {name: statistics.median(it.layers[name] for it in tr) for name in tr[0].layers}
        out["trace_overhead_s"] = (statistics.median(it.wall_s for it in tr)
                                   - statistics.median(it.wall_s for it in self.untraced))
        return out


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit(root: Path) -> str:
    """HEAD of a checkout, read from its files; a copy without .git has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_record(name: str, seed: int, scene_seed: int, bench, reduced: bool) -> dict:
    mc = bench.model.config
    return {
        "workload": name,
        "seed": seed,
        "run_seed": seed,
        "scene_seed": scene_seed,
        "profile": WORKLOADS[name].profile,
        "reduced": reduced,
        "model_fingerprint": mc.fingerprint(),
        "weights_checksum": bench.model.weights_checksum(),
        "shape": {"depth": mc.depth, "joint_len": mc.joint_len, "channels": mc.channels,
                  "steps": mc.steps},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": _git_commit(ROOT),
    }


def _outputs_digest(gen_digests: list[str], out: Path) -> tuple[str, int]:
    """Digest of every generated latent and written file, and the bytes written."""
    h = hashlib.sha256()
    for d in gen_digests:
        h.update(d.encode())
    size = 0
    for p in sorted(q for q in out.rglob("*") if q.is_file()):
        size += p.stat().st_size
        h.update(str(p.relative_to(out)).encode())
        with p.open("rb") as f:  # in chunks: the benchmark never holds a whole artifact
            h.update(hashlib.file_digest(f, "sha256").digest())
    return h.hexdigest(), size


def _iteration(wl, bench, cfg, clock: GenClock, traced: bool, scene_seed: int,
               vital_sets: dict | None) -> Iteration:
    """One iteration; `vital_sets` given means: run the oracle checks on it."""
    out = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        tracer = Tracer() if traced else None
        n0 = len(clock.samples)
        if tracer:
            tracer.install()
        try:
            if tracer:  # set-up layers are traced once per traced iteration, outside its wall
                pipeline.make_workbench(cfg, scene_seed=scene_seed)
            watch = Stopwatch()
            t0 = time.perf_counter()
            state = wl.run(bench, cfg, out, watch)
            wall = time.perf_counter() - t0 - watch.paused_s
        finally:
            if tracer:
                tracer.uninstall()
        gens = clock.samples[n0:]
        digest, size = _outputs_digest([g.digest for g in gens], out)
        verdict = None
        if vital_sets is not None:
            verdict = Verdict()
            for i, g in enumerate(gens):
                verdict.add(f"gen{i}.finite", g.finite, "latent finite" if g.finite
                            else "latent holds non-finite values", integrity=True)
            checked = wl.check(bench, cfg, out, state, vital_sets)
            verdict.checks += checked.checks
            verdict.quality = checked.quality
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return Iteration(traced, wall, [g.seconds for g in gens], size, digest, verdict,
                     tracer.metrics() if tracer else None)


def _reduce(bench, cfg):
    """A six-step schedule with early readouts, for the self-test."""
    mc = replace(bench.model.config, steps=REDUCED_STEPS)
    bench = replace(bench, model=init_model(mc), schedule=StepSchedule.linear(REDUCED_STEPS))
    return bench, replace(cfg, tau_mask=2, tau_match=2, tau_inject=3)


def inputs(name: str, seed: int):
    """Run configuration and planted scene seed of workload `name` at `seed`.

    The CLI defaults, seed 0 and scene seed 1, are the inputs of seed 0.
    """
    return replace(default_config(WORKLOADS[name].profile), seed=seed), seed + 1


def run(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False) -> Result:
    """Measure workload `name` on inputs made from `seed` for about `seconds`."""
    wl = WORKLOADS[name]
    cfg, scene_seed = inputs(name, seed)
    setup_s = []

    def set_up():
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            bench = pipeline.make_workbench(cfg, scene_seed=scene_seed)
            setup_s.append(time.perf_counter() - t0)
        return bench

    bench = set_up()
    if reduced:
        bench, cfg = _reduce(bench, cfg)
        vital_sets = {}  # recorded for the full schedule only
    else:
        vital_sets = json.loads((HERE / "vital_sets.json").read_text())

    res = Result(name, seed, trace, setup_s, _run_record(name, seed, scene_seed, bench, reduced))
    WORK.mkdir(exist_ok=True)
    clock = GenClock()
    clock.install()
    try:
        start = time.perf_counter()
        while len(res.iterations) < (2 if trace else 1) or time.perf_counter() - start < seconds:
            traced = trace and len(res.iterations) % 2 == 1
            try:
                it = _iteration(wl, bench, cfg, clock, traced, scene_seed,
                                None if res.iterations else vital_sets)
            except Exception as exc:  # any library error is a failed operation of the run
                traceback.print_exc(file=sys.stderr)
                res.checks.append(Check(f"{name}.iteration", False,
                                        f"raised {type(exc).__name__}: {exc}", integrity=True))
                break
            if it.verdict is not None:
                res.checks += it.verdict.checks
            res.iterations.append(it)
            set_up()
    finally:
        clock.uninstall()
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run shares the checkout
            pass
    res.checks += _repeat_checks(res.iterations, trace)
    left = installed_wrappers()
    res.checks.append(Check("wrappers.restored", not left,
                            f"left installed: {', '.join(left)}" if left else "none left",
                            integrity=True))
    return res


def _repeat_checks(iterations: list[Iteration], trace: bool) -> list[Check]:
    """One check per kind of later iteration: its outputs equal the first's."""
    out = []
    for kind, traced in (("repeated", False), ("traced", True)):
        if traced and not trace:
            continue
        later = [i for i, it in enumerate(iterations) if i and it.traced == traced]
        differ = [i for i in later if iterations[i].digest != iterations[0].digest]
        out.append(Check(f"{kind}_outputs.bitwise_equal", not differ,
                         f"{len(differ)} of {len(later)} {kind} iterations' outputs differ "
                         "from the first iteration's", integrity=True))
    return out


def emit(res: Result, stream=None) -> dict:
    """Print the report and, as the last line, the result object; return it."""
    stream = stream or sys.stdout

    def say(line=""):
        print(line, file=stream)

    unt, tr = res.untraced, res.traced
    say(f"bachkit benchmark: workload {res.workload}, seed {res.seed}, "
        f"{len(unt)} untraced and {len(tr)} traced iterations, closed loop, one caller")
    say("run record " + json.dumps(res.record, sort_keys=True))
    e2e = res.end_to_end()
    n_gen = sum(len(it.gen_s) for it in unt)
    notes = {
        "setup_s": f"make_workbench, median of {len(res.setup_s)}",
        "wall_s": f"median of {len(unt)} iterations: "
                  + " ".join(f"{it.wall_s:.3f}" for it in unt),
        "gen_mean_s": f"mean of {n_gen} generations (denoise calls, timed at the caller)",
        "gen_tail_s": f"p90 of {n_gen} generations ({n_gen / 10:.1f} beyond)",
        "gens_per_s": f"joint length {res.record['shape']['joint_len']}, "
                      f"{res.record['shape']['channels']} channels",
        "peak_rss_mb": "peak resident memory of this process",
        "artifact_mb": "bytes written per iteration",
    }
    for name, value in e2e.items():
        say(f"  {name:<14} {value:>14.6f} {E2E_UNITS[name]:<5} {notes[name]}")
    gens = [g for it in unt for g in it.gen_s]
    # Not in the result: group_desk8 runs 6 plain and 5 injected generations an
    # iteration, so its median is the slowest plain one, not a typical one.
    say(f"  {'gen_p50_s':<14} {statistics.median(gens):>14.6f} {'s':<5} "
        f"median of {n_gen} generations, report only")
    say("  generations (s): "
        + " | ".join(" ".join(f"{g:.4f}" for g in it.gen_s) for it in unt))
    quality = unt[0].verdict.quality
    for name, unit in QUALITY_UNITS.items():
        value = f"{quality[name]:>14.6f}" if name in quality else f"{'n/a':>14}"
        say(f"  {name:<14} {value} {unit:<5} quality, first iteration")
    attempted, failed = len(res.checks), len(res.failed)
    say(f"  {'fail_frac':<14} {failed / attempted:>14.6f} {'1':<5} "
        f"{failed} of {attempted} operations failed their check or raised")
    for op, (count, detail) in _group_failures(res.failed).items():
        say(f"  failed {op} x{count}: {detail}")

    if res.trace:
        say(f"per-layer metrics (median of {len(tr)} traced iterations; "
            f"computed from shapes: {', '.join(COMPUTED_FROM_SHAPES)})")
        layers = res.per_layer()
        for name, value in layers.items():
            say(f"  {name:<40} {value:>16.6f} {layer_unit(name)}")
        metrics = {n: {"value": v, "unit": layer_unit(n)} for n, v in layers.items()}
    else:
        metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}
    result = {"correct": res.correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    say(json.dumps(result))
    return result


def _group_failures(failed: list[Check]) -> dict[str, tuple[int, str]]:
    out: dict[str, tuple[int, str]] = {}
    for c in failed:
        count, _ = out.get(c.op, (0, c.detail))
        out[c.op] = (count + 1, c.detail)
    return out
