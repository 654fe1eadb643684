"""Reduced-size self-test of the benchmark; about half a minute.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced on a six-step schedule
and checks that:

* every metric BENCHMARK.json names is printed, with its unit, in the last
  line of the output, and the line has exactly the keys the contract asks;
* the run is correct, so traced outputs were bitwise equal to untraced ones;
* the wrappers reached the names callers use (calls counted at
  `bachkit.dit.joint_attention`, `bachkit.inject.rope_encode`,
  `bachkit.pipeline.denoise`), and none is left installed afterwards;
* in a directory holding only BENCHMARK.json and the benchmark, run.py exits
  with an error and prints no result.

Exits 0 when every check passes.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
from tracer import installed_wrappers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Layers each workload must reach through a caller's name, not the defining module's.
MUST_CALL = {
    "group_desk8": ("tensorops.joint_attention", "inject.build_plan", "inject.region_mask",
                    "tensorops.rope_encode", "dit.denoise", "pipeline.run_frame"),
    "vital_desk8": ("tensorops.joint_attention", "dit.denoise", "vital.score", "select"),
    "identity_paper42": ("inject.KvCache.load", "trace.read_container", "trace.write_container",
                         "inject.Injector.inject", "dit.denoise"),
    "analyze_desk8": ("pipeline.capture_trace", "matching.similarity", "masks.mask_from_slices",
                      "trace.observe", "select"),
}


def run_one(name: str, trace: bool, problems: list[str]) -> None:
    res = harness.run(name, seed=0, seconds=0.0, trace=trace, reduced=True)
    buf = io.StringIO()
    harness.emit(res, buf)
    last = json.loads(buf.getvalue().splitlines()[-1])
    tag = f"{name} trace={int(trace)}"
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{tag}: result keys {sorted(last)}")
    if last["correct"] is not True:
        failed = [f"{c.op} ({c.detail})" for c in res.failed if c.integrity]
        problems.append(f"{tag}: not correct: {failed}")
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = last["metrics"]
    if set(got) != {m["name"] for m in want}:
        problems.append(f"{tag}: metric names differ: {sorted(set(got) ^ {m['name'] for m in want})}")
    for m in want:
        entry = got.get(m["name"])
        if entry is None or entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{tag}: {m['name']} printed as {entry}, unit should be {m['unit']}")
    if trace:
        for layer in MUST_CALL[name]:
            if got.get(f"{layer}.calls", {}).get("value", 0) < 1:
                problems.append(f"{tag}: no call of {layer} was traced")
    left = installed_wrappers()
    if left:
        problems.append(f"{tag}: wrappers left installed: {left}")


def bare_directory(problems: list[str]) -> None:
    """run.py must fail, printing no result, without the repository's sources."""
    harness.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*SPEC["command"], "--workload", "analyze_desk8", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    try:
        harness.WORK.rmdir()
    except OSError:
        pass


def main() -> int:
    problems: list[str] = []
    for name in harness.WORKLOADS:
        for trace in (False, True):
            run_one(name, trace, problems)
            print(f"{name} trace={int(trace)} done", flush=True)
    bare_directory(problems)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
