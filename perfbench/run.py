"""Run one bachkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload group_desk8 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports bachkit from `src/` there and
writes only to `.perfbench-work/` there, which it removes again. The seed
makes the inputs: run seed N and planted scene seed N+1, so seed 0 gives the
CLI defaults. `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. Workloads, metrics and
predictions are described in perfbench/README.md.
"""

import os

# BLAS reads its thread count once, when numpy loads; pin it to one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not (SRC / "bachkit" / "__init__.py").is_file():
        print(f"perfbench: no bachkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import harness

    if args.workload not in harness.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    res = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if not res.untraced or (args.trace and not res.traced):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    harness.emit(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
