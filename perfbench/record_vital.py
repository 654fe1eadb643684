"""Regenerate vital_sets.json, the vital layer set recorded for each seed.

    python3 perfbench/record_vital.py

The vital_desk8 workload compares the set `select vital` chooses with this
table, for seeds 0-99; a seed outside the table goes unchecked. Each seed
runs the workload once (nine desk8 generations, about 8 s on one core).
Rewriting the table and running `git diff` on it shows any drift.
Regenerate the table only from a commit whose outputs are known to be right.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bachkit.pipeline as pipeline  # noqa: E402
from harness import WORK, inputs  # noqa: E402
from workloads import WORKLOADS, Stopwatch  # noqa: E402

TABLE = HERE / "vital_sets.json"
SEEDS = range(100)


def chosen_set(seed: int) -> list[int]:
    cfg, scene_seed = inputs("vital_desk8", seed)
    bench = pipeline.make_workbench(cfg, scene_seed=scene_seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as out:
        _, _, chosen = WORKLOADS["vital_desk8"].run(bench, cfg, Path(out), Stopwatch())
    return list(chosen)


def main() -> int:
    table = {}
    for seed in SEEDS:
        table[str(seed)] = chosen_set(seed)
        print(seed, table[str(seed)], flush=True)
    try:
        WORK.rmdir()
    except OSError:
        pass
    rows = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
    TABLE.write_text("{\n" + rows + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
