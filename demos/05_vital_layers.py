"""Find the layers generation cannot spare by skipping them one at a time.

Each candidate layer is bypassed for a full generation; the decoded video
is graded against the unskipped baseline. Layers whose removal hurts the
score most are the vital ones — the set worth caching when memory is
limited. The grader embeds each frame with a fixed random
projection and scores mean cosine similarity to the baseline, so the
baseline itself grades 1 and every drop is the similarity lost.
"""

import argparse

from bachkit import default_config, make_workbench, select_vital, sweep_layers_embed
from bachkit.scene import IDENTITY


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-k", type=int, default=4)
    args = ap.parse_args()

    cfg = default_config("desk8")
    wb = make_workbench(cfg, scene_seed=1)
    init = wb.scene.noisy_latent(IDENTITY, 0.05, cfg.seed)

    report = sweep_layers_embed(wb.model, wb.prompt(0), wb.schedule, cfg.seed,
                                init_clean=init)

    print(f"baseline score: {report.baseline:.6f}")
    print("layer  score_skip   drop")
    for s in report.scores:
        print(f"{s.layer:5d}  {s.score_skip:10.6f}  {s.drop:+.6f}")

    vital = select_vital(report.drops(), args.k)
    print(f"\nvital {args.k}: {vital}")


if __name__ == "__main__":
    main()
