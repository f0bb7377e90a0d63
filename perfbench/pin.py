"""Regenerate ``pinned.json``: the expected output of every op input.

    python3 perfbench/pin.py

Metro digests are taken from the sequential backend and then required
to come out byte-identical from the two-worker backend; chaos entries
are the scorecard digests of scenario seeds ``0..CHAOS_SEEDS-1``. Only
rerun this when a change is meant to move a digest or scorecard.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import metrics_digest, scorecard_digest  # noqa: E402

METRO_SEEDS = 8
CHAOS_SEEDS = 512


def main() -> int:
    from repro.chaos import run_scenario, score_run
    from repro.continuum.scale import ScaleConfig, run_scale_scenario

    metro = {}
    for seed in range(METRO_SEEDS):
        digests = []
        for workers in (0, 2):
            result = run_scale_scenario(
                ScaleConfig.metro_100k(workers=workers, seed=seed))
            digests.append({"trace": result.digest(),
                            "metrics": metrics_digest(result.sharded)})
        if digests[0] != digests[1]:
            print(f"metro seed {seed}: backends disagree: {digests}",
                  file=sys.stderr)
            return 1
        metro[str(seed)] = digests[0]
    chaos = [scorecard_digest(score_run(run_scenario(seed, "full")))
             for seed in range(CHAOS_SEEDS)]
    path = HERE / "pinned.json"
    path.write_text(json.dumps({"metro": metro, "chaos": chaos},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
