#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json``: each paper-grid cell's JCT and
event count per seed, which ``run.py`` then requires every run to match.

    python3 perfbench/make_reference.py 0 20     # seeds 0..20 inclusive

Only regenerate when a change is *meant* to alter simulated behaviour; a
performance change must leave every reference value intact.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import REFERENCE_PATH, Clock, PaperGrid  # noqa: E402


def main(first: int, last: int) -> None:
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    grid = reference.setdefault("paper-grid", {})
    workload = PaperGrid()
    for seed in range(first, last + 1):
        inputs = workload.prepare(seed)
        inputs["reference"] = {}
        unit = workload.run_unit(inputs, Clock())
        if unit.failed:
            raise SystemExit(f"seed {seed}: conservation checks failed: {unit.errors}")
        grid[str(seed)] = {
            label: {"jct": cell["jct"], "events": cell["events"]}
            for label, cell in unit.detail["cells"].items()
        }
        print(f"seed {seed}: {grid[str(seed)]}", flush=True)
        REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
