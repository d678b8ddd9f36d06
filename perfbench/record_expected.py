"""Record the expected cell digests the output check compares against.

    python3 perfbench/record_expected.py --seeds 0-20
    python3 perfbench/record_expected.py --seeds 3,7 --workload fig11_grid

Runs each workload once per seed (untraced) and stores every cell's
output digest in ``perfbench/expected.json``, keyed by workload, scale
and seed.  Entries for other seeds are kept; a workload whose scale
changed starts afresh.  Re-record only when a change alters simulated
behaviour on purpose, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

import suite
import worker

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,4,9")
    parser.add_argument("--workload", default="all")
    args = parser.parse_args()

    worker.use_checkout_source()
    names = list(suite.WORKLOADS) if args.workload == "all" else args.workload.split(",")
    data = json.loads(EXPECTED.read_text())
    for name in names:
        workload = suite.WORKLOADS[name]
        entry = data["workloads"].get(name)
        if entry is None or entry["scale"] != workload.scale:
            entry = data["workloads"][name] = {"scale": workload.scale, "seeds": {}}
        for seed in parse_seeds(args.seeds):
            repeat = worker.run_repeat(workload, seed, traced=False)
            if not repeat.ok:
                print(f"{name} seed {seed}: run failed: {repeat.error}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = repeat.digests
            print(f"{name} seed {seed}: {len(repeat.digests)} cells", flush=True)
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    EXPECTED.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
