"""Record the metrics.jsonl hashes each workload produces, per seed.

    python3 perfbench/record_reference.py --seeds 20

Runs one unit of every workload for seeds 0..N-1 and writes
perfbench/reference_hashes.json. ``run.py`` prints whether a run's hashes
match it; a mismatch is reported, never gated, so a change that moves
trajectory bytes on purpose can say which bytes moved.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=20, help="record seeds 0..N-1")
    args = p.parse_args(argv)
    _, modules = run.load_pbmatch()
    from workloads import WORKLOADS

    table = {}
    for name in run.WORKLOAD_NAMES:
        table[name] = {}
        for seed in range(args.seeds):
            result = run.run_pass(WORKLOADS[name], seed, modules, setup_steps=[], units=1)
            problems = run.problems_of(result, f"{name} seed {seed}")
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            table[name][str(seed)] = result.unit_hashes[0]
            print(f"{name} seed {seed}: {len(result.unit_hashes[0])} hashes", flush=True)
    run.REFERENCE_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
