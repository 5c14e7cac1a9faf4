"""Record the output digests that ``run.py`` checks against.

    python3 perfbench/record_reference.py --seeds 0-31
    python3 perfbench/record_reference.py --seeds 5 --workload closure

Runs one untraced pass per workload and seed, keeps its digest only when
the pass met every check of its own, and merges the digests into
``reference.json``.  Record on a commit whose outputs are trusted; a change
to the program that alters an output on purpose records anew and says so.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,4,9")
    parser.add_argument("--workload", default="all",
                        choices=run.WORKLOADS + ("all",))
    args = parser.parse_args(argv)
    names = run.WORKLOADS if args.workload == "all" else (args.workload,)
    reference = run.load_reference()
    status = 0
    for seed in parse_seeds(args.seeds):
        for name in names:
            check = run.Run(name, seed, {})
            try:
                check.add(run.spawn(name, seed, 0))
            except run.WorkerError as e:
                check.problems.append(str(e))
            if not check.correct:
                print(f"{name} seed {seed}: not recorded: {check.problems}")
                status = 1
                continue
            digest = check.passes[0]["digest"]
            reference.setdefault(name, {})[str(seed)] = digest
            print(f"{name} seed {seed}: {digest[:16]}", flush=True)
            with open(run.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
