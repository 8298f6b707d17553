"""Record the golden model counters of every workload command.

    python3 bench/record_golden.py --scale full --seeds $(seq 0 64) 1009
    python3 bench/record_golden.py --scale smoke --seeds 1 1009

Runs each workload's command sequence once per seed, checks its outputs
(exit codes, bound checks, oracle labels) and stores the counters in
bench/golden.json, which every benchmark run at a recorded seed then
compares exactly; a run at any other seed says that it checked none.  Record
only on a commit whose outputs are known to be right: a performance change
must leave these counters identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import harness
import workloads as wl


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("full", "smoke"), required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)

    golden = harness.load_golden()
    for workload in sorted(wl.SIZES):
        for seed in args.seeds:
            workdir = harness.ROOT / ".bench_work" / f"golden-{workload}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                st = harness.setup(workload, args.scale, seed, workdir, repeats=1)
                loop = harness.Loop()
                harness.run_sequence(st, loop, traced=False)
                counters = harness.check_outputs(workload, args.scale, seed, st, loop,
                                                 golden=None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if loop.failed:
                print(f"{workload} seed {seed}: not recorded", *loop.problems, sep="\n  ")
                return 1
            counters["files_sha256"] = harness.file_digests(st, loop)
            golden.setdefault(harness.golden_key(workload, args.scale), {})[str(seed)] = counters
            print(f"{workload} seed {seed}: recorded")
    harness.GOLDEN_FILE.write_text(dump_golden(golden), encoding="utf-8")
    return 0


def dump_golden(golden: dict) -> str:
    """JSON with one line per workload, scale and seed."""
    blocks = []
    for key in sorted(golden):
        seeds = sorted(golden[key], key=int)
        rows = ",\n".join(f'  "{seed}": {json.dumps(golden[key][seed], sort_keys=True)}'
                          for seed in seeds)
        blocks.append(f' "{key}": {{\n{rows}\n }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
