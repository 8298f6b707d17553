"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out .bench_out/spread.json

Each run is a fresh `bench/run.py` process, made one after another (never in
parallel) with the settings of BENCHMARK.json.  For every workload and
metric the summary gives the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and their distance as a share
of the median, next to the metric's bound, plus the host facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(command, workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0,
            "min": min(values), "max": max(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".bench_out" / "spread.json"))
    args = ap.parse_args(argv)
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                       "machine": platform.machine()},
              "seeds": args.seeds, "run_seconds": seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [run_once(command, workload, seed, seconds, args.trace)
                for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        ok = ok and entry["correct"]
        for name in runs[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bound = bounds.get(name)
            entry["metrics"][name] = s
            steady = bound is None or s["iqr_share"] < bound / 3
            ok = ok and steady
            print(f"{workload:<22} {name:<27} median {s['median']:<12.6g} "
                  f"iqr/median {s['iqr_share']:.4f} bound {bound} "
                  f"{'' if steady else 'UNSTEADY'}", flush=True)
        report["workloads"][workload] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
