"""distsim benchmark: run one workload through distsim.cli.main and report.

    python3 bench/run.py --workload clique-boruvka --seed 1 --seconds 25 --trace 0

The run imports distsim from the checkout's src/, generates the workload's
inputs from --seed, then repeats the workload's command sequence in a closed
loop for --seconds seconds.  Every command's exit code, bound checks, outputs
and model counters are checked (see harness.check_outputs).  wall_s and
setup_s are host-normalized (see harness).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced sequences, reports the per-layer metrics and writes the per-layer
table and spans to .bench_out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from time import perf_counter

import harness
import tracer as tr
import workloads as wl

OUT_DIR = harness.ROOT / ".bench_out"
WORK_DIR = harness.ROOT / ".bench_work"
SCALE = "full"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def closed_loop(st: harness.Setup, seconds: float, trace: bool):
    """Run sequences until `seconds` have passed, at least one.  With
    tracing, sequences alternate untraced / traced, and at least one of each
    runs.  distsim is imported afresh before each sequence, outside the
    timed region, so that state a module keeps between calls (a cache, say)
    cannot make later sequences cheaper than a one-command CLI process; the
    copy it replaces is collected there too, not inside a timed sequence."""
    loop = harness.Loop(refs=[harness.reference_work()])
    tracer = tr.Tracer()
    deadline = perf_counter() + seconds
    while (not loop.walls or perf_counter() < deadline
           or (trace and not any(loop.traced))):
        traced = trace and len(loop.walls) % 2 == 1
        st.modules = harness.import_distsim()
        gc.collect()
        if traced:
            tracer.install(st.modules)
            try:
                harness.run_sequence(st, loop, traced=True)
            finally:
                tracer.uninstall()
        else:
            harness.run_sequence(st, loop, traced=False)
        loop.refs.append(harness.reference_work())
    return loop, tracer


def layer_report(args, loop: harness.Loop, tracer: tr.Tracer) -> dict:
    norm = harness.normalized(loop.walls, loop.refs)
    traced = [w for w, t in zip(norm, loop.traced) if t]
    untraced = [w for w, t in zip(norm, loop.traced) if not t]
    metrics = tr.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"layers-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "wall_s_traced": traced, "wall_s_untraced": untraced,
        "host_wall_s": loop.walls, "reference_s": loop.refs,
        "layers": metrics,
        "spans": [{"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "children_s": children}
                  for sid, name, start, end, parent, children in tracer.spans],
        "aggregates": [{"parent": parent, "name": name, "count": c, "total_s": t,
                        "children_s": children}
                       for (parent, name), (c, t, children) in tracer.aggregates.items()],
    }, indent=1) + "\n", encoding="utf-8")
    print(f"per-layer table and spans written to {path}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            st = harness.setup(args.workload, SCALE, args.seed, workdir)
        except harness.ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        loop, tracer = closed_loop(st, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out_bytes = harness.output_bytes(st)
        golden = harness.load_golden()
        counters = harness.check_outputs(args.workload, SCALE, args.seed, st, loop, golden)
        identical = harness.bytes_identical(args.workload, SCALE, args.seed, st, loop,
                                            golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other run is using it

    print(f"workload={args.workload} seed={args.seed} "
          f"trace={args.trace} sequences={len(loop.walls)} n={st.inputs.n}")
    for name, walls in loop.command_walls.items():
        print(f"  {name:<9} median {statistics.median(walls):.4f} s "
              f"over {len(walls)} runs; counters {json.dumps(counters[name])}")
    print(f"  sequences, host seconds: {' '.join(f'{w:.3f}' for w in loop.walls)}")
    print(f"  reference, host seconds: {' '.join(f'{r:.3f}' for r in loop.refs)}")
    print(f"  host_wall_s {statistics.median(loop.walls):.6g} s, "
          f"host_setup_s {statistics.median(st.times):.6g} s (not normalized)")
    if harness.golden_for(golden, args.workload, SCALE, args.seed) is None:
        print(f"  golden counters: not recorded for seed {args.seed}, not checked")
    else:
        print("  golden counters: checked")
        print(f"  output files byte-identical to golden.json: {'yes' if identical else 'NO'}")
    for problem in loop.problems:
        print(f"  PROBLEM {problem}")
    print(f"  failed_frac {loop.failed / loop.attempted:.4f} "
          f"({loop.failed} of {loop.attempted} commands)")

    if args.trace:
        metrics = layer_report(args, loop, tracer)
    else:
        metrics = {
            "wall_s": statistics.median(harness.normalized(loop.walls, loop.refs)),
            "setup_s": statistics.median(harness.normalized(st.times, st.refs)),
            "peak_rss_mb": peak_rss_mb,
            "output_bytes": out_bytes,
        }
    units = {name: unit_of(name) for name in metrics}
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ns_per_transfer"):
        return "ns"
    if name.endswith(("_frac", "_per_transfer")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
