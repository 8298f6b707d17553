"""The benchmark's own tests, kept out of the tier-1 suite:

    python3 -m pytest -q bench/test_smoke.py

They run the four workloads' command sequences at small n (seconds in all)
and compare every command's model counters with bench/golden.json.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import harness
import tracer as tr
import workloads as wl

SEEDS = (1, 1009)


@pytest.fixture
def workdir(request):
    path = harness.ROOT / ".bench_work" / f"test-{request.node.name}"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(wl.SIZES))
def test_smoke_counters_match_golden(workload, seed, workdir):
    st = harness.setup(workload, "smoke", seed, workdir, repeats=1)
    loop = harness.Loop()
    for _ in range(2):
        harness.run_sequence(st, loop, traced=False)
    harness.check_outputs(workload, "smoke", seed, st, loop, harness.load_golden())
    assert loop.failed == 0, loop.problems
    assert harness.golden_key(workload, "smoke") in harness.load_golden()


def test_golden_mismatch_counts_as_failure(workdir):
    st = harness.setup("route-full-load", "smoke", 1, workdir, repeats=1)
    loop = harness.Loop()
    harness.run_sequence(st, loop, traced=False)
    golden = harness.load_golden()
    key = harness.golden_key("route-full-load", "smoke")
    golden[key]["1"]["route"] = dict(golden[key]["1"]["route"], rounds=99)
    harness.check_outputs("route-full-load", "smoke", 1, st, loop, golden)
    assert loop.failed == loop.attempted == 1


@pytest.mark.parametrize("workload", sorted(wl.SIZES))
def test_traced_run_reports_every_layer_and_keeps_outputs(workload, workdir):
    st = harness.setup(workload, "smoke", 1, workdir, repeats=1)
    loop = harness.Loop()
    harness.run_sequence(st, loop, traced=False)
    tracer = tr.Tracer()
    tracer.install(st.modules)
    try:
        harness.run_sequence(st, loop, traced=True)
    finally:
        tracer.uninstall()
    assert loop.failed == 0, loop.problems  # traced outputs are byte-identical
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = tr.layer_metrics(tracer, 1)
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert names == set(metrics)
    assert metrics["engines.run_s"] > 0 and metrics["core.messages"] > 0
    assert metrics["engines.self_s"] <= metrics["engines.run_s"]
    assert st.modules["engines"].words_in.__name__ == "words_in"
    assert st.modules["core"].Message.__dict__["__post_init__"].__module__ == "distsim.core"


def test_run_fails_without_the_program():
    bare = harness.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.BENCH_DIR, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "route-full-load",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_says_when_no_golden_is_recorded():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "route-full-load",
         "--seed", "99999", "--seconds", "0", "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "golden counters: not recorded for seed 99999, not checked" in proc.stdout
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
