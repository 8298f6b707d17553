"""The benchmark's workloads: seeded inputs, CLI command sequences, and the
counters and correctness checks read back from each command's output.

The program under test only ever sees the input files written here; every
input is derived from the workload seed with the benchmark's own generators,
so a change to distsim's graph generator cannot change what is measured.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

# Input sizes per scale.  "full" is what the benchmark measures; "smoke" runs
# the same command sequences in seconds for the benchmark's own tests.
SIZES = {
    "clique-boruvka": {"full": 192, "smoke": 48},
    "congest-flood-semimpc": {"full": 96, "smoke": 40},
    "forest-merge-clique": {"full": 288, "smoke": 64},
    "route-full-load": {"full": 128, "smoke": 24},
}
FOREST_MERGE_MACHINES = {"full": 48, "smoke": 8}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its name in reports, argv, and the JSON file it
    writes (None for verify, which only prints).  argv names files relative
    to the working directory, because the CLI copies the input path into its
    output, and the bytes must not depend on where the benchmark runs."""

    name: str
    argv: tuple[str, ...]
    out: Path | None


# ---------------------------------------------------------------------------
# Seeded input generators
# ---------------------------------------------------------------------------

def gnp_edges(n: int, prob: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < prob]


def tree_plus_edges(n: int, extra: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random tree plus `extra` further distinct edges; always connected."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + extra:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def permutation_sum(n: int, rng: random.Random) -> list[list[int]]:
    """Sum of n random permutation matrices: every row and column sum is n."""
    counts = [[0] * n for _ in range(n)]
    for _ in range(n):
        perm = list(range(n))
        rng.shuffle(perm)
        for s, d in enumerate(perm):
            counts[s][d] += 1
    return counts


def write_graph(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Inputs:
    n: int
    edges: tuple[tuple[int, int], ...] | None = None
    demand: tuple[tuple[int, ...], ...] | None = None
    machines: int | None = None


def make_inputs(workload: str, scale: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's input from the seed and write its files."""
    n = SIZES[workload][scale]
    rng = random.Random(seed)
    if workload == "route-full-load":
        counts = permutation_sum(n, rng)
        (workdir / "demand.json").write_text(json.dumps(counts), encoding="utf-8")
        return Inputs(n=n, demand=tuple(tuple(r) for r in counts))
    if workload == "clique-boruvka":
        edges = gnp_edges(n, 4 / n, rng)
    elif workload == "congest-flood-semimpc":
        edges = tree_plus_edges(n, n // 5, rng)
    elif workload == "forest-merge-clique":
        edges = gnp_edges(n, 8 / n, rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    write_graph(workdir / "graph.txt", n, edges)
    machines = FOREST_MERGE_MACHINES[scale] if workload == "forest-merge-clique" else None
    return Inputs(n=n, edges=tuple(edges), machines=machines)


def commands(workload: str, inputs: Inputs, workdir: Path) -> list[Command]:
    """The workload's command sequence, to run with workdir as the working
    directory."""
    graph = "graph.txt"
    if workload == "clique-boruvka":
        return [
            Command("run", ("run", "--model", "clique", "--algorithm", "boruvka",
                            "--graph", graph, "--out", "run.json"), workdir / "run.json"),
            Command("verify", ("verify", "--trace", "run.json"), None),
            Command("simulate", ("simulate", "--from", "clique", "--to", "semimpc",
                                 "--algorithm", "boruvka", "--graph", graph,
                                 "--out", "sim.json"), workdir / "sim.json"),
        ]
    if workload == "congest-flood-semimpc":
        return [Command("simulate", ("simulate", "--from", "congest", "--to", "semimpc",
                                     "--algorithm", "flood", "--graph", graph,
                                     "--out", "sim.json"), workdir / "sim.json")]
    if workload == "forest-merge-clique":
        return [Command("simulate", ("simulate", "--from", "semimpc", "--to", "clique",
                                     "--algorithm", "forest-merge", "--graph", graph,
                                     "--machines", str(inputs.machines),
                                     "--out", "sim.json"), workdir / "sim.json")]
    if workload == "route-full-load":
        return [Command("route", ("route", "--demand", "demand.json",
                                  "--out", "route.json"), workdir / "route.json")]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Counters and checks read back from the outputs
# ---------------------------------------------------------------------------

def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def outputs_digest(outputs) -> str:
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()[:12]


def run_counters(doc: dict) -> dict:
    """Model counters of one serialized RunResult, recomputed from its ledger."""
    transfers = words = max_traffic = 0
    p = doc["params"]["p"]
    for rec in doc["per_round"]:
        sent = [0] * p
        recv = [0] * p
        for s, d, w in rec["transfers"]:
            sent[s] += w
            recv[d] += w
            words += w
        transfers += len(rec["transfers"])
        if rec["transfers"]:
            max_traffic = max(max_traffic, max(sent), max(recv))
    return {
        "rounds": doc["rounds"],
        "transfers": transfers,
        "words": words,
        "max_traffic": max_traffic,
        "space_peak": max(doc["space_high_water"], default=0),
        "violations": len(doc["violations"]),
        "output_digest": outputs_digest(doc["outputs"]),
    }


def _labels_ok(outputs, labels: list[int]) -> bool:
    return outputs == [[x] for x in labels]


def _machine_streams_ok(outputs, labels: list[int]) -> bool:
    """CONGEST -> semi-MPC outputs: per machine, (v, count, words...) runs."""
    if outputs is None:
        return False
    seen = {}
    for words in outputs:
        i = 0
        while i < len(words):
            v, count = words[i], words[i + 1]
            seen[v] = list(words[i + 2:i + 2 + count])
            i += 2 + count
    return seen == {v: [x] for v, x in enumerate(labels)}


def _forest_ok(outputs, labels: list[int]) -> bool:
    return (outputs is not None and outputs[0] == labels
            and all(not o for o in outputs[1:]))


def _delivery_ok(doc: dict, demand) -> bool:
    """Route outputs: every destination holds exactly its demanded words,
    each tagged with source and sequence and carrying the CLI's payload."""
    outputs = doc["outputs"]
    if outputs is None:
        return False
    n = len(demand)
    for d in range(n):
        got = sorted(tuple(outputs[d][i:i + 3]) for i in range(0, len(outputs[d]), 3))
        want = sorted((s, q, (s * 31 + d * 7 + q) % 256)
                      for s in range(n) for q in range(demand[s][d]))
        if got != want:
            return False
    return True


def check_command(workload: str, cmd: Command, stdout: str, inputs: Inputs,
                  labels: list[int] | None) -> tuple[dict, list[str]]:
    """Counters of one finished command plus the list of problems found in
    its outputs (empty when the outputs are correct)."""
    problems = [f"bound check failed: {ln.strip()}"
                for ln in stdout.splitlines() if ln.rstrip().endswith(": FAIL")]
    if cmd.name == "verify":
        fields = dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)
        counters = {"rounds": int(fields["rounds"]),
                    "violations": int(fields["violations"])}
        if counters["violations"]:
            problems.append("verify found violations")
        return counters, problems

    with open(cmd.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    counters = {}
    if cmd.name in ("run", "route"):
        counters.update(run_counters(doc))
        if counters["violations"]:
            problems.append("engine violations")
    if cmd.name == "run":
        if not _labels_ok(doc["outputs"], labels):
            problems.append("labels differ from components_oracle")
    elif cmd.name == "route":
        counters["schedule_rounds"] = doc["routing"]["rounds"]
        counters["delivered_words"] = doc["delivered_words"]
        if not _delivery_ok(doc, inputs.demand):
            problems.append("routed words not delivered exactly")
    elif cmd.name == "simulate":
        counters["native"] = run_counters(doc["native"])
        counters["simulated"] = run_counters(doc["simulated"])
        counters["bound_checks"] = doc["bound_checks"]
        if not all(doc["bound_checks"].values()):
            problems.append("bound check false in report")
        native, sim = doc["native"]["outputs"], doc["simulated"]["outputs"]
        if workload == "clique-boruvka":
            ok = _labels_ok(native, labels) and _labels_ok(sim, labels)
        elif workload == "congest-flood-semimpc":
            ok = _labels_ok(native, labels) and _machine_streams_ok(sim, labels)
        else:
            ok = (_forest_ok(native, labels) and sim is not None
                  and sim[:len(native)] == native
                  and all(not o for o in sim[len(native):]))
        if not ok:
            problems.append("labels differ from components_oracle")
    return counters, problems
