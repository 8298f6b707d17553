"""Acceptance suite: one test per top-level claim, at desk scale.

Each test prints a PASS line once every instance in its corpus satisfied the
claimed bound at the stated tolerance (run with -s to see them).  Corpora are
seeded and fixed, so the suite is deterministic.
"""

import random

from distsim import (
    DemandMatrix,
    ModelParams,
    components_oracle,
    distribute_edges,
    execute_schedule,
    gen_graph,
    plan_routing,
    run_clique,
    run_congest,
    run_mpc,
    simulate_cc_on_semimpc,
    simulate_congest_on_semimpc,
    simulate_semimpc_on_cc,
    BoruvkaConnectivity,
    FloodMinLabel,
    ForestMergeConnectivity,
)
from distsim.cli import main as cli_main

from conftest import coloring_is_proper, random_connected_graph, random_graph


def _gnp(n, prob, seed):
    return gen_graph("gnp", n, prob=prob, seed=seed)


def test_acceptance_1_clique_to_semimpc_bounds():
    """Clique -> semi-MPC: rounds = T+1 exactly, n machines, traffic <= 4n,
    outputs identical, across 100 random graphs with n in {16, 64, 256}."""
    corpus = (
        [(16, 0.15, s) for s in range(60)]
        + [(64, 0.06, s) for s in range(30)]
        + [(256, 0.02, s) for s in range(10)]
    )
    assert len(corpus) == 100
    for n, prob, seed in corpus:
        g = _gnp(n, prob, seed)
        rep = simulate_cc_on_semimpc(BoruvkaConnectivity(n), g, seed=seed)
        t = rep.native.rounds_used
        assert rep.simulated.rounds_used == t + 1, (n, seed)
        assert rep.simulated.params.p == n
        assert rep.simulated.clean
        assert rep.simulated.trace.max_traffic() <= 4 * n, (n, seed)
        assert rep.simulated.outputs == rep.native.outputs, (n, seed)
    print("ACCEPTANCE 1 PASS: clique on semi-MPC uses T+1 rounds, n machines,"
          " <=4n traffic, identical outputs on 100 graphs")


def test_acceptance_2_semimpc_to_clique_bounds():
    """Semi-MPC -> clique: rounds <= (2 + 2) * T, per ordered pair at most
    one word per round, outputs match native and the connectivity oracle."""
    corpus = []
    for p in (2, 4, 8):
        for n, prob in ((16, 0.2), (32, 0.15), (64, 0.08), (128, 0.05)):
            for seed in range(2):
                corpus.append((p, n, prob, seed))
    for p, n, prob, seed in corpus:
        g = _gnp(n, prob, seed)
        params = ModelParams.semi_mpc(n, p, ell=2 * g.m)
        inputs = distribute_edges(g, p, seed=seed)
        rep = simulate_semimpc_on_cc(ForestMergeConnectivity(n, p), inputs, params)
        t = rep.native.rounds_used
        assert rep.simulated.rounds_used <= (2 + 2) * t, (p, n, seed)
        assert rep.simulated.clean
        for rec in rep.simulated.trace.rounds:  # exhaustive per-pair check
            seen = set()
            for s, d, w in rec.transfers:
                assert w == 1 and (s, d) not in seen, (p, n, seed)
                seen.add((s, d))
        assert rep.simulated.outputs[:p] == rep.native.outputs
        assert rep.simulated.outputs[0] == components_oracle(g), (p, n, seed)
    print(f"ACCEPTANCE 2 PASS: semi-MPC on clique within (2+2)*T rounds with"
          f" clean pair capacities on {len(corpus)} runs")


def test_acceptance_3_routing_contract():
    """1000 random demand matrices (n <= 32, row/col sums <= n): proper
    coloring with at most max-degree colors, exactly 2 schedule rounds
    (0 when empty), exact delivery, zero capacity violations."""
    rng = random.Random(20240)
    nonempty = 0
    for _ in range(1000):
        n = rng.randrange(2, 33)
        rows = [[0] * n for _ in range(n)]
        row_tot, col_tot = [0] * n, [0] * n
        for _ in range(rng.randrange(0, 4 * n)):
            s, d = rng.randrange(n), rng.randrange(n)
            if row_tot[s] < n and col_tot[d] < n:
                rows[s][d] += 1
                row_tot[s] += 1
                col_tot[d] += 1
        dm = DemandMatrix.from_rows(rows)
        sched = plan_routing(dm)
        if dm.total_words == 0:
            assert sched.num_rounds == 0
            continue
        nonempty += 1
        assert sched.num_rounds == 2

        words = dm.words()
        edges = [(s, d) for s, d, _q in words]
        colors = [sched.assignment[w][0] + n * (sched.assignment[w][1] - 1)
                  for w in words]
        assert coloring_is_proper(edges, colors)
        assert max(colors) + 1 <= dm.max_degree

        payloads = {(s, d, q): (s * 131 + d * 17 + q) % 256
                    for (s, d, q) in sched.assignment}
        record = execute_schedule(sched, payloads, value_width=8)
        assert record.run.clean
        delivered = sorted(
            (src, dst, value)
            for dst, triples in enumerate(record.delivered)
            for src, _seq, value in triples)
        demanded = sorted((s, d, payloads[(s, d, q)])
                          for (s, d, q) in sched.assignment)
        assert delivered == demanded
    print(f"ACCEPTANCE 3 PASS: routing contract held on 1000 demand matrices"
          f" ({nonempty} non-empty)")


def test_acceptance_4_congest_to_semimpc_bounds():
    """CONGEST -> semi-MPC with T = native rounds on 100 random connected
    graphs (n <= 128): rounds <= T+3, machines <= ceil(2Tm/n) capped at n,
    degree load <= 2*max(2m/M, max degree), space <= 4n, outputs identical,
    and the high-degree flag raised exactly when max degree * T > n."""
    corpus = ([(16, s) for s in range(25)] + [(32, s) for s in range(25)]
              + [(64, s) for s in range(25)] + [(128, s) for s in range(25)])
    flags = 0
    for n, seed in corpus:
        g = random_connected_graph(n, n // 5, seed)
        rep = simulate_congest_on_semimpc(FloodMinLabel(n), g)
        t = rep.native.rounds_used
        machines = rep.measured_constants["machines"]
        assert rep.simulated.rounds_used <= t + 3, (n, seed)
        assert machines <= min(max(1, -(-2 * t * g.m // n)), n), (n, seed)
        load = rep.measured_constants["max_degree_load"]
        dmax = max(g.degrees)
        assert load * machines <= 2 * max(2 * g.m, dmax * machines), (n, seed)
        assert max(rep.simulated.trace.space_high_water()) <= 4 * n, (n, seed)
        assert rep.simulated.clean
        assert rep.bound_checks["outputs_ok"], (n, seed)
        assert rep.extra["high_degree_flag"] == (dmax * t > n), (n, seed)
        flags += bool(rep.extra["high_degree_flag"])
    print(f"ACCEPTANCE 4 PASS: CONGEST on semi-MPC within T+3 rounds and all"
          f" machine/load/space bounds on 100 connected graphs"
          f" ({flags} high-degree flags)")


def test_acceptance_5_oracle_correctness():
    """All three algorithms reproduce the cross-checked connectivity oracle
    exactly, on 500 random graphs each."""
    for seed in range(500):
        n = 4 + seed % 29
        g = random_graph(n, seed)
        res = run_clique(BoruvkaConnectivity(n), g)
        assert res.clean and res.outputs == [[x] for x in components_oracle(g)]

    for seed in range(500):
        n = 3 + seed % 30
        g = random_graph(n, 10_000 + seed)
        res = run_congest(FloodMinLabel(n), g)
        assert res.clean and res.outputs == [[x] for x in components_oracle(g)]

    for seed in range(500):
        n = 6 + seed % 27
        g = random_connected_graph(n, seed % 9, 20_000 + seed)
        p = 1 + seed % min(8, n)
        params = ModelParams.semi_mpc(n, p, ell=2 * g.m)
        inputs = distribute_edges(g, p, seed=seed)
        res = run_mpc(ForestMergeConnectivity(n, p), inputs, params)
        assert res.clean and res.outputs[0] == components_oracle(g)
    print("ACCEPTANCE 5 PASS: boruvka, flooding and forest-merge all match"
          " the oracle on 500 random graphs each")


def test_acceptance_6_determinism_and_round_trip(tmp_path):
    """Every command repeated with the same configuration yields
    byte-identical JSON, and every emitted trace re-verifies clean."""
    graph_path = tmp_path / "g.txt"
    demand_path = tmp_path / "demand.json"
    demand_path.write_text("[[0, 2, 1], [1, 0, 0], [0, 1, 0]]")

    commands = {
        "gen": ["gen", "--kind", "gnp", "--n", "24", "--p", "0.15",
                "--seed", "11", "--out", str(graph_path)],
        "run-clique": ["run", "--model", "clique", "--algorithm", "boruvka",
                       "--graph", str(graph_path)],
        "run-congest": ["run", "--model", "congest", "--algorithm", "flood",
                        "--graph", str(graph_path)],
        "run-semimpc": ["run", "--model", "semimpc", "--algorithm",
                        "forest-merge", "--graph", str(graph_path),
                        "--machines", "4", "--seed", "5"],
        "sim-cc": ["simulate", "--from", "clique", "--to", "semimpc",
                   "--algorithm", "boruvka", "--graph", str(graph_path)],
        "sim-congest": ["simulate", "--from", "congest", "--to", "semimpc",
                        "--algorithm", "flood", "--graph", str(graph_path)],
        "sim-mpc": ["simulate", "--from", "semimpc", "--to", "clique",
                    "--algorithm", "forest-merge", "--graph", str(graph_path),
                    "--machines", "4", "--seed", "5"],
        "route": ["route", "--demand", str(demand_path)],
    }

    outputs = {}
    for name, argv in commands.items():
        blobs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}-{attempt}.json"
            full = list(argv)
            if name != "gen":
                full += ["--out", str(out)]
            else:
                out = graph_path
            assert cli_main(full) == 0, name
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{name} not byte-identical"
        outputs[name] = tmp_path / f"{name}-one.json"

    # every emitted trace re-verifies clean through the verify command, both
    # runs of each simulate report included
    for name in ("run-clique", "run-congest", "run-semimpc", "route",
                 "sim-cc", "sim-congest", "sim-mpc"):
        assert cli_main(["verify", "--trace", str(outputs[name])]) == 0, name
    print("ACCEPTANCE 6 PASS: byte-identical reruns for every command and"
          " clean re-verification of every emitted trace")
