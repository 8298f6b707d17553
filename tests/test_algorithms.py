import math
import random

from distsim import (
    Graph,
    Message,
    ModelParams,
    components_oracle,
    distribute_edges,
    gen_graph,
    run_clique,
    run_congest,
    run_mpc,
    BoruvkaConnectivity,
    FloodMinLabel,
    ForestMergeConnectivity,
)
from distsim.algorithms import spanning_forest
from distsim.core import components_by_union_find

from conftest import random_connected_graph, random_graph


def flat(labels):
    return [[x] for x in labels]


def merge_phases(rounds_used):
    """Boruvka phases (a B and a C step each) that could merge components:
    the final phase only confirms that every announcement maps a label to
    itself, and its B step halts the run."""
    return max(0, (rounds_used - 1) // 2 - 1)


# -- Boruvka on the clique ------------------------------------------------------

def test_boruvka_triangle():
    g = Graph(n=3, edges=((0, 1), (0, 2), (1, 2)))
    res = run_clique(BoruvkaConnectivity(3), g)
    assert res.clean
    assert res.outputs == flat([0, 0, 0])


def test_boruvka_two_disjoint_edges():
    g = Graph(n=4, edges=((0, 1), (2, 3)))
    res = run_clique(BoruvkaConnectivity(4), g)
    assert res.outputs == flat([0, 0, 2, 2])


def test_boruvka_edgeless():
    g = Graph(n=3, edges=())
    res = run_clique(BoruvkaConnectivity(3), g)
    assert res.outputs == flat([0, 1, 2])


def test_boruvka_gnp_matches_oracle_with_few_phases():
    g = gen_graph("gnp", 128, prob=0.03, seed=5)
    res = run_clique(BoruvkaConnectivity(128), g)
    assert res.clean
    assert res.outputs == flat(components_oracle(g))
    assert merge_phases(res.rounds_used) <= math.ceil(math.log2(128))


def test_boruvka_builds_one_message_per_ledger_transfer(monkeypatch):
    # bench/tracer.py counts Message.__post_init__ calls as core.messages,
    # so the announcements' fan-out must still run it once per message
    calls = [0]
    post_init = Message.__post_init__

    def counting(self):
        calls[0] += 1
        post_init(self)

    monkeypatch.setattr(Message, "__post_init__", counting)
    g = gen_graph("gnp", 48, prob=0.05, seed=3)
    res = run_clique(BoruvkaConnectivity(48), g)
    assert res.clean and res.outputs == flat(components_oracle(g))
    transfers = sum(len(rec.transfers) for rec in res.trace.rounds)
    assert transfers > 47 * 48 and calls[0] == transfers


def test_boruvka_random_corpus():
    for seed in range(60):
        n = 4 + seed % 21
        g = random_graph(n, seed)
        res = run_clique(BoruvkaConnectivity(n), g)
        assert res.clean
        assert res.outputs == flat(components_oracle(g))
        assert merge_phases(res.rounds_used) <= max(1, math.ceil(math.log2(n)))


# -- flooding on CONGEST --------------------------------------------------------

def test_flood_path3_rounds_and_labels():
    g = gen_graph("path", 3)
    res = run_congest(FloodMinLabel(3), g)
    assert res.rounds_used == 3
    assert res.outputs == flat([0, 0, 0])


def test_flood_edgeless():
    g = Graph(n=3, edges=())
    res = run_congest(FloodMinLabel(3), g)
    assert res.outputs == flat([0, 1, 2])


def test_flood_cycle8():
    g = gen_graph("cycle", 8)
    res = run_congest(FloodMinLabel(8), g)
    assert res.rounds_used <= 8
    assert res.outputs == flat([0] * 8)


def test_flood_memory_is_degree_plus_constant():
    g = gen_graph("star", 16)
    res = run_congest(FloodMinLabel(16), g)
    peaks = res.trace.space_high_water()
    for v in range(16):
        assert peaks[v] <= 2 * g.degrees[v] + 8


def test_flood_random_corpus():
    for seed in range(60):
        n = 3 + seed % 22
        g = random_graph(n, seed)
        res = run_congest(FloodMinLabel(n), g)
        assert res.clean
        assert res.outputs == flat(components_oracle(g))


# -- forest merge on semi-MPC ----------------------------------------------------

def run_forest_merge(g, p, seed=0):
    params = ModelParams.semi_mpc(g.n, p, ell=2 * g.m)
    inputs = distribute_edges(g, p, seed)
    return run_mpc(ForestMergeConnectivity(g.n, p), inputs, params)


def test_forest_merge_single_machine():
    g = gen_graph("gnp", 16, prob=0.2, seed=2)
    res = run_forest_merge(g, 1)
    assert res.rounds_used == 1
    assert res.outputs[0] == components_oracle(g)


def test_forest_merge_four_machines():
    g = gen_graph("gnp", 32, prob=0.1, seed=1)
    res = run_forest_merge(g, 4)
    assert res.clean
    assert res.rounds_used == 1 + 2  # 1 + ceil(log2 4)
    assert res.outputs[0] == components_oracle(g)


def test_forest_merge_adversarial_placement():
    g = gen_graph("gnp", 32, prob=0.1, seed=1)
    p = 4
    inputs = [[] for _ in range(p)]
    inputs[3] = [w for e in g.edges for w in e]
    params = ModelParams.semi_mpc(g.n, p, ell=2 * g.m)
    res = run_mpc(ForestMergeConnectivity(g.n, p), inputs, params)
    assert res.clean
    assert res.outputs[0] == components_oracle(g)
    # the loaded machine never ships more than a spanning forest per round
    for r in range(1, res.rounds_used + 1):
        assert res.trace.sent_words(3, r) <= 2 * (g.n - 1)


def test_forest_merge_round_count_exact():
    g = gen_graph("gnp", 24, prob=0.15, seed=6)
    for p in (1, 2, 3, 5, 8):
        res = run_forest_merge(g, p)
        assert res.rounds_used == 1 + (p - 1).bit_length()


def test_forest_merge_random_corpus():
    # connected corpus keeps the input large enough for the total-space law
    for seed in range(40):
        n = 8 + seed % 17
        g = random_connected_graph(n, seed % 7, seed)
        p = 1 + seed % min(8, n)
        res = run_forest_merge(g, p, seed=seed)
        assert res.clean
        assert res.outputs[0] == components_oracle(g)


def test_forest_merge_disconnected():
    a = gen_graph("gnp", 12, prob=0.4, seed=1)
    edges = list(a.edges) + [(u + 12, v + 12) for u, v in
                             gen_graph("gnp", 12, prob=0.4, seed=2).edges]
    g = Graph(n=24, edges=tuple(sorted(edges)))
    res = run_forest_merge(g, 4)
    assert res.clean
    assert res.outputs[0] == components_oracle(g)


# -- forest helper ----------------------------------------------------------------

def test_spanning_forest_properties():
    rng = random.Random(9)
    for seed in range(100):
        n = 4 + seed % 13
        g = random_graph(n, seed)
        forest = spanning_forest(n, g.edges)
        assert len(forest) <= n - 1
        # acyclic: forest of k edges spans exactly n - k components
        labels = components_by_union_find(Graph(n=n, edges=forest))
        assert len(set(labels)) == n - len(forest)
        # connectivity preserved
        assert labels == components_oracle(g)


def test_spanning_forest_of_union_preserves_connectivity():
    rng = random.Random(3)
    for _ in range(50):
        n = 10
        a = random_graph(n, rng.randrange(10 ** 6))
        b = random_graph(n, rng.randrange(10 ** 6))
        fa = spanning_forest(n, a.edges)
        fb = spanning_forest(n, b.edges)
        merged = spanning_forest(n, list(fa) + list(fb))
        assert len(merged) <= n - 1
        combined = sorted(set(a.edges) | set(b.edges))
        assert components_by_union_find(Graph(n=n, edges=merged)) == \
            components_by_union_find(Graph(n=n, edges=tuple(combined)))
