"""Participants share nothing but messages: every algorithm and adapter run
gives the same RunResult when each participant has its own copy of the
program object (see isolation_audited in conftest)."""

import pytest

from distsim import (
    BoruvkaConnectivity,
    DemandMatrix,
    FloodMinLabel,
    ForestMergeConnectivity,
    Graph,
    ModelParams,
    NodeProgram,
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
)

from conftest import (
    FixedRoundFlood,
    isolation_audited,
    random_connected_graph,
    random_graph,
)

N = 24
GRAPHS = {
    "tree-plus": random_connected_graph(N, 8, 3),
    "sparse": random_graph(N, 5),
    "gnp": gen_graph("gnp", N, prob=0.2, seed=4),
    "star": gen_graph("star", N),
}


class LeakingProgram(NodeProgram):
    """Every participant learns every pid without a message: init writes
    pid^2 into a dict on the shared program object, round 1 sums it."""

    def __init__(self):
        self.squares = {}

    def init(self, pid, local_input):
        self.squares[pid] = pid * pid
        return (pid, 0)

    def on_round(self, state, inbox):
        return (state[0], sum(self.squares.values())), [], True

    def output(self, state):
        return [state[1]]


def test_audit_catches_a_program_that_talks_through_itself(isolation_audit):
    g = Graph(n=16, edges=())
    native = run_congest(LeakingProgram(), g, ModelParams.congest(16))
    assert native.clean and native.outputs == [[1240]] * 16
    with pytest.raises(AssertionError, match="share data outside messages"):
        isolation_audited(run_congest)(LeakingProgram(), g, ModelParams.congest(16))
    # the fixture audits the runs an adapter makes
    with pytest.raises(AssertionError, match="share data outside messages"):
        simulate_congest_on_semimpc(LeakingProgram(), g)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_algorithms_are_isolated_natively(name):
    g = GRAPHS[name]
    isolation_audited(run_clique)(BoruvkaConnectivity(g.n), g, ModelParams.clique(g.n))
    isolation_audited(run_congest)(FloodMinLabel(g.n), g, ModelParams.congest(g.n))
    p = 4
    params = ModelParams.semi_mpc(g.n, p, ell=2 * g.m)
    isolation_audited(run_mpc)(ForestMergeConnectivity(g.n, p),
                               distribute_edges(g, p, seed=1), params)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_adapters_are_isolated(name, isolation_audit):
    # the audit covers the native and the simulated run of each adapter; the
    # verdicts are the acceptance tests' business (on "gnp", m > 2n, so the
    # CONGEST adapter's degree census overruns machine 0 and its run stops
    # in setup, which the audit compares all the same)
    g = GRAPHS[name]
    simulate_cc_on_semimpc(BoruvkaConnectivity(g.n), g, seed=2)
    simulate_congest_on_semimpc(FloodMinLabel(g.n), g, seed=2)
    p = 4
    params = ModelParams.semi_mpc(g.n, p, ell=2 * g.m)
    simulate_semimpc_on_cc(ForestMergeConnectivity(g.n, p),
                           distribute_edges(g, p, seed=2), params)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_congest_adapter_is_isolated_with_several_vertices_per_machine(
        name, isolation_audit):
    # flood runs T = n rounds, so in the audit above every machine hosts one
    # vertex; a 3-round flood on ceil(3m / n) machines packs several
    # vertices on each, so the replay hands messages over inside a machine
    g = GRAPHS[name]
    rep = simulate_congest_on_semimpc(FixedRoundFlood(3), g, c_machines=1, seed=2)
    assert rep.measured_constants["machines"] <= g.n // 3
    # the verdicts are the acceptance tests' business; here the replay runs
    # to the end on two graphs (on "gnp" the run stops in setup, and on
    # "star" the hub's machine overruns its space in round 4)
    if name in ("tree-plus", "sparse"):
        assert rep.all_ok, rep.bound_checks


@pytest.mark.parametrize("rows", [
    [[0, 1, 0], [0, 0, 2], [1, 0, 0]],
    [[4] + [0] * 7 for _ in range(8)],
    [[(s + d) % 3 for d in range(6)] for s in range(6)],
])
def test_execute_schedule_is_isolated(rows, isolation_audit):
    sched = plan_routing(DemandMatrix.from_rows(rows))
    payloads = {(s, d, q): (s + 2 * d + q) % 8 for (s, d, q) in sched.assignment}
    assert execute_schedule(sched, payloads).clean
