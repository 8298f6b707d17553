from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsim import (
    Assignment,
    Graph,
    Message,
    ModelKind,
    ModelParams,
    NodeProgram,
    RoundRecord,
    RoundTrace,
    SimulationRefused,
    compute_node_assignment,
    components_oracle,
    distribute_edges,
    gen_graph,
    run_clique,
    run_congest,
    simulate_cc_on_semimpc,
    simulate_congest_on_semimpc,
    simulate_semimpc_on_cc,
    BoruvkaConnectivity,
    FloodMinLabel,
    ForestMergeConnectivity,
)
from distsim import adapters
from distsim.adapters import (
    _TAG_DEGREE,
    _TAG_EDGE,
    _TAG_MAP,
    _TAG_VERTEX,
    _CliqueOnSemiMpc,
    _CongestOnSemiMpc,
    load_bound_ok,
)
from distsim.engines import C_SPACE, EngineContractError, run_mpc

from conftest import FixedRoundFlood, placements, random_connected_graph, random_graph


# -- node assignment ------------------------------------------------------------

def test_assignment_round_robin_by_descending_degree():
    # sorted order is v0 (3), v2 (2), v3 (2), v1 (1); dealt 0, 1, 0, 1
    a = compute_node_assignment([3, 1, 2, 2], 2)
    assert a.machine_vertices == ((0, 3), (1, 2))
    assert a.machine_loads == (5, 3)
    assert a.machine_of == (0, 1, 1, 0)


def test_assignment_single_machine():
    a = compute_node_assignment([2, 2, 1], 1)
    assert a.machine_vertices == ((0, 1, 2),)
    assert a.machine_loads == (5,)


def test_assignment_more_machines_than_vertices():
    a = compute_node_assignment([1, 3, 2], 5)
    # sorted order is v1, v2, v0: position i lands alone on machine i
    assert a.machine_of == (2, 0, 1)
    assert a.machine_vertices[3] == () and a.machine_vertices[4] == ()


def test_assignment_load_bound_holds_everywhere():
    import random
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 40)
        degrees = [rng.randrange(0, n) for _ in range(n)]
        machines = rng.randrange(1, n + 1)
        a = compute_node_assignment(degrees, machines)
        assert load_bound_ok(a, degrees)


@pytest.mark.parametrize("degrees, machines, bound", [
    ([2, 2], 2, 4),        # 2 * the average load 4 / 2
    ([6, 1, 1], 4, 12),    # 2 * the maximum degree 6, above the average 2
])
def test_load_bound_ok_is_the_factor_two_bound_at_its_edge(degrees, machines, bound):
    def with_max_load(load):
        loads = (load,) + (0,) * (machines - 1)
        return Assignment(machine_of=(0,) * len(degrees),
                          machine_vertices=(tuple(range(len(degrees))),)
                          + ((),) * (machines - 1),
                          machine_loads=loads)

    assert load_bound_ok(with_max_load(bound), degrees)
    assert not load_bound_ok(with_max_load(bound + 1), degrees)


def test_assignment_needs_a_machine():
    with pytest.raises(ValueError, match="^need at least one machine$"):
        compute_node_assignment([1, 1], 0)


# -- every bound check at its edge ------------------------------------------------

_EDGE_GRAPH = random_connected_graph(20, 6, 3)
_EDGE_SPACE = 4 * _EDGE_GRAPH.n  # c_space * n at the default c_space


def _simulate_at_edge(direction):
    g = _EDGE_GRAPH
    if direction == "clique":
        return simulate_cc_on_semimpc(BoruvkaConnectivity(g.n), g)
    if direction == "semimpc":
        return simulate_semimpc_on_cc(ForestMergeConnectivity(g.n, 4),
                                      distribute_edges(g, 4, 0),
                                      ModelParams.semi_mpc(g.n, 4, ell=2 * g.m))
    return simulate_congest_on_semimpc(FloodMinLabel(g.n), g)


def _with_rounds(run, count):
    """The run with its trace padded by idle rounds to `count` rounds."""
    p = run.trace.num_participants
    idle = RoundRecord((), (), (), (0,) * p)
    rounds = run.trace.rounds + (idle,) * (count - run.rounds_used)
    return replace(run, trace=RoundTrace(p, rounds))


def _with_first_round(run, **fields):
    first = replace(run.trace.rounds[0], **fields)
    return replace(run, trace=RoundTrace(run.trace.num_participants,
                                         (first,) + run.trace.rounds[1:]))


def _with_machines(run, extra):
    params = run.params
    if params.kind == ModelKind.CLIQUE:  # one participant per vertex
        return replace(run, params=replace(params, p=params.p + extra, n=params.n + extra))
    return replace(run, params=replace(params, p=params.p + extra))


# (direction, check, the engine call of the simulated run, doctor): the
# doctor takes the simulated run, the native round count T and `over`, and
# returns the run `over` rounds, words or machines past the check's bound
_EDGES = [
    ("clique", "rounds_ok", "run_mpc", lambda run, t, over: _with_rounds(run, t + 1 + over)),
    ("clique", "rounds_big_o_ok", "run_mpc",
     lambda run, t, over: _with_rounds(run, 2 * t + over)),
    ("clique", "machines_ok", "run_mpc", lambda run, t, over: _with_machines(run, over)),
    ("clique", "traffic_ok", "run_mpc", lambda run, t, over: _with_first_round(
        run, src=(0,), dst=(1,), words=(_EDGE_SPACE + over,))),
    ("clique", "space_ok", "run_mpc", lambda run, t, over: _with_first_round(
        run, space=(_EDGE_SPACE + over,) + run.trace.rounds[0].space[1:])),
    ("semimpc", "rounds_ok", "run_clique",
     lambda run, t, over: _with_rounds(run, 4 * t + over)),
    ("semimpc", "machines_ok", "run_clique", lambda run, t, over: _with_machines(run, over)),
    ("congest", "rounds_ok", "run_mpc", lambda run, t, over: _with_rounds(run, t + 3 + over)),
    ("congest", "machines_ok", "run_mpc", lambda run, t, over: _with_machines(run, over)),
    ("congest", "space_ok", "run_mpc", lambda run, t, over: _with_first_round(
        run, space=(_EDGE_SPACE + over,) + run.trace.rounds[0].space[1:])),
]


@pytest.mark.parametrize("over", [0, 1], ids=["at-bound", "one-over"])
@pytest.mark.parametrize("direction, check, engine_call, doctor", _EDGES,
                         ids=[f"{d}-{c}" for d, c, _e, _f in _EDGES])
def test_bound_check_reads_false_one_past_its_bound(direction, check, engine_call,
                                                    doctor, over, monkeypatch):
    # the simulated run as the engine returned it, then doctored: a check
    # holds at its stated bound and fails one round, word or machine past it
    t_native = _simulate_at_edge(direction).native.rounds_used
    engine = getattr(adapters, engine_call)
    monkeypatch.setattr(adapters, engine_call,
                        lambda *args: doctor(engine(*args), t_native, over))
    report = _simulate_at_edge(direction)
    assert report.bound_checks[check] is (over == 0)


# -- clique on semi-MPC ----------------------------------------------------------

class OutputLocalInput(NodeProgram):
    """Halts in round 1 without sending: output the incident edge list."""

    def init(self, pid, local_input):
        return tuple(w for edge in local_input for w in edge)

    def on_round(self, state, inbox):
        return state, [], True

    def output(self, state):
        return list(state)


class MemoryHog(NodeProgram):
    """Grossly super-linear node memory; must be refused."""

    def __init__(self, n):
        self.n = n

    def init(self, pid, local_input):
        return tuple(0 for _ in range(8 * self.n))

    def on_round(self, state, inbox):
        return state, [], True

    def output(self, state):
        return []


def test_cc_sim_zero_round_program():
    g = gen_graph("gnp", 8, prob=0.4, seed=1)
    rep = simulate_cc_on_semimpc(OutputLocalInput(), g)
    # redistribution plus the round that rebuilds local inputs and runs
    # native round 1: T + 1 = 2
    assert rep.native.rounds_used == 1
    assert rep.simulated.rounds_used == 2
    assert rep.all_ok


def test_cc_sim_boruvka_round_count_and_outputs():
    g = gen_graph("gnp", 64, prob=0.1, seed=2)
    rep = simulate_cc_on_semimpc(BoruvkaConnectivity(64), g, seed=5)
    assert rep.all_ok
    assert rep.simulated.rounds_used == rep.native.rounds_used + 1
    assert rep.simulated.params.p == 64
    assert rep.simulated.outputs == rep.native.outputs
    assert rep.native.outputs == [[x] for x in components_oracle(g)]


def test_cc_sim_star_redistribution_traffic():
    g = gen_graph("star", 8)
    placement = [[] for _ in range(8)]
    placement[3] = list(g.edges)
    rep = simulate_cc_on_semimpc(BoruvkaConnectivity(8), g,
                                 initial_edges=placement)
    assert rep.all_ok
    trace = rep.simulated.trace
    # the hub's machine hears about all 7 incident edges
    assert trace.recv_words(0, 1) == 7
    # two notifications per stored edge, minus the free one to itself
    assert trace.sent_words(3, 1) == 2 * g.m - 1
    assert _ledger_words(trace, 1) == _clique_stated(g, placement)


def test_cc_sim_refuses_memory_hog():
    g = gen_graph("complete", 8)
    with pytest.raises(SimulationRefused, match="memory"):
        simulate_cc_on_semimpc(MemoryHog(8), g)


def test_cc_sim_refuses_oversized_placement():
    g = gen_graph("complete", 12)
    placement = [[] for _ in range(12)]
    placement[0] = list(g.edges)  # 66 edges = 132 words > 4 * 12
    with pytest.raises(SimulationRefused, match="starts with"):
        simulate_cc_on_semimpc(BoruvkaConnectivity(12), g,
                               initial_edges=placement)


def _k8_placement(edges_on_0):
    """K8's 28 edges: the first edges_on_0 on machine 0, the rest dealt
    over machines 1-7."""
    edges = gen_graph("complete", 8).edges
    rest = edges[edges_on_0:]
    return [list(edges[:edges_on_0])] + [list(rest[i::7]) for i in range(7)]


def test_cc_sim_refuses_a_placement_its_first_state_cannot_hold():
    # s = 32 on K8, and a first state holds the stored words plus its id and
    # round counter: 16 edges (32 words) on machine 0 used to pass the
    # placement check and stop in round 1 with space-budget, 34 against 32
    with pytest.raises(SimulationRefused,
                       match="^machine 0 starts with 32 words, above 30$"):
        simulate_cc_on_semimpc(BoruvkaConnectivity(8), gen_graph("complete", 8),
                               initial_edges=_k8_placement(16))


def test_cc_sim_runs_a_placement_at_its_first_state_bound():
    # 15 edges (30 words = s - 2) on machine 0 fit its first state
    report = simulate_cc_on_semimpc(BoruvkaConnectivity(8), gen_graph("complete", 8),
                                    initial_edges=_k8_placement(15))
    assert report.simulated.clean
    assert max(report.simulated.trace.space_high_water()) == 32
    assert all(report.bound_checks.values())


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(3, 9), prob=st.sampled_from([0.2, 0.5, 1.0]),
       seed=st.integers(0, 99))
def test_cc_sim_runs_or_refuses_every_placement(data, n, prob, seed):
    # a legal placement either runs with every check True and the native
    # outputs, or is refused for a machine above its first state's s - 2
    # words, or for a native node above them (K3)
    g = gen_graph("gnp", n, prob=prob, seed=seed)
    placement = data.draw(placements(g, n, C_SPACE * n))
    try:
        report = simulate_cc_on_semimpc(BoruvkaConnectivity(n), g, initial_edges=placement)
    except SimulationRefused as refusal:
        assert "starts with" in str(refusal) or "-word hypothesis" in str(refusal)
        return
    assert all(report.bound_checks.values()), report.bound_checks
    assert report.simulated.outputs == report.native.outputs


def test_cc_sim_refuses_a_native_node_above_s_minus_2_words():
    # Borůvka's K3 nodes peak at 11 words, within s = 12; their machines
    # add 2 words and used to stop in round 4 with space-budget, 13 against 12
    with pytest.raises(SimulationRefused, match=(
            "^native node memory 11 words exceeds the 10-word hypothesis;"
            " simulation refused$")):
        simulate_cc_on_semimpc(BoruvkaConnectivity(3), gen_graph("complete", 3))


def test_cc_sim_runs_a_native_node_at_s_minus_2_words():
    # K4's nodes peak at 14 = s - 2 words, and their machines at s
    report = simulate_cc_on_semimpc(BoruvkaConnectivity(4), gen_graph("complete", 4))
    assert max(report.native.trace.space_high_water()) == 14
    assert max(report.simulated.trace.space_high_water()) == 16
    assert all(report.bound_checks.values())


def test_cc_sim_refuses_a_placement_for_another_machine_count():
    g = gen_graph("path", 6)
    with pytest.raises(SimulationRefused,
                       match="^initial placement must cover 6 machines$"):
        simulate_cc_on_semimpc(BoruvkaConnectivity(6), g,
                               initial_edges=[list(g.edges)] + [[]] * 4)


class DoubleWord(NodeProgram):
    """Node 0 sends node 1 two words in one message: over the clique's
    one word per pair and round."""

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        return state, [Message(0, 1, (1, 2))] if state == 0 else [], True

    def output(self, state):
        return []


def test_cc_sim_refuses_an_unclean_native_run():
    with pytest.raises(SimulationRefused, match=(
            r"^native clique run violated its own model: Violation\(rule='pair-capacity',"
            r" round=1, src=0, dst=1, participant=None, measured=2, allowed=1\)$")):
        simulate_cc_on_semimpc(DoubleWord(), gen_graph("path", 4))


def test_cc_sim_random_corpus():
    for seed in range(10):
        n = 16 + 8 * (seed % 3)
        g = random_graph(n, seed)
        rep = simulate_cc_on_semimpc(BoruvkaConnectivity(n), g, seed=seed)
        assert rep.all_ok, rep.bound_checks


# -- semi-MPC on clique ----------------------------------------------------------

class BulkShipper(NodeProgram):
    """One round: machine 0 sends n words to machine 1."""

    def __init__(self, n):
        self.n = n

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        outbox = []
        if state == 0:
            outbox.append(Message(src=0, dst=1,
                                  payload=tuple(range(self.n))))
        return state, outbox, True

    def output(self, state):
        return []


class SilentMachine(NodeProgram):
    """Halts in its first round without any messages."""

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        return state, [], True

    def output(self, state):
        return [state]


def _semi_params(n, p, m, **kw):
    return ModelParams.semi_mpc(n, p, ell=2 * m, **kw)


def test_mpc_sim_bulk_transfer_two_routed_rounds():
    n = 8
    params = ModelParams.semi_mpc(n, 2, ell=0)
    rep = simulate_semimpc_on_cc(BulkShipper(n), [[], []], params)
    assert rep.all_ok
    # one episode of two phases, plus the trailing absorb round
    assert rep.extra["episode_rounds"] == [[1, 2]]
    assert rep.simulated.rounds_used == 3
    assert rep.simulated.rounds_used <= 4 * rep.native.rounds_used


def test_mpc_sim_round_above_4n_words_plans_a_longer_episode():
    # at c_space = 8 a clean machine may send 5n words in one round; its
    # episode takes 2 * ceil(5n / n) = 10 rounds, and rounds_ok judges that
    n = 8
    params = ModelParams.semi_mpc(n, 2, ell=0, c_space=8, word_width_bits=8)
    rep = simulate_semimpc_on_cc(BulkShipper(5 * n), [[], []], params)
    assert rep.native.clean and rep.simulated.clean
    assert rep.extra["episode_rounds"] == [[1, 10]]
    assert rep.simulated.rounds_used == 11
    assert rep.bound_checks == {"rounds_ok": False, "machines_ok": True,
                                "traffic_ok": True, "space_ok": True,
                                "outputs_ok": True}


class RingShipper(NodeProgram):
    """Each machine sends k words (values below 8) to machine pid + 1 mod p
    in each of rounds 1-3 and halts in round 3."""

    def __init__(self, p, k):
        self.p = p
        self.k = k

    def init(self, pid, local_input):
        return (pid, 1)

    def on_round(self, state, inbox):
        pid, r = state
        words = tuple((pid + r + j) % 8 for j in range(self.k))
        return (pid, r + 1), [Message(pid, (pid + 1) % self.p, words)], r == 3

    def output(self, state):
        return []


@pytest.mark.parametrize("k, episode, rounds, word_bits", [
    (30, 4, 13, 4 + 5 + 6 + 1),
    (60, 8, 25, 4 + 6 + 6 + 1),
])
def test_mpc_sim_rounds_above_2n_words_exceed_the_budget_at_default_c_space(
        k, episode, rounds, word_bits):
    # at the default c_space = 4 a clean machine may send 4n words per
    # round; k > n words take 2 * ceil(k / n) clique rounds per native round,
    # above the (2 + 2) * T = 12 that rounds_ok allows
    n = 16
    params = ModelParams.semi_mpc(n, n, ell=0)
    assert params.c_space == 4
    rep = simulate_semimpc_on_cc(RingShipper(n, k), [[]] * n, params)
    assert rep.native.clean and rep.native.rounds_used == 3
    assert rep.extra["episode_rounds"] == [[1, episode], [2, episode], [3, episode]]
    assert rep.simulated.rounds_used == rounds
    assert rep.measured_constants["allowed_rounds"] == 12
    # a relayed word: counterpart id_width(n), seq id_width(k), the native
    # word width and the message-start flag
    assert rep.simulated.params.word_width_bits == word_bits
    assert rep.bound_checks == {"rounds_ok": False, "machines_ok": True,
                                "traffic_ok": True, "space_ok": True,
                                "outputs_ok": True}


def test_mpc_sim_message_free_program_uses_one_round():
    # no episode to route: the clique run is the relays' one absorb round
    params = ModelParams.semi_mpc(8, 4, ell=0)
    rep = simulate_semimpc_on_cc(SilentMachine(), [[]] * 4, params)
    assert rep.native.rounds_used == 1
    assert rep.simulated.rounds_used == 1
    assert rep.extra["episode_rounds"] == []
    assert rep.all_ok and all(rep.bound_checks.values())
    assert rep.simulated.outputs[:4] == [[0], [1], [2], [3]]


def test_mpc_sim_forest_merge_matches_native_and_oracle():
    g = gen_graph("gnp", 32, prob=0.2, seed=1)
    p = 4
    params = _semi_params(32, p, g.m)
    inputs = distribute_edges(g, p, seed=3)
    rep = simulate_semimpc_on_cc(
        ForestMergeConnectivity(32, p), inputs, params)
    assert rep.all_ok
    assert rep.simulated.rounds_used <= (2 + 2) * rep.native.rounds_used
    assert rep.simulated.outputs[0] == components_oracle(g)
    assert rep.simulated.outputs[:p] == rep.native.outputs


def test_mpc_sim_every_pair_carries_at_most_one_word():
    g = gen_graph("gnp", 24, prob=0.25, seed=8)
    p = 3
    params = _semi_params(24, p, g.m)
    inputs = distribute_edges(g, p, seed=1)
    rep = simulate_semimpc_on_cc(
        ForestMergeConnectivity(24, p), inputs, params)
    assert rep.all_ok
    for rec in rep.simulated.trace.rounds:
        seen = set()
        for s, d, w in rec.transfers:
            assert w == 1
            assert (s, d) not in seen
            seen.add((s, d))


def _drop_a_first_word(words):
    # a seq-0 word: its source's later words then arrive without it
    firsts = [k for k, (_src, seq, *_rest) in enumerate(words) if seq == 0]
    return words[:firsts[0]] + words[firsts[0] + 1:] if firsts else None


@pytest.mark.parametrize("tamper", [_drop_a_first_word, lambda words: words + words[:1]],
                         ids=["lost-word", "doubled-word"])
def test_mpc_sim_refuses_a_lost_or_doubled_relayed_word(monkeypatch, tamper):
    # one phase-B delivery loses or repeats a word: the hosted machine's
    # inbox cannot be reassembled (every ForestMerge message has 2+ words)
    deliver = adapters._SemiMpcOnClique._deliver
    tampered = []

    def deliver_once_tampered(self, host, words, episode):
        changed = None if tampered else tamper(words)
        if changed is not None:
            tampered.append(words)
            words = changed
        return deliver(self, host, words, episode)

    monkeypatch.setattr(adapters._SemiMpcOnClique, "_deliver", deliver_once_tampered)
    g = gen_graph("gnp", 16, prob=0.3, seed=2)
    with pytest.raises(RuntimeError, match="^routing lost or duplicated a word$"):
        simulate_semimpc_on_cc(ForestMergeConnectivity(16, 4), distribute_edges(g, 4, 0),
                               _semi_params(16, 4, g.m))
    assert tampered


def test_mpc_sim_requires_semi_mpc_params():
    params = ModelParams.clique(2)
    with pytest.raises(SimulationRefused):
        simulate_semimpc_on_cc(SilentMachine(), [[], []], params)


def test_mpc_sim_refuses_more_machines_than_clique_nodes():
    with pytest.raises(SimulationRefused,
                       match="^need p <= n to map machines onto clique nodes$"):
        simulate_semimpc_on_cc(SilentMachine(), [[]] * 5,
                               ModelParams.semi_mpc(4, 5, ell=0))


@pytest.mark.parametrize("host", [
    (None, 1, 2, ((1, 0, 5, 1),), 0, ()),  # relayed words due in round 2
    (None, 1, 0, (), 3, ((5,),)),          # self-messages due in round 3
], ids=["arrivals", "self-messages"])
def test_mpc_sim_host_refuses_words_held_for_a_later_round(host):
    # a hosted machine's held words always feed its next native round; words
    # due in any other round used to sit in the host state for good
    wrapper = adapters._SemiMpcOnClique(SilentMachine(), ModelParams.semi_mpc(2, 2, ell=0),
                                        [], [{}], [[], []])
    with pytest.raises(RuntimeError,
                       match="^machine 0 holds words for a round other than 1$"):
        wrapper._advance(0, host, 1, None)


def test_mpc_sim_random_corpus():
    for seed in range(8):
        n = 16 + 8 * (seed % 2)
        g = random_connected_graph(n, seed % 5, seed)
        p = 2 + seed % 4
        params = _semi_params(n, p, g.m)
        inputs = distribute_edges(g, p, seed=seed)
        rep = simulate_semimpc_on_cc(
            ForestMergeConnectivity(n, p), inputs, params)
        assert rep.all_ok, rep.bound_checks
        assert rep.simulated.outputs[0] == components_oracle(g)



class Scatter(NodeProgram):
    """For three rounds every machine sends multi-word messages to up to
    three other machines in descending id order (two messages to the first),
    plus a self-message; it folds everything it hears, in inbox order, into
    a word count and a hash."""

    def __init__(self, p, rounds=3):
        self.p = p
        self.rounds = rounds

    def init(self, pid, local_input):
        return (pid, 1, 0, 0)

    def on_round(self, state, inbox):
        pid, r, count, h = state
        for m in inbox:
            for w in (m.src, len(m.payload), *m.payload):
                count += 1
                h = (h * 1000003 + w + 1) % 1000000007
        outbox = []
        if r <= self.rounds:
            dsts = sorted({(pid + k) % self.p for k in range(1, self.p)},
                          reverse=True)
            for j, dst in enumerate(dsts[:3]):
                size = 1 + (pid + r + j) % 3
                outbox.append(Message(src=pid, dst=dst, payload=tuple(
                    (5 * pid + r + j + i) % 32 for i in range(size))))
                if j == 0:
                    outbox.append(Message(src=pid, dst=dst, payload=(r + 7,)))
            outbox.append(Message(src=pid, dst=pid, payload=(r, pid)))
        return (pid, r + 1, count, h), outbox, r > self.rounds

    def output(self, state):
        return [state[2], state[3]]


@pytest.mark.parametrize("p,n", [(4, 8), (5, 6), (3, 12)])
def test_mpc_sim_multi_destination_messages_reassembled(p, n):
    params = ModelParams.semi_mpc(n, p, ell=0)
    rep = simulate_semimpc_on_cc(Scatter(p), [[]] * p, params)
    assert rep.all_ok, rep.bound_checks
    assert rep.native.rounds_used == 4
    assert [r for r, _rounds in rep.extra["episode_rounds"]] == [1, 2, 3]
    assert rep.simulated.outputs[:p] == rep.native.outputs
    assert all(count > 0 for count, _h in rep.native.outputs)
    for rec in rep.simulated.trace.rounds:
        pairs = [(s, d) for s, d, w in rec.transfers for _ in range(w)]
        assert len(pairs) == len(set(pairs))


class Diverging(NodeProgram):
    """Machine 0 sends (5, 6) to machine 1 in rounds 1 and 3; the run halts
    in round 4.  From its second execution on (the live run of the clique
    simulation) it changes what it sends, as `change` says."""

    def __init__(self, change):
        self.change = change
        self.executions = 0

    def init(self, pid, local_input):
        if pid == 0:
            self.executions += 1
        return (pid, 1)

    def on_round(self, state, inbox):
        pid, r = state
        live = self.executions > 1
        outbox = []
        if pid == 0 and r in (1, 3):
            dst, payload = 1, (5, 6)
            if live and self.change == "value":
                payload = (5, 7)
            elif live and self.change == "length":
                payload = (5,)
            elif live and self.change == "destination":
                dst = 2
            outbox.append(Message(0, dst, payload))
        if pid == 0 and live and (self.change, r) in (("quiet round", 2),
                                                     ("after last episode", 4)):
            outbox.append(Message(0, 1, (1,)))
        return (pid, r + 1), outbox, r == 4

    def output(self, state):
        return [state[1]]


def test_mpc_sim_replays_diverging_program_faithfully_when_unchanged():
    rep = simulate_semimpc_on_cc(Diverging(None), [[]] * 3,
                                 ModelParams.semi_mpc(8, 3, ell=0))
    assert rep.all_ok
    assert [r for r, _rounds in rep.extra["episode_rounds"]] == [1, 3]


@pytest.mark.parametrize("change", ["value", "length", "destination",
                                    "quiet round", "after last episode"])
def test_mpc_sim_live_run_must_resend_native_messages(change):
    with pytest.raises(RuntimeError, match="diverged from its native run"):
        simulate_semimpc_on_cc(Diverging(change), [[]] * 3,
                               ModelParams.semi_mpc(8, 3, ell=0))


class GeneratorOutbox(NodeProgram):
    """Machine 0 sends machine 1 the word 5 through a generator outbox."""

    def init(self, pid, local_input):
        return (pid, 1, 0)

    def on_round(self, state, inbox):
        pid, r, heard = state
        heard += sum(m.payload[0] for m in inbox)
        outbox = (Message(0, 1, (5,)) for _ in range(pid == 0 and r == 1))
        return (pid, r + 1, heard), outbox, r == 2

    def output(self, state):
        return [state[2]]


def test_mpc_sim_generator_outbox_reaches_native_run():
    params = ModelParams.semi_mpc(8, 2, ell=0)
    expected = run_mpc(GeneratorOutbox(), [[], []], params).outputs
    assert expected == [[0], [5]]
    rep = simulate_semimpc_on_cc(GeneratorOutbox(), [[], []], params)
    assert rep.native.outputs == expected
    assert rep.all_ok


class PlainTupleOutbox(NodeProgram):
    """Emits a plain (src, dst, payload) tuple instead of a Message."""

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        return state, [(state, (state + 1) % 2, (5,))], True

    def output(self, state):
        return []


def test_mpc_sim_plain_tuple_outbox_entry_is_a_contract_error():
    with pytest.raises(EngineContractError, match="not a Message"):
        simulate_semimpc_on_cc(PlainTupleOutbox(), [[], []],
                               ModelParams.semi_mpc(8, 2, ell=0))


# -- CONGEST on semi-MPC ---------------------------------------------------------

class TwoRoundGossip(NodeProgram):
    """Exchange ids with neighbors for a fixed number of rounds; output the
    sorted set of ids heard.  Low round count, so machines host many nodes."""

    def __init__(self, rounds=2):
        self.rounds = rounds

    def init(self, pid, local_input):
        nbrs = tuple(sorted(u if u != pid else v for u, v in local_input))
        return (pid, 1, nbrs, ())

    def on_round(self, state, inbox):
        pid, r, nbrs, seen = state
        seen = tuple(sorted(set(seen) | {m.payload[0] for m in inbox}))
        outbox = []
        if r <= self.rounds:
            outbox = [Message(src=pid, dst=u, payload=(pid,)) for u in nbrs]
        return (pid, r + 1, nbrs, seen), outbox, r > self.rounds

    def output(self, state):
        return list(state[3])


class CongestHog(NodeProgram):
    """Memory far beyond anything it receives; must be refused."""

    def __init__(self, n):
        self.n = n

    def init(self, pid, local_input):
        return tuple(0 for _ in range(16 * self.n))

    def on_round(self, state, inbox):
        return state, [], True

    def output(self, state):
        return []


def test_congest_sim_flood_path16():
    g = gen_graph("path", 16)
    rep = simulate_congest_on_semimpc(FloodMinLabel(16), g)
    assert rep.all_ok
    t = rep.native.rounds_used
    assert rep.simulated.rounds_used <= t + 3
    assert rep.measured_constants["machines"] <= 16
    assert rep.bound_checks["outputs_ok"]


def test_congest_sim_flood_cycle32_traffic():
    g = gen_graph("cycle", 32)
    rep = simulate_congest_on_semimpc(FloodMinLabel(32), g)
    assert rep.all_ok
    # every machine stays within the budget the engine enforces
    assert rep.measured_constants["max_traffic_words"] <= 4 * 32


def test_congest_sim_edgeless_degenerate():
    g = Graph(n=5, edges=())
    rep = simulate_congest_on_semimpc(FloodMinLabel(5), g)
    assert rep.all_ok
    assert rep.measured_constants["machines"] == 1
    assert rep.simulated.rounds_used <= rep.native.rounds_used + 3
    assert not rep.extra["high_degree_flag"]


@pytest.mark.parametrize("n", [1, 5, 12])
def test_congest_sim_edgeless_space_is_node_states_only(n):
    # the single machine holds the n flood states (3 words each) and nothing
    # else: no round counter, and no internal messages on an edgeless graph
    rep = simulate_congest_on_semimpc(FloodMinLabel(n),
                                      Graph(n=n, edges=()))
    assert rep.all_ok
    assert rep.measured_constants["max_space_words"] == 3 * n


class SelfCount(NodeProgram):
    """Mails itself the round number until round 4 and outputs the sum it
    received (6): every message is a self-message, which costs no edge."""

    def init(self, pid, local_input):
        return (pid, 1, 0)

    def on_round(self, state, inbox):
        pid, r, acc = state
        acc += sum(m.payload[0] for m in inbox)
        halt = r >= 4
        outbox = [] if halt else [Message(src=pid, dst=pid, payload=(r,))]
        return (pid, r + 1, acc), outbox, halt

    def output(self, state):
        return [state[2]]


@pytest.mark.parametrize("kind, n", [("path", 6), ("star", 8)])
def test_congest_sim_replays_self_messages(kind, n):
    rep = simulate_congest_on_semimpc(SelfCount(), gen_graph(kind, n))
    assert rep.all_ok
    assert rep.native.outputs == [[6]] * n


@pytest.mark.parametrize("n", [6, 12])
def test_edgeless_self_messages_overrun_by_their_stated_volume(n):
    # the edgeless branch's one machine holds, after round 1, every vertex's
    # 3-word state and one 3-word internal message per vertex: 6n words
    # against s = 4n, so the run stops in round 1
    g = Graph(n=n, edges=())
    rep = simulate_congest_on_semimpc(SelfCount(), g)
    [violation] = rep.simulated.violations
    assert (violation.rule, violation.round, violation.participant,
            violation.measured, violation.allowed) == ("space-budget", 1, 0, 6 * n, 4 * n)
    # at c_space = 6 the same volume fits, and the branch delivers the
    # internal messages of every round
    rep = simulate_congest_on_semimpc(SelfCount(), g, c_space=6)
    assert rep.all_ok
    assert rep.measured_constants["max_space_words"] == 6 * n


def test_congest_sim_gossip_packs_vertices_per_machine():
    g = gen_graph("gnp", 24, prob=0.12, seed=9)
    rep = simulate_congest_on_semimpc(TwoRoundGossip(), g)
    assert rep.all_ok
    assert rep.measured_constants["machines"] < 24


def test_congest_sim_high_degree_flag_exact():
    # star: hub degree n-1 > n / T
    g = gen_graph("star", 12)
    rep = simulate_congest_on_semimpc(FloodMinLabel(12), g)
    assert rep.extra["high_degree_flag"] == (11 * rep.native.rounds_used > 12)
    assert rep.extra["high_degree_flag"]

    # gossip with tiny T on a bounded-degree graph: no flag
    g = gen_graph("cycle", 24)
    rep = simulate_congest_on_semimpc(TwoRoundGossip(), g)
    assert not rep.extra["high_degree_flag"]  # 2 * 3 <= 24


def test_congest_sim_refuses_memory_hog():
    g = gen_graph("path", 8)
    with pytest.raises(SimulationRefused, match="memory"):
        simulate_congest_on_semimpc(CongestHog(8), g)


def test_congest_sim_memory_refusal_names_the_node_and_its_ratio():
    # 128 words against 4 * (0 received + degree 1) + 8 = 12 at either end
    # of the path: both ends share the largest ratio, and node 0 is named
    with pytest.raises(SimulationRefused, match=(
            r"^node 0 uses memory 10\.67x beyond linear in its received words;"
            r" simulation refused$")):
        simulate_congest_on_semimpc(CongestHog(8), gen_graph("path", 8))


class TwoEqualHogs(NodeProgram):
    """On a path, node 1 holds 20 words (1.25x its allowance of 16) and
    nodes 3 and 5 hold 64 (4x); every other node holds one."""

    def init(self, pid, local_input):
        return (0,) * {1: 20, 3: 64, 5: 64}.get(pid, 1)

    def on_round(self, state, inbox):
        return state, [], True

    def output(self, state):
        return []


def test_congest_sim_memory_refusal_names_the_first_node_of_largest_ratio():
    with pytest.raises(SimulationRefused, match=(
            r"^node 3 uses memory 4\.00x beyond linear in its received words;"
            r" simulation refused$")):
        simulate_congest_on_semimpc(TwoEqualHogs(), gen_graph("path", 8))


def test_congest_sim_refuses_small_round_budget():
    g = gen_graph("path", 8)
    with pytest.raises(SimulationRefused, match="budget"):
        simulate_congest_on_semimpc(FloodMinLabel(8), g,
                                    round_budget=2)


def test_congest_sim_outputs_identical_per_node():
    for seed in range(6):
        n = 20 + 4 * (seed % 3)
        g = random_connected_graph(n, n // 5, seed)
        rep = simulate_congest_on_semimpc(TwoRoundGossip(), g)
        assert rep.all_ok, rep.bound_checks
        native = run_congest(TwoRoundGossip(), g)
        assert rep.native.outputs == native.outputs


@pytest.mark.parametrize("c_machines, machines", [(2, 8), (3, 12)])
def test_congest_sim_machines_ok_honours_c_machines(c_machines, machines):
    # T = 4 rounds on n = 128: ceil(c * 4 * 127 / 128) = 4c machines, far
    # below the cap n, so the O(Tm/n) machine bound is what is checked
    g = gen_graph("path", 128)
    rep = simulate_congest_on_semimpc(FixedRoundFlood(4), g,
                                      c_machines=c_machines)
    assert rep.native.rounds_used == 4
    assert rep.simulated.params.p == rep.measured_constants["machines"] == machines
    assert rep.simulated.clean
    assert rep.bound_checks["machines_ok"]
    assert rep.all_ok, rep.bound_checks


def test_congest_sim_assignment_in_report():
    g = gen_graph("path", 16)
    rep = simulate_congest_on_semimpc(FloodMinLabel(16), g)
    machine_of = rep.extra["assignment"]
    assert len(machine_of) == 16
    assert max(machine_of) < rep.measured_constants["machines"]


# -- the CONGEST replay against its reference -------------------------------------

class ReferenceFloodMinLabel(FloodMinLabel):
    """FloodMinLabel.on_round as it was before it shared one payload per
    round: messages built by keyword, the inbox read through properties."""

    def on_round(self, state, inbox):
        pid, round_no, best, neighbors = state
        new_best = best
        for msg in inbox:
            if msg.payload[0] < new_best:
                new_best = msg.payload[0]
        halt = round_no >= self.cap and new_best == best
        outbox = []
        if not halt:
            outbox = [Message(src=pid, dst=u, payload=(new_best,))
                      for u in neighbors]
        return (pid, round_no + 1, new_best, neighbors), outbox, halt


class ReferenceCongestOnSemiMpc(_CongestOnSemiMpc):
    """The CONGEST adapter as it was before its messages came from one keyed
    send and its replay loop was made lean.  Setup rounds 1-4 group their
    words by machine by hand; on_round dispatches in the old order (setup
    rounds first), and _replay is the old loop: a sorted copy of every
    vertex's arrivals, inner messages read through properties, words packed
    through _pack, and a cache of each machine's decoded location map on
    the program object."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # pid -> (packed location tuple, its decoded {vertex: host} map)
        self._located: dict[int, tuple[tuple[int, ...], dict[int, int]]] = {}

    def _pack(self, tag, a, b, c=0):
        return self.codec.pack((tag, a, b, c))

    def on_round(self, state, inbox):
        if len(state) == 2:  # the edgeless state init returns
            return self._on_round_edgeless(state, inbox)
        (pid, round_no, stored, mine, location, node_states, internal) = state

        if round_no == 1:
            # the sorter keeps its own counts local instead of self-mailing
            outbox = []
            if pid != 0 and stored:
                partial: dict[int, int] = {}
                for u, v in stored:
                    partial[u] = partial.get(u, 0) + 1
                    partial[v] = partial.get(v, 0) + 1
                payload = tuple(self._pack(_TAG_DEGREE, v, d)
                                for v, d in sorted(partial.items()))
                outbox.append(Message(src=pid, dst=0, payload=payload))
            return (pid, 2, stored, mine, location, node_states, ()), outbox, False

        if round_no == 2:
            # sorter round: sum partial degrees, fix the assignment, answer
            # each reporting holder with the machine of every endpoint it
            # mentioned (the vertex slices follow next round, which keeps the
            # sorter's per-round send volume within budget)
            outbox = []
            slices = ()
            if pid == 0:
                degrees = [0] * self.n
                reported: dict[int, list[int]] = {}
                for u, v in stored:
                    degrees[u] += 1
                    degrees[v] += 1
                for msg in inbox:
                    for word in msg.payload:
                        tag, v, d, _x = self.codec.unpack(word)
                        if tag != _TAG_DEGREE:
                            raise RuntimeError("unexpected word during setup")
                        degrees[v] += d
                        reported.setdefault(msg.src, []).append(v)
                assignment = compute_node_assignment(degrees, self.machines)
                for holder in sorted(reported):
                    maps = tuple(self._pack(_TAG_MAP, v, assignment.machine_of[v])
                                 for v in sorted(set(reported[holder])))
                    if maps:
                        outbox.append(Message(src=0, dst=holder, payload=maps))
                # remember the endpoint machines of the locally stored edges,
                # one packed word per endpoint
                location = tuple(sorted(
                    self._pack(_TAG_MAP, w, assignment.machine_of[w])
                    for w in {x for e in stored for x in e}))
                slices = assignment.machine_vertices
            return (pid, 3, stored, slices, location, node_states, ()), outbox, False

        if round_no == 3:
            # holders ship each edge to the machines simulating its endpoints;
            # the sorter ships every machine its vertex slice in parallel
            endpoint_machine: dict[int, int] = {}
            for word in location:  # the sorter's own stash of packed maps
                _tag, a, b, _x = self.codec.unpack(word)
                endpoint_machine[a] = b
            for msg in inbox:
                for word in msg.payload:
                    tag, a, b, _x = self.codec.unpack(word)
                    if tag != _TAG_MAP:
                        raise RuntimeError("unexpected word during setup")
                    endpoint_machine[a] = b
            outbox = []
            if pid == 0:
                for a, vertices in enumerate(mine):  # mine holds the slices
                    words = tuple(self._pack(_TAG_VERTEX, v, 0)
                                  for v in vertices)
                    if words:
                        outbox.append(Message(src=0, dst=a, payload=words))
            by_machine: dict[int, list[int]] = {}
            for u, v in stored:
                by_machine.setdefault(endpoint_machine[u], []).append(
                    self._pack(_TAG_EDGE, u, v, endpoint_machine[v]))
                by_machine.setdefault(endpoint_machine[v], []).append(
                    self._pack(_TAG_EDGE, v, u, endpoint_machine[u]))
            for target in sorted(by_machine):
                outbox.append(Message(src=pid, dst=target,
                                      payload=tuple(sorted(by_machine[target]))))
            return (pid, 4, (), (), (), node_states, ()), outbox, False

        if round_no == 4:
            my_vertices = []
            arrivals = []
            for msg in inbox:
                for word in msg.payload:
                    tag, a, b, extra = self.codec.unpack(word)
                    if tag == _TAG_VERTEX:
                        my_vertices.append(a)
                    elif tag == _TAG_EDGE:
                        arrivals.append((a, b, extra))
                    else:
                        raise RuntimeError("unexpected word during setup")
            mine = tuple(sorted(my_vertices))
            neighbor_lists: dict[int, list[int]] = {v: [] for v in mine}
            remote: dict[int, int] = {}
            for u, v, host in arrivals:
                neighbor_lists[u].append(v)
                if host != pid:
                    remote[v] = host
            # one packed word per remote neighbor's (vertex, machine) pair
            location = tuple(sorted(self._pack(_TAG_MAP, v, host)
                                    for v, host in remote.items()))
            node_states = tuple(
                (v, self.inner.init(
                    v, tuple(sorted((min(v, u), max(v, u))
                                    for u in neighbor_lists[v]))))
                for v in mine)
            return self._replay(pid, 5, mine, location, node_states, (), [])

        return self._replay(pid, round_no + 1, mine, location, node_states,
                            internal, inbox)

    def _replay(self, pid, next_round_no, mine, location, node_states,
                internal, inbox):
        per_vertex: dict[int, list[tuple[int, int]]] = {v: [] for v in mine}
        for src_v, dst_v, value in internal:
            per_vertex[dst_v].append((src_v, value))
        for msg in inbox:
            for word in msg.payload:
                tag, src_v, dst_v, value = self.codec.unpack(word)
                if tag != _TAG_EDGE:
                    raise RuntimeError("unexpected word during replay")
                per_vertex[dst_v].append((src_v, value))

        cached = self._located.get(pid)
        if cached is not None and cached[0] is location:
            remote = cached[1]
        else:
            remote = {}
            for word in location:
                _tag, v, host, _x = self.codec.unpack(word)
                remote[v] = host
            self._located[pid] = (location, remote)

        new_states = []
        new_internal = []
        by_machine: dict[int, list[int]] = {}
        halt = False
        for v, nstate in node_states:
            node_inbox = [Message(u, v, (value,))
                          for u, value in sorted(per_vertex[v])]
            nstate, outbox, node_halt = self.inner.on_round(nstate, node_inbox)
            new_states.append((v, nstate))
            halt = halt or node_halt
            for m in outbox:
                value = m.payload[0]
                host = remote.get(m.dst, pid)
                if host == pid:
                    new_internal.append((v, m.dst, value))
                else:
                    by_machine.setdefault(host, []).append(
                        self._pack(_TAG_EDGE, v, m.dst, value))
        machine_outbox = [
            Message(src=pid, dst=target, payload=tuple(sorted(words)))
            for target, words in sorted(by_machine.items())
        ]
        state = (pid, next_round_no, (), mine, location, tuple(new_states),
                 tuple(new_internal))
        return state, machine_outbox, halt


class ArrivalOrderGossip(TwoRoundGossip):
    """TwoRoundGossip that outputs the ids in the order its inboxes held
    them, so a replay that feeds a vertex its messages in another order
    than the native run (ascending sender) gives other outputs."""

    def on_round(self, state, inbox):
        pid, r, nbrs, heard = state
        heard += tuple(m.payload[0] for m in inbox)
        outbox = []
        if r <= self.rounds:
            outbox = [Message(src=pid, dst=u, payload=(pid,)) for u in nbrs]
        return (pid, r + 1, nbrs, heard), outbox, r > self.rounds


def _simulated(prog, g, seed, c_machines):
    """The whole report of a CONGEST -> semi-MPC simulation, or the refusal."""
    try:
        return simulate_congest_on_semimpc(prog, g, seed=seed,
                                           c_machines=c_machines).to_json_dict()
    except SimulationRefused as exc:
        return ("refused", str(exc))


PROGRAMS = {
    # flood runs T = n rounds, so the machine formula caps at n and every
    # machine hosts one vertex; the short-horizon programs pack several
    # vertices per machine, so the internal-message path runs too
    "flood": (FloodMinLabel, ReferenceFloodMinLabel),
    "gossip-1": (lambda n: TwoRoundGossip(1), lambda n: TwoRoundGossip(1)),
    "gossip-3": (lambda n: TwoRoundGossip(3), lambda n: TwoRoundGossip(3)),
    "arrival-order-2": (lambda n: ArrivalOrderGossip(2),
                        lambda n: ArrivalOrderGossip(2)),
    "fixed-flood-4": (lambda n: FixedRoundFlood(4), lambda n: FixedRoundFlood(4)),
}


def _lean_matches_reference(name, g, seed, c_machines):
    lean, reference = PROGRAMS[name]
    got = _simulated(lean(g.n), g, seed, c_machines)
    with mock.patch.object(adapters, "_CongestOnSemiMpc", ReferenceCongestOnSemiMpc):
        want = _simulated(reference(g.n), g, seed, c_machines)
    assert got == want


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(PROGRAMS)), n=st.integers(1, 24),
       graph_seed=st.integers(0, 2**32), seed=st.integers(0, 2**32),
       connected=st.booleans(), c_machines=st.integers(1, 2))
def test_congest_replay_matches_the_reference(name, n, graph_seed, seed,
                                              connected, c_machines):
    g = (random_connected_graph(n, n // 5, graph_seed) if connected
         else random_graph(n, graph_seed))
    _lean_matches_reference(name, g, seed, c_machines)


@pytest.mark.parametrize("name", ["gossip-3", "arrival-order-2", "fixed-flood-4"])
def test_congest_replay_matches_the_reference_with_internal_messages(name):
    # several vertices per machine, and edges inside a machine: the replay
    # hands those messages over internally, at no cost
    g = random_connected_graph(24, 4, 5)
    rep = simulate_congest_on_semimpc(PROGRAMS[name][0](g.n), g, c_machines=1)
    machine_of = rep.extra["assignment"]
    assert rep.all_ok and rep.measured_constants["machines"] <= 6
    assert any(machine_of[u] == machine_of[v] for u, v in g.edges)
    _lean_matches_reference(name, g, 0, 1)


def _traced_counts(monkeypatch, prog, g):
    """The report of a CONGEST -> semi-MPC simulation with c_machines = 1,
    and its (Message.__post_init__ calls, outermost engines.words_in calls):
    the counts a tracer reads at those two boundaries."""
    import distsim.engines as engines

    counts = {"messages": 0, "metered": 0}
    post_init = Message.__dict__["__post_init__"]
    words_in = engines.words_in
    depth = []

    def counting_post_init(message):
        counts["messages"] += 1
        return post_init(message)

    def counting_words_in(obj):
        counts["metered"] += not depth
        depth.append(obj)
        try:
            return words_in(obj)
        finally:
            depth.pop()

    with monkeypatch.context() as patch:
        patch.setattr(Message, "__post_init__", counting_post_init)
        patch.setattr(engines, "words_in", counting_words_in)
        rep = simulate_congest_on_semimpc(prog, g, c_machines=1)
    return rep.to_json_dict(), (counts["messages"], counts["metered"])


@pytest.mark.parametrize("program", [FloodMinLabel, lambda n: FixedRoundFlood(3)],
                         ids=["flood", "fixed-flood-3"])
@pytest.mark.parametrize("n, seed", [(16, 0), (32, 1), (48, 2), (64, 3)])
def test_congest_replay_counts_what_the_reference_counts(monkeypatch, program, n, seed):
    # a tracer counts messages at Message.__post_init__ and metering at
    # engines.words_in; the lean replay must make exactly the calls the
    # reference makes, on one vertex per machine (flood, T = n) and on
    # several (a 3-round flood)
    g = random_connected_graph(n, n // 5, seed)
    got = _traced_counts(monkeypatch, program(n), g)
    with mock.patch.object(adapters, "_CongestOnSemiMpc", ReferenceCongestOnSemiMpc):
        want = _traced_counts(monkeypatch, program(n), g)
    assert got == want
    report, (messages, metered) = got
    machines = report["measured_constants"]["machines"]
    assert report["bound_checks"]["outputs_ok"] and messages and metered
    assert machines == n if program is FloodMinLabel else machines < n // 3


@pytest.mark.parametrize("wrapper_class", [_CongestOnSemiMpc, ReferenceCongestOnSemiMpc])
def test_congest_replay_refuses_words_it_cannot_replay(wrapper_class):
    # machine 0 hosts vertex 0 of the path 0 - 1 - 2; vertex 1 lives elsewhere
    flood = FloodMinLabel(3)
    wrapper = wrapper_class(flood, 3, 2, 2)
    node_states = ((0, flood.init(0, ((0, 1),))),)

    def replay(internal, words):
        state = (0, 5, (), (0,), (), node_states, internal)
        inbox = [Message(1, 0, tuple(words))] if words else []
        return wrapper.on_round(state, inbox)

    state, outbox, _halt = replay((), [wrapper.codec.pack((_TAG_EDGE, 1, 0, 0))])
    assert state[5][0][1][2] == 0 and outbox == []
    # a word or an internal message for a vertex this machine does not host
    with pytest.raises(KeyError):
        replay((), [wrapper.codec.pack((_TAG_EDGE, 0, 1, 0))])
    with pytest.raises(KeyError):
        replay(((0, 2, 0),), [])
    # a word that is not an edge delivery
    with pytest.raises(RuntimeError, match="unexpected word during replay"):
        replay((), [wrapper.codec.pack((_TAG_MAP, 1, 0, 0))])


# -- the clique redistribution against its reference ------------------------------

class ReferenceCliqueOnSemiMpc(_CliqueOnSemiMpc):
    """The clique adapter with round 1 as it was before its messages came
    from one keyed send: the words grouped by machine by hand."""

    def on_round(self, state, inbox):
        pid, native_round, stored, node_state = state
        if native_round == 0:
            notify: dict[int, list[int]] = {}
            for u, v in stored:
                notify.setdefault(u, []).append(v)
                notify.setdefault(v, []).append(u)
            outbox = [Message(src=pid, dst=w, payload=tuple(sorted(others)))
                      for w, others in sorted(notify.items())]
            return (pid, 1, (), None), outbox, False
        return super().on_round(state, inbox)


def _cc_simulated(g, seed, placement):
    """The whole report of a clique -> semi-MPC simulation, or the refusal."""
    try:
        return simulate_cc_on_semimpc(BoruvkaConnectivity(g.n), g, seed=seed,
                                      initial_edges=placement).to_json_dict()
    except SimulationRefused as exc:
        return ("refused", str(exc))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), graph_seed=st.integers(0, 2**32),
       seed=st.integers(0, 2**32), placed=st.booleans(), data=st.data())
def test_clique_redistribution_matches_the_reference(n, graph_seed, seed,
                                                     placed, data):
    g = random_graph(n, graph_seed)
    placement = None
    if placed:
        # any machine may hold any edge, all of them on one machine included
        holders = data.draw(st.lists(st.integers(0, n - 1), min_size=g.m,
                                     max_size=g.m))
        placement = [[] for _ in range(n)]
        for edge, holder in zip(g.edges, holders):
            placement[holder].append(edge)
    got = _cc_simulated(g, seed, placement)
    with mock.patch.object(adapters, "_CliqueOnSemiMpc", ReferenceCliqueOnSemiMpc):
        want = _cc_simulated(g, seed, placement)
    assert got == want


# -- the keyed sends' stated bounds against the ledger -----------------------------

def test_keyed_send_orders_machines_and_words():
    # machines go out in ascending order, which fixes the ledger's order;
    # each payload keeps its words in emission order (receivers sort what
    # they get), and the reference comparisons above cannot see payloads
    keyed = [(3, 9), (0, 5), (3, 1), (2, 7), (0, 4)]
    assert adapters._keyed_send(2, adapters._grouped(keyed)) == [
        Message(2, 0, (5, 4)), Message(2, 2, (7,)), Message(2, 3, (9, 1))]
    assert adapters._keyed_send(2, {}) == []


def _ledger_words(trace, round_no):
    """Per-machine (sent, received) words of one round of a ledger."""
    sent = [0] * trace.num_participants
    recv = [0] * trace.num_participants
    for src, dst, words in trace.rounds[round_no - 1].transfers:
        sent[src] += words
        recv[dst] += words
    return sent, recv


def _stored_edges(g, machines, seed):
    """Each machine's initial edges under the seeded placement."""
    return [list(zip(words[::2], words[1::2]))
            for words in distribute_edges(g, machines, seed)]


def _clique_stated(g, stored):
    """Round 1 as stated: machine i sends 2 words per stored edge and
    machine w receives deg(w), less the words a machine keys to itself,
    which the ledger does not list."""
    kept = [sum(e.count(i) for e in edges) for i, edges in enumerate(stored)]
    sent = [2 * len(edges) - kept[i] for i, edges in enumerate(stored)]
    recv = [g.degrees[w] - kept[w] for w in range(g.n)]
    return sent, recv


def _congest_stated(g, stored, machine_of):
    """Setup rounds 1-3 as stated, less the words a machine keys to itself:
    the census (holder h != 0 sends one word per endpoint it stores, machine
    0 receives their sum), the answers (the census reversed), and the
    slices (machine 0 sends n words, machine a receives its slice) next to
    the edges (holder h sends 2 words per stored edge, machine a receives
    its degree load)."""
    machines = len(stored)
    census = [0] + [len({x for e in edges for x in e}) for edges in stored[1:]]
    to_zero = [sum(census)] + [0] * (machines - 1)
    slice_size = [machine_of.count(a) for a in range(machines)]
    load = [0] * machines
    for v, a in enumerate(machine_of):
        load[a] += g.degrees[v]
    kept = [sum(machine_of[x] == h for e in edges for x in e)
            for h, edges in enumerate(stored)]
    slices_sent = [g.n - slice_size[0]] + [0] * (machines - 1)
    slices_recv = [0] + slice_size[1:]
    edges_sent = [2 * len(edges) - kept[h] for h, edges in enumerate(stored)]
    edges_recv = [load[a] - kept[a] for a in range(machines)]
    return [(census, to_zero), (to_zero, census),
            ([a + b for a, b in zip(slices_sent, edges_sent)],
             [a + b for a, b in zip(slices_recv, edges_recv)])]


@pytest.mark.parametrize("n, seed", [(16, 0), (16, 7), (32, 3), (32, 11),
                                     (64, 5), (64, 19)])
def test_congest_keyed_sends_move_what_they_state(n, seed):
    # a sample of acceptance 4's corpus, each graph also with two
    # short-horizon programs that put several vertices on a machine
    g = random_connected_graph(n, n // 5, seed)
    for prog in (FloodMinLabel(n), FixedRoundFlood(3), TwoRoundGossip()):
        rep = simulate_congest_on_semimpc(prog, g)
        assert rep.simulated.clean
        machine_of = rep.extra["assignment"]
        machines = rep.measured_constants["machines"]
        stored = _stored_edges(g, machines, 0)
        trace = rep.simulated.trace
        for round_no, stated in enumerate(_congest_stated(g, stored, machine_of), 1):
            assert _ledger_words(trace, round_no) == stated, round_no
        # replay: at most one word per edge between a machine and another,
        # each way; every vertex messages all its neighbours in native round
        # 1, so the first replay round meets the bound
        cross = [0] * machines
        for u, v in g.edges:
            if machine_of[u] != machine_of[v]:
                cross[machine_of[u]] += 1
                cross[machine_of[v]] += 1
        assert _ledger_words(trace, 4) == (cross, cross)
        for round_no in range(5, trace.num_rounds + 1):
            sent, recv = _ledger_words(trace, round_no)
            assert all(s <= c and r <= c for s, r, c in zip(sent, recv, cross))


@pytest.mark.parametrize("n, prob, seed", [(16, 0.15, 0), (16, 0.15, 7),
                                           (64, 0.06, 5)])
def test_clique_keyed_send_moves_what_it_states(n, prob, seed):
    # a sample of acceptance 1's corpus
    g = gen_graph("gnp", n, prob=prob, seed=seed)
    rep = simulate_cc_on_semimpc(BoruvkaConnectivity(n), g, seed=seed)
    assert rep.simulated.clean
    assert _ledger_words(rep.simulated.trace, 1) == _clique_stated(
        g, _stored_edges(g, n, seed))


def test_census_overruns_the_sorter_by_its_stated_volume():
    # the central census sends machine 0 one word per (holder, endpoint)
    # pair: 224 words against s = 160 here, so the run stops in round 1
    g = gen_graph("gnp", 40, prob=0.15, seed=4)
    rep = simulate_congest_on_semimpc(FloodMinLabel(40), g)
    stored = _stored_edges(g, rep.measured_constants["machines"], 0)
    census, to_zero = _congest_stated(g, stored, rep.extra["assignment"])[0]
    assert sum(census) == to_zero[0] == 224
    assert _ledger_words(rep.simulated.trace, 1) == (census, to_zero)
    [violation] = rep.simulated.violations
    assert (violation.rule, violation.round, violation.participant,
            violation.measured, violation.allowed) == ("recv-budget", 1, 0, 224, 160)


def test_congest_sim_overruns_machine_0_holding_every_edge():
    # a legal placement (2m = 120 words <= s = 192) that the adapter cannot
    # run: the sorter on machine 0 holds its stored edges, a location word
    # per stored endpoint and every machine's vertex slice at once.  The
    # adapter deals edges by a seeded shuffle, so the placement is run here
    # as simulate_congest_on_semimpc builds its machines and params.
    g = gen_graph("gnp", 48, prob=2 / 48, seed=0)
    assert g.m == 60
    flood = FloodMinLabel(48)
    native = run_congest(flood, g, ModelParams.congest(48))
    machines = adapters.congest_machine_count(adapters.C_MACHINES, native.rounds_used, g)
    assert machines == 48
    wrapper = _CongestOnSemiMpc(flood, 48, machines, native.params.word_width_bits)
    semi = ModelParams.semi_mpc(48, p=machines, ell=2 * g.m,
                                word_width_bits=wrapper.word_width,
                                round_cap=native.rounds_used + 10)
    inputs = [[w for edge in g.edges for w in edge]] + [[]] * (machines - 1)
    sim = run_mpc(wrapper, inputs, semi)
    [violation] = sim.violations
    assert (violation.rule, violation.round, violation.participant,
            violation.measured, violation.allowed) == ("space-budget", 2, 0, 216, 192)
    report = adapters.congest_on_semimpc_report(native, sim, native.rounds_used,
                                                adapters.C_MACHINES)
    assert not report.all_ok
    # the seeded shuffle runs the same graph clean
    assert simulate_congest_on_semimpc(flood, g).all_ok
