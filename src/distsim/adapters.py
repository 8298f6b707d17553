"""Cross-model simulation adapters.

Each adapter wraps a source-model node program into a target-model node
program, runs both, and certifies the expected round, machine, traffic and
memory bounds on the resulting traces (T >= 1 is the native round count):

  * simulate_cc_on_semimpc:  clique algorithm -> semi-MPC, n machines, T + 1
    rounds: one extra round redistributes the arbitrarily placed edges.
  * simulate_semimpc_on_cc:  semi-MPC algorithm -> clique; every round's
    message load is delivered by a two-phase routing schedule.
  * simulate_congest_on_semimpc:  CONGEST algorithm -> semi-MPC with few
    machines in at most T + 3 rounds; three setup rounds collect degrees,
    assign vertices to machines by sorted round-robin, and ship every edge
    to its simulating machines.

Every machine-to-machine message of the two semi-MPC targets comes from one
keyed send, `_keyed_send` (Goodrich, Sitchinava and Zhang, ISAAC 2011), and
each call site states its per-machine send and receive bound.

Simulated runs reproduce the native outputs word for word; anything that
cannot be simulated faithfully (a broken hypothesis, an unclean native run)
is refused rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from .core import FieldCodec, Graph, Message, edge_pairs, id_width, incident_edges, round_loads
from .engines import (
    C_SPACE,
    ModelKind,
    ModelParams,
    NodeProgram,
    RunResult,
    distribute_edges,
    run_clique,
    run_congest,
    run_mpc,
)
from .routing import DemandMatrix, Relay, Schedule, plan_routing


class SimulationRefused(RuntimeError):
    """The adapter's hypothesis does not hold for this program and input."""


@dataclass(frozen=True)
class Assignment:
    """Vertex-to-machine map produced by sorted round-robin balancing."""

    machine_of: tuple[int, ...]
    machine_vertices: tuple[tuple[int, ...], ...]
    machine_loads: tuple[int, ...]

    @property
    def machines(self) -> int:
        return len(self.machine_vertices)

    @property
    def max_load(self) -> int:
        return max(self.machine_loads, default=0)


def load_bound_ok(assignment: Assignment, degrees) -> bool:
    """max degree-load <= 2 * max(sum(degrees)/machines, max degree).

    Round-robin over the descending degree order guarantees this: a
    machine's first pick is at most the overall maximum degree and every
    later pick is dominated by the running average.  Compared
    integer-exactly (both sides scaled by the machine count).
    """
    total = sum(degrees)
    dmax = max(degrees, default=0)
    return (assignment.max_load * assignment.machines
            <= 2 * max(total, dmax * assignment.machines))


def compute_node_assignment(degrees, machines: int) -> Assignment:
    """Sort vertices by degree descending (ties by ascending id) and deal
    them round-robin: the vertex at sorted position i goes to machine
    i mod machines."""
    if machines < 1:
        raise ValueError("need at least one machine")
    n = len(degrees)
    order = sorted(range(n), key=lambda v: (-degrees[v], v))
    machine_of = [0] * n
    vertices: list[list[int]] = [[] for _ in range(machines)]
    loads = [0] * machines
    for i, v in enumerate(order):
        a = i % machines
        machine_of[v] = a
        vertices[a].append(v)
        loads[a] += degrees[v]
    return Assignment(
        machine_of=tuple(machine_of),
        machine_vertices=tuple(tuple(sorted(vs)) for vs in vertices),
        machine_loads=tuple(loads),
    )


@dataclass
class SimulationReport:
    """Native and simulated evidence plus the verdicts on every claimed bound."""

    native: RunResult
    simulated: RunResult
    bound_checks: dict[str, bool]
    measured_constants: dict
    extra: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return all(self.bound_checks.values())

    def derived_fields(self) -> dict:
        """The fields of to_json_dict that the two runs fix: all but the
        runs and their model kinds."""
        return {"bound_checks": dict(self.bound_checks),
                "measured_constants": dict(self.measured_constants), **self.extra}

    def to_json_dict(self) -> dict:
        return {
            "source_model": self.native.params.kind.value,
            "target_model": self.simulated.params.kind.value,
            "native": self.native.to_json_dict(),
            "simulated": self.simulated.to_json_dict(),
            **self.derived_fields(),
        }


def _run_native(run, label: str, *args) -> RunResult:
    """Run the source program in its own model; an unclean run is refused."""
    native = run(*args)
    if not native.clean:
        raise SimulationRefused(
            f"native {label} run violated its own model: {native.violations[0]}")
    return native


def _initial_inputs(g: Graph, machines: int, seed: int,
                    initial_edges: list[list[tuple[int, int]]] | None
                    ) -> list[list[int]]:
    """Edge words per machine: the given placement, or a seeded shuffle."""
    if initial_edges is None:
        return distribute_edges(g, machines, seed)
    inputs = [[w for (u, v) in machine_edges for w in (u, v)]
              for machine_edges in initial_edges]
    if len(inputs) != machines:
        raise SimulationRefused(f"initial placement must cover {machines} machines")
    return inputs


def _grouped(keyed_words) -> dict[int, list[int]]:
    """The words of (machine, word) pairs, listed per machine in the order
    given."""
    by_machine: dict[int, list[int]] = {}
    for machine, word in keyed_words:
        by_machine.setdefault(machine, []).append(word)
    return by_machine


def _keyed_send(pid: int, by_machine: dict[int, list[int]]) -> list[Message]:
    """One message per machine of by_machine (machine -> its words, see
    _grouped), in ascending machine order, each holding its words in the
    order listed.  Words keyed to `pid` itself stay a message: they count
    toward the receiver's space.  Messages are built as Message.fan_out
    builds them, so every one passes Message.__post_init__."""
    new = tuple.__new__
    out = [new(Message, (pid, machine, tuple(words)))
           for machine, words in sorted(by_machine.items())]
    post_init = Message.__post_init__
    for message in out:
        post_init(message)
    return out


# ---------------------------------------------------------------------------
# Clique -> semi-MPC
# ---------------------------------------------------------------------------

class _CliqueOnSemiMpc(NodeProgram):
    """Machine i hosts clique node i.

    Round 1 redistributes the arbitrarily placed edges: for every stored edge
    (u, v) the holder sends one word naming the other endpoint to u's machine
    and to v's machine, then drops its store.  From round 2 on the machine
    rebuilds the node's incident edge list, brings the node program up, and
    replays it verbatim: simulated round r+1 is native round r.
    """

    def __init__(self, inner: NodeProgram):
        self.inner = inner

    def init(self, pid: int, input_words):
        # state: (pid, native round about to run, stored edges, node state)
        return (pid, 0, edge_pairs(input_words), None)

    def on_round(self, state, inbox):
        pid, native_round, stored, node_state = state

        if native_round == 0:
            # machine i sends 2 words per stored edge; machine w receives deg(w)
            outbox = _keyed_send(pid, _grouped(pair for u, v in stored
                                               for pair in ((u, v), (v, u))))
            return (pid, 1, (), None), outbox, False

        if native_round == 1:
            node_state = self.inner.init(pid, incident_edges(
                pid, [w for _src, _dst, payload in inbox for w in payload]))
            node_state, outbox, halt = self.inner.on_round(node_state, [])
            return (pid, 2, (), node_state), list(outbox), halt

        node_state, outbox, halt = self.inner.on_round(node_state, inbox)
        return (pid, native_round + 1, (), node_state), list(outbox), halt

    def output(self, state):
        return self.inner.output(state[3])


def simulate_cc_on_semimpc(prog: NodeProgram, g: Graph, *,
                           c_space: int = C_SPACE, seed: int = 0,
                           initial_edges: list[list[tuple[int, int]]] | None = None,
                           ) -> SimulationReport:
    """Simulate a clique algorithm on semi-MPC with exactly n machines and
    one extra round.

    A machine's state adds its id and round counter to what it stores, so
    the native run must be clean and stay within c_space*n - 2 words of
    local memory per node (the hypothesis that makes machine space
    sufficient), and edges may start on any machine as long as each machine
    holds at most c_space*n - 2 words; otherwise the simulation is refused.
    """
    n = g.n
    native = _run_native(run_clique, "clique", prog, g,
                         ModelParams.clique(n, c_space=c_space))

    limit = c_space * n - 2
    worst = max(native.trace.space_high_water(), default=0)
    if worst > limit:
        raise SimulationRefused(
            f"native node memory {worst} words exceeds the {limit}-word"
            " hypothesis; simulation refused")

    inputs = _initial_inputs(g, n, seed, initial_edges)
    for i, words in enumerate(inputs):
        if len(words) > limit:
            raise SimulationRefused(f"machine {i} starts with {len(words)} words, above {limit}")

    semi = ModelParams.semi_mpc(
        n, p=n, ell=2 * g.m, word_width_bits=native.params.word_width_bits,
        c_space=c_space, round_cap=native.rounds_used + 10)
    return cc_on_semimpc_report(native, run_mpc(_CliqueOnSemiMpc(prog), inputs, semi))


def cc_on_semimpc_report(native: RunResult, sim: RunResult) -> SimulationReport:
    """The report of a clique run simulated on semi-MPC in T + 1 rounds on n
    machines, each within c_space * n words of traffic and space."""
    n = native.params.n
    space_budget = native.params.c_space * n
    t_native = native.rounds_used
    sim_peaks = sim.trace.space_high_water()
    max_traffic = sim.trace.max_traffic()
    bound_checks = {
        "rounds_ok": sim.rounds_used == t_native + 1,
        "rounds_big_o_ok": sim.rounds_used <= 2 * t_native,
        "machines_ok": sim.params.p == n,
        "traffic_ok": sim.clean and max_traffic <= space_budget,
        "space_ok": sim.clean and max(sim_peaks, default=0) <= space_budget,
        "outputs_ok": sim.outputs == native.outputs,
    }
    measured = {
        "native_rounds": t_native,
        "simulated_rounds": sim.rounds_used,
        "machines": sim.params.p,
        "max_traffic_words": max_traffic,
        "traffic_per_n": max_traffic / n,
        "max_space_words": max(sim_peaks, default=0),
        "space_per_n": max(sim_peaks, default=0) / n,
        "delta": sim.params.delta,
    }
    return SimulationReport(
        native=native, simulated=sim,
        bound_checks=bound_checks, measured_constants=measured,
    )


# ---------------------------------------------------------------------------
# Semi-MPC -> clique
# ---------------------------------------------------------------------------

class _RecordingProgram(NodeProgram):
    """Delegates to a program and keeps, per sender, the messages to other
    machines of every round in which it sent any, in emission order.  The
    native ledger says which rounds those were."""

    def __init__(self, inner: NodeProgram):
        self.inner = inner
        self.sent: dict[int, list[tuple[Message, ...]]] = {}

    def init(self, pid, local_input):
        return self.inner.init(pid, local_input)

    def on_round(self, state, inbox):
        state, outbox, halt = self.inner.on_round(state, inbox)
        outbox = tuple(outbox)
        # an entry that is not a Message is left for the engine to refuse
        cross = tuple(m for m in outbox if type(m) is Message and m.dst != m.src)
        if cross:
            self.sent.setdefault(cross[0].src, []).append(cross)
        return state, outbox, halt

    def output(self, state):
        return self.inner.output(state)


class _SemiMpcOnClique(Relay):
    """Clique node i < p hosts machine i; nodes p..n-1 only relay.

    Every semi-MPC round with cross-machine traffic becomes one routing
    episode, planned from that round of the native ledger.  At an episode's
    first engine round the hosted machine catches up through the native
    rounds up to and including the episode's round and queues its words for
    the episode's scheduled phase-A slots.  In every native round the live
    machine must resend exactly the native run's cross-machine messages
    (same destinations and payloads, in emission order).  Each relayed word
    carries (value, starts-message flag) so receivers can reassemble the
    original multi-word messages in canonical order.  Native rounds after
    the last episode are message-free and are drained when outputs are read.

    The program object holds run data fixed before the clique run: the
    episodes (planned centrally from the native ledger), `sent` (the native
    cross-machine messages each live machine must resend) and
    `machine_inputs` (machine i's input words, from which clique node i
    starts instead of its placeholder-graph input).
    """

    def __init__(self, inner: NodeProgram, params: ModelParams,
                 episodes: list[tuple[int, Schedule]],
                 sent: list[dict[int, tuple[Message, ...]]], machine_inputs: list):
        # episode = (native round, schedule); sent[r - 1] maps each machine
        # to its native cross-machine messages of round r
        super().__init__(params.n, [sched for _r, sched in episodes],
                         (params.word_width_bits, 1))
        self.inner = inner
        self.p = params.p
        self.sent = sent
        self.native_round_of = [r for r, _s in episodes]
        self.machine_inputs = [tuple(words) for words in machine_inputs]

    def _host_init(self, pid, local_input):
        # the clique's own local input (placeholder graph) is irrelevant: the
        # hosted machine starts from its semi-MPC input words
        machine_state = (self.inner.init(pid, self.machine_inputs[pid])
                         if pid < self.p else None)
        # host: (machine state, next native round, arrivals target round,
        #        arrivals, self-inbox target round, self-inbox payloads)
        return (machine_state, 1, 0, (), 0, ())

    def _deliver(self, host, words, episode):
        machine_state, next_native, target, arrivals, self_target, self_msgs = host
        if not arrivals:
            # deliveries of an episode feed the following native round
            target = self.native_round_of[episode] + 1
        return (machine_state, next_native, target, arrivals + tuple(words),
                self_target, self_msgs)

    def _emit(self, pid, host, round_no):
        # a hosted machine queues an episode's words in the episode's first round
        episode, _phase_a = self.phase_of.get(round_no, (None, False))
        if episode is None or pid >= self.p or self.episodes[episode][0] != round_no:
            return host, ()
        return self._advance(pid, host, self.native_round_of[episode], episode)

    # -- native-round helpers ------------------------------------------------

    def _reconstruct(self, pid, arrivals, self_msgs):
        """The inbox of a native round: the relayed words, reassembled in
        (source, seq) order, and the machine's own messages at its place."""
        parts = []
        src = expect = None
        for s, seq, value, flag in sorted(arrivals):
            # each source's words carry seq 0, 1, 2, ... once each
            expect = expect + 1 if s == src else 0
            if seq != expect:
                raise RuntimeError("routing lost or duplicated a word")
            src = s
            if flag or not seq:
                words = []
                parts.append((s, words))
            words.append(value)
        messages = [Message(s, pid, words) for s, words in parts]
        messages += [Message(pid, pid, payload) for payload in self_msgs]
        messages.sort(key=lambda m: m.src)
        return messages

    def _advance(self, pid, host, until, episode):
        """Run native rounds up to `until`; returns the new host state plus
        the phase-A entries of the episode (if any) that ends the run."""
        (machine_state, next_native, arrivals_target, arrivals,
         self_target, self_msgs) = host
        # held words always feed the next native round; none may wait longer
        if (arrivals and arrivals_target != next_native
                or self_msgs and self_target != next_native):
            raise RuntimeError(
                f"machine {pid} holds words for a round other than {next_native}")
        cross = ()
        for r in range(next_native, until + 1):
            # the inbox of native round r: the words relayed since round
            # r - 1 and the machine's own messages from round r - 1
            inbox = self._reconstruct(pid, arrivals, self_msgs)
            arrivals = ()
            machine_state, outbox, _halt = self.inner.on_round(machine_state, inbox)
            outbox = tuple(outbox)
            cross = tuple(m for m in outbox if m.dst != pid)
            if cross != self.sent[r - 1].get(pid, ()):
                raise RuntimeError(
                    f"machine {pid} diverged from its native run in round {r}")
            self_msgs = tuple(m.payload for m in outbox if m.dst == pid)
        outgoing = []
        if episode is not None:
            base, schedule = self.episodes[episode]
            seq_per_dst: dict[int, int] = {}
            for m in cross:
                for j, value in enumerate(m.payload):
                    seq = seq_per_dst.get(m.dst, 0)
                    seq_per_dst[m.dst] = seq + 1
                    mid, ra, _rb = schedule.assignment[(pid, m.dst, seq)]
                    outgoing.append((base + ra - 1, mid, m.dst, seq,
                                     value, 1 if j == 0 else 0))
        host = (machine_state, until + 1, arrivals_target, arrivals,
                until + 1, self_msgs)
        return host, tuple(outgoing)

    def output(self, state):
        pid, host = state[0], state[3]
        if pid >= self.p:
            return []
        if host[1] <= len(self.sent):
            host, _ = self._advance(pid, host, len(self.sent), None)
        return self.inner.output(host[0])


def simulate_semimpc_on_cc(prog: NodeProgram, inputs: list[list[int]],
                           params: ModelParams) -> SimulationReport:
    """Simulate a semi-MPC algorithm on the n-node congested clique.

    Machines map to clique nodes 0..p-1.  Each semi-MPC round's transfers,
    as the native ledger records them, form a demand matrix (every machine
    sends and receives at most s = O(n) words in a clean run, so an episode
    takes 2 * ceil(s / n) rounds at most) that is planned and replayed as a
    routing episode.  The clique run must stay within (2 + 2) * T rounds.
    """
    if params.kind != ModelKind.SEMI_MPC:
        raise SimulationRefused("source program must run under SEMI_MPC params")
    n = params.n
    if params.p > n:
        raise SimulationRefused("need p <= n to map machines onto clique nodes")

    recorder = _RecordingProgram(prog)
    native = _run_native(run_mpc, "semi-MPC", recorder, inputs, params)

    # the ledger names each round's senders; each takes its next recording
    recorded = {src: iter(rounds) for src, rounds in recorder.sent.items()}
    sent = [{src: next(recorded[src]) for src in dict.fromkeys(rec.src)}
            for rec in native.trace.rounds]
    episodes = plan_episodes(native)
    wrapper = _SemiMpcOnClique(prog, params, episodes, sent, inputs)
    clique_params = ModelParams.clique(
        n, word_width_bits=wrapper.word_width,
        c_space=params.c_space, round_cap=wrapper.last_round + 5)
    sim = run_clique(wrapper, Graph(n=n, edges=()), clique_params)
    return semimpc_on_cc_report(native, sim, episodes)


def plan_episodes(native: RunResult) -> list[tuple[int, Schedule]]:
    """The routing episode of each native round that has transfers: (native
    round, the schedule planned from that round's ledger demand)."""
    n = native.params.n
    return [(r, plan_routing(DemandMatrix.from_transfers(n, rec.src, rec.dst, rec.words)))
            for r, rec in enumerate(native.trace.rounds, 1) if rec.src]


def semimpc_on_cc_report(native: RunResult, sim: RunResult,
                         episodes: list[tuple[int, Schedule]]) -> SimulationReport:
    """The report of a semi-MPC run simulated on the n-node clique in at most
    (2 + 2) * T rounds, with the [native round, episode rounds] pair of each
    of its episodes (plan_episodes)."""
    episode_rounds = [[r, sched.num_rounds] for r, sched in episodes]
    n = native.params.n
    p = native.params.p
    t_native = native.rounds_used
    # two delivery phases per native round (Lenzen, PODC 2013) plus a fixed
    # surcharge of 2 for the bookkeeping a distributed schedule computation
    # would add
    allowed = (2 + 2) * t_native
    bound_checks = {
        "rounds_ok": sim.rounds_used <= allowed,
        "machines_ok": sim.params.p == n,
        "traffic_ok": sim.clean,
        "space_ok": sim.clean,
        "outputs_ok": sim.outputs == native.outputs + [[]] * (n - p),
    }
    measured = {
        "native_rounds": t_native,
        "clique_rounds": sim.rounds_used,
        "allowed_rounds": allowed,
        "surcharge": 2,
        "episodes": len(episode_rounds),
        "rounds_per_native_round": sim.rounds_used / t_native,
        "max_space_words": max(sim.trace.space_high_water(), default=0),
    }
    return SimulationReport(
        native=native, simulated=sim,
        bound_checks=bound_checks, measured_constants=measured,
        extra={"episode_rounds": episode_rounds},
    )


# ---------------------------------------------------------------------------
# CONGEST -> semi-MPC
# ---------------------------------------------------------------------------

_TAG_DEGREE = 0   # (vertex, partial degree, 0)        holders -> sorter
_TAG_VERTEX = 1   # (vertex, 0, 0)                     sorter -> simulator
_TAG_MAP = 2      # (vertex, machine of vertex, 0)     sorter -> holder
_TAG_EDGE = 3     # (u, v, extra)  edge delivery: extra = machine of v
                  #                replay:        extra = the message word


class _CongestOnSemiMpc(NodeProgram):
    """Simulate many CONGEST nodes per machine.

    Three setup rounds precede the replay:

      1. every machine counts, per vertex, the edges it initially stores and
         reports these partial degrees to machine 0 (one packed word each);
      2. machine 0 sums the degrees, computes the sorted round-robin vertex
         assignment, and answers each reporting holder with the machine
         location of every endpoint the holder mentioned;
      3. holders forward each stored edge to the machines simulating its two
         endpoints, bundling the neighbor's location for later addressing,
         while machine 0 ships every machine its vertex slice.

    Replay round r then runs in engine round r+3: each machine feeds its
    vertices' inboxes, applies the node transition, and routes the outgoing
    one-word edge messages to the owning machines (same-machine traffic stays
    internal and costs nothing).  One method, _replay, runs every replay
    round, the edgeless branch's included.

    Every word packs one of the tagged layouts above into word_width bits:
    the tag in 2 bits, the next two fields in id_width(n) bits each, and the
    last in the native word width.
    """

    def __init__(self, inner: NodeProgram, n: int, machines: int, native_width: int):
        self.inner = inner
        self.n = n
        self.machines = machines
        self.codec = FieldCodec((2, id_width(n), id_width(n), native_width))

    @property
    def word_width(self) -> int:
        return sum(self.codec.widths)

    def init(self, pid, input_words):
        if self.machines == 1 and not input_words:
            # No edges (one machine holds all 2m input words): nothing to
            # count or ship, and the machine replays every vertex.  The
            # general path cannot take this case: besides the node states it
            # keeps every vertex id twice (in the machine's vertex list and
            # as node-state keys), which breaks the c_space * n budget at
            # small n (flood on 5 isolated vertices holds 27 words against
            # 20 in round 4).  Replay-only state, told apart from the
            # general one by its length: (per-vertex node states, internal
            # messages)
            return (tuple(self.inner.init(v, ()) for v in range(self.n)), ())
        # state: (pid, engine round, stored edges, my vertices, packed
        #         locations, (my vertex, node state) pairs aligned with my
        #         vertices, internal messages)
        return (pid, 1, edge_pairs(input_words), (), (), (), ())

    def _on_round_edgeless(self, state, inbox):
        node_states, internal = state
        # a single machine hosts every vertex and knows no remote one, so
        # all traffic is internal and nothing is sent; of the replayed
        # machine state only the stepped pairs and internal messages are kept
        replayed, _outbox, halt = self._replay(
            0, None, range(self.n), (), enumerate(node_states), internal, inbox)
        *_, pairs, internal = replayed
        return (tuple(nstate for _v, nstate in pairs), internal), [], halt

    def _setup_words(self, inbox, *tags):
        """(sender, tag, a, b, c) per word of a setup round's inbox, in
        inbox order; a word with any other tag is refused."""
        for src, _dst, payload in inbox:
            for word in payload:
                fields = self.codec.unpack(word)
                if fields[0] not in tags:
                    raise RuntimeError("unexpected word during setup")
                yield (src, *fields)

    def on_round(self, state, inbox):
        if len(state) == 2:
            return self._on_round_edgeless(state, inbox)

        (pid, round_no, stored, mine, location, node_states, internal) = state

        if round_no >= 5:
            return self._replay(pid, round_no + 1, mine, location, node_states,
                                internal, inbox)
        pack = self.codec.pack

        if round_no == 1:
            # the sorter keeps its own counts local instead of self-mailing
            partial: dict[int, int] = {}
            if pid != 0:
                for u, v in stored:
                    partial[u] = partial.get(u, 0) + 1
                    partial[v] = partial.get(v, 0) + 1
            # holder h sends a word per endpoint it stores; machine 0 gets their sum
            outbox = _keyed_send(pid, _grouped((0, pack((_TAG_DEGREE, v, d, 0)))
                                               for v, d in partial.items()))
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
                reported: list[tuple[int, int]] = []
                for u, v in stored:
                    degrees[u] += 1
                    degrees[v] += 1
                for h, _tag, v, d, _x in self._setup_words(inbox, _TAG_DEGREE):
                    degrees[v] += d
                    reported.append((h, v))
                assignment = compute_node_assignment(degrees, self.machines)
                maps = [pack((_TAG_MAP, v, a, 0))
                        for v, a in enumerate(assignment.machine_of)]
                # machine 0 sends what round 1 brought it; holder h gets what it sent
                outbox = _keyed_send(0, _grouped((h, maps[v]) for h, v in reported))
                # remember the endpoint machines of the locally stored edges,
                # one packed word per endpoint
                location = tuple(sorted(
                    maps[w] for w in {x for e in stored for x in e}))
                slices = assignment.machine_vertices
            return (pid, 3, stored, slices, location, node_states, ()), outbox, False

        if round_no == 3:
            # holders ship each edge to the machines simulating its endpoints;
            # the sorter ships every machine its vertex slice in parallel.  The
            # endpoint machines: the sorter's own stash of maps, then the answers
            endpoint_machine = {a: b for _t, a, b, _x in map(self.codec.unpack, location)}
            endpoint_machine.update(
                (a, b) for _h, _t, a, b, _x in self._setup_words(inbox, _TAG_MAP))
            # only the sorter holds slices: it sends n words, machine a gets its slice
            outbox = _keyed_send(pid, _grouped((a, pack((_TAG_VERTEX, v, 0, 0)))
                                               for a, vertices in enumerate(mine)
                                               for v in vertices))
            # holder h sends 2 words per stored edge; machine a receives its degree load
            outbox += _keyed_send(pid, _grouped(
                (endpoint_machine[x], pack((_TAG_EDGE, x, y, endpoint_machine[y])))
                for u, v in stored for x, y in ((u, v), (v, u))))
            return (pid, 4, (), (), (), node_states, ()), outbox, False

        if round_no == 4:
            my_vertices = []
            arrivals = []
            for _h, tag, a, b, extra in self._setup_words(inbox, _TAG_VERTEX, _TAG_EDGE):
                if tag == _TAG_VERTEX:
                    my_vertices.append(a)
                else:
                    arrivals.append((a, b, extra))
            mine = tuple(sorted(my_vertices))
            neighbor_lists: dict[int, list[int]] = {v: [] for v in mine}
            remote: dict[int, int] = {}
            for u, v, host in arrivals:
                neighbor_lists[u].append(v)
                if host != pid:
                    remote[v] = host
            # one packed word per remote neighbor's (vertex, machine) pair
            location = tuple(sorted(pack((_TAG_MAP, v, host, 0))
                                    for v, host in remote.items()))
            node_states = tuple(
                (v, self.inner.init(v, incident_edges(v, neighbor_lists[v]))) for v in mine)
            return self._replay(pid, 5, mine, location, node_states, (), [])

    def _replay(self, pid, next_round_no, mine, location, node_states,
                internal, inbox):
        """One native round of the (vertex, node state) pairs machine pid
        hosts (mine lists their vertices): deliver the inbox's edge words
        and the internal messages, step each vertex, and route its outbox,
        to the machines that location records, else internally.  Returns
        the machine's next state, its outbox and whether any vertex halted."""
        unpack = self.codec.unpack
        new = tuple.__new__
        # pre-filled, so a word for a vertex this machine does not host is
        # refused (KeyError) rather than replayed
        per_vertex: dict[int, list[Message]] = {v: [] for v in mine}
        # each arrival becomes the inner message it stands for; a vertex's
        # messages share dst and a one-word payload, so sorting them sorts
        # by (sender, value)
        for _src, _dst, payload in inbox:
            for word in payload:
                tag, src_v, dst_v, value = unpack(word)
                if tag != _TAG_EDGE:
                    raise RuntimeError("unexpected word during replay")
                per_vertex[dst_v].append(new(Message, (src_v, dst_v, (value,))))
        for src_v, dst_v, value in internal:
            per_vertex[dst_v].append(new(Message, (src_v, dst_v, (value,))))
        remote = {v: host for _tag, v, host, _x in map(unpack, location)}

        pack = self.codec.pack
        post_init = Message.__post_init__
        inner_round = self.inner.on_round
        new_states = []
        new_internal = []
        by_machine: dict[int, list[int]] = {}
        halt = False
        for v, nstate in node_states:
            node_inbox = per_vertex[v]
            node_inbox.sort()
            for message in node_inbox:
                post_init(message)
            nstate, outbox, node_halt = inner_round(nstate, node_inbox)
            new_states.append((v, nstate))
            halt = halt or node_halt
            for _src, dst, payload in outbox:
                # anything not recorded as remote lives on this machine
                host = remote.get(dst, pid)
                if host == pid:
                    new_internal.append((v, dst, payload[0]))
                else:
                    by_machine.setdefault(host, []).append(
                        pack((_TAG_EDGE, v, dst, payload[0])))
        state = (pid, next_round_no, (), mine, location, tuple(new_states),
                 tuple(new_internal))
        # sends and receives at most one word per edge between this machine and another
        return state, _keyed_send(pid, by_machine), halt

    def output(self, state):
        # (vertex, node state) pairs
        items = enumerate(state[0]) if len(state) == 2 else state[5]
        return _machine_stream((v, self.inner.output(nstate)) for v, nstate in items)


def _machine_stream(hosted) -> list[int]:
    """A CONGEST -> semi-MPC machine's outputs: (vertex, count, words...)
    for each (vertex, output words) pair it hosts, in the given order."""
    return [w for v, words in hosted for w in (v, len(words), *words)]


def _congest_memory_hypothesis(native: RunResult, g: Graph, c_space: int) -> None:
    """Per-node memory must stay linear in what the node receives (plus its
    own edge list): high-water <= c_space * (received + degree) + 8 words.
    Otherwise the simulation is refused, naming the first node of largest ratio."""
    rounds = native.trace.rounds
    recv = round_loads(chain.from_iterable(rec.src for rec in rounds),
                       chain.from_iterable(rec.dst for rec in rounds),
                       chain.from_iterable(rec.words for rec in rounds), g.n)[1]
    peaks = native.trace.space_high_water()
    ratios = [peaks[v] / (c_space * (recv[v] + g.degrees[v]) + 8) for v in range(g.n)]
    worst = max(ratios)
    if worst > 1:
        raise SimulationRefused(
            f"node {ratios.index(worst)} uses memory {worst:.2f}x beyond linear in"
            " its received words; simulation refused")


C_MACHINES = 2  # the default machine constant of a CONGEST -> semi-MPC simulation


def simulate_congest_on_semimpc(prog: NodeProgram, g: Graph,
                                round_budget: int | None = None, *,
                                c_space: int = C_SPACE, c_machines: int = C_MACHINES, seed: int = 0,
                                ) -> SimulationReport:
    """Simulate a CONGEST algorithm on semi-MPC using few machines.

    The machine count is ceil(c_machines * T * m / n) capped at n (and at
    least 1), where T is the round budget (defaults to the native round
    count).  Refused when the program's native memory use is not linear in
    what each node receives, since machine space could then overflow.
    The simulation takes at most T + 3 rounds: three setup rounds plus the
    replay.
    """
    n = g.n
    native = _run_native(run_congest, "CONGEST", prog, g,
                         ModelParams.congest(n, c_space=c_space))
    t_native = native.rounds_used
    t_budget = round_budget if round_budget is not None else t_native
    if t_budget < t_native:
        raise SimulationRefused(
            f"round budget {t_budget} below the native round count {t_native}")

    _congest_memory_hypothesis(native, g, c_space)
    machines = congest_machine_count(c_machines, t_budget, g)

    inputs = distribute_edges(g, machines, seed)

    wrapper = _CongestOnSemiMpc(prog, n, machines, native.params.word_width_bits)
    semi = ModelParams.semi_mpc(
        n, p=machines, ell=2 * g.m, word_width_bits=wrapper.word_width,
        c_space=c_space, round_cap=t_native + 10)
    return congest_on_semimpc_report(native, run_mpc(wrapper, inputs, semi), t_budget, c_machines)


def congest_machine_count(c_machines: int, round_budget: int, g: Graph) -> int:
    """ceil(c_machines * T * m / n) machines for round budget T on g, capped
    at n and at least 1."""
    return min(max(1, -(-c_machines * round_budget * g.m // g.n)), g.n)


def congest_on_semimpc_report(native: RunResult, sim: RunResult,
                              round_budget: int, c_machines: int) -> SimulationReport:
    """The report of a CONGEST run (with its graph) simulated on semi-MPC in
    at most T + 3 rounds, on at most congest_machine_count machines."""
    g = native.graph
    n = g.n
    t_native = native.rounds_used
    machines = sim.params.p
    assignment = compute_node_assignment(g.degrees, machines)
    dmax = max(g.degrees, default=0)
    # each machine hosts its vertices in ascending order
    streams = [_machine_stream((v, native.outputs[v]) for v in vertices)
               for vertices in assignment.machine_vertices]
    sim_peaks = sim.trace.space_high_water()
    bound_checks = {
        "rounds_ok": sim.rounds_used <= t_native + 3,
        "machines_ok": machines <= congest_machine_count(c_machines, round_budget, g),
        "load_ok": load_bound_ok(assignment, g.degrees),
        "traffic_ok": sim.clean,
        "space_ok": sim.clean and max(sim_peaks, default=0) <= native.params.c_space * n,
        "outputs_ok": sim.outputs == streams,
    }
    high_degree_flag = dmax * round_budget > n
    measured = {
        "native_rounds": t_native,
        "round_budget": round_budget,
        "simulated_rounds": sim.rounds_used,
        "machines": machines,
        "max_degree_load": assignment.max_load,
        "max_degree": dmax,
        "max_traffic_words": sim.trace.max_traffic(),
        "max_space_words": max(sim_peaks, default=0),
        "space_per_n": max(sim_peaks, default=0) / n,
        "delta": sim.params.delta,
    }
    return SimulationReport(
        native=native, simulated=sim,
        bound_checks=bound_checks, measured_constants=measured,
        extra={
            "high_degree_flag": high_degree_flag,
            "assignment": list(assignment.machine_of),
        },
    )
