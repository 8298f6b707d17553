import copy
import random

import pytest
from hypothesis import settings

from distsim import Graph, Message, NodeProgram, adapters, engines, routing


# `pytest --hypothesis-profile=ci` prints, with every failure, the
# @reproduce_failure blob that replays it; every other setting is the
# profile loaded when this file is imported, so max_examples and deadline
# stay as each test and the environment set them
settings.register_profile("ci", print_blob=True)


class FixedRoundFlood(NodeProgram):
    """Min-id flooding that halts after a preset number of rounds."""

    def __init__(self, rounds):
        self.rounds = rounds

    def init(self, pid, local_input):
        nbrs = tuple(sorted(u if u != pid else v for u, v in local_input))
        return (pid, 1, pid, nbrs)

    def on_round(self, state, inbox):
        pid, r, best, nbrs = state
        for m in inbox:
            best = min(best, m.payload[0])
        halt = r >= self.rounds
        outbox = [] if halt else [Message(src=pid, dst=u, payload=(best,))
                                  for u in nbrs]
        return (pid, r + 1, best, nbrs), outbox, halt

    def output(self, state):
        return [state[2]]


def random_connected_graph(n: int, extra: int, seed: int) -> Graph:
    """Random tree plus `extra` additional edges; always connected."""
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    target = n - 1 + extra
    while len(edges) < target:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=tuple(sorted(edges)))


def random_graph(n: int, seed: int, max_extra: int | None = None) -> Graph:
    """Random graph of moderate density, possibly disconnected."""
    rng = random.Random(seed)
    m = rng.randrange(0, max_extra if max_extra is not None else 2 * n)
    edges = set()
    attempts = 0
    while len(edges) < m and attempts < 10 * m + 10:
        u, v = rng.randrange(n), rng.randrange(n)
        attempts += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n=n, edges=tuple(sorted(edges)))


def coloring_is_proper(edges, colors):
    """No two edges with a common endpoint share a color, in O(E) time."""
    seen_l = set()
    seen_r = set()
    for (u, v), c in zip(edges, colors):
        if (u, c) in seen_l or (v, c) in seen_r:
            return False
        seen_l.add((u, c))
        seen_r.add((v, c))
    return True


class _PerParticipant(NodeProgram):
    """Runs participant i's transitions on programs[i]; the state is
    (pid, inner state)."""

    def __init__(self, programs):
        self.programs = programs

    def init(self, pid, local_input):
        return (pid, self.programs[pid].init(pid, local_input))

    def on_round(self, state, inbox):
        pid, inner = state
        inner, outbox, halt = self.programs[pid].on_round(inner, inbox)
        return (pid, inner), outbox, halt

    def output(self, state):
        return self.programs[state[0]].output(state[1])


def isolation_audited(run):
    """The engine run `run`, audited for side channels: each call runs the
    program under _PerParticipant twice, once on p deep copies of it made
    before either run and once on the object itself, and requires equal
    RunResults.  Participants that pass data through the program object
    disagree between the two.  The object itself runs once, as a program
    that records its own run (the semi-MPC -> clique recorder) needs, and
    that run's result is returned."""
    def audited(prog, inputs, params):
        copies = [copy.deepcopy(prog) for _ in range(params.p)]
        isolated = run(_PerParticipant(copies), inputs, params)
        shared = run(_PerParticipant([prog] * params.p), inputs, params)
        assert isolated == shared, (
            f"{type(prog).__name__} participants share data outside messages")
        return shared
    return audited


@pytest.fixture
def isolation_audit(monkeypatch):
    """Audit every engine run the adapters and the schedule replay make, the
    way the benchmark's tracer wraps the same module globals."""
    for module in (adapters, routing):
        for name in ("run_clique", "run_congest", "run_mpc"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    isolation_audited(getattr(engines, name)))


@pytest.fixture
def tmp_graph_file(tmp_path):
    def write(g: Graph, name: str = "g.txt"):
        path = tmp_path / name
        path.write_text(g.to_edge_list_text(), encoding="utf-8")
        return str(path)
    return write
