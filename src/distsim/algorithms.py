"""Reference node programs: connectivity under each of the three models.

All three compute the same thing — for every vertex, the minimum vertex id in
its connected component — so every engine and every simulation adapter can be
checked against the same ground truth (components_oracle).
"""

from __future__ import annotations

from itertools import chain

from .core import Graph, Message, UnionFind, components_by_union_find, edge_pairs
from .engines import NodeProgram


def spanning_forest(n: int, edges) -> tuple[tuple[int, int], ...]:
    """A spanning forest of the given edge set: acyclic, at most n-1 edges,
    connecting exactly what the input connects.  Deterministic: edges are
    taken in sorted order."""
    uf = UnionFind(n)
    forest = []
    for u, v in sorted(edges):
        if uf.union(u, v):
            forest.append((min(u, v), max(u, v)))
    return tuple(forest)


def _closure(mapping: dict[int, int], label: int) -> int:
    """Follow label -> mapping[label] until a fixpoint.  The map always
    points at strictly smaller labels, so this terminates."""
    while mapping.get(label, label) != label:
        label = mapping[label]
    return label


class BoruvkaConnectivity(NodeProgram):
    """Clique connectivity by repeated hook-to-minimum merging.

    Rounds alternate between two steps.  In a B step (odd rounds) every node
    compares the labels it tracks for its neighbors with its own; the
    smallest differing label is proposed to its component leader, the node
    whose id equals the current label (one word per proposing node).  In a C
    step (even rounds) each leader takes the minimum of its label and the
    proposals and announces the merge target to every node (one word per
    ordered pair, so the per-pair budget holds).

    All nodes see the same announcements, collapse merge chains locally and
    update the labels they track.  Once an announcement round maps every
    label to itself, no edge leaves any component; the following B step halts
    the whole run.
    """

    def __init__(self, n: int):
        self.n = n

    def init(self, pid: int, local_input):
        neighbors = sorted({u if u != pid else v for u, v in local_input})
        # state: (pid, round no, label, last own announcement or n,
        #         stashed own proposal or n,
        #         (neighbor, tracked label) pairs by neighbor)
        return (pid, 1, pid, self.n, self.n, tuple((u, u) for u in neighbors))

    def on_round(self, state, inbox: list[Message]):
        pid, round_no, label, announced_by_me, own_proposal, tracked = state
        sentinel = self.n

        if round_no % 2 == 1:
            # B step: absorb announcements, then propose hooks
            if round_no > 1:
                announced = {src: payload[0] for src, _dst, payload in inbox}
                if announced_by_me != sentinel:
                    announced[pid] = announced_by_me
                if all(old == new for old, new in announced.items()):
                    return state, [], True
                label = _closure(announced, label)
                tracked = tuple([(u, _closure(announced, lv)) for u, lv in tracked])
            foreign = [lv for _u, lv in tracked if lv != label]
            outbox = []
            own_proposal = sentinel
            if foreign:
                proposal = min(foreign)
                if label == pid:
                    own_proposal = proposal
                else:
                    outbox.append(Message(src=pid, dst=label, payload=(proposal,)))
            return (pid, round_no + 1, label, sentinel, own_proposal, tracked), outbox, False

        # C step: leaders merge proposals and announce
        outbox = []
        announced_by_me = sentinel
        if label == pid:
            best = own_proposal
            for _src, _dst, payload in inbox:
                if payload[0] < best:
                    best = payload[0]
            merged = min(label, best)
            announced_by_me = merged
            outbox = Message.fan_out(
                pid, chain(range(pid), range(pid + 1, self.n)), (merged,))
        return (pid, round_no + 1, label, announced_by_me, sentinel, tracked), outbox, False

    def output(self, state) -> list[int]:
        return [state[2]]


class FloodMinLabel(NodeProgram):
    """CONGEST connectivity: every round, broadcast the smallest label heard
    so far to all neighbors (one word per edge per direction).

    Termination is a distance cap rather than distributed detection: a node
    may halt once the round number reaches n and its own label did not change
    this round.  A label needs at most ecc+1 <= n rounds to reach everything
    in its component, so when any node halts every label is already final,
    and the engine's synchronized-halt rule stops all nodes in that round.
    """

    def __init__(self, n: int):
        self.n = n
        self.cap = max(1, n)

    def init(self, pid: int, local_input):
        neighbors = tuple(sorted(u if u != pid else v for u, v in local_input))
        # state: (pid, round no, current min label, neighbors)
        return (pid, 1, pid, neighbors)

    def on_round(self, state, inbox: list[Message]):
        pid, round_no, best, neighbors = state
        new_best = best
        for _src, _dst, payload in inbox:
            if payload[0] < new_best:
                new_best = payload[0]
        halt = round_no >= self.cap and new_best == best
        outbox = [] if halt else Message.fan_out(pid, neighbors, (new_best,))
        return (pid, round_no + 1, new_best, neighbors), outbox, halt

    def output(self, state) -> list[int]:
        return [state[2]]


class ForestMergeConnectivity(NodeProgram):
    """Semi-MPC connectivity by pairwise forest merging.

    Every machine first sparsifies its local edges to a spanning forest (at
    most n-1 edges, so one forest always fits the word budget).  Merge step k
    runs in round k+1: machines whose id is 2^k modulo 2^(k+1) ship their
    current forest (2 words per edge, one message) to the machine 2^k below
    them, which unions and re-sparsifies.  After ceil(log2 p) steps machine 0
    holds a forest of the whole graph and emits the component labels in the
    final round; total rounds are exactly 1 + ceil(log2 p).
    """

    def __init__(self, n: int, p: int):
        if p < 1 or p > n:
            raise ValueError("need 1 <= p <= n machines")
        self.n = n
        self.p = p
        self.merge_steps = (p - 1).bit_length()
        self.total_rounds = self.merge_steps + 1

    def init(self, pid: int, local_input):
        # state: (pid, round no, forest edges)
        return (pid, 1, spanning_forest(self.n, edge_pairs(local_input)))

    def on_round(self, state, inbox: list[Message]):
        pid, round_no, forest = state
        gathered = list(forest)
        for _src, _dst, payload in inbox:
            gathered.extend(edge_pairs(payload))
        if gathered != list(forest):
            forest = spanning_forest(self.n, gathered)
        outbox = []
        if round_no <= self.merge_steps \
                and pid % (1 << round_no) == (1 << (round_no - 1)) and forest:
            payload = tuple(w for edge in forest for w in edge)
            outbox.append(Message(src=pid, dst=pid - (1 << (round_no - 1)),
                                  payload=payload))
        halt = round_no >= self.total_rounds
        return (pid, round_no + 1, forest), outbox, halt

    def output(self, state) -> list[int]:
        pid, _round_no, forest = state
        if pid != 0:
            return []
        return components_by_union_find(Graph(n=self.n, edges=forest))
