"""Graph and message data model, word accounting, execution traces and oracles.

Graphs, messages and traces are immutable after construction, so an engine
and the adapters that wrap it can share them freely.  All communication and
space accounting throughout the package is denominated in *words*: non-negative
integers whose default width is ceil(log2 n) + 2 bits, wide enough for a vertex
id plus a couple of tag bits.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Sequence


class GraphFormatError(ValueError):
    """Raised for malformed edge-list input; carries the offending line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


# ---------------------------------------------------------------------------
# Word accounting
# ---------------------------------------------------------------------------

def word_width(n: int) -> int:
    """Default word width in bits for an n-vertex input: ceil(log2 n) + 2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n - 1).bit_length() + 2


def id_width(count: int) -> int:
    """Bits for a field that holds any of the ids 0..count-1, at least one."""
    return max(1, (count - 1).bit_length())


class FieldCodec:
    """Packs a fixed tuple of small non-negative ints into one word, first
    field most significant.

    pack and unpack are generated as straight-line functions for the widths
    when the codec is built (as collections.namedtuple does), with every
    shift, limit and mask an integer literal.  They behave exactly like the
    loops they replace: pack checks the arity, then per field, in order, the
    range before it shifts the value in.
    """

    __slots__ = ("widths", "pack", "unpack")

    def __init__(self, widths: Sequence[int]):
        widths = tuple(widths)
        # only integer literals may reach the generated source
        for width in widths:
            if type(width) is not int:
                raise TypeError(f"field width {width!r} is not an int")
            if width < 0:
                raise ValueError(f"field width {width} is negative")
        self.widths = widths
        shifts = []
        shift = sum(widths)
        for width in widths:
            shift -= width
            shifts.append(shift)

        names = [f"v{i}" for i in range(len(widths))]
        pack = ["def pack(values):",
                f"    if len(values) != {len(widths)}:",
                "        raise ValueError('values/widths length mismatch')"]
        if widths:
            pack.append(f"    {', '.join(names)}, = values")
        out = "0"
        for name, shift, width in zip(names, shifts, widths):
            pack += [f"    if not 0 <= {name} < {1 << width}:",
                     f"        raise ValueError(f'field {{{name}}} does not fit in {width} bits')",
                     f"    out = {out} | {name} << {shift}"]
            out = "out"
        pack.append(f"    return {out}")
        fields = "".join(f"word >> {shift} & {(1 << width) - 1}, "
                         for shift, width in zip(shifts, widths))
        unpack = ["def unpack(word):", f"    return ({fields})"]

        namespace: dict = {}
        exec("\n".join(pack + unpack), namespace)
        self.pack = namespace["pack"]
        self.unpack = namespace["unpack"]


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Edges are stored as sorted (u, v) pairs with u < v; construction rejects
    self-loops, duplicates and out-of-range endpoints.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.neighbors)

    @cached_property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """Both orientations (u, v) and (v, u) of every edge."""
        return frozenset(self.edges).union([(v, u) for u, v in self.edges])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def incident_edges(self, v: int) -> tuple[tuple[int, int], ...]:
        """Vertex v's local input in the vertex-centric engines."""
        return incident_edges(v, self.neighbors[v])

    def to_edge_list_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{u} {v}" for u, v in sorted(self.edges))
        return "\n".join(lines) + "\n"


def incident_edges(v: int, neighbors) -> tuple[tuple[int, int], ...]:
    """Sorted (u, w) pairs joining v to each neighbor: the local input of a
    vertex, natively and in every adapter that hosts it."""
    return tuple(sorted((min(v, u), max(v, u)) for u in neighbors))


def edge_pairs(words) -> tuple[tuple[int, int], ...]:
    """The (u, v) edges of a semi-MPC edge input, two words per edge."""
    words = tuple(words)
    if len(words) % 2:
        raise ValueError("edge input must hold (u, v) word pairs")
    return tuple(zip(words[::2], words[1::2]))


def load_graph(source: str) -> Graph:
    """Parse edge-list text: first line "n m", then one "u v" line per edge.

    Rejects malformed lines, out-of-range endpoints, self-loops and duplicate
    edges (in either orientation), naming the offending line.
    """
    lines = source.splitlines()
    meaningful = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not meaningful:
        raise GraphFormatError(1, "empty input")
    line_no, header = meaningful[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphFormatError(line_no, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphFormatError(line_no, f"non-integer header {header!r}") from None
    if n < 1:
        raise GraphFormatError(line_no, f"vertex count {n} must be >= 1")
    if m < 0:
        raise GraphFormatError(line_no, f"edge count {m} must be >= 0")
    body = meaningful[1:]
    if len(body) != m:
        raise GraphFormatError(
            body[-1][0] if body else line_no,
            f"header promises {m} edges, found {len(body)}",
        )
    seen: set[tuple[int, int]] = set()
    edges = []
    for edge_line_no, text in body:
        parts = text.split()
        if len(parts) != 2:
            raise GraphFormatError(edge_line_no, f"expected 'u v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(edge_line_no, f"non-integer edge {text!r}") from None
        if u == v:
            raise GraphFormatError(edge_line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(
                edge_line_no, f"endpoint out of range in ({u}, {v}), n={n}"
            )
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(edge_line_no, f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append(key)
    return Graph(n=n, edges=tuple(sorted(edges)))


def gen_graph(kind: str, n: int, *, prob: float | None = None, seed: int = 0) -> Graph:
    """Deterministic graph generator: path, cycle, complete, gnp or star.

    The same (kind, n, prob, seed) always yields the identical edge set.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    elif kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "gnp":
        if prob is None or not (0.0 <= prob <= 1.0):
            raise ValueError("probability out of range")
        rng = random.Random(seed)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < prob
        ]
    else:
        raise ValueError(f"unknown graph kind {kind!r}")
    return Graph(n=n, edges=tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Connectivity oracle (two independent routes, cross-checked on every call)
# ---------------------------------------------------------------------------

class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def components_by_union_find(g: Graph) -> list[int]:
    uf = UnionFind(g.n)
    for u, v in g.edges:
        uf.union(u, v)
    smallest: dict[int, int] = {}
    for v in range(g.n):  # ascending, so first hit per root is the minimum
        smallest.setdefault(uf.find(v), v)
    return [smallest[uf.find(v)] for v in range(g.n)]


def components_by_bfs(g: Graph) -> list[int]:
    labels = [-1] * g.n
    for start in range(g.n):
        if labels[start] != -1:
            continue
        labels[start] = start
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors[v]:
                if labels[u] == -1:
                    labels[u] = start
                    queue.append(u)
    return labels


def components_oracle(g: Graph) -> list[int]:
    """Map each vertex to the minimum vertex id in its connected component.

    Computed by union-find and independently by BFS; any disagreement is a
    bug, so both run on every call.
    """
    a = components_by_union_find(g)
    b = components_by_bfs(g)
    if a != b:
        raise AssertionError("connectivity oracle mismatch between union-find and BFS")
    return a


# ---------------------------------------------------------------------------
# Messages and traces
# ---------------------------------------------------------------------------

class Message(tuple):
    """One message between participants; payload length is its word cost.

    An immutable (src, dst, payload) tuple.  Engines deliver the very object
    the sender emitted, so it carries no round: an inbox in round r holds
    exactly the messages sent in round r - 1.  Self-messages (src == dst)
    are allowed and cost nothing: budgets constrain communication, not state
    a participant keeps for itself.
    """

    __slots__ = ()

    def __new__(cls, src: int, dst: int, payload):
        if type(payload) is not tuple:
            payload = tuple(payload)
        self = tuple.__new__(cls, (src, dst, payload))
        self.__post_init__()
        return self

    def __post_init__(self):
        if not self[2]:
            raise ValueError("payload must contain at least one word")

    @classmethod
    def fan_out(cls, src: int, dsts, payload) -> list[Message]:
        """[Message(src, d, payload) for d in dsts], in dsts order, built
        without a Python-level constructor call per message: one payload
        goes to many receivers (an announcement), so it is coerced once and
        shared.  Every message still passes __post_init__."""
        if type(payload) is not tuple:
            payload = tuple(payload)
        new = tuple.__new__
        out = [new(cls, (src, dst, payload)) for dst in dsts]
        post_init = cls.__post_init__
        for message in out:
            post_init(message)
        return out

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"Message(src={self[0]!r}, dst={self[1]!r}, payload={self[2]!r})"

    src = property(itemgetter(0), doc="Sending participant.")
    dst = property(itemgetter(1), doc="Receiving participant.")
    payload = property(itemgetter(2), doc="The words, as a tuple of ints.")


def round_loads(src, dst, words, participants: int) -> tuple[list[int], list[int]]:
    """Words each participant sent and received in one round's transfers,
    given as their src, dst and words columns."""
    sent = [0] * participants
    recv = [0] * participants
    for s, d, w in zip(src, dst, words):
        sent[s] += w
        recv[d] += w
    return sent, recv


@dataclass(frozen=True)
class RoundRecord:
    """Ledger for one round: its transfers as three int columns of equal
    length in emission order (transfer k moves words[k] words from src[k]
    to dst[k]), plus the per-participant space high-water mark in words.
    Every cell is an exact int, which the file writer relies on: _execute
    records ids and payload lengths; from_per_round_json refuses the rest."""

    src: tuple[int, ...]
    dst: tuple[int, ...]
    words: tuple[int, ...]
    space: tuple[int, ...]

    def __post_init__(self):
        # every reader zips the columns, which would drop a longer one's tail
        if not len(self.src) == len(self.dst) == len(self.words):
            raise ValueError(f"ledger columns of unequal length: {len(self.src)} src,"
                             f" {len(self.dst)} dst, {len(self.words)} words")

    @property
    def transfers(self) -> tuple[tuple[int, int, int], ...]:
        """The transfers as (src, dst, words) rows, built on each call."""
        return tuple(zip(self.src, self.dst, self.words))


@dataclass(frozen=True)
class RoundTrace:
    """Per-round ledger of every transfer; the evidence carrier every bound
    check reads.  Round r (1-based) lives at rounds[r-1], and each round
    holds its transfers as src, dst and words columns (RoundRecord)."""

    num_participants: int
    rounds: tuple[RoundRecord, ...]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def sent_words(self, participant: int, round_no: int) -> int:
        rec = self.rounds[round_no - 1]
        return round_loads(rec.src, rec.dst, rec.words, self.num_participants)[0][participant]

    def recv_words(self, participant: int, round_no: int) -> int:
        rec = self.rounds[round_no - 1]
        return round_loads(rec.src, rec.dst, rec.words, self.num_participants)[1][participant]

    def max_traffic(self) -> int:
        """Largest per-participant sent or received word count in any round."""
        worst = 0
        for rec in self.rounds:
            sent, recv = round_loads(rec.src, rec.dst, rec.words, self.num_participants)
            worst = max([worst, *sent, *recv])
        return worst

    def space_high_water(self) -> tuple[int, ...]:
        """Per-participant maximum space over all rounds."""
        peaks = [0] * self.num_participants
        for rec in self.rounds:
            for i, s in enumerate(rec.space):
                if s > peaks[i]:
                    peaks[i] = s
        return tuple(peaks)

    def to_per_round_json(self) -> list[dict]:
        """Each round as JSON data: its transfers as (src, dst, words) rows
        and its space entries.  The file writer spells the rows from the
        columns instead (cli._FileTrace)."""
        return [{"transfers": rec.transfers, "space": list(rec.space)} for rec in self.rounds]

    @staticmethod
    def from_per_round_json(num_participants: int, per_round: list[dict]) -> "RoundTrace":
        """Inverse of to_per_round_json: each round's (src, dst, words)
        transfer rows, as a file holds them, become its three columns.
        Every round must carry one space entry per participant: a missing
        entry is not read as zero words.  A round may hold no field but its
        transfers and space.  A transfer must move at least one
        word between two distinct participants in [0, num_participants), as
        every engine transfer does, and no participant may hold negative
        space.  Every value must be an int (not a bool, float or string):
        nothing is coerced, so a fractional word count cannot pass as a
        whole one."""
        rounds = []
        for round_no, rec in enumerate(per_round, start=1):
            src, dst, words = [], [], []
            for s, d, w in rec["transfers"]:
                if not type(s) is type(d) is type(w) is int:
                    raise ValueError(
                        f"round {round_no} lists a transfer {[s, d, w]!r}"
                        " with a value that is not an integer")
                if w < 1 or s == d or not (0 <= s < num_participants
                                           and 0 <= d < num_participants):
                    raise ValueError(
                        f"round {round_no} lists an impossible transfer"
                        f" [{s}, {d}, {w}] among {num_participants} participants")
                src.append(s)
                dst.append(d)
                words.append(w)
            if "space" not in rec:
                raise ValueError(f"round {round_no} has no space entry")
            if len(rec) > 2:
                unknown = min(rec.keys() - {"transfers", "space"})
                raise ValueError(f"round {round_no} field {unknown!r} is unknown")
            space = tuple(rec["space"])
            if len(space) != num_participants:
                raise ValueError(
                    f"round {round_no} lists space for {len(space)} participants,"
                    f" not {num_participants}")
            if space and set(map(type, space)) != {int}:
                raise ValueError(
                    f"round {round_no} lists a space value that is not an integer")
            if space and min(space) < 0:
                i = next(i for i, words in enumerate(space) if words < 0)
                raise ValueError(
                    f"round {round_no} lists negative space {space[i]}"
                    f" for participant {i}")
            rounds.append(RoundRecord(tuple(src), tuple(dst), tuple(words), space))
        return RoundTrace(num_participants=num_participants, rounds=tuple(rounds))
