"""Constant-round clique routing for loads of up to O(n) words per node.

Any demand in which every node is the source and the destination of at most
c*n words is delivered through two phases: each word is assigned an
intermediate node, travels source -> intermediate in phase A and
intermediate -> destination in phase B.  Assigning intermediates via a proper
edge coloring of the bipartite demand multigraph (sources left, destinations
right, one parallel edge per word) guarantees that no ordered pair ever
carries more than one word per round: words sharing a source have distinct
colors, and so do words sharing a destination.  A proper coloring with at
most max-degree colors always exists for bipartite multigraphs and is found
constructively, one word at a time: first-fit takes the lowest color free at
both endpoints, read off the endpoints' busy-color bitmasks in one step, and
when there is none an alternating two-color path is flipped to free one.

The schedule is computed by a central planner with global knowledge of the
demand matrix and then replayed through the constraint-checked clique engine,
which re-verifies the per-pair capacity on every round.  The replaying node
program, Relay, also carries the semi-MPC -> clique adapter's episodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import FieldCodec, Graph, Message, id_width, round_loads
from .engines import ModelParams, NodeProgram, RunResult, run_clique


@dataclass(frozen=True)
class DemandMatrix:
    """Word counts per (source, destination) pair for one routing episode.

    Only the non-zero cells are held, as (src, dst, count) triples in
    (src, dst) order, so every query costs O(cells + words + n) rather than
    a scan of all n^2 pairs.
    """

    n: int
    cells: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = self.n
        last = -1
        for s, d, count in self.cells:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"demand cell ({s}, {d}) lies outside the "
                                 f"{n} x {n} matrix")
            key = s * n + d
            if key <= last:
                raise ValueError(f"demand cell ({s}, {d}) is repeated or out "
                                 f"of (src, dst) order")
            if count < 1:
                raise ValueError(f"demand cell ({s}, {d}) holds {count} words; "
                                 f"only non-zero cells are kept")
            last = key

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "DemandMatrix":
        """The demand of a dense n x n array.  Nothing is coerced: every
        count must be a non-negative int (not a bool)."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("demand matrix must be n x n")
        cells = []
        for s, row in enumerate(rows):
            for d, count in enumerate(row):
                if type(count) is not int:
                    raise ValueError(f"demand count {count!r} at ({s}, {d}) "
                                     f"is not an integer")
                if count:
                    if count < 0:
                        raise ValueError("demand counts must be non-negative")
                    cells.append((s, d, count))
        return DemandMatrix(n=n, cells=tuple(cells))

    @staticmethod
    def from_transfers(n: int, src, dst, words) -> "DemandMatrix":
        """The demand of one ledger round: the words of its transfers, given
        as src, dst and words columns, summed per ordered pair."""
        counts: dict[tuple[int, int], int] = {}
        for s, d, w in zip(src, dst, words):
            counts[s, d] = counts.get((s, d), 0) + w
        return DemandMatrix(n=n, cells=tuple(
            (s, d, count) for (s, d), count in sorted(counts.items()) if count))

    @property
    def total_words(self) -> int:
        return sum(count for _s, _d, count in self.cells)

    def loads(self) -> tuple[list[int], list[int]]:
        """The row and column sums: the words each node sends and receives
        (core.round_loads of the cells' columns)."""
        cells = self.cells
        return round_loads([s for s, _d, _c in cells], [d for _s, d, _c in cells],
                           [c for _s, _d, c in cells], self.n)

    @property
    def max_degree(self) -> int:
        """The largest row or column sum: the palette plan_routing colours with."""
        sent, recv = self.loads()
        return max(sent + recv, default=0)

    def words(self) -> list[tuple[int, int, int]]:
        """Every demanded word as (src, dst, seq), in canonical order."""
        return [(s, d, q) for s, d, count in self.cells for q in range(count)]


def edge_color_bipartite(n_left: int, n_right: int,
                         edges: list[tuple[int, int]]) -> list[int]:
    """Properly edge-color a bipartite multigraph with max-degree colors.

    Edges are (left, right) pairs; parallel edges are simply repeated
    entries.  Colors are assigned by single-edge insertion: the smallest
    color free at both endpoints if one exists, otherwise an alternating
    two-color path from the right endpoint is walked and flipped, in one
    pass, to free one up.  Ties always break toward the smallest color
    index, so the result is deterministic in the input order.

    Each node keeps an int bitmask of its busy colors, so the smallest
    color free at both endpoints of (u, v) is the lowest zero bit of
    busy_l[u] | busy_r[v], found in one step instead of a palette scan.
    Per-node color -> edge dicts serve the path walk, which rewrites each
    path edge's entries as it goes, so memory stays O(edges).
    """
    deg_l = [0] * n_left
    deg_r = [0] * n_right
    for u, v in edges:
        if not (0 <= u < n_left and 0 <= v < n_right):
            raise ValueError(f"edge ({u}, {v}) out of range")
        deg_l[u] += 1
        deg_r[v] += 1
    max_degree = max(deg_l + deg_r, default=0)
    limit = 1 << max_degree  # the palette is colors 0 .. max_degree - 1
    colors: list[int] = [-1] * len(edges)
    busy_l = [0] * n_left
    busy_r = [0] * n_right
    used_l: list[dict[int, int]] = [{} for _ in range(n_left)]  # color -> edge
    used_r: list[dict[int, int]] = [{} for _ in range(n_right)]

    for ei, (u, v) in enumerate(edges):
        busy = busy_l[u] | busy_r[v]
        bit = (busy + 1) & ~busy  # the lowest zero bit
        if bit < limit:
            c = bit.bit_length() - 1
            colors[ei] = c
            used_l[u][c] = ei
            used_r[v][c] = ei
            busy_l[u] |= bit
            busy_r[v] |= bit
            continue

        # No shared free color: take a free at u, b free at v, flip the
        # maximal a/b-alternating path starting from v.  The path can never
        # reach u (left nodes are entered through a-colored edges and a is
        # free at u), so after the flip a is free at both endpoints.  Both
        # lie below the palette, as u and v each have an uncolored edge, and
        # the path is never empty: a is busy at v, or first-fit had taken it.
        # The flip is done in the walk's one pass: colors alternate a, b, a,
        # ... along the path, and each edge takes the other color and its slot
        # at both ends (v's free slot b for the first edge), once the next
        # path edge has been read from that slot.  Every interior node trades
        # a for b on one path edge and b for a on the other, so only the two
        # ends change busy colors and lose an entry: v gives up a (taken by
        # the new edge below), the far end its last edge's old color.
        a = ((busy_l[u] + 1) & ~busy_l[u]).bit_length() - 1
        b = ((busy_r[v] + 1) & ~busy_r[v]).bit_length() - 1
        table = used_r[v]
        pe = table[a]
        old, new, on_right = a, b, True
        while True:
            colors[pe] = new
            table[new] = pe
            pu, pv = edges[pe]
            table = used_l[pu] if on_right else used_r[pv]
            on_right = not on_right
            nxt = table.get(new)
            table[new] = pe
            if nxt is None:
                break
            pe = nxt
            old, new = new, old
        del table[old]
        swap = (1 << a) | (1 << b)
        busy_r[v] ^= swap
        if on_right:  # the far end is the last edge's right node
            busy_r[pv] ^= swap
        else:
            busy_l[pu] ^= swap
        colors[ei] = a
        used_l[u][a] = ei
        used_r[v][a] = ei
        busy_l[u] |= 1 << a
        busy_r[v] |= 1 << a

    return colors


@dataclass(frozen=True)
class Schedule:
    """Two-phase routing plan.

    Every demanded word (src, dst, seq) is assigned an intermediate node and
    one phase-A round (src -> intermediate) plus one phase-B round
    (intermediate -> dst).  Rounds are numbered globally and 1-based: phase A
    occupies rounds 1..phase_a_rounds and phase B as many rounds after them,
    so the phase-A slot of a word always precedes its phase-B slot.
    """

    n: int
    phase_a_rounds: int
    entries: tuple[tuple[int, int, int, int, int, int], ...]
    # entry = (src, dst, seq, intermediate, round_a, round_b)

    @property
    def num_rounds(self) -> int:
        return 2 * self.phase_a_rounds

    @cached_property
    def assignment(self) -> dict[tuple[int, int, int], tuple[int, int, int]]:
        return {(s, d, q): (mid, ra, rb) for s, d, q, mid, ra, rb in self.entries}

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rounds": self.num_rounds,
            "phase_a_rounds": self.phase_a_rounds,
            "phase_b_rounds": self.phase_a_rounds,
            "entries": [list(e) for e in self.entries],
        }


def plan_routing(dm: DemandMatrix) -> Schedule:
    """Plan delivery of a demand matrix in 2 * ceil(max_degree / n) clique
    rounds: exactly 2 whenever every row and column sum is at most n, and 0
    for an empty demand."""
    words = dm.words()
    edges = [(s, d) for s, d, _q in words]
    colors = edge_color_bipartite(dm.n, dm.n, edges)
    colors_used = max(colors, default=-1) + 1
    subrounds = -(-colors_used // dm.n)  # ceil

    entries = []
    for (s, d, q), color in zip(words, colors):
        sub, mid = divmod(color, dm.n)
        entries.append((s, d, q, mid, sub + 1, subrounds + sub + 1))
    return Schedule(n=dm.n, phase_a_rounds=subrounds, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Replaying a schedule through the clique engine
# ---------------------------------------------------------------------------

class Relay(NodeProgram):
    """Clique node that relays words along a sequence of routing episodes.

    The schedules run back to back from engine round 1: episode i's round k
    runs in engine round base + k - 1, where base is 1 plus the rounds of
    the episodes before i (`episodes` holds the (base, schedule) pairs).
    Every relayed word packs (counterpart, seq, *fields) into one engine
    word of `word_width` bits, first field most significant: the
    counterpart, the final destination in phase A and the original source
    in phase B, in id_width(n) bits; the word's seq in id_width(1 + the
    largest seq of any schedule) bits; then the host's fields, as wide as
    `fields` says.  One extra receive-only round after the
    last episode absorbs the final deliveries; without episodes that round
    is the whole run, and every relay halts in round 1 without sending.

    The program hosted on a node (subclasses) supplies three hooks over its
    own state, which is the relay state's last field:

      _host_init(pid, local_input) -> host
      _emit(pid, host, round_no) -> (host, phase-A entries to queue)
      _deliver(host, words, episode index) -> host   (phase-B arrivals)

    A queued entry is (engine round, next hop, counterpart, seq, *fields).
    """

    def __init__(self, n: int, schedules: list[Schedule], fields: tuple[int, ...]):
        max_seq = max((e[2] for sched in schedules for e in sched.entries), default=0)
        self.codec = FieldCodec((id_width(n), id_width(max_seq + 1), *fields))
        self.episodes: list[tuple[int, Schedule]] = []
        # engine round -> (episode index, whether it is a phase-A round)
        self.phase_of: dict[int, tuple[int, bool]] = {}
        base = 1
        for idx, sched in enumerate(schedules):
            self.episodes.append((base, sched))
            for r in range(base, base + sched.num_rounds):
                self.phase_of[r] = (idx, r < base + sched.phase_a_rounds)
            base += sched.num_rounds
        # the receive-only absorb round after the last episode
        self.last_round = base if schedules else 0

    @property
    def word_width(self) -> int:
        return sum(self.codec.widths)

    def init(self, pid: int, local_input):
        # state: (pid, this round number, queued entries, host state)
        return (pid, 1, (), self._host_init(pid, local_input))

    def on_round(self, state, inbox):
        pid, round_no, queue, host = state
        if inbox:
            # every inbox word was sent in the previous engine round
            idx, phase_a = self.phase_of[round_no - 1]
            unpack = self.codec.unpack
            if phase_a:
                # at the intermediate; the counterpart is the destination
                base, sched = self.episodes[idx]
                assignment = sched.assignment
                relayed = []
                relay = relayed.append
                for src, _dst, payload in inbox:
                    for word in payload:
                        fields = unpack(word)
                        mid, _ra, rb = assignment[(src, fields[0], fields[1])]
                        if mid != pid:
                            raise RuntimeError("schedule routed a word to the wrong node")
                        relay((base + rb - 1, fields[0], src) + fields[1:])
                queue += tuple(relayed)
            else:
                host = self._deliver(
                    host, [unpack(word) for _src, _dst, payload in inbox
                           for word in payload], idx)

        host, fresh = self._emit(pid, host, round_no)
        if fresh:
            queue += tuple(fresh)
        outbox = []
        if queue:
            # built as Message.fan_out builds them, each through __post_init__
            pack = self.codec.pack
            new = tuple.__new__
            keep = []
            for entry in queue:
                if entry[0] == round_no:
                    outbox.append(new(Message, (pid, entry[1], (pack(entry[2:]),))))
                else:
                    keep.append(entry)
            if outbox:
                queue = tuple(keep)
                post_init = Message.__post_init__
                for message in outbox:
                    post_init(message)
        halt = round_no >= self.last_round
        return (pid, round_no + 1, queue, host), outbox, halt

    def _host_init(self, pid: int, local_input) -> tuple:
        raise NotImplementedError

    def _emit(self, pid: int, host: tuple, round_no: int):
        raise NotImplementedError

    def _deliver(self, host: tuple, words: list, episode: int) -> tuple:
        raise NotImplementedError


class _ScheduleHost(Relay):
    """Plays a single schedule: each source sends its payload words in their
    phase-A rounds and each destination keeps the sorted (src, seq, value)
    triples it received.  A relayed word's one host field is its value, as
    wide as the largest payload (at least 1 bit).  Pending payloads live on
    the program (`outgoing`, fixed before the run), so only the words due in
    a round enter the node state."""

    def __init__(self, schedule: Schedule, payloads: dict):
        value_bits = max(max(payloads.values(), default=0).bit_length(), 1)
        super().__init__(schedule.n, [schedule], (value_bits,))
        # (source, round_a) -> entries due then, canonically ordered
        self.outgoing: dict[tuple[int, int], list[tuple]] = {}
        for s, d, q, mid, ra, _rb in sorted(schedule.entries):
            self.outgoing.setdefault((s, ra), []).append(
                (ra, mid, d, q, payloads[(s, d, q)]))

    def _host_init(self, pid, local_input):
        return ()  # the sorted triples received so far

    def _emit(self, pid, host, round_no):
        return host, self.outgoing.get((pid, round_no), ())

    def _deliver(self, host, words, episode):
        return tuple(sorted(host + tuple(words)))

    def output(self, state) -> list[int]:
        return [w for triple in state[3] for w in triple]


def delivered_outputs(sched: Schedule, payloads: dict) -> list[list[int]]:
    """The outputs a replay of sched that delivers each payload once, intact,
    writes (_ScheduleHost.output): each node's sorted (src, seq, value)
    triples of the words addressed to it, flat."""
    received: list[list[tuple]] = [[] for _ in range(sched.n)]
    for (s, d, q), value in payloads.items():
        received[d].append((s, q, value))
    return [[w for triple in sorted(triples) for w in triple] for triples in received]


def execute_schedule(sched: Schedule, payloads: dict[tuple[int, int, int], int]) -> RunResult:
    """Replay a schedule on the constraint-checked clique engine and return
    the run, whose outputs are the (src, seq, value) triples each node
    received (delivered_outputs).

    payloads maps each scheduled (src, dst, seq) to its value word.  Every
    word must arrive at its destination tagged with the original source and
    sequence number, and the engine trace must be clean; anything else is an
    internal consistency failure, not a recoverable condition.  The replay
    takes num_rounds + 1 engine rounds: the trailing round only absorbs the
    final deliveries and sends nothing, so an empty schedule takes one.
    """
    if payloads.keys() != sched.assignment.keys():
        raise ValueError("payload keys do not match the scheduled words")
    for key, value in payloads.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"payload {value!r} of word {key} is not a non-negative int")

    host = _ScheduleHost(sched, payloads)
    run = run_clique(host, Graph(n=sched.n, edges=()),
                     ModelParams.clique(sched.n, word_width_bits=host.word_width))
    if not run.clean:
        raise RuntimeError(f"schedule replay violated the model: {run.violations[0]}")
    if run.outputs != delivered_outputs(sched, payloads):
        raise RuntimeError("schedule replay did not deliver every word intact")
    return run
