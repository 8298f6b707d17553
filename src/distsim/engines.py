"""Execution engines for the three computation models: CONGEST, the
congested clique and semi-MPC.

Each engine runs a NodeProgram in synchronous rounds and enforces the model's
communication and space constraints on every round, emitting a RoundTrace.
A budget overrun is not an exception: the run aborts and the overrun is
recorded as a Violation in the result, so that re-checking the trace with
check_trace reproduces exactly the same finding.

Execution is sequential and deterministic: within a round all participants'
transitions are independent (programs must be pure), messages are delivered in
canonical (sender id, emission order) order, and identical inputs produce
bit-identical results.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from enum import Enum
from operator import itemgetter

from .core import Graph, Message, RoundRecord, RoundTrace, round_loads, word_width


class ModelKind(str, Enum):
    CONGEST = "CONGEST"
    CLIQUE = "CLIQUE"
    SEMI_MPC = "SEMI_MPC"


class EngineContractError(RuntimeError):
    """A program or caller broke the engine contract (bad message, bad input)."""


class RoundLimitError(RuntimeError):
    """The program failed to halt within the round cap."""


@dataclass(frozen=True)
class Violation:
    """One budget overrun, as data.  round 0 marks pre-run parameter laws."""

    rule: str
    round: int
    src: int | None = None
    dst: int | None = None
    participant: int | None = None
    measured: int = 0
    allowed: int = 0

    def to_json_dict(self) -> dict:
        return asdict(self)


C_SPACE = 4  # the space multiplier when none is given (ModelParams.c_space)
C_TOTAL = 4  # the total-space law's constants (see total_space_bound)
POLYLOG_EXP = 2
# params files record these beside s; no rule reads c_traffic
_FILE_CONSTANTS = {"c_traffic": 4, "c_total": C_TOTAL, "polylog_exp": POLYLOG_EXP}


@dataclass(frozen=True)
class ModelParams:
    """Model kind plus budgets.

    Asymptotic budgets are enforced as (constant multiplier) * bound, and
    c_space is the only configurable multiplier.  s and delta are derived,
    so replace() re-derives them: s = c_space * n under semi-MPC (else 0),
    and delta is the smallest value in [0, 1), else 0, for which p*s meets
    the law p*s <= C_TOTAL * L^(1+delta) * log2(L)^POLYLOG_EXP with
    L = max(ell, n).  An omitted word width is word_width(n), the vertex
    ids' width.
    """

    kind: ModelKind
    p: int
    n: int
    s: int = field(init=False)
    word_width_bits: int | None = None
    delta: float = field(init=False)
    ell: int = 0
    c_space: int = C_SPACE
    round_cap: int | None = None

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.word_width_bits is None:
            object.__setattr__(self, "word_width_bits", word_width(self.n))
        if self.word_width_bits < 1:
            raise ValueError("word width must be >= 1 bit")
        if self.kind != ModelKind.SEMI_MPC and self.p != self.n:
            raise ValueError(f"{self.kind.value} requires one participant per vertex")
        object.__setattr__(self, "s", self.c_space * self.n
                           if self.kind == ModelKind.SEMI_MPC else 0)
        # delta: 0 if the law holds at 0, else the law's bound solved for it
        object.__setattr__(self, "delta", 0.0)
        size, total = max(self.ell, self.n), self.p * self.s
        if self.ell > 0 and size > 1 and self.total_space_bound() < total:
            need = total / (C_TOTAL * math.log2(size) ** POLYLOG_EXP)
            exponent = math.log(need) / math.log(size) - 1.0
            object.__setattr__(self, "delta", max(0.0, min(exponent + 1e-9, 0.999999)))
            if self.total_space_bound() < total:  # no delta below 1 fits
                object.__setattr__(self, "delta", 0.0)

    # -- factories ---------------------------------------------------------

    @staticmethod
    def clique(n: int, **budgets) -> "ModelParams":
        return ModelParams(kind=ModelKind.CLIQUE, p=n, n=n, **budgets)

    @staticmethod
    def congest(n: int, **budgets) -> "ModelParams":
        return ModelParams(kind=ModelKind.CONGEST, p=n, n=n, **budgets)

    @staticmethod
    def semi_mpc(n: int, p: int, *, ell: int, **budgets) -> "ModelParams":
        return ModelParams(kind=ModelKind.SEMI_MPC, p=p, n=n, ell=ell, **budgets)

    # -- laws ----------------------------------------------------------------

    def effective_round_cap(self) -> int:
        return self.round_cap if self.round_cap is not None else 10 * self.p + 100

    def total_space_bound(self) -> int:
        """C_TOTAL * L^(1+delta) * log2(L)^POLYLOG_EXP, floored.

        L is the input size in words; when the model carries a vertex count,
        an n-vertex graph instance is never smaller than its vertex set, so
        L = max(ell, n).  Without this floor the law would reject every
        sparse graph even on a single machine.  The law is checked only
        when ell > 0.
        """
        size = max(self.ell, self.n)
        log_term = math.log2(max(size, 2)) ** POLYLOG_EXP
        return int(C_TOTAL * (size ** (1.0 + self.delta)) * log_term)

    def start_violations(self) -> list[Violation]:
        """Machine-count and total-space laws, checked before round 1."""
        out: list[Violation] = []
        if self.kind != ModelKind.SEMI_MPC:
            return out
        if self.p > self.s:
            out.append(Violation(rule="machine-count", round=0,
                                 measured=self.p, allowed=self.s))
        if self.ell > 0:
            bound = self.total_space_bound()
            if self.p * self.s > bound:
                out.append(Violation(rule="total-space", round=0,
                                     measured=self.p * self.s, allowed=bound))
        return out

    def to_json_dict(self) -> dict:
        return {**asdict(self), "kind": self.kind.value, **_FILE_CONSTANTS}

    @staticmethod
    def from_json_dict(doc: dict) -> "ModelParams":
        """Inverse of to_json_dict.  Nothing is coerced: the integer fields
        must hold ints (not bools), delta an int or a float, and round_cap
        None or an int; s, delta and the fixed constants must hold the
        values to_json_dict writes.  Anything else raises ValueError."""
        fields = {key: doc[key] for key in _INT_PARAMS}
        fields["round_cap"] = doc.get("round_cap")
        for key, value in fields.items():
            if type(value) is not int and not (value is None and key == "round_cap"):
                raise ValueError(f"params field {key!r} holds {value!r}, not an integer")
        delta = doc["delta"]
        if type(delta) is not int and type(delta) is not float:
            raise ValueError(f"params field 'delta' holds {delta!r}, not a number")
        recorded = {key: fields.pop(key) for key in ("s", *_FILE_CONSTANTS)}
        recorded["delta"] = delta
        params = ModelParams(kind=ModelKind(doc["kind"]), **fields)
        for key, value in {**_FILE_CONSTANTS, "s": params.s, "delta": params.delta}.items():
            if recorded[key] != value:
                raise ValueError(f"params field {key!r} holds {recorded[key]!r}, not {value!r}")
        return params


_INT_PARAMS = ("p", "n", "s", "word_width_bits", "ell", "c_space", *_FILE_CONSTANTS)


class NodeProgram:
    """Per-participant deterministic state machine.

    Subclasses implement three transitions:

      init(pid, local_input) -> state
      on_round(state, inbox) -> (state, outbox, halt)
      output(state) -> list of result words

    The outbox must hold Message objects whose src (the sender) and dst (a
    participant id in [0, p)) are exact ints.  Messages are immutable and are
    delivered as built: the receiver gets the very object the sender emitted.
    They carry no round field; the inbox of round r holds exactly the
    messages sent in round r - 1, canonically ordered by (sender id,
    emission order).  Once any participant returns halt=True, the whole run
    stops after that round; the halting round's messages are recorded and
    budget-checked but never delivered.  Every run has at least one round:
    a program with nothing to do halts in round 1 without sending.

    States are deeply immutable, built only from ints (bool included),
    None, tuples (Message and namedtuples included) and frozensets, so the
    engine can meter their size in words and trust that size later.  Lists,
    dicts, sets, frozenset subclasses and instances that carry attributes
    are refused with EngineContractError.  The engine meters a state when
    init or on_round returns it and charges that size both after the round
    that returned it and before the next one.  A tuple state is metered
    field by field: a field that is the very object the previous state held
    at the same position keeps its size and is not metered again, and a
    state returned unchanged costs nothing.
    """

    def init(self, pid: int, local_input):
        raise NotImplementedError

    def on_round(self, state, inbox: list[Message]):
        raise NotImplementedError

    def output(self, state) -> list[int]:
        raise NotImplementedError


# a state nested deeper than this is refused: no program needs one, and the
# walk's stack of iterators grows with the depth
_MAX_NESTING = 100_000


def _meter_other(obj):
    """words_in's rule for anything but an exact int or tuple: (words,
    iterator over contents or None).  None is free, subclasses of int (bool
    included) are one word, subclasses of tuple (Message, namedtuples) and
    exact frozensets are their contents.  Anything mutable is refused, and
    so is any instance that carries attributes (a non-zero __dictoffset__)
    or a frozenset subclass (which may declare slots): data could hide there
    beside the metered contents."""
    if obj is None:
        return 0, None
    t = type(obj)
    if t.__dictoffset__:
        raise TypeError(f"cannot meter {t.__name__} in program state: "
                        "its instances carry attributes")
    if isinstance(obj, int):
        return 1, None
    if isinstance(obj, tuple):
        # the stored items, whatever the subclass's own __iter__ yields
        return 0, tuple.__iter__(obj)
    if t is frozenset:
        return 0, iter(obj)
    raise TypeError(f"cannot meter {t.__name__} in program state (states hold "
                    "only ints, None, tuples and frozensets)")


class _NotPlain(Exception):
    """Raised by _plain_words on a value its fast walk does not take."""


# the fast walk's depth limit: the state fields that the built-in programs
# and adapters have metered on the benchmark's workloads nest at most four
# tuples deep
_PLAIN_DEPTH = 8


def _plain_words(obj: tuple, depth: int) -> int:
    """words_in of an exact tuple built only from exact ints, None and
    exact tuples nested at most depth levels below it; raises _NotPlain on
    any other value or a deeper tuple."""
    total = 0
    for x in obj:
        t = type(x)
        if t is int:
            total += 1
        elif t is tuple and depth:
            total += _plain_words(x, depth - 1)
        elif x is not None:
            raise _NotPlain
    return total


def words_in(obj) -> int:
    """Size of a program state in words.  Ints are one word each, tuples and
    frozensets the sum of their contents, None nothing; anything else is
    refused (see _meter_other), so programs can neither hide data from the
    accounting nor change a state after it was metered.

    An exact tuple is first sized by _plain_words, a recursive walk that
    takes only exact ints, None and exact tuples down to _PLAIN_DEPTH
    levels.  Any other value, or a deeper tuple, abandons it, and the state
    is walked again from the top by the general walk below: one iterative
    depth-first pass over a stack of iterators, in the order a recursive
    walk would take, so the first unmeterable value met is the one named in
    the TypeError however deep it lies."""
    if type(obj) is tuple:
        try:
            return _plain_words(obj, _PLAIN_DEPTH)
        except _NotPlain:
            pass
    total = 0
    stack = []
    it = iter((obj,))
    while True:
        for x in it:
            t = type(x)
            if t is int:
                total += 1
                continue
            if t is tuple:
                if not x:
                    continue
                sub = iter(x)
            else:
                words, sub = _meter_other(x)
                total += words
                if sub is None:
                    continue
            stack.append(it)
            if len(stack) > _MAX_NESTING:
                raise TypeError("cannot meter program state nested more than"
                                f" {_MAX_NESTING} containers deep")
            it = sub
            break
        else:
            if not stack:
                return total
            it = stack.pop()


def _meter(pid: int, round_no: int, state, old, sizes):
    """(words, per-field words or None) of the state participant pid
    returned in round_no (0 for init).  old is the state it replaces and
    sizes old's per-field words (updated in place), or None.  A tuple state
    is metered by field: a field that is old's field at the same position
    keeps its size (a metered state is deeply immutable, and old keeps that
    object alive, so its id cannot have been reused), an int field is one
    word, and any other field goes through words_in.  Anything else is
    metered whole.  words_in is looked up at call time, so a wrapper sees
    every call."""
    try:
        if type(state) is not tuple:
            return words_in(state), None
        if sizes is None or len(state) != len(sizes):
            sizes = [1 if type(x) is int else words_in(x) for x in state]
        else:
            for k, x in enumerate(state):
                if x is not old[k]:
                    sizes[k] = 1 if type(x) is int else words_in(x)
        return sum(sizes), sizes
    except TypeError as exc:
        raise EngineContractError(
            f"participant {pid} returned an unmeterable state in round "
            f"{round_no}: {exc}") from None


@dataclass
class RunResult:
    """Outcome of one engine run: outputs, trace, violations.

    outputs is None when the run aborted on a violation.  Serializes to the
    fixed JSON layout consumed by the CLI and the trace verifier.
    """

    params: ModelParams
    outputs: list[list[int]] | None
    trace: RoundTrace
    violations: list[Violation]
    graph: Graph | None = None

    @property
    def rounds_used(self) -> int:
        return self.trace.num_rounds

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        doc = {
            "model": self.params.kind.value,
            "params": self.params.to_json_dict(),
            "rounds": self.rounds_used,
            "violations": [v.to_json_dict() for v in self.violations],
            "per_round": self.trace.to_per_round_json(),
            "outputs": self.outputs,
            "space_high_water": list(self.trace.space_high_water()),
        }
        if self.graph is not None:
            doc["graph"] = {
                "n": self.graph.n,
                "m": self.graph.m,
                "edges": [[u, v] for u, v in self.graph.edges],
            }
        return doc


# ---------------------------------------------------------------------------
# Per-round budget checking (shared verbatim by engines and check_trace)
# ---------------------------------------------------------------------------

_words_of = itemgetter(2)
_pair_of = itemgetter(0, 1)


def _round_violations(round_no: int, transfers, space, params: ModelParams,
                      graph: Graph | None) -> list[Violation]:
    out: list[Violation] = []
    if params.kind in (ModelKind.CLIQUE, ModelKind.CONGEST):
        # clean iff every transfer is one word, no (src, dst, 1) repeats and,
        # under CONGEST, every distinct (src, dst) pair is an edge
        if not transfers:
            return out
        words = list(map(_words_of, transfers))
        if min(words) == max(words) == 1:
            distinct = set(transfers)
            if len(distinct) == len(transfers) and (
                    params.kind == ModelKind.CLIQUE
                    or set(map(_pair_of, distinct)) <= graph.arcs):
                return out
        pair_load: dict[tuple[int, int], int] = {}
        flagged: set[tuple[int, int]] = set()
        for s, d, w in transfers:
            if params.kind == ModelKind.CONGEST and not graph.has_edge(s, d):
                if (s, d) not in flagged:
                    flagged.add((s, d))
                    out.append(Violation(rule="non-edge", round=round_no,
                                         src=s, dst=d, measured=w, allowed=0))
                continue
            load = pair_load.get((s, d), 0) + w
            pair_load[(s, d)] = load
            if load > 1 and (s, d) not in flagged:
                flagged.add((s, d))
                out.append(Violation(rule="pair-capacity", round=round_no,
                                     src=s, dst=d, measured=load, allowed=1))
    else:
        sent, recv = round_loads(transfers, params.p)
        for i in range(params.p):
            if sent[i] > params.s:
                out.append(Violation(rule="sent-budget", round=round_no,
                                     participant=i, measured=sent[i],
                                     allowed=params.s))
            if recv[i] > params.s:
                out.append(Violation(rule="recv-budget", round=round_no,
                                     participant=i, measured=recv[i],
                                     allowed=params.s))
            if space[i] > params.s:
                out.append(Violation(rule="space-budget", round=round_no,
                                     participant=i, measured=space[i],
                                     allowed=params.s))
    return out


def check_trace(trace: RoundTrace, params: ModelParams,
                graph: Graph | None = None) -> list[Violation]:
    """Recompute every budget from the raw transfers, independently of the
    engine.  A clean engine run re-checked here must come back empty; an
    aborted run re-checked here reproduces the same violations.  A CONGEST
    trace needs its graph, without which the non-edge rule cannot be
    checked.  A zero-word transfer, which no engine records, raises ValueError."""
    if params.kind == ModelKind.CONGEST and graph is None:
        raise ValueError("checking a CONGEST trace needs its graph")
    out = list(params.start_violations())
    for idx, rec in enumerate(trace.rounds):
        if rec.transfers and min(map(_words_of, rec.transfers)) < 1:
            raise ValueError(f"round {idx + 1} lists a transfer of fewer than one word")
        out.extend(_round_violations(idx + 1, rec.transfers, rec.space,
                                     params, graph))
    return out


# ---------------------------------------------------------------------------
# The engine core
# ---------------------------------------------------------------------------

def _check_word(value, width: int) -> None:
    """A payload word is an int (bool included, as in words_in) that fits
    the model's word width and whose type carries no attributes, where data
    could hide; raise EngineContractError for anything else."""
    if not isinstance(value, int):
        raise EngineContractError(
            f"payload word {value!r} is a {type(value).__name__}, not an int")
    if type(value).__dictoffset__:
        raise EngineContractError(
            f"payload word {value!r} is a {type(value).__name__}, whose instances"
            " carry attributes")
    if not 0 <= value < (1 << width):
        raise EngineContractError(
            f"payload word {value} overflows {width}-bit words")


def _execute(prog: NodeProgram, local_inputs: list, params: ModelParams,
             graph: Graph | None) -> RunResult:
    p = params.p
    width = params.word_width_bits
    limit = 1 << width

    start = params.start_violations()
    if start:
        return RunResult(params=params, outputs=None, trace=RoundTrace(p, ()),
                         violations=start, graph=graph)

    states = [prog.init(i, local_inputs[i]) for i in range(p)]
    # a state is metered when init or on_round returns it (see _meter): the
    # state held after round r - 1 is the state held before round r
    held = [0] * p
    field_words: list[list[int] | None] = [None] * p
    for i in range(p):
        held[i], field_words[i] = _meter(i, 0, states[i], None, None)

    cap = params.effective_round_cap()
    pending: list[list[Message]] = [[] for _ in range(p)]
    pending_words = [0] * p  # words in each pending inbox
    records: list[RoundRecord] = []
    round_no = 0
    unchecked = object()

    while True:
        round_no += 1
        if round_no > cap:
            raise RoundLimitError(
                f"program did not halt within {cap} rounds")
        inboxes, pending = pending, [[] for _ in range(p)]
        inbox_words, pending_words = pending_words, [0] * p
        transfers: list[tuple[int, int, int]] = []
        space = [0] * p
        halt = False

        on_round = prog.on_round
        record = transfers.append

        for i in range(p):
            old = states[i]
            pre = held[i] + inbox_words[i]
            state, outbox, halted = on_round(old, inboxes[i])
            if state is not old:
                states[i] = state
                held[i], field_words[i] = _meter(i, round_no, state, old,
                                                 field_words[i])
            space[i] = max(pre, held[i])
            halt = halt or halted
            # the last payload whose words passed in this outbox: payloads
            # are exact tuples, as Message builds them, and a tuple of ints
            # cannot change, so a message that shares it (an announcement)
            # skips the checks; `unchecked` is no payload, so every outbox's
            # first payload is checked, None included
            checked = unchecked
            for msg in outbox:
                if type(msg) is not Message:
                    raise EngineContractError(
                        f"participant {i} emitted {type(msg).__name__}, not a Message")
                src, dst, payload = msg
                if type(src) is not int or src != i:
                    raise EngineContractError(
                        f"participant {i} emitted a message claiming src={src!r}")
                if type(dst) is not int or not 0 <= dst < p:
                    raise EngineContractError(
                        f"participant {i} addressed a message to {dst!r}, not"
                        f" a participant id in 0..{p - 1}")
                if payload is not checked:
                    if type(payload) is not tuple:
                        raise EngineContractError(
                            f"participant {i} sent a {type(payload).__name__} payload,"
                            " not a tuple")
                    words = len(payload)
                    if not words:
                        raise EngineContractError(f"participant {i} sent an empty payload")
                    for value in payload:
                        if type(value) is not int or not 0 <= value < limit:
                            _check_word(value, width)
                    checked = payload
                # messages are immutable, so the receiver gets the sender's object
                pending[dst].append(msg)
                pending_words[dst] += words
                if dst != i:  # self-messages carry state across rounds, cost-free
                    record((i, dst, words))

        records.append(RoundRecord(transfers=tuple(transfers), space=tuple(space)))
        bad = _round_violations(round_no, transfers, space, params, graph)
        if bad:
            return RunResult(params=params, outputs=None, violations=bad,
                             trace=RoundTrace(p, tuple(records)), graph=graph)
        if halt:
            outputs = [list(prog.output(states[i])) for i in range(p)]
            return RunResult(params=params, outputs=outputs, violations=[],
                             trace=RoundTrace(p, tuple(records)), graph=graph)


def distribute_edges(g: Graph, p: int, seed: int = 0) -> list[list[int]]:
    """Adversarial-ish initial placement of edge words on p machines: edges
    are shuffled by the seed and dealt round-robin, two words per edge."""
    order = list(g.edges)
    random.Random(seed).shuffle(order)
    out: list[list[int]] = [[] for _ in range(p)]
    for i, (u, v) in enumerate(order):
        out[i % p].extend((u, v))
    return out


def _run_on_graph(kind: ModelKind, prog: NodeProgram, g: Graph,
                  params: ModelParams) -> RunResult:
    """One participant per vertex, whose local input is the vertex's
    incident edge list."""
    if params.kind != kind or params.p != g.n:
        raise EngineContractError(f"params do not describe {kind.value} on this graph")
    return _execute(prog, [g.incident_edges(v) for v in range(g.n)], params, g)


def run_clique(prog: NodeProgram, g: Graph,
               params: ModelParams | None = None) -> RunResult:
    """Congested clique: any ordered pair of vertices may exchange at most
    one word per round."""
    return _run_on_graph(ModelKind.CLIQUE, prog, g,
                         ModelParams.clique(g.n) if params is None else params)


def run_congest(prog: NodeProgram, g: Graph,
                params: ModelParams | None = None) -> RunResult:
    """CONGEST: like the clique but messages may only travel along edges of
    the input graph; transfers off-graph are violations."""
    return _run_on_graph(ModelKind.CONGEST, prog, g,
                         ModelParams.congest(g.n) if params is None else params)


def run_mpc(prog: NodeProgram, inputs: list[list[int]],
            params: ModelParams) -> RunResult:
    """Semi-MPC: per machine and round, sent words, received words and the
    space high-water mark must each stay within the space budget s."""
    if params.kind != ModelKind.SEMI_MPC:
        raise EngineContractError("run_mpc requires SEMI_MPC params")
    if len(inputs) != params.p:
        raise EngineContractError(
            f"expected {params.p} machine inputs, got {len(inputs)}")
    total = sum(len(words) for words in inputs)
    if params.ell and total != params.ell:
        raise EngineContractError(
            f"inputs hold {total} words but params declare ell={params.ell}")
    for i, words in enumerate(inputs):
        if len(words) > params.s:
            raise EngineContractError(
                f"machine {i} initial input of {len(words)} words exceeds s={params.s}")
    return _execute(prog, [tuple(w) for w in inputs], params, None)
