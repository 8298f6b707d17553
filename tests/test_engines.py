import math
import pickle
import re
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distsim import (
    EngineContractError,
    Graph,
    Message,
    ModelKind,
    ModelParams,
    NodeProgram,
    RoundLimitError,
    RoundRecord,
    RoundTrace,
    check_trace,
    gen_graph,
    run_clique,
    run_congest,
    run_mpc,
    words_in,
)
from distsim.core import word_width
from distsim.engines import (
    _PLAIN_DEPTH,
    C_TOTAL,
    POLYLOG_EXP,
    Violation,
    _NotPlain,
    _plain_words,
    _round_violations,
)

from conftest import FixedRoundFlood, random_graph


class SendIdToZero(NodeProgram):
    """Every node sends its id to node 0 once, then everyone halts."""

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        outbox = []
        if state != 0:
            outbox.append(Message(src=state, dst=0, payload=(state,)))
        return state, outbox, True

    def output(self, state):
        return [state]


class Blaster(NodeProgram):
    """Node 1 sends two words to node 2 in round 1."""

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        outbox = []
        if state == 1:
            outbox.append(Message(src=1, dst=2, payload=(0, 0)))
        return state, outbox, True

    def output(self, state):
        return []


class OffGraphSender(NodeProgram):
    """Node 0 talks straight to node 2, edges or not."""

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        outbox = []
        if state == 0:
            outbox.append(Message(src=0, dst=2, payload=(7,)))
        return state, outbox, True

    def output(self, state):
        return []


class MpcShipper(NodeProgram):
    """Machine 0 ships a fixed number of words to machine 1, then halts."""

    def __init__(self, words):
        self.words = words

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        outbox = []
        if state == 0:
            outbox.append(Message(src=0, dst=1, payload=(1,) * self.words))
        return state, outbox, True

    def output(self, state):
        return []


class NeverHalts(NodeProgram):
    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        return state, [], False

    def output(self, state):
        return []


# -- clique -------------------------------------------------------------------

def test_clique_all_to_zero():
    g = gen_graph("complete", 4)
    res = run_clique(SendIdToZero(), g)
    assert res.rounds_used == 1
    assert res.clean
    round1 = res.trace.rounds[0]
    assert res.trace.recv_words(0, 1) == 3
    assert sum(1 for s, d, w in round1.transfers if d == 0) == 3


def test_clique_pair_capacity_violation():
    g = gen_graph("complete", 4)
    res = run_clique(Blaster(), g)
    assert not res.clean
    v = res.violations[0]
    assert (v.rule, v.round, v.src, v.dst) == ("pair-capacity", 1, 1, 2)
    assert res.outputs is None


def test_clique_requires_matching_params():
    g = gen_graph("path", 4)
    with pytest.raises(EngineContractError):
        run_clique(SendIdToZero(), g, ModelParams.clique(5))


# -- congest ------------------------------------------------------------------

def test_congest_flood_fixed_rounds_path():
    # messages sent in round r are readable in round r+1, so information
    # crosses the 3-path (min-vertex eccentricity 2) in 2+1 rounds
    g = gen_graph("path", 3)
    res = run_congest(FixedRoundFlood(3), g)
    assert res.rounds_used == 3
    assert res.outputs == [[0], [0], [0]]
    assert res.clean
    partial = run_congest(FixedRoundFlood(2), g)
    assert partial.outputs == [[0], [0], [1]]


def test_congest_non_edge_violation():
    g = gen_graph("path", 3)
    res = run_congest(OffGraphSender(), g)
    assert not res.clean
    v = res.violations[0]
    assert (v.rule, v.src, v.dst) == ("non-edge", 0, 2)


def test_congest_edgeless_immediate():
    g = Graph(n=3, edges=())
    res = run_congest(FixedRoundFlood(1), g)
    assert res.rounds_used == 1
    assert res.outputs == [[0], [1], [2]]


def test_congest_edge_discipline_over_corpus():
    for seed in range(20):
        g = random_graph(12, seed)
        res = run_congest(FixedRoundFlood(3), g)
        for rec in res.trace.rounds:
            for s, d, _w in rec.transfers:
                assert g.has_edge(s, d)


# -- mpc ----------------------------------------------------------------------

def _mpc_params(p=2, s=8):
    # c_space = 1 makes the space budget s = c_space * n equal to n
    return ModelParams.semi_mpc(s, p, ell=0, c_space=1)


def test_mpc_at_budget_is_clean():
    res = run_mpc(MpcShipper(8), [[], []], _mpc_params())
    assert res.clean
    assert res.trace.sent_words(0, 1) == 8


def test_mpc_over_budget_violates():
    res = run_mpc(MpcShipper(9), [[], []], _mpc_params())
    assert not res.clean
    v = res.violations[0]
    assert v.rule == "sent-budget"
    assert (v.measured, v.allowed) == (9, 8)


def test_mpc_rejects_oversized_input():
    with pytest.raises(EngineContractError):
        run_mpc(MpcShipper(1), [[0] * 9, []], _mpc_params())


@pytest.mark.parametrize("params, inputs, message", [
    (ModelParams.clique(8), [[]] * 8, "run_mpc requires SEMI_MPC params"),
    (ModelParams.semi_mpc(8, 2, ell=0), [[]], "expected 2 machine inputs, got 1"),
    (ModelParams.semi_mpc(8, 2, ell=4), [[0, 1], [2]],
     "inputs hold 3 words but params declare ell=4"),
], ids=["kind", "machine-count", "ell"])
def test_mpc_refuses_inputs_its_params_do_not_describe(params, inputs, message):
    with pytest.raises(EngineContractError, match=f"^{message}$"):
        run_mpc(MpcShipper(1), inputs, params)


def test_mpc_rejects_bad_machine_count_law():
    params = _mpc_params(p=9, s=8)
    res = run_mpc(MpcShipper(0), [[]] * 9, params)
    assert res.rounds_used == 0
    assert res.violations[0].rule == "machine-count"


def test_mpc_total_space_law():
    # L = 4: the bound is 4 * 4^(1+delta) * log2(4)^2 = 64 words at delta 0,
    # and under 256 for every delta < 1, against p * s = 20 * 20, so no
    # delta fits and it stays 0
    params = ModelParams(kind=ModelKind.SEMI_MPC, p=20, n=4, ell=4, c_space=5)
    assert (params.s, params.delta, params.total_space_bound()) == (20, 0.0, 64)
    res = run_mpc(MpcShipper(1), [[1] * 4] + [[]] * 19, params)
    assert res.rounds_used == 0
    assert [(v.rule, v.measured, v.allowed) for v in res.violations] == [
        ("total-space", 400, 64)]


def reference_total_space_bound(params, delta):
    """Reference: the total-space law's bound for params at this delta."""
    if params.ell <= 0:
        return 0
    size = max(params.ell, params.n)
    log_term = math.log2(max(size, 2)) ** POLYLOG_EXP
    return int(C_TOTAL * (size ** (1.0 + delta)) * log_term)


def reference_min_delta_for_total_space(params):
    """Reference: the smallest delta in [0, 1) satisfying the total space
    law, or None, tried at delta = 0 before solving for the exponent."""
    if params.ell <= 0:
        return None
    if reference_total_space_bound(params, 0.0) >= params.p * params.s:
        return 0.0
    size = max(params.ell, params.n)
    if size <= 1:
        return None
    log_term = math.log2(max(size, 2)) ** POLYLOG_EXP
    need = params.p * params.s / (C_TOTAL * log_term)
    exponent = math.log(need) / math.log(size) - 1.0
    delta = max(0.0, min(exponent + 1e-9, 0.999999))
    if reference_total_space_bound(params, delta) >= params.p * params.s:
        return delta
    return None


def reference_with_min_delta(params):
    """Reference: the delta params should carry, 0 where none fits."""
    delta = reference_min_delta_for_total_space(params)
    return delta if delta is not None else 0.0


def test_with_min_delta_matches_the_two_step_reference():
    # ModelParams derives delta itself; the reference solves the law for
    # it from the bound at delta 0.  The law's size is max(ell, n), so every
    # ell in 1..n bounds like ell = n and the grid steps through n..4n
    fitted = unfit = 0
    for n in range(1, 65):
        ells = sorted({0, 1, 4 * n, *range(n, 4 * n, max(1, n // 2))})
        for p in range(1, 65):
            for c_space in range(1, 5):
                for ell in ells:
                    got = ModelParams.semi_mpc(n, p, ell=ell, c_space=c_space)
                    want = reference_with_min_delta(got)
                    assert got.delta == want, (n, p, ell, c_space)
                    fitted += got.delta > 0
                    unfit += got.delta == 0 and bool(got.start_violations())
    assert fitted > 1000 and unfit > 100


def test_semi_mpc_space_is_four_n():
    params = ModelParams.semi_mpc(10, 3, ell=0)
    assert params.s == 40
    assert params.kind == ModelKind.SEMI_MPC
    # s is derived, never set: a copy with another c_space re-derives it,
    # and the one-participant-per-vertex models carry none
    assert replace(params, c_space=8).s == 80
    assert ModelParams.clique(10).s == ModelParams.congest(10).s == 0


def test_replace_re_derives_delta():
    # delta is derived, never set: a copy with another c_space fits its
    # own delta (0.472) instead of keeping the stale 0.138, which would
    # break the total-space law (65,536 words against 16,384)
    narrow = ModelParams.semi_mpc(64, 256, ell=64, c_space=1)
    wide = ModelParams.semi_mpc(64, 256, ell=64, c_space=4)
    assert (round(narrow.delta, 3), round(wide.delta, 3)) == (0.138, 0.472)
    assert replace(narrow, c_space=4) == wide
    assert wide.start_violations() == []
    with pytest.raises(ValueError, match="init=False"):
        replace(wide, delta=0.9)


@pytest.mark.parametrize("key", ["s", "delta", "c_traffic", "c_total", "polylog_exp"])
def test_params_file_values_must_be_what_the_model_fixes(key):
    # files carry the derived s and delta and the three fixed constants; a
    # loaded file may not change them
    params = ModelParams.semi_mpc(10, 3, ell=40)
    doc = params.to_json_dict()
    assert [doc[k] for k in ("s", "c_traffic", "c_total", "polylog_exp")] == [40, 4, 4, 2]
    assert ModelParams.from_json_dict(doc) == params
    with pytest.raises(ValueError, match=f"params field '{key}' holds 5, not "):
        ModelParams.from_json_dict({**doc, key: 5})


# -- shared engine behavior -----------------------------------------------------

def test_round_cap_raises():
    g = gen_graph("path", 3)
    params = ModelParams.congest(3, round_cap=7)
    with pytest.raises(RoundLimitError):
        run_congest(NeverHalts(), g, params)


def test_word_overflow_rejected():
    class Wide(NodeProgram):
        def init(self, pid, local_input):
            return pid

        def on_round(self, state, inbox):
            return state, [Message(src=state, dst=(state + 1) % 3,
                                   payload=(10 ** 9,))], True

        def output(self, state):
            return []

    with pytest.raises(EngineContractError):
        run_clique(Wide(), gen_graph("complete", 3))


class SendsWord(NodeProgram):
    """Node 0 sends one given word to node dst (default 1), after the
    words in `lead` in the same message, then everyone halts."""

    def __init__(self, word, dst=1, lead=()):
        self.word = word
        self.dst = dst
        self.lead = lead

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        out = [Message(0, self.dst, self.lead + (self.word,))] if state == 0 else []
        return state, out, True

    def output(self, state):
        return []


@pytest.mark.parametrize("word", [0.123456789123, Fraction(1, 10 ** 30), 1.0,
                                  "7", None])
def test_payload_words_must_be_ints(word):
    # a float or a Fraction below the width limit used to pass as one word
    with pytest.raises(EngineContractError, match="not an int"):
        run_clique(SendsWord(word), gen_graph("complete", 3))


def test_bool_and_negative_payload_words():
    res = run_clique(SendsWord(True), gen_graph("complete", 3))
    assert res.clean and res.trace.rounds[0].transfers == ((0, 1, 1),)
    with pytest.raises(EngineContractError, match="overflows"):
        run_clique(SendsWord(-1), gen_graph("complete", 3))


@pytest.mark.parametrize("dst", [True, 1.0, Fraction(1), -1, 3],
                         ids=["bool", "float", "fraction", "negative", "p"])
def test_destination_must_be_a_participant_id(dst):
    # a bool used to pass as participant 1 and reach the ledger as `true`,
    # which verify then refused; a float or a Fraction escaped as TypeError
    with pytest.raises(EngineContractError,
                       match=re.escape(f"participant 0 addressed a message to {dst!r},")):
        run_clique(SendsWord(1, dst), gen_graph("complete", 3))


class SendsFrom(NodeProgram):
    """Node 1 sends one word to node 0 under a given src, then everyone
    halts."""

    def __init__(self, src):
        self.src = src

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        out = [Message(self.src, 0, (1,))] if state == 1 else []
        return state, out, True

    def output(self, state):
        return []


@pytest.mark.parametrize("src", [True, 1.0, 0], ids=["bool", "float", "other"])
def test_source_must_be_the_sender_as_an_int(src):
    # a bool or a float equal to the sender's id used to run clean, and the
    # receiver's inbox held src=True or src=1.0
    with pytest.raises(EngineContractError,
                       match=re.escape(f"participant 1 emitted a message claiming src={src!r}")):
        run_clique(SendsFrom(src), gen_graph("complete", 2))


@pytest.mark.parametrize("word, message", [
    (1 << 4, "payload word 16 overflows 4-bit words"),
    (-1, "payload word -1 overflows 4-bit words"),
    (2.0, "payload word 2.0 is a float, not an int"),
])
def test_every_word_of_a_multi_word_payload_is_checked(word, message):
    # a two-word message's second word goes through the same check as a
    # one-word message's (the clique of 3 nodes has 4-bit words)
    with pytest.raises(EngineContractError, match=f"^{re.escape(message)}$"):
        run_clique(SendsWord(word, lead=(1,)), gen_graph("complete", 3))


class Broadcasts(NodeProgram):
    """Node 0 emits the messages `outbox(yielded)` yields to nodes 1 and 2,
    keeping each one it yields in `yielded`, then everyone halts."""

    def __init__(self, outbox):
        self.outbox = outbox
        self.yielded = []

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        return state, (self.outbox(self.yielded) if state == 0 else []), True

    def output(self, state):
        return []


def _kept(messages, yielded):
    for msg in messages:
        yielded.append(msg)
        yield msg


def test_a_shared_payload_that_overflows_is_refused_at_its_first_message():
    # a payload the messages of one outbox share is checked once, at the first
    prog = Broadcasts(lambda yielded: _kept(Message.fan_out(0, (1, 2), (16,)), yielded))
    with pytest.raises(EngineContractError,
                       match="^payload word 16 overflows 4-bit words$"):
        run_clique(prog, gen_graph("complete", 3))
    assert len(prog.yielded) == 1


@pytest.mark.parametrize("late", [(16,), (3, 16), (3, -1)])
def test_a_new_payload_after_shared_ones_is_checked(late):
    # the same words in a new tuple, after a run of valid shared ones
    def outbox(yielded):
        return Message.fan_out(0, (1, 2), (3,)) + [Message(0, 2, (3,)), Message(0, 1, late)]

    with pytest.raises(EngineContractError,
                       match=f"^payload word {late[-1]} overflows 4-bit words$"):
        run_clique(Broadcasts(outbox), gen_graph("complete", 3))


def test_a_shared_list_payload_is_checked_at_every_message():
    # a Message built through tuple.__new__ keeps a list payload, which may
    # change between two messages of an outbox that is a generator: it is
    # refused at the first message, before its words are read
    def outbox(yielded):
        words = [3]
        yielded.append(tuple.__new__(Message, (0, 1, words)))
        yield yielded[-1]
        words[0] = 16
        yielded.append(tuple.__new__(Message, (0, 2, words)))
        yield yielded[-1]

    prog = Broadcasts(outbox)
    with pytest.raises(EngineContractError,
                       match="^participant 0 sent a list payload, not a tuple$"):
        run_clique(prog, gen_graph("complete", 3))
    assert len(prog.yielded) == 1


class GrowsASentList(NodeProgram):
    """Node 0 sends node 1 a Message built through tuple.__new__ around a
    list in round 1 and appends two words to that list in round 2, before
    node 1 reads it; node 1 keeps what it read in `read`."""

    def __init__(self):
        self.words = [1]
        self.read = None

    def init(self, pid, local_input):
        return (pid, 1)

    def on_round(self, state, inbox):
        pid, round_no = state
        out = []
        if pid == 0 and round_no == 1:
            out = [tuple.__new__(Message, (0, 1, self.words))]
        elif pid == 0:
            self.words += [99, 100]
        for msg in inbox:
            self.read = list(msg.payload)
        return (pid, round_no + 1), out, round_no == 2

    def output(self, state):
        return []


def test_a_list_payload_is_refused_before_its_words_can_change():
    # it used to run clean with the ledger ((0, 1, 1),) while node 1 read
    # [1, 99, 100]: two uncharged words above the 4-bit width
    prog = GrowsASentList()
    with pytest.raises(EngineContractError,
                       match="^participant 0 sent a list payload, not a tuple$"):
        run_clique(prog, gen_graph("complete", 3))
    assert prog.read is None


class SendsANonePayload(NodeProgram):
    """Every node below `sender` sends node `sender` a valid message, then
    node `sender` emits a Message built through tuple.__new__ around None,
    all in round 1."""

    def __init__(self, sender):
        self.sender = sender

    def init(self, pid, local_input):
        return pid

    def on_round(self, state, inbox):
        if state < self.sender:
            out = [Message(state, self.sender, (1, 2))]
        elif state == self.sender:
            out = [tuple.__new__(Message, (state, 0, None))]
        else:
            out = []
        return state, out, True

    def output(self, state):
        return []


@pytest.mark.parametrize("sender", [0, 2])
def test_a_none_payload_is_refused_at_an_outbox_s_first_message(sender):
    # as the run's first message it used to raise UnboundLocalError; after
    # another participant's message it was delivered and charged that
    # message's word count
    with pytest.raises(EngineContractError,
                       match=f"^participant {sender} sent a NoneType payload, not a tuple$"):
        run_clique(SendsANonePayload(sender), gen_graph("complete", 3))


def test_an_empty_payload_is_refused():
    # five messages around () built through tuple.__new__ used to run clean
    # with the ledger ((0, 1, 0),) * 5: their number carried uncharged
    # information
    prog = Broadcasts(lambda yielded: _kept([tuple.__new__(Message, (0, 1, ()))] * 5,
                                            yielded))
    with pytest.raises(EngineContractError, match="^participant 0 sent an empty payload$"):
        run_clique(prog, gen_graph("complete", 3))
    assert len(prog.yielded) == 1


class ReadsASecret(NodeProgram):
    """Node 0 sends node 1 the one-word payload (word,) in round 1; node 1
    keeps what it reads of the word's attribute `secret` in `read`."""

    def __init__(self, word):
        self.word = word
        self.read = None

    def init(self, pid, local_input):
        return (pid, 1)

    def on_round(self, state, inbox):
        pid, round_no = state
        out = [Message(0, 1, (self.word,))] if pid == 0 and round_no == 1 else []
        for msg in inbox:
            self.read = getattr(msg.payload[0], "secret", None)
        return (pid, round_no + 1), out, round_no == 2

    def output(self, state):
        return []


class SlotInt(int):
    __slots__ = ()


def test_a_payload_word_that_carries_attributes_is_refused():
    # it used to run clean with the ledger ((0, 1, 1),) while node 1 read
    # the word's six-item secret
    word = AttrInt(1)
    word.secret = (0, 1, 2, 3, 4, "more")
    prog = ReadsASecret(word)
    with pytest.raises(EngineContractError,
                       match="^payload word 1 is a AttrInt, whose instances carry attributes$"):
        run_clique(prog, gen_graph("complete", 3))
    assert prog.read is None
    # a bool and an int subclass without attributes stay one word
    for word in (True, SlotInt(1)):
        res = run_clique(ReadsASecret(word), gen_graph("complete", 3))
        assert res.clean and res.trace.rounds[0].transfers == ((0, 1, 1),)


@pytest.mark.parametrize("kind, p, n, message", [
    (ModelKind.SEMI_MPC, 0, 4, "p must be >= 1"),
    (ModelKind.CLIQUE, 3, 4, "CLIQUE requires one participant per vertex"),
    (ModelKind.CONGEST, 5, 4, "CONGEST requires one participant per vertex"),
])
def test_params_refuse_an_impossible_participant_count(kind, p, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ModelParams(kind=kind, p=p, n=n)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 1000])
def test_an_omitted_word_width_is_the_vertex_ids_width(n):
    # the class and its three factories share one default; the class used
    # to default to 8 bits whatever n was
    assert (ModelParams(kind=ModelKind.SEMI_MPC, p=1, n=n).word_width_bits
            == ModelParams.semi_mpc(n, 1, ell=0).word_width_bits
            == ModelParams.clique(n).word_width_bits
            == ModelParams.congest(n).word_width_bits
            == word_width(n))


@pytest.mark.parametrize("factory", [ModelParams.clique, ModelParams.congest],
                         ids=["factory0", "factory1"])
def test_word_width_zero_is_not_the_default(factory):
    # `word_width_bits or word_width(n)` used to turn 0 into the default width
    with pytest.raises(ValueError, match="word width must be >= 1 bit"):
        factory(8, word_width_bits=0)
    with pytest.raises(ValueError, match="word width must be >= 1 bit"):
        ModelParams.semi_mpc(8, 2, ell=4, word_width_bits=0)


def test_self_messages_are_free_and_delivered():
    class SelfTalker(NodeProgram):
        def init(self, pid, local_input):
            return (pid, 1, 0)

        def on_round(self, state, inbox):
            pid, r, got = state
            for m in inbox:
                got = m.payload[0]
            if r == 1:
                return (pid, 2, got), [Message(src=pid, dst=pid,
                                               payload=(pid + 1,))], False
            return (pid, 2, got), [], True

        def output(self, state):
            return [state[2]]

    g = gen_graph("complete", 3)
    res = run_clique(SelfTalker(), g)
    assert res.outputs == [[1], [2], [3]]
    # self messages never appear as transfers
    assert all(not rec.transfers for rec in res.trace.rounds)


def test_receiver_gets_the_senders_message_object():
    class KeepsInbox(NodeProgram):
        """Node 0 sends to node 1 in round 1; node 1 keeps its round-2 inbox."""

        def __init__(self):
            self.sent, self.received = [], []

        def init(self, pid, local_input):
            return pid

        def on_round(self, state, inbox):
            self.received.extend(inbox)
            if state == 0 and not self.sent:
                self.sent.append(Message(src=0, dst=1, payload=(3,)))
                return state, list(self.sent), False
            return state, [], bool(self.received)

        def output(self, state):
            return []

    prog = KeepsInbox()
    res = run_clique(prog, gen_graph("complete", 2))
    assert res.clean and res.rounds_used == 2
    assert len(prog.received) == 1 and prog.received[0] is prog.sent[0]


def test_outbox_must_hold_messages():
    class Impostor(NodeProgram):
        def init(self, pid, local_input):
            return pid

        def on_round(self, state, inbox):
            return state, [(state, 1 - state, (1,))], True

        def output(self, state):
            return []

    with pytest.raises(EngineContractError, match="not a Message"):
        run_clique(Impostor(), gen_graph("complete", 2))


def test_message_rejects_empty_payload():
    for empty in ((), []):
        with pytest.raises(ValueError, match="at least one word"):
            Message(src=0, dst=1, payload=empty)


def test_message_list_payload_becomes_tuple():
    msg = Message(src=0, dst=1, payload=[5, 6])
    assert msg.payload == (5, 6) and type(msg.payload) is tuple
    assert (msg.src, msg.dst, len(msg.payload)) == (0, 1, 2)


@pytest.mark.parametrize("dsts", [
    lambda: range(5),
    lambda: chain(range(2), range(3, 6)),
    lambda: range(0),
], ids=["range", "chain", "empty"])
@pytest.mark.parametrize("payload", [(7,), (1, 2, 3)])
def test_fan_out_builds_what_the_constructor_builds(dsts, payload):
    got = Message.fan_out(2, dsts(), payload)
    want = [Message(2, d, payload) for d in dsts()]
    assert got == want
    assert [type(m) for m in got] == [Message] * len(want)


def test_fan_out_coerces_a_list_payload_once():
    got = Message.fan_out(0, range(1, 4), [5, 6])
    assert got == [Message(0, d, [5, 6]) for d in range(1, 4)]
    assert all(type(m.payload) is tuple for m in got)
    assert len({id(m.payload) for m in got}) == 1


def test_fan_out_refuses_an_empty_payload_as_the_constructor_does():
    for empty in ((), []):
        with pytest.raises(ValueError, match="^payload must contain at least one word$"):
            Message.fan_out(0, range(1, 3), empty)


def test_fan_out_runs_post_init_once_per_message(monkeypatch):
    # bench/tracer.py counts Message.__post_init__ calls as core.messages
    calls = []
    post_init = Message.__post_init__
    monkeypatch.setattr(Message, "__post_init__",
                        lambda self: calls.append(self) or post_init(self))
    got = Message.fan_out(3, chain(range(3), range(4, 9)), (1,))
    assert len(got) == 8 and calls == got
    assert [id(m) for m in calls] == [id(m) for m in got]


def test_message_is_immutable():
    msg = Message(src=0, dst=1, payload=(5,))
    for attr in ("src", "dst", "payload", "round"):
        with pytest.raises(AttributeError):
            setattr(msg, attr, 2)
    assert not hasattr(msg, "round")


def test_equal_messages_compare_and_hash_equal():
    a = Message(src=2, dst=0, payload=(7, 8))
    b = Message(2, 0, [7, 8])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Message(src=2, dst=0, payload=(8, 7))
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == "Message(src=2, dst=0, payload=(7, 8))"


def test_determinism_bit_identical():
    g = gen_graph("gnp", 16, prob=0.2, seed=3)
    a = run_congest(FixedRoundFlood(5), g)
    b = run_congest(FixedRoundFlood(5), g)
    assert a.to_json_dict() == b.to_json_dict()


def test_conservation_sent_equals_received():
    for seed in range(10):
        g = random_graph(10, seed)
        res = run_congest(FixedRoundFlood(4), g)
        for r in range(1, res.trace.num_rounds + 1):
            total_sent = sum(res.trace.sent_words(v, r) for v in range(g.n))
            total_recv = sum(res.trace.recv_words(v, r) for v in range(g.n))
            assert total_sent == total_recv


# -- check_trace --------------------------------------------------------------

def test_check_trace_clean_run_is_clean():
    g = gen_graph("gnp", 12, prob=0.3, seed=1)
    res = run_congest(FixedRoundFlood(4), g)
    assert res.clean
    assert check_trace(res.trace, res.params, g) == []


def test_check_trace_reproduces_engine_violation():
    g = gen_graph("complete", 4)
    res = run_clique(Blaster(), g)
    assert not res.clean
    again = check_trace(res.trace, res.params, g)
    assert again == res.violations


def test_check_trace_flags_doctored_round():
    g = gen_graph("complete", 4)
    res = run_clique(SendIdToZero(), g)
    rec = res.trace.rounds[0]
    doctored = RoundTrace(
        num_participants=4,
        rounds=(RoundRecord(transfers=rec.transfers + ((1, 0, 1),),
                            space=rec.space),))
    bad = check_trace(doctored, res.params, g)
    assert bad and bad[0].rule == "pair-capacity" and bad[0].round == 1


@pytest.mark.parametrize("params", [ModelParams.clique(3), ModelParams.semi_mpc(3, 3, ell=0)],
                         ids=["clique", "semi-mpc"])
def test_check_trace_refuses_a_zero_word_transfer(params):
    # no engine records one; it used to re-check clean
    trace = RoundTrace(3, (RoundRecord(((1, 2, 1), (0, 1, 0)), (0, 0, 0)),))
    with pytest.raises(ValueError,
                       match="^round 1 lists a transfer of fewer than one word$"):
        check_trace(trace, params)


def test_check_trace_congest_requires_graph():
    g = gen_graph("path", 4)
    res = run_congest(FixedRoundFlood(2), g)
    assert check_trace(res.trace, res.params, g) == []
    with pytest.raises(ValueError, match="needs its graph"):
        check_trace(res.trace, res.params)


def test_check_trace_space_boundary():
    params = ModelParams.semi_mpc(5, 2, ell=0)
    at_budget = RoundTrace(2, (RoundRecord((), (params.s, 0)),))
    over = RoundTrace(2, (RoundRecord((), (params.s + 1, 0)),))
    assert check_trace(at_budget, params) == []
    bad = check_trace(over, params)
    assert bad and bad[0].rule == "space-budget"


# -- state metering -------------------------------------------------------------

class GrowShrink(NodeProgram):
    """Machine states whose size rises and falls from round to round, with
    inboxes of varying size.  The state is (pid, round, kept, junk): junk is
    replaced every round, kept only every third one and otherwise carried
    over as the very same object.  Logs every transition for the tests to
    recompute the space ledger from."""

    def __init__(self, p, rounds):
        self.p = p
        self.rounds = rounds
        self.log = []  # (round, pid, state before, inbox, state after)

    def init(self, pid, local_input):
        return (pid, 1, (pid, ()), ())

    def on_round(self, state, inbox):
        pid, r, kept, _junk = state
        size = (3 * pid + 5 * r) % 7
        junk = ((0, tuple(range(size))),) if r % 2 else tuple(range(size))
        if (pid + r) % 3 == 0:
            kept = (pid, tuple(range(size + r)))
        new = (pid, r + 1, kept, junk)
        out = [Message(src=pid, dst=(pid + 1) % self.p,
                       payload=(pid,) * ((pid + r) % 4 + 1))]
        self.log.append((r, pid, state, inbox, new))
        return new, out, r >= self.rounds

    def output(self, state):
        return []


def _grow_shrink_run(p=3, rounds=6):
    prog = GrowShrink(p, rounds)
    res = run_mpc(prog, [[]] * p, _mpc_params(p=p, s=64))
    assert res.clean and res.rounds_used == rounds
    return prog, res


def test_space_is_max_of_before_plus_inbox_and_after():
    prog, res = _grow_shrink_run()
    before_wins = after_wins = kept = replaced = 0
    for r, pid, before, inbox, after in prog.log:
        pre = words_in(before) + sum(len(m.payload) for m in inbox)
        post = words_in(after)
        assert res.trace.rounds[r - 1].space[pid] == max(pre, post)
        before_wins += pre > post
        after_wins += post > pre
        kept += after[2] is before[2]
        replaced += after[2] is not before[2]
    # both sides of the max decide some round, and the field the engine
    # may reuse is both carried over and replaced
    assert before_wins and after_wins and kept and replaced


class Unchanged(NodeProgram):
    """Returns every state unchanged; node 0 counts the rounds in a message
    to itself, so no state ever changes."""

    def init(self, pid, local_input):
        return (pid, tuple(range(pid + 2)))

    def on_round(self, state, inbox):
        r = inbox[0].payload[0] if inbox else 1
        out = [Message(0, 0, (r + 1,))] if state[0] == 0 else []
        return state, out, r >= 5

    def output(self, state):
        return []


def test_only_replaced_fields_are_metered(monkeypatch):
    import distsim.engines as engines

    real = engines.words_in
    calls = []

    def counting(obj):
        calls.append(obj)
        return real(obj)

    monkeypatch.setattr(engines, "words_in", counting)
    p, rounds = 3, 6
    prog, _res = _grow_shrink_run(p, rounds)
    # init: kept and junk of every state; then each non-int field that is
    # not the previous state's object at the same position
    owed = 2 * p + sum(x is not y and type(x) is not int
                       for _r, _pid, before, _inbox, after in prog.log
                       for x, y in zip(after, before))
    assert owed < p * (rounds + 1) * 2
    assert len(calls) == owed

    # the neighbour tuple is the only non-int field and never changes
    calls.clear()
    res = run_congest(FixedRoundFlood(4), gen_graph("path", 5))
    assert res.rounds_used == 4
    assert len(calls) == 5

    # a state returned unchanged costs nothing, and keeps its size (node 0
    # also holds its one-word self-message from round 2 on)
    calls.clear()
    res = run_clique(Unchanged(), gen_graph("complete", 3))
    assert res.clean and res.rounds_used == 5
    assert len(calls) == 3
    assert [rec.space for rec in res.trace.rounds] == [(3, 4, 5)] + [(4, 4, 5)] * 4


class RefusedState(NodeProgram):
    """Returns an unmeterable value as participant 1's state in round r
    (0: from init)."""

    def __init__(self, r, value):
        self.r = r
        self.value = value

    def init(self, pid, local_input):
        return self.value if self.r == 0 and pid == 1 else (pid, 1)

    def on_round(self, state, inbox):
        pid, r = state
        if r == self.r and pid == 1:
            return (pid, r + 1, self.value), [], False
        return (pid, r + 1), [], r >= 3

    def output(self, state):
        return []


@pytest.mark.parametrize("r, value, name", [
    pytest.param(0, [1, 2], "list", id="list-from-init"),
    pytest.param(2, {1: 2}, "dict", id="dict-in-round-2"),
    pytest.param(0, {1}, "set", id="set-from-init")])
def test_unmeterable_state_is_a_contract_error(r, value, name):
    with pytest.raises(EngineContractError,
                       match=f"participant 1 .* round {r}: cannot meter {name}"):
        run_clique(RefusedState(r, value), gen_graph("complete", 3))


# -- words_in -----------------------------------------------------------------

Pair = namedtuple("Pair", "left right")


def test_words_in_counts_structures():
    assert words_in(5) == 1
    assert words_in(True) == 1
    assert words_in(None) == 0
    assert words_in((1, 2, 3)) == 3
    assert words_in(((1, (2, 3)), frozenset({4, 5}), ())) == 5
    assert words_in(Message(0, 1, (7, 8))) == 4
    assert words_in(Pair(1, (None, 2))) == 2


def test_words_in_rejects_opaque_state():
    with pytest.raises(TypeError):
        words_in("sneaky string")


@pytest.mark.parametrize("value", [[1], {1: 2}, {1}, [], {}, set()],
                         ids=["list", "dict", "set", "empty-list", "empty-dict",
                              "empty-set"])
def test_words_in_refuses_mutable_containers(value):
    name = type(value).__name__
    for state in (value, (1, (2, value))):
        with pytest.raises(TypeError, match=f"cannot meter {name} in"):
            words_in(state)


class AttrTuple(tuple):
    pass


class AttrInt(int):
    pass


class SlotFrozenset(frozenset):
    __slots__ = ("x",)


class EmptyIterTuple(tuple):
    __slots__ = ()

    def __iter__(self):
        return iter(())


def test_words_in_refuses_data_beside_the_contents():
    # metered by their contents alone, the 10,000 words would go uncounted
    t = AttrTuple((1, 2))
    t.secret = list(range(10_000))
    i = AttrInt(3)
    i.secret = list(range(10_000))
    f = SlotFrozenset({1})
    f.x = list(range(10_000))
    for value in (t, i, f):
        for state in (value, (0, value)):
            with pytest.raises(TypeError, match=type(value).__name__):
                words_in(state)


def test_words_in_meters_a_tuple_subclass_by_its_items():
    # a subclass's own __iter__ cannot hide the items it stores
    assert words_in(EmptyIterTuple((1, 2, 3))) == 3


def reference_words_in(obj) -> int:
    """A recursive walk, kept as the specification of words_in."""
    if obj is None:
        return 0
    t = type(obj)
    if t.__dictoffset__:
        raise TypeError(f"cannot meter {t.__name__} in program state: "
                        "its instances carry attributes")
    if isinstance(obj, int):
        return 1
    if isinstance(obj, tuple):
        return sum(map(reference_words_in, tuple.__iter__(obj)))
    if t is frozenset:
        return sum(map(reference_words_in, obj))
    raise TypeError(f"cannot meter {t.__name__} in program state (states hold "
                    "only ints, None, tuples and frozensets)")


_ints = st.integers(-2 ** 70, 2 ** 70)
_keys = st.one_of(_ints, st.booleans(), st.tuples(_ints, _ints))
_leaves = st.one_of(_ints, st.booleans(), st.none(), st.frozensets(_keys, max_size=3))


def _states(bad):
    """Nested program states; with bad, a str, a float, a mutable container
    or an attribute carrier may sit at any depth."""
    leaves = _leaves
    if bad:
        leaves = st.one_of(_leaves, st.text(max_size=2), st.floats(),
                           st.lists(_ints, max_size=2), st.sets(_keys, max_size=2),
                           st.dictionaries(_keys, _ints, max_size=2),
                           st.builds(AttrTuple, st.lists(_ints, max_size=2)))

    def extend(children):
        return st.one_of(
            st.tuples(children, children),
            st.lists(children, max_size=4).map(tuple),
            st.builds(Pair, children, children),
            st.builds(Message, st.integers(0, 9), st.integers(0, 9),
                      st.lists(_ints, min_size=1, max_size=3)),
        )
    return st.recursive(leaves, extend, max_leaves=25)


def _metered(fn, state):
    try:
        return fn(state)
    except TypeError as exc:
        return ("TypeError", str(exc))


# the fast walk's domain: exact ints, None and exact tuples
_plain = st.recursive(st.one_of(_ints, st.none()),
                      lambda children: st.lists(children, max_size=3).map(tuple),
                      max_leaves=6)
# values the fast walk leaves to the general walk, which meters them
_odd = st.one_of(st.booleans(), st.builds(SlotInt, _ints),
                 st.builds(Message, st.integers(0, 9), st.integers(0, 9),
                           st.lists(_ints, min_size=1, max_size=3)),
                 st.builds(Pair, _plain, _plain), st.frozensets(_keys, max_size=3))
# values the general walk refuses
_unmeterable = st.one_of(st.text(max_size=2), st.floats(), st.lists(_ints, max_size=2),
                         st.sets(_keys, max_size=2),
                         st.dictionaries(_keys, _ints, max_size=2),
                         st.builds(AttrTuple, st.lists(_ints, max_size=2)),
                         st.builds(AttrInt, _ints),
                         st.builds(SlotFrozenset, st.frozensets(_ints, max_size=2)))


def _wrapped(leaf, layers):
    """leaf wrapped in one plain tuple per layer, alone or beside a plain
    sibling."""
    for side, sibling in layers:
        leaf = ((leaf,), (sibling, leaf), (leaf, sibling))[side]
    return leaf


def _straddling(leaf):
    """leaf at the bottom of up to three more plain tuples than the fast
    walk takes: a state the fast walk meters whole, or leaves to the
    general walk part-way down."""
    layers = st.lists(st.tuples(st.integers(0, 2), _plain), max_size=_PLAIN_DEPTH + 3)
    return st.builds(_wrapped, leaf, layers)


@settings(max_examples=500, deadline=None)
@given(state=st.one_of(_states(bad=False), _states(bad=True), _straddling(_plain),
                       _straddling(_odd), _straddling(_unmeterable)))
def test_words_in_matches_recursive_reference(state):
    assert _metered(words_in, state) == _metered(reference_words_in, state)


def test_words_in_walks_past_the_fast_walks_depth():
    # the fast walk takes tuples nested _PLAIN_DEPTH levels below the
    # top one; one level deeper, the general walk meters the state
    state = (1,)
    for _ in range(_PLAIN_DEPTH):
        state = (state, 2)
    assert _plain_words(state, _PLAIN_DEPTH) == _PLAIN_DEPTH + 1
    with pytest.raises(_NotPlain):
        _plain_words((state,), _PLAIN_DEPTH)
    assert words_in(state) == words_in((state,)) == _PLAIN_DEPTH + 1


def test_words_in_meters_deep_nesting():
    state = (7,)
    for _ in range(10_000):
        state = (state, ())
    assert words_in(state) == 1
    state = (1, state)
    assert words_in(state) == 2


def test_words_in_refuses_nesting_beyond_the_guard():
    from distsim.engines import _MAX_NESTING

    state = ()
    for _ in range(_MAX_NESTING + 1):
        state = (state,)
    with pytest.raises(TypeError, match="nested more than"):
        words_in(state)
    # one level less is metered
    assert words_in(state[0]) == 0


def test_words_in_refuses_a_list_even_a_cyclic_one():
    state = [1]
    state.append(state)
    with pytest.raises(TypeError, match="cannot meter list"):
        words_in(state)


# -- random programs: the field-by-field ledger against a from-scratch one ------

_fields = st.recursive(
    st.one_of(st.integers(0, 9), st.none(), st.booleans(),
              st.frozensets(st.integers(0, 9), max_size=3)),
    lambda children: st.one_of(st.lists(children, max_size=3).map(tuple),
                               st.builds(Pair, children, children)),
    max_leaves=6)


def _next_state(draw, state):
    """Keep the state, keep or replace each of its fields, or replace it."""
    how = draw(st.sampled_from(["same", "fields", "fields", "whole"]))
    if how == "same":
        return state
    if how == "fields" and type(state) is tuple:
        return tuple(x if draw(st.booleans()) else draw(_fields) for x in state)
    return draw(st.one_of(_fields, st.lists(_fields, max_size=4).map(tuple)))


@st.composite
def _scripted_runs(draw):
    p = draw(st.integers(1, 3))
    rounds = draw(st.integers(1, 4))
    inits = [draw(st.lists(_fields, max_size=4).map(tuple)) for _ in range(p)]
    states = list(inits)
    script = []  # per round and participant: (next state, [(dst, words)])
    for _r in range(rounds):
        row = []
        for pid in range(p):
            states[pid] = _next_state(draw, states[pid])
            sends = draw(st.lists(st.tuples(st.integers(0, p - 1),
                                            st.integers(1, 3)), max_size=2))
            row.append((states[pid], sends))
        script.append(row)
    return p, inits, script


class Scripted(NodeProgram):
    """Plays a drawn script, one call after another in the engine's
    participant order, and logs (round, pid, before, inbox words, after)."""

    def __init__(self, p, inits, script):
        self.p, self.inits, self.script = p, inits, script
        self.calls = 0
        self.log = []

    def init(self, pid, local_input):
        return self.inits[pid]

    def on_round(self, state, inbox):
        r, pid = divmod(self.calls, self.p)
        self.calls += 1
        after, sends = self.script[r][pid]
        self.log.append((r + 1, pid, state,
                         sum(len(m.payload) for m in inbox), after))
        out = [Message(pid, dst, (1,) * words) for dst, words in sends]
        return after, out, r + 1 >= len(self.script)

    def output(self, state):
        return []


@settings(max_examples=150, deadline=None)
@given(run=_scripted_runs(), c_space=st.integers(1, 3))
def test_field_ledger_matches_metering_from_scratch(run, c_space):
    p, inits, script = run
    prog = Scripted(p, inits, script)
    params = ModelParams.semi_mpc(3, p, ell=0, c_space=c_space)
    res = run_mpc(prog, [[]] * p, params)
    assert len(prog.log) == p * res.rounds_used
    for r, pid, before, inbox_words, after in prog.log:
        assert res.trace.rounds[r - 1].space[pid] == max(
            words_in(before) + inbox_words, words_in(after))
    assert check_trace(res.trace, params) == res.violations


# -- per-round budget checks -----------------------------------------------------

def reference_round_violations(round_no, transfers, space, params, graph):
    """The per-pair dict loop the engine used for every round, kept as the
    specification of _round_violations."""
    out = []
    if params.kind in (ModelKind.CLIQUE, ModelKind.CONGEST):
        pair_load = {}
        flagged = set()
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
        sent = [0] * params.p
        recv = [0] * params.p
        for s, d, w in transfers:
            sent[s] += w
            recv[d] += w
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


@st.composite
def _rounds(draw):
    kind = draw(st.sampled_from([ModelKind.CLIQUE, ModelKind.CONGEST,
                                 ModelKind.SEMI_MPC]))
    n = draw(st.integers(2, 6))
    if kind == ModelKind.SEMI_MPC:
        p = draw(st.integers(1, n))
        params = ModelParams.semi_mpc(n, p, ell=0, c_space=1)
    else:
        p = n
        params = (ModelParams.clique(n) if kind == ModelKind.CLIQUE
                  else ModelParams.congest(n))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    graph = Graph(n=n, edges=tuple(sorted(draw(st.sets(st.sampled_from(all_edges))))))
    # few participants and entries of 0 to 3 words, so pairs repeat and
    # overflow
    transfer = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1),
                         st.integers(0, 3))
    transfers = draw(st.lists(transfer, max_size=12))
    if draw(st.booleans()):  # clean-looking rounds: distinct one-word pairs
        transfers = list(dict.fromkeys((s, d, 1) for s, d, _w in transfers))
    if transfers and draw(st.booleans()):  # repeat some triples verbatim
        repeats = draw(st.lists(st.sampled_from(transfers), min_size=1, max_size=3))
        for triple in repeats:
            transfers.insert(draw(st.integers(0, len(transfers))), triple)
    space = draw(st.lists(st.integers(0, 2 * n), min_size=p, max_size=p))
    return params, graph, transfers, space


@settings(max_examples=400, deadline=None)
@given(case=_rounds(), round_no=st.integers(1, 5))
def test_round_violations_match_reference(case, round_no):
    params, graph, transfers, space = case
    assert (_round_violations(round_no, transfers, space, params, graph)
            == reference_round_violations(round_no, transfers, space,
                                          params, graph))


# -- contract fuzzer ---------------------------------------------------------------

def _attr_int(value):
    word = AttrInt(value)
    word.secret = (value,) * 8
    return word


# in-range, out-of-range and bool words, and int subclasses with and without
# attributes (the 2- to 4-node cliques have 3- and 4-bit words)
_fuzz_words = st.one_of(st.integers(-2, 20), st.booleans(),
                        st.integers(0, 20).map(_attr_int), st.integers(0, 7).map(SlotInt))
_fuzz_payloads = st.one_of(
    st.lists(_fuzz_words, max_size=3).map(tuple),  # () included
    st.lists(_fuzz_words, max_size=3),
    st.none(),
    st.lists(_fuzz_words, max_size=3).map(AttrTuple),
    st.builds(Pair, _fuzz_words, _fuzz_words),
)


@st.composite
def _contract_runs(draw):
    """A clique size and, per node, an outbox of Messages built through
    tuple.__new__ around payloads drawn from one pool, so that one payload
    object may sit in several messages and outboxes.  An outbox addresses
    each node at most once, so that one-word payloads make a clean run and
    get delivered."""
    n = draw(st.integers(2, 4))
    pool = draw(st.lists(_fuzz_payloads, min_size=1, max_size=4))
    outboxes = [[tuple.__new__(Message, (pid, dst, draw(st.sampled_from(pool))))
                 for dst in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))]
                for pid in range(n)]
    return n, outboxes


class Emits(NodeProgram):
    """Each node emits its given outbox in round 1 and keeps the inbox of
    round 2 in `inboxes`; everyone halts in round 2."""

    def __init__(self, outboxes):
        self.outboxes = outboxes
        self.inboxes = {}

    def init(self, pid, local_input):
        return (pid, 1)

    def on_round(self, state, inbox):
        pid, round_no = state
        if round_no == 2:
            self.inboxes[pid] = list(inbox)
        return (pid, 2), (self.outboxes[pid] if round_no == 1 else []), round_no == 2

    def output(self, state):
        return []


def _pair_words(triples):
    """Words per (src, dst) pair of (src, dst, words) triples, self-pairs
    left out as the ledger leaves them."""
    out = {}
    for src, dst, words in triples:
        if src != dst:
            out[src, dst] = out.get((src, dst), 0) + words
    return out


@settings(max_examples=250, deadline=None)
@example(run=(3, [[tuple.__new__(Message, (0, 1, ()))] * 5, [], []]))
@example(run=(3, [[tuple.__new__(Message, (0, 1, (_attr_int(1),)))], [], []]))
@given(run=_contract_runs())
def test_the_engine_refuses_or_charges_every_outbox(run):
    # either the engine refuses the outboxes, or what it delivers is what
    # its ledger charges, in words the model allows; the two examples are
    # the zero-word and the attribute-carrying word that used to run clean
    n, outboxes = run
    prog, graph = Emits(outboxes), gen_graph("complete", n)
    try:
        res = run_clique(prog, graph)
    except EngineContractError:
        return
    limit = 1 << res.params.word_width_bits
    delivered = list(chain.from_iterable(prog.inboxes.values()))
    for _src, _dst, payload in delivered:
        assert type(payload) is tuple and payload
        for word in payload:
            assert isinstance(word, int) and not type(word).__dictoffset__
            assert 0 <= word < limit
    ledger = _pair_words(chain.from_iterable(rec.transfers for rec in res.trace.rounds))
    emitted = [(src, dst, len(payload)) for src, dst, payload in chain.from_iterable(outboxes)]
    assert ledger == _pair_words(emitted)
    if res.clean:
        assert ledger == _pair_words((s, d, len(payload)) for s, d, payload in delivered)
    assert check_trace(res.trace, res.params, graph) == res.violations
