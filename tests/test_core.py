import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsim import (
    Graph,
    GraphFormatError,
    ModelParams,
    RoundTrace,
    Violation,
    check_trace,
    components_oracle,
    gen_graph,
    load_graph,
)
from distsim.core import (
    FieldCodec,
    RoundRecord,
    components_by_bfs,
    components_by_union_find,
    edge_pairs,
    id_width,
    word_width,
)

from conftest import ledger_record, random_graph


# -- load_graph ---------------------------------------------------------------

def test_load_simple_graph():
    g = load_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_load_edgeless():
    g = load_graph("4 0")
    assert g.n == 4 and g.m == 0


def test_load_endpoint_out_of_range():
    with pytest.raises(GraphFormatError) as info:
        load_graph("2 1\n0 5")
    assert "out of range" in str(info.value)
    assert info.value.line_no == 2


def test_load_self_loop_rejected():
    with pytest.raises(GraphFormatError) as info:
        load_graph("3 1\n1 1")
    assert "self-loop" in str(info.value)


def test_load_duplicate_rejected_both_orientations():
    with pytest.raises(GraphFormatError):
        load_graph("3 2\n0 1\n0 1")
    with pytest.raises(GraphFormatError) as info:
        load_graph("3 2\n0 1\n1 0")
    assert "duplicate" in str(info.value)
    assert info.value.line_no == 3


def test_load_count_mismatch():
    with pytest.raises(GraphFormatError) as info:
        load_graph("3 2\n0 1")
    assert "promises 2" in str(info.value)


@pytest.mark.parametrize("text, line_no, message", [
    ("", 1, "empty input"),
    (" \n\t\n", 1, "empty input"),
    ("3", 1, "expected header 'n m', got '3'"),
    ("\n3 1 0\n0 1", 2, "expected header 'n m', got '3 1 0'"),
    ("3 x\n0 1", 1, "non-integer header '3 x'"),
    ("0 0", 1, "vertex count 0 must be >= 1"),
    ("3 -1", 1, "edge count -1 must be >= 0"),
    ("3 2", 1, "header promises 2 edges, found 0"),
    ("3 1\n0", 2, "expected 'u v', got '0'"),
    ("3 1\n0 1 2", 2, "expected 'u v', got '0 1 2'"),
])
def test_load_refuses_malformed_input(text, line_no, message):
    with pytest.raises(GraphFormatError) as info:
        load_graph(text)
    assert info.value.line_no == line_no
    assert str(info.value) == f"line {line_no}: {message}"


def test_edge_pairs_refuses_an_odd_word_count():
    assert edge_pairs([0, 1, 2, 3]) == ((0, 1), (2, 3))
    with pytest.raises(ValueError, match=r"^edge input must hold \(u, v\) word pairs$"):
        edge_pairs([0, 1, 2])


def test_load_malformed_line_names_line_number():
    with pytest.raises(GraphFormatError) as info:
        load_graph("3 1\n0 x")
    assert info.value.line_no == 2


def test_edge_list_round_trip():
    g = gen_graph("gnp", 20, prob=0.3, seed=5)
    assert load_graph(g.to_edge_list_text()).edges == g.edges


# -- gen_graph ----------------------------------------------------------------

def test_gen_complete():
    assert gen_graph("complete", 4).m == 6


def test_gen_path():
    assert gen_graph("path", 5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_gen_star():
    g = gen_graph("star", 6)
    assert g.degrees[0] == 5
    assert all(d == 1 for d in g.degrees[1:])


def test_gen_cycle():
    g = gen_graph("cycle", 5)
    assert g.m == 5
    assert all(d == 2 for d in g.degrees)


def test_gen_gnp_deterministic():
    a = gen_graph("gnp", 64, prob=0.05, seed=7)
    b = gen_graph("gnp", 64, prob=0.05, seed=7)
    assert a.edges == b.edges


def test_gen_gnp_bad_probability():
    with pytest.raises(ValueError, match="probability out of range"):
        gen_graph("gnp", 8, prob=1.5)


@pytest.mark.parametrize("kind, n, message", [
    ("path", 0, "n must be >= 1"),
    ("gnp", -1, "n must be >= 1"),
    ("cycle", 2, "cycle needs n >= 3"),
])
def test_gen_refuses_too_few_vertices(kind, n, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_graph(kind, n, prob=0.5 if kind == "gnp" else None)


def test_gen_unknown_kind():
    with pytest.raises(ValueError):
        gen_graph("torus", 8)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(n=3, edges=((1, 1),))
    with pytest.raises(ValueError):
        Graph(n=3, edges=((0, 3),))
    with pytest.raises(ValueError):
        Graph(n=3, edges=((0, 1), (0, 1)))


def test_degree_sum_is_twice_edge_count():
    for seed in range(50):
        g = random_graph(24, seed)
        assert sum(g.degrees) == 2 * g.m


# -- components oracle --------------------------------------------------------

def test_oracle_path():
    assert components_oracle(gen_graph("path", 3)) == [0, 0, 0]


def test_oracle_two_pairs():
    g = Graph(n=4, edges=((0, 1), (2, 3)))
    assert components_oracle(g) == [0, 0, 2, 2]


def test_oracle_gnp_cross_check():
    g = gen_graph("gnp", 64, prob=0.02, seed=3)
    assert components_by_union_find(g) == components_by_bfs(g)


def test_oracle_agreement_on_many_random_graphs():
    # the two independent implementations must agree everywhere
    for seed in range(1000):
        g = random_graph(4 + seed % 29, seed)
        assert components_by_union_find(g) == components_by_bfs(g)


# -- words --------------------------------------------------------------------

def test_word_width_default():
    assert word_width(1) == 2
    assert word_width(2) == 3
    assert word_width(256) == 10


def test_id_width_is_the_narrowest_field_for_the_ids():
    # every id below count fits, and one bit fewer would not hold count - 1
    for count in range(1, 300):
        width = id_width(count)
        assert width >= 1 and count - 1 < 1 << width
        assert width == 1 or count - 1 >= 1 << (width - 1)


def test_field_codec_round_trip():
    codec = FieldCodec((2, 5, 5, 8))
    values = (3, 17, 30, 200)
    word = codec.pack(values)
    # first field most significant
    assert word == ((((3 << 5) | 17) << 5 | 30) << 8) | 200
    assert codec.unpack(word) == values


def test_field_codec_overflow_rejected():
    codec = FieldCodec((2,))
    with pytest.raises(ValueError, match="field 4 does not fit in 2 bits"):
        codec.pack((4,))
    with pytest.raises(ValueError, match="field -1 does not fit in 2 bits"):
        codec.pack((-1,))
    with pytest.raises(ValueError, match="values/widths length mismatch"):
        codec.pack((1, 1))


class ReferenceFieldCodec:
    """The loop-based codec, kept as the specification of FieldCodec."""

    def __init__(self, widths):
        self.widths = tuple(widths)
        shifts = []
        shift = sum(self.widths)
        for width in self.widths:
            shift -= width
            shifts.append(shift)
        self._pack_spec = tuple(zip(shifts, [1 << w for w in self.widths],
                                    self.widths))
        self._unpack_spec = tuple(zip(shifts, [(1 << w) - 1 for w in self.widths]))

    def pack(self, values):
        if len(values) != len(self.widths):
            raise ValueError("values/widths length mismatch")
        out = 0
        for value, (shift, limit, width) in zip(values, self._pack_spec):
            if not 0 <= value < limit:
                raise ValueError(f"field {value} does not fit in {width} bits")
            out |= value << shift
        return out

    def unpack(self, word):
        return tuple([(word >> shift) & mask for shift, mask in self._unpack_spec])


def _outcome(fn, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(*args))
    except (TypeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


_codec_cases = st.lists(st.integers(1, 20), min_size=1, max_size=6).flatmap(
    lambda widths: st.tuples(
        st.just(widths),
        # one value per field, a field short or a field long; each value in
        # range, negative or too wide (and sometimes a bool or a float)
        st.integers(len(widths) - 1, len(widths) + 1).flatmap(
            lambda arity: st.lists(st.one_of(
                st.integers(-3, (1 << 20) + 3), st.integers(0, 3), st.booleans(),
                st.sampled_from([0.5, -1.5])), min_size=arity, max_size=arity)),
        st.integers(-(1 << 130), 1 << 130)))


@settings(max_examples=300, deadline=None)
@given(_codec_cases)
def test_field_codec_matches_reference(case):
    widths, values, word = case
    codec, reference = FieldCodec(widths), ReferenceFieldCodec(widths)
    assert codec.widths == reference.widths
    for args in ((values,), (tuple(values),)):
        assert _outcome(codec.pack, *args) == _outcome(reference.pack, *args)
    packed = _outcome(reference.pack, values)
    if packed[0] == "ok":
        assert codec.unpack(packed[1]) == reference.unpack(packed[1])
    assert _outcome(codec.unpack, word) == _outcome(reference.unpack, word)


def test_field_codec_without_fields():
    codec = FieldCodec(())
    assert codec.pack(()) == 0
    assert codec.unpack(12345) == ()
    with pytest.raises(ValueError, match="values/widths length mismatch"):
        codec.pack((0,))


@pytest.mark.parametrize("widths, error", [
    ((3, 2.0), TypeError),
    ((True,), TypeError),
    (("1; import os",), TypeError),
    ((4, -1), ValueError),
])
def test_field_codec_refuses_widths_that_are_not_non_negative_ints(widths, error):
    with pytest.raises(error, match="field width"):
        FieldCodec(widths)


# -- traces read back from JSON -------------------------------------------------

def test_per_round_json_rejects_missing_or_short_space():
    with pytest.raises(ValueError, match="round 1 has no space entry"):
        RoundTrace.from_per_round_json(2, [{"transfers": [[0, 1, 1]]}])
    for space in ([], [1], [1, 2, 3]):
        rounds = [{"transfers": [], "space": [0, 0]},
                  {"transfers": [], "space": space}]
        with pytest.raises(ValueError, match="round 2 lists space"):
            RoundTrace.from_per_round_json(2, rounds)


def test_per_round_json_rejects_negative_space():
    # used to read back with space high-water (0, 3)
    with pytest.raises(ValueError, match="round 1 lists negative space -5 for participant 0"):
        RoundTrace.from_per_round_json(2, [{"transfers": [[0, 1, 1]], "space": [-5, 3]}])
    rounds = [{"transfers": [], "space": [0, 0]}, {"transfers": [], "space": [3, -1]}]
    with pytest.raises(ValueError, match="round 2 lists negative space -1 for participant 1"):
        RoundTrace.from_per_round_json(2, rounds)


def reference_from_per_round_json(num_participants, per_round):
    """The one-by-one ledger reader, kept as the specification of
    RoundTrace.from_per_round_json."""
    rounds = []
    for round_no, rec in enumerate(per_round, start=1):
        transfers = []
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
            transfers.append((s, d, w))
        if "space" not in rec:
            raise ValueError(f"round {round_no} has no space entry")
        space = tuple(rec["space"])
        if len(space) != num_participants:
            raise ValueError(
                f"round {round_no} lists space for {len(space)} participants,"
                f" not {num_participants}")
        if space and set(map(type, space)) != {int}:
            raise ValueError(
                f"round {round_no} lists a space value that is not an integer")
        for i, words in enumerate(space):
            if words < 0:
                raise ValueError(
                    f"round {round_no} lists negative space {words}"
                    f" for participant {i}")
        rounds.append(ledger_record(transfers, space))
    return RoundTrace(num_participants=num_participants, rounds=tuple(rounds))


_odd_values = st.one_of(st.booleans(), st.sampled_from([1.0, 0.5, -2.0]),
                        st.sampled_from(["1", "", "x"]), st.none(),
                        st.integers(-3, 0), st.integers(5, 9))


_DOCTORINGS = ("short", "long", "not-a-list", "value", "no-words", "src-is-dst")


@st.composite
def _ledger_rounds(draw, p):
    def doctored_row(row, kind):
        if kind == "short":
            return row[:draw(st.integers(0, 2))]
        if kind == "long":
            return row + [draw(st.integers(0, 3))]
        if kind == "not-a-list":
            return draw(st.sampled_from([7, "abc", None, {"s": 0, "d": 1, "w": 1},
                                         1.5, True]))
        if kind == "value":
            row[draw(st.integers(0, 2))] = draw(_odd_values)
            return row
        if kind == "no-words":
            row[2] = draw(st.integers(-1, 0))
            return row
        row[1] = row[0]
        return row

    # up to 200 good rows from a drawn seed (drawing each row would cost
    # the suite seconds), then up to two of them doctored in different ways:
    # the first one is named
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    rows = []
    for _ in range(draw(st.integers(0, 200))):
        s = rng.randrange(p)
        rows.append([s, (s + rng.randrange(1, p)) % p, rng.randint(1, 3)])
    if rows:
        at = draw(st.lists(st.integers(0, len(rows) - 1), max_size=2, unique=True))
        kinds = draw(st.lists(st.sampled_from(_DOCTORINGS), min_size=len(at),
                              max_size=len(at), unique=True))
        for i, kind in zip(at, kinds):
            rows[i] = doctored_row(rows[i], kind)
    space = draw(st.lists(st.integers(0, 9), min_size=p, max_size=p))
    if draw(st.integers(0, 9)) == 0:
        space = draw(st.one_of(st.lists(st.integers(0, 9), max_size=p + 1),
                               st.lists(_odd_values, min_size=p, max_size=p)))
    rec = {"transfers": rows, "space": space}
    if draw(st.integers(0, 19)) == 0:
        del rec["space"]
    return rec


def _read(reader, p, per_round):
    try:
        return reader(p, per_round)
    except (TypeError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.integers(2, 5))
def test_per_round_json_reader_matches_reference(data, p):
    per_round = data.draw(st.lists(_ledger_rounds(p), max_size=3))
    got = _read(RoundTrace.from_per_round_json, p, per_round)
    assert got == _read(reference_from_per_round_json, p, per_round)
    if isinstance(got, RoundTrace):  # the rows written back read the same
        assert RoundTrace.from_per_round_json(p, got.to_per_round_json()) == got
        text = json.dumps(got.to_per_round_json())
        assert RoundTrace.from_per_round_json(p, json.loads(text)) == got


@pytest.mark.parametrize("columns", [((0,), (1, 2), (1, 1)), ((0, 1), (1, 0), (1,)),
                                     ((), (1,), ())])
def test_round_record_refuses_columns_of_unequal_length(columns):
    # a reader zips the columns: a longer one's tail would go unread
    with pytest.raises(ValueError, match="ledger columns of unequal length"):
        RoundRecord(*columns, (0, 0, 0))


# -- per-round loads against a per-participant reference ----------------------

@st.composite
def _ledgers(draw):
    """(p, rounds) of a random ledger: each round lists (src, dst, words)
    transfers between distinct participants."""
    p = draw(st.integers(1, 6))
    transfer = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1),
                         st.integers(1, 30)).filter(lambda t: t[0] != t[1])
    rounds = draw(st.lists(st.lists(transfer, max_size=8) if p > 1 else st.just([]),
                           max_size=5))
    return p, rounds


def _naive_load(transfers, participant, end):
    """Words participant sent (end 0) or received (end 1), one word at a time."""
    words = [t[end] for t in transfers for _ in range(t[2])]
    return words.count(participant)


@settings(max_examples=300, deadline=None)
@given(ledger=_ledgers(), c_space=st.integers(1, 3), n_extra=st.integers(0, 4))
def test_round_loads_match_a_per_participant_reference(ledger, c_space, n_extra):
    p, rounds = ledger
    trace = RoundTrace(p, tuple(ledger_record(transfers, (0,) * p) for transfers in rounds))
    loads = {(r, i, end): _naive_load(transfers, i, end)
             for r, transfers in enumerate(rounds, 1)
             for i in range(p) for end in (0, 1)}
    assert trace.max_traffic() == max(loads.values(), default=0)
    for (r, i, end), words in loads.items():
        assert (trace.sent_words, trace.recv_words)[end](i, r) == words
    # the semi-MPC budget rules: s = c_space * n words each way per round
    params = ModelParams.semi_mpc(p + n_extra, p, ell=0, c_space=c_space)
    got = [v for v in check_trace(trace, params)
           if v.rule in ("sent-budget", "recv-budget")]
    want = [Violation(rule=rule, round=r, participant=i, measured=loads[r, i, end],
                      allowed=params.s)
            for r in range(1, len(rounds) + 1) for i in range(p)
            for end, rule in enumerate(("sent-budget", "recv-budget"))
            if loads[r, i, end] > params.s]
    assert got == want
