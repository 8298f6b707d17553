import pytest

from distsim import (
    Graph,
    GraphFormatError,
    RoundTrace,
    components_oracle,
    gen_graph,
    load_graph,
)
from distsim.core import (
    FieldCodec,
    components_by_bfs,
    components_by_union_find,
    word_width,
)

from conftest import random_graph


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


# -- traces read back from JSON -------------------------------------------------

def test_per_round_json_rejects_missing_or_short_space():
    with pytest.raises(ValueError, match="round 1 has no space entry"):
        RoundTrace.from_per_round_json(2, [{"transfers": [[0, 1, 1]]}])
    for space in ([], [1], [1, 2, 3]):
        rounds = [{"transfers": [], "space": [0, 0]},
                  {"transfers": [], "space": space}]
        with pytest.raises(ValueError, match="round 2 lists space"):
            RoundTrace.from_per_round_json(2, rounds)
