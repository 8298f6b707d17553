import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distsim import (
    DemandMatrix,
    edge_color_bipartite,
    execute_schedule,
    plan_routing,
)
from distsim.core import round_loads
from distsim.routing import Schedule

from conftest import coloring_is_proper


def brute_force_proper(edges, colors):
    """Independent properness check: compare every pair of edges."""
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            if colors[i] != colors[j]:
                continue
            (a, b), (c, d) = edges[i], edges[j]
            if a == c or b == d:
                return False
    return True


# -- edge coloring ------------------------------------------------------------

def test_color_single_edge():
    colors = edge_color_bipartite(2, 2, [(0, 1)])
    assert colors == [0]


def test_color_parallel_edges():
    colors = edge_color_bipartite(1, 1, [(0, 0), (0, 0)])
    assert sorted(colors) == [0, 1]


def test_color_complete_bipartite_3x3():
    edges = [(u, v) for u in range(3) for v in range(3)]
    colors = edge_color_bipartite(3, 3, edges)
    assert max(colors) + 1 == 3
    assert brute_force_proper(edges, colors)


def test_color_random_multigraphs_proper_and_tight():
    rng = random.Random(42)
    for _ in range(300):
        nl = rng.randrange(1, 9)
        nr = rng.randrange(1, 9)
        edges = [(rng.randrange(nl), rng.randrange(nr))
                 for _ in range(rng.randrange(0, 30))]
        if not edges:
            continue
        deg = {}
        for u, v in edges:
            deg[("L", u)] = deg.get(("L", u), 0) + 1
            deg[("R", v)] = deg.get(("R", v), 0) + 1
        max_degree = max(deg.values())
        colors = edge_color_bipartite(nl, nr, edges)
        assert max(colors) + 1 <= max_degree
        assert coloring_is_proper(edges, colors)
        assert brute_force_proper(edges, colors)


def test_color_deterministic():
    edges = [(u, v) for u in range(4) for v in range(4)] * 2
    a = edge_color_bipartite(4, 4, edges)
    b = edge_color_bipartite(4, 4, edges)
    assert a == b


def reference_edge_color_bipartite(n_left, n_right, edges, flips=None):
    """Reference: the first-fit colouring that scans the palette one color at
    a time, with the same alternating-path flip, walked and then flipped in
    a second pass.  A `flips` list, when given, collects each flipped path
    as (its edge count, the side of its far end)."""
    deg_l = [0] * n_left
    deg_r = [0] * n_right
    for u, v in edges:
        if not (0 <= u < n_left and 0 <= v < n_right):
            raise ValueError(f"edge ({u}, {v}) out of range")
        deg_l[u] += 1
        deg_r[v] += 1
    palette = max(deg_l + deg_r, default=0)
    colors = [-1] * len(edges)
    used_l = [{} for _ in range(n_left)]  # color -> edge
    used_r = [{} for _ in range(n_right)]

    for ei, (u, v) in enumerate(edges):
        c = 0
        while c < palette and (c in used_l[u] or c in used_r[v]):
            c += 1
        if c < palette:
            colors[ei] = c
            used_l[u][c] = ei
            used_r[v][c] = ei
            continue

        a = next(c for c in range(palette) if c not in used_l[u])
        b = next(c for c in range(palette) if c not in used_r[v])
        path = []
        node, on_right, want = v, True, a
        while True:
            table = used_r[node] if on_right else used_l[node]
            nxt = table.get(want)
            if nxt is None:
                break
            path.append(nxt)
            pu, pv = edges[nxt]
            node = pu if on_right else pv
            on_right = not on_right
            want = b if want == a else a
        if flips is not None:
            flips.append((len(path), "right" if on_right else "left"))
        for pe in path:
            pu, pv = edges[pe]
            del used_l[pu][colors[pe]]
            del used_r[pv][colors[pe]]
        for pe in path:
            colors[pe] = b if colors[pe] == a else a
            pu, pv = edges[pe]
            used_l[pu][colors[pe]] = pe
            used_r[pv][colors[pe]] = pe
        colors[ei] = a
        used_l[u][a] = ei
        used_r[v][a] = ei

    return colors


def _outcome(color, *args):
    try:
        return color(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


_multigraphs = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda sides: st.tuples(
        st.just(sides[0]), st.just(sides[1]),
        st.lists(st.tuples(st.integers(0, sides[0] - 1),
                           st.integers(0, sides[1] - 1)), max_size=40)))


# multigraphs that flip one alternating path each, with the (edge count,
# far end's side) the instrumented reference records for it.  A far end on a
# left node is one that inserting edges in source order (as plan_routing
# does) never produces.
_FLIP_CASES = [
    ((3, 2, [(0, 0), (2, 1), (1, 0), (1, 1)]), (1, "left")),
    ((3, 3, [(0, 2), (2, 2), (0, 1), (1, 0), (1, 1)]), (3, "left")),
    ((3, 3, [(0, 1), (1, 2), (1, 0), (0, 0)]), (2, "right")),
]


@settings(max_examples=400, deadline=None)
@given(_multigraphs)
@example((1, 1, [(0, 0)] * 5))
@example((2, 3, []))
@example((3, 5, [(2, 4), (0, 2), (1, 2), (1, 4), (2, 0)]))
@example(_FLIP_CASES[0][0])
@example(_FLIP_CASES[1][0])
@example(_FLIP_CASES[2][0])
def test_color_matches_reference_on_multigraphs(case):
    # parallel edges repeat entries; the flip examples are _FLIP_CASES
    n_left, n_right, edges = case
    colors = edge_color_bipartite(n_left, n_right, edges)
    assert colors == reference_edge_color_bipartite(n_left, n_right, edges)


@pytest.mark.parametrize("case, flip", _FLIP_CASES,
                         ids=["one-edge", "left-end", "right-end"])
def test_color_flip_examples_end_where_stated(case, flip):
    # the one-pass flip rewrites both ends' slots as it walks, so each far
    # end and the shortest path are pinned as examples above
    flips = []
    reference_edge_color_bipartite(*case, flips=flips)
    assert flips == [flip]


_permutation_sums = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.permutations(range(n)), min_size=1, max_size=9))


@settings(max_examples=300, deadline=None)
@given(_permutation_sums)
@example([(0, 2, 1), (2, 1, 0)])  # the first-fit misses once: a path flips
def test_color_matches_reference_on_permutation_sums(perms):
    # every row and column sum is len(perms), so first-fit often finds no
    # shared free color and an alternating path is flipped
    n = len(perms[0])
    rows = [[0] * n for _ in range(n)]
    for perm in perms:
        for s, d in enumerate(perm):
            rows[s][d] += 1
    edges = [(s, d) for s, d, _q in DemandMatrix.from_rows(rows).words()]
    colors = edge_color_bipartite(n, n, edges)
    assert max(colors) + 1 <= len(perms)
    assert colors == reference_edge_color_bipartite(n, n, edges)
    assert coloring_is_proper(edges, colors)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.lists(st.tuples(st.integers(-2, 6), st.integers(-2, 6)), max_size=12))
@example(2, 2, [(0, 0), (2, 1)])
@example(1, 2, [(0, -1)])
def test_color_errors_match_reference(n_left, n_right, edges):
    # out-of-range endpoints raise the same errors
    assert (_outcome(edge_color_bipartite, n_left, n_right, edges)
            == _outcome(reference_edge_color_bipartite, n_left, n_right, edges))


# -- demand matrix --------------------------------------------------------------

def dense_words(n, counts):
    """Reference: DemandMatrix.words as a scan of all n^2 cells."""
    out = []
    for s in range(n):
        for d in range(n):
            out.extend((s, d, q) for q in range(counts[s][d]))
    return out


def dense_col_sums(n, counts):
    """Reference: column sums by indexing every cell."""
    return [sum(counts[s][d] for s in range(n)) for d in range(n)]


_sparse_rows = st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from((0, 0, 0, 0, 0, 1, 2, 3)), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(_sparse_rows)
@example([])
@example([[0]])
@example([[2]])
@example([[0] * 5 for _ in range(5)])
def test_demand_matrix_matches_dense_scan(rows):
    n = len(rows)
    dm = DemandMatrix.from_rows(rows)
    assert dm.words() == dense_words(n, rows)
    assert round_loads(dm.cells, n) == ([sum(row) for row in rows], dense_col_sums(n, rows))
    assert dm.total_words == sum(map(sum, rows))


@pytest.mark.parametrize("rows", [
    [[0, 1], [0]],
    [[0, 1, 2]],
    [[0], [0]],
    [[0, 0]],
])
def test_demand_matrix_rejects_non_square(rows):
    with pytest.raises(ValueError, match="^demand matrix must be n x n$"):
        DemandMatrix.from_rows(rows)
    # the sparse analogue of a row longer than n: a cell outside the square
    with pytest.raises(ValueError, match="lies outside the"):
        DemandMatrix(n=len(rows), cells=((0, len(rows), 1),))


@pytest.mark.parametrize("rows", [[[-1]], [[0, 0], [0, -3]], [[5, -1], [0, 0]]])
def test_demand_matrix_rejects_negative_counts(rows):
    with pytest.raises(ValueError, match="^demand counts must be non-negative$"):
        DemandMatrix.from_rows(rows)


def test_empty_demand_matrix_constructs():
    dm = DemandMatrix(n=0, cells=())
    assert dm.words() == []
    assert round_loads(dm.cells, 0) == ([], [])
    assert dm.max_degree == 0


@pytest.mark.parametrize("rows", [
    [[True, 1], [1, 0]],
    [[0.5, 1], [1, 0]],
    [[0.0]],
    [["a"]],
    [[None, 0], [0, 0]],
])
def test_demand_matrix_refuses_counts_that_are_not_ints(rows):
    with pytest.raises(ValueError, match="is not an integer$"):
        DemandMatrix.from_rows(rows)


@pytest.mark.parametrize("n, cells, match", [
    (2, ((0, 2, 1),), "lies outside the 2 x 2 matrix"),
    (2, ((-1, 0, 1),), "lies outside the 2 x 2 matrix"),
    (1, ((1, 0, 1),), "lies outside the 1 x 1 matrix"),
    (2, ((0, 1, 1), (0, 1, 2)), "repeated or out of"),
    (2, ((1, 0, 1), (0, 1, 1)), "repeated or out of"),
    (3, ((0, 2, 1), (0, 1, 1)), "repeated or out of"),
    (2, ((0, 1, 0),), "holds 0 words"),
    (2, ((0, 1, 1), (1, 1, -2)), "holds -2 words"),
])
def test_demand_matrix_refuses_bad_cells(n, cells, match):
    with pytest.raises(ValueError, match=match):
        DemandMatrix(n=n, cells=cells)


def dense_sum(n, transfers):
    """Reference: one ledger round summed into a dense n x n matrix."""
    rows = [[0] * n for _ in range(n)]
    for s, d, words in transfers:
        rows[s][d] += words
    return rows


# a ledger round: (src, dst, words) transfers in any order, pairs repeated,
# zero-word transfers included
_ledgers = st.integers(1, 7).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)),
    max_size=4 * n)))


@settings(max_examples=300, deadline=None)
@given(_ledgers)
@example((1, []))
@example((2, [(1, 0, 0)]))
@example((3, [(2, 1, 2), (0, 1, 1), (2, 1, 1)]))
def test_from_transfers_matches_dense_rows(ledger):
    n, transfers = ledger
    sparse = DemandMatrix.from_transfers(n, transfers)
    dense = DemandMatrix.from_rows(dense_sum(n, transfers))
    assert sparse == dense
    assert sparse.cells == dense.cells
    rows = dense_sum(n, transfers)
    assert round_loads(sparse.cells, n) == ([sum(row) for row in rows], dense_col_sums(n, rows))
    assert sparse.total_words == dense.total_words
    assert sparse.max_degree == dense.max_degree
    assert sparse.words() == dense.words() == dense_words(n, dense_sum(n, transfers))
    assert plan_routing(sparse) == plan_routing(dense)


# -- plan_routing -------------------------------------------------------------

def test_plan_empty_demand():
    dm = DemandMatrix.from_rows([[0] * 4 for _ in range(4)])
    sched = plan_routing(dm)
    assert sched.num_rounds == 0
    assert sched.entries == ()


def test_plan_permutation_two_rounds():
    n = 4
    rows = [[0] * n for _ in range(n)]
    for s, d in enumerate([2, 3, 0, 1]):
        rows[s][d] = 1
    sched = plan_routing(DemandMatrix.from_rows(rows))
    assert sched.num_rounds == 2
    _assert_schedule_capacity(sched)


def test_plan_star_demand():
    # four words converge on node 0, one from every node including itself
    n = 4
    rows = [[0] * n for _ in range(n)]
    for s in range(n):
        rows[s][0] = 1
    sched = plan_routing(DemandMatrix.from_rows(rows))
    assert sched.num_rounds == 2
    mids = {mid for (_s, _d, _q), (mid, _ra, _rb) in sched.assignment.items()}
    assert len(mids) == 4  # four distinct intermediates
    # phase B happens in a single round
    phase_b_rounds = {rb for *_rest, rb in sched.entries}
    assert phase_b_rounds == {2}
    _assert_schedule_capacity(sched)


def _assert_schedule_capacity(sched):
    """No ordered pair may carry more than one word in any round, and every
    word's phase-A slot must precede its phase-B slot."""
    used = set()
    for s, d, _q, mid, ra, rb in sched.entries:
        assert 1 <= ra <= sched.phase_a_rounds < rb <= sched.num_rounds
        assert (ra, s, mid) not in used
        used.add((ra, s, mid))
        assert (rb, mid, d) not in used
        used.add((rb, mid, d))


def _random_demand(rng, n):
    rows = [[0] * n for _ in range(n)]
    row_tot = [0] * n
    col_tot = [0] * n
    for _ in range(rng.randrange(0, 4 * n)):
        s, d = rng.randrange(n), rng.randrange(n)
        if row_tot[s] < n and col_tot[d] < n:
            rows[s][d] += 1
            row_tot[s] += 1
            col_tot[d] += 1
    return DemandMatrix.from_rows(rows)


def test_plan_random_demands_two_rounds_and_capacity():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 33)
        dm = _random_demand(rng, n)
        sched = plan_routing(dm)
        if dm.total_words == 0:
            assert sched.num_rounds == 0
            continue
        assert sched.num_rounds == 2  # row/col sums <= n
        _assert_schedule_capacity(sched)


# -- execute_schedule ---------------------------------------------------------

def test_execute_permutation_delivery():
    n = 4
    rows = [[0] * n for _ in range(n)]
    perm = [1, 2, 3, 0]
    for s, d in enumerate(perm):
        rows[s][d] = 1
    sched = plan_routing(DemandMatrix.from_rows(rows))
    payloads = {(s, d, q): 10 + s for (s, d, q) in sched.assignment}
    record = execute_schedule(sched, payloads)
    for s, d in enumerate(perm):
        assert record.delivered[d] == ((s, 0, 10 + s),)
    assert record.run.clean


def test_execute_star_delivery():
    n = 4
    rows = [[0] * n for _ in range(n)]
    for s in range(n):
        rows[s][0] = 1
    sched = plan_routing(DemandMatrix.from_rows(rows))
    payloads = {(s, d, q): 5 * s for (s, d, q) in sched.assignment}
    record = execute_schedule(sched, payloads)
    assert record.delivered[0] == tuple((s, 0, 5 * s) for s in range(n))


def test_execute_empty_schedule_takes_one_round():
    # the replay is num_rounds + 1 engine rounds even with nothing to route:
    # every relay halts in the absorb round without sending
    sched = plan_routing(DemandMatrix.from_rows([[0] * 3 for _ in range(3)]))
    record = execute_schedule(sched, {})
    assert record.run.clean
    assert record.run.rounds_used == sched.num_rounds + 1 == 1
    assert record.run.trace.rounds[0].transfers == ()
    assert record.delivered == ((), (), ())


def test_execute_payload_key_mismatch():
    n = 2
    rows = [[0, 1], [0, 0]]
    sched = plan_routing(DemandMatrix.from_rows(rows))
    with pytest.raises(ValueError):
        execute_schedule(sched, {})


@pytest.mark.parametrize("value", [-1, 1.5, True, "x"])
def test_execute_refuses_a_payload_that_is_not_a_non_negative_int(value):
    # a float used to end in an AttributeError, and True was delivered as 1
    sched = plan_routing(DemandMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(ValueError) as info:
        execute_schedule(sched, {(0, 1, 0): value})
    assert str(info.value) == (
        f"payload {value!r} of word (0, 1, 0) is not a non-negative int")


def test_execute_rejects_word_sent_to_another_intermediate():
    # two entries for one word: the sender follows both, the relay's
    # assignment keeps the second, so the first copy reaches a node that the
    # schedule does not name
    entries = ((0, 2, 0, 1, 1, 2), (0, 2, 0, 0, 1, 2))
    sched = Schedule(n=3, phase_a_rounds=1, entries=entries)
    with pytest.raises(RuntimeError, match="wrong node"):
        execute_schedule(sched, {(0, 2, 0): 5})


def test_execute_random_demands_delivery_exact():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 33)
        dm = _random_demand(rng, n)
        sched = plan_routing(dm)
        payloads = {(s, d, q): (s * 131 + d * 17 + q) % 256
                    for (s, d, q) in sched.assignment}
        record = execute_schedule(sched, payloads, value_width=8)
        assert record.run.clean
        # delivered multiset equals demanded multiset
        delivered = sorted(
            (src, dst, value)
            for dst, triples in enumerate(record.delivered)
            for src, _seq, value in triples)
        demanded = sorted(
            (s, d, payloads[(s, d, q)]) for (s, d, q) in sched.assignment)
        assert delivered == demanded
        if dm.total_words:
            # replay takes the two schedule rounds plus the absorb round
            assert record.run.rounds_used == sched.num_rounds + 1


def test_execute_multi_round_phases_delivery_exact():
    # 4 words per ordered pair of distinct nodes: every row and column sum is
    # 20 > n, so each phase takes ceil(20 / 6) = 4 rounds
    n = 6
    rows = [[0 if s == d else 4 for d in range(n)] for s in range(n)]
    sched = plan_routing(DemandMatrix.from_rows(rows))
    assert sched.phase_a_rounds == sched.to_json_dict()["phase_b_rounds"] == 4
    _assert_schedule_capacity(sched)
    payloads = {(s, d, q): (7 * s + 3 * d + q) % 256
                for (s, d, q) in sched.assignment}
    record = execute_schedule(sched, payloads, value_width=8)
    assert record.run.clean
    assert record.run.rounds_used == 9  # 4 + 4 schedule rounds + absorb
    for d in range(n):
        assert record.delivered[d] == tuple(sorted(
            (s, q, payloads[(s, d, q)])
            for s in range(n) if s != d for q in range(4)))
    # the ledger: one-word transfers, and relayed words wait in their
    # intermediates' queues for later phase-B rounds, metered as they wait
    rounds = record.run.trace.rounds
    assert {w for r in rounds for _s, _d, w in r.transfers} == {1}
    assert tuple(len(r.transfers) for r in rounds) == (
        30, 30, 30, 10, 30, 30, 30, 10, 0)
    assert tuple(r.space for r in rounds) == (
        (2,) * 6, (32,) * 6, (62,) * 6, (92,) * 6,
        (98, 98, 92, 92, 92, 92), (98, 98, 68, 68, 68, 68),
        (86, 86, 56, 56, 56, 56), (74, 74, 56, 56, 56, 56), (62,) * 6)


def test_execute_uneven_two_round_demand_ledger():
    # row sums 6, 5, 3, 4 and column sums 6, 4, 3, 5 on 4 nodes: two rounds
    # per phase, unevenly loaded, with kept words at some intermediates
    rows = [[0, 3, 2, 1], [1, 0, 0, 4], [2, 1, 0, 0], [3, 0, 1, 0]]
    sched = plan_routing(DemandMatrix.from_rows(rows))
    assert sched.phase_a_rounds == 2
    payloads = {(s, d, q): (5 * s + d + 11 * q) % 256
                for (s, d, q) in sched.assignment}
    record = execute_schedule(sched, payloads, value_width=8)
    assert record.run.clean
    rounds = record.run.trace.rounds
    assert {w for r in rounds for _s, _d, w in r.transfers} == {1}
    assert tuple(len(r.transfers) for r in rounds) == (9, 4, 10, 4, 0)
    assert tuple(r.space for r in rounds) == (
        (2, 2, 2, 2), (17, 17, 17, 22), (20, 19, 17, 22), (21, 16, 8, 11),
        (20, 14, 11, 17))
    assert sum(map(len, record.delivered)) == sum(map(sum, rows)) == 18
