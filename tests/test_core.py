import random

import pytest

from conftest import (
    PACKED_SIZES,
    all_labelled_graphs,
    brute_force_isomorphic,
    compose,
    inverse,
    is_colour_preserving,
    normalize_colouring,
    pair_loop_rows_error,
    permute_colouring,
    random_colouring,
    random_graph,
    random_permutation,
)
from gcanon.canon import canonical_label
from gcanon.core import (
    VERTEX_CAP,
    Colouring,
    Graph,
    Permutation,
    VertexCapError,
    ZeroVertexError,
    bipartition_masks,
    check_vertex_count,
    connectivity_at_most,
    packed_width,
    permute_graph,
    transpose,
)

C5_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def test_graph_construction_and_validation():
    g = Graph.from_edges(3, [(0, 1)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and not g.has_edge(0, 2)
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError, match="^expected 3 adjacency rows, got 2$"):
        Graph(3, (0, 0))
    with pytest.raises(ValueError, match=r"^row 0 has neighbour bits outside 0\.\.1$"):
        Graph(2, (4, 0))
    with pytest.raises(ValueError, match="^self-loop at vertex 0$"):
        Graph(2, (1, 0))
    with pytest.raises(ValueError, match="^a cycle needs at least 3 vertices$"):
        Graph.cycle(2)
    with pytest.raises(VertexCapError):
        Graph.empty(65)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(2.0, (0, 0)), r"^vertex count must be an int, got 2\.0$"),
        (lambda: Graph(2, (2.0, 1.0)), r"^row 0 is not an int: 2\.0$"),
        (lambda: Graph(2, (2, 1.0)), r"^row 1 is not an int: 1\.0$"),
        (lambda: Graph(2, ("a", "b")), r"^row 0 is not an int: 'a'$"),
        (lambda: Graph(2, (2, True)), r"^row 1 is not an int: True$"),
        (lambda: Graph(1, (False,)), r"^row 0 is not an int: False$"),
        (lambda: Graph.empty(2.0), r"^vertex count must be an int, got 2\.0$"),
        (lambda: Colouring.unit(2.0), r"^vertex count must be an int, got 2\.0$"),
        (lambda: Graph(True, (0,)), r"^vertex count must be an int, got True$"),
        (lambda: Graph.empty(True), r"^vertex count must be an int, got True$"),
        (lambda: Colouring.unit(True), r"^vertex count must be an int, got True$"),
    ],
    ids=[
        "Graph-count",
        "Graph-float-rows",
        "Graph-float-row",
        "Graph-str-rows",
        "Graph-bool-row",
        "Graph-bool-rows",
        "empty",
        "Colouring.unit",
        "Graph-bool-count",
        "empty-bool",
        "Colouring.unit-bool",
    ],
)
def test_non_int_counts_and_rows_raise_value_error(build, message):
    # Each used to raise a TypeError from a bit shift or a comparison inside
    # the library, except a bool row, which built.
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize(
    "edge, message",
    [((0.0, 2), r"^edge \(0\.0, 2\) has an end that is not an int$"), ((True, 2), r"^edge \(True, 2\) has an end that is not an int$")],
    ids=["float-end", "bool-end"],
)
def test_from_edges_rejects_an_end_that_is_not_an_int(edge, message):
    # A float end used to raise a bare TypeError from the row index, and a
    # bool end built the edge {1, 2}.
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(3, [edge])


@pytest.mark.parametrize(
    "edge, message",
    [(5, r"^edge 5 is not a pair of vertices$"), ((0, 1, 2), r"^edge \(0, 1, 2\) is not a pair of vertices$")],
    ids=["int", "triple"],
)
def test_from_edges_rejects_an_edge_that_is_not_a_pair(edge, message):
    # They used to raise a bare TypeError and a ValueError from the unpacking,
    # neither naming the edge.
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(3, [edge])


def test_permutation_and_colouring_reject_bool_entries():
    # True == 1, so both passed the sorted-range and partition tests and built.
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.1: \(True, 0\)$"):
        Permutation((True, 0))
    with pytest.raises(ValueError, match="^cell 0 holds a vertex that is not an int$"):
        Colouring((frozenset({True}), frozenset({0})))
    with pytest.raises(ValueError, match="^cell 1 holds a vertex that is not an int$"):
        Colouring(([0], [False, 2], [1]))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    p = Permutation((1, 2, 0))
    assert inverse(p).image == (2, 0, 1)
    assert compose(p, inverse(p)).image == (0, 1, 2)


def test_permutation_rejects_a_float_entry():
    # 1.0 == 1 passes the sorted-range test; it used to fail later, inside
    # permute_graph's bit shifts, with a TypeError.
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.1: \(0, 1\.0\)$"):
        Permutation((0, 1.0))
    with pytest.raises(ValueError):
        Permutation(("0", 1))
    assert permute_graph(Graph.path(2), Permutation((1, 0))) == Graph.path(2)


def test_colouring_validation():
    with pytest.raises(ValueError, match="^cell 1 overlaps an earlier cell$"):
        Colouring(([0, 1], [1, 2]))
    with pytest.raises(ValueError, match=r"^cells do not partition 0\.\.1$"):
        Colouring(([0], [2]))
    with pytest.raises(ValueError, match="^cell 1 is empty$"):
        Colouring(([0], []))
    assert Colouring.unit(3).cells == (frozenset({0, 1, 2}),)


def test_colouring_rejects_a_float_entry():
    # {0, 1.0} partitions 0..1 by equality; it used to fail inside the
    # search of canonical_label with a TypeError.
    with pytest.raises(ValueError, match="^cell 0 holds a vertex that is not an int$"):
        Colouring((frozenset({0, 1.0}), frozenset({2})))
    with pytest.raises(ValueError, match="^cell 1 holds a vertex that is not an int$"):
        Colouring(([0], [1, "2"]))
    assert canonical_label(Graph.path(3), Colouring(([0, 1], [2]))).canonical_graph.num_edges() == 2


def test_permute_graph_identity():
    g = Graph.from_edges(5, C5_EDGES)
    assert permute_graph(g, Permutation(tuple(range(5)))) == g


def test_permute_graph_c5_relabelling():
    # sigma = (0,2,4,1,3) carries the 5-cycle onto edges {0,2},{2,4},{4,1},{1,3},{3,0}
    g = Graph.from_edges(5, C5_EDGES)
    relabelled = permute_graph(g, Permutation((0, 2, 4, 1, 3)))
    assert set(relabelled.edges()) == {(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)}


def test_permute_graph_matches_edge_relabelling_oracle():
    # The oracle maps edge sets, not vertex masks as core.permute_mask does;
    # the sizes run from one vertex to the cap.
    rng = random.Random(101)
    for n in (1, 2, 6, 17, 33, 64):
        for _ in range(100):
            g = random_graph(rng, n)
            sigma = random_permutation(rng, n)
            relabelled = permute_graph(g, sigma)
            expected = {tuple(sorted((sigma.image[u], sigma.image[v]))) for u, v in g.edges()}
            assert set(relabelled.edges()) == expected
            assert relabelled.degree_sequence() == g.degree_sequence()


def test_permute_graph_composition():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, 7)
        sigma = random_permutation(rng, 7)
        tau = random_permutation(rng, 7)
        assert permute_graph(permute_graph(g, sigma), tau) == permute_graph(g, compose(tau, sigma))


def test_permute_graph_length_mismatch():
    with pytest.raises(ValueError):
        permute_graph(Graph.empty(3), Permutation(tuple(range(4))))


def test_permute_colouring():
    pi = Colouring(([0], [1, 2]))
    assert permute_colouring(Permutation((0, 1, 2)), pi) == pi
    assert permute_colouring(Permutation((1, 2, 0)), pi) == Colouring(([1], [2, 0]))
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 9)
        pi = random_colouring(rng, n)
        sigma = random_permutation(rng, n)
        assert [len(c) for c in permute_colouring(sigma, pi).cells] == [len(c) for c in pi.cells]


def test_is_colour_preserving():
    pi = Colouring(([0], [1, 2]))
    assert is_colour_preserving(Permutation((0, 1, 2)), pi)
    assert not is_colour_preserving(Permutation((1, 0, 2)), pi)  # swaps across cells
    rng = random.Random(6)
    for _ in range(30):
        n = rng.randint(1, 8)
        assert is_colour_preserving(random_permutation(rng, n), Colouring.unit(n))


def test_normalize_colouring():
    n = 6
    unit = Colouring.unit(n)
    assert normalize_colouring(unit) == unit
    assert normalize_colouring(Colouring(([2], [0, 1]))) == Colouring(([0], [1, 2]))
    rng = random.Random(7)
    for _ in range(50):
        pi = random_colouring(rng, rng.randint(1, 10))
        normal = normalize_colouring(pi)
        sizes = [len(c) for c in pi.cells]
        assert [len(c) for c in normal.cells] == sizes
        start = 0
        for cell, size in zip(normal.cells, sizes):
            assert cell == frozenset(range(start, start + size))
            start += size
        assert normalize_colouring(normal) == normal


def test_basic_properties_on_c5_and_empty():
    c5 = Graph.from_edges(5, C5_EDGES)
    assert c5.num_edges() == 5
    assert c5.degree_sequence() == (2, 2, 2, 2, 2)
    assert c5.component_count() == 1
    assert c5.circuit_rank() == 1
    empty = Graph.empty(4)
    assert empty.num_edges() == 0
    assert empty.component_count() == 4


def test_component_count_against_union_find():
    rng = random.Random(8)
    for _ in range(120):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in g.edges():
            parent[find(u)] = find(v)
        assert g.component_count() == len({find(v) for v in range(n)})


def test_edges_are_the_set_bits_in_lexicographic_order():
    rng = random.Random(14)
    for n in range(1, 65):
        for p in (0.1, 0.5, 0.9):
            g = random_graph(rng, n, p)
            assert g.edges() == [(u, v) for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
    assert Graph.complete(64).edges() == [(u, v) for u in range(64) for v in range(u + 1, 64)]


def test_forest_characterization():
    rng = random.Random(9)
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        assert (g.circuit_rank() == 0) == (g.component_count() == g.n - g.num_edges())
    assert Graph.path(5).circuit_rank() == 0
    assert Graph.from_edges(5, C5_EDGES).circuit_rank() == 1
    assert Graph.complete(5).circuit_rank() == 6


def test_bipartite():
    assert Graph.cycle(4).is_bipartite()
    assert not Graph.cycle(5).is_bipartite()
    sides = bipartition_masks(Graph.cycle(6).rows)
    assert sides is not None
    [(a, b)] = sides
    for u, v in Graph.cycle(6).edges():
        assert (a >> u & 1) != (a >> v & 1)
    assert a | b == 0b111111 and not a & b
    assert bipartition_masks(Graph.cycle(5).rows) is None


def test_bipartite_class_count_n4_brute_force():
    # 7 of the 11 isomorphism classes on 4 vertices are bipartite
    reps: list[Graph] = []
    for g in all_labelled_graphs(4):
        if not any(brute_force_isomorphic(g, r) for r in reps):
            reps.append(g)
    assert len(reps) == 11
    assert sum(1 for r in reps if r.is_bipartite()) == 7


def brute_force_connectivity(g: Graph) -> int:
    from itertools import combinations

    n = g.n
    if g.component_count() != 1:
        return 0
    if g.num_edges() == n * (n - 1) // 2:
        return n - 1
    for k in range(1, n - 1):
        for deleted in combinations(range(n), k):
            remaining = [v for v in range(n) if v not in deleted]
            sub = Graph.from_edges(
                len(remaining),
                [
                    (remaining.index(u), remaining.index(v))
                    for u, v in g.edges()
                    if u in remaining and v in remaining
                ],
            )
            if sub.component_count() > 1:
                return k
    raise AssertionError("unreachable for non-complete graphs")


def test_vertex_connectivity_basics():
    for g, kappa in [
        (Graph.from_edges(4, [(0, 1), (2, 3)]), 0),
        (Graph.complete(5), 4),
        (Graph.empty(1), 0),  # K1 is complete
        (Graph.path(3), 1),
        (Graph.cycle(5), 2),
    ]:
        assert connectivity_at_most(g, g.n) == kappa, g


def test_vertex_connectivity_matches_brute_force_small():
    # every labelled graph with n <= 4 (K1, K2 and the small disconnected
    # graphs among them), random n = 5, 6, paths, and larger disconnected graphs
    graphs = [g for n in range(1, 5) for g in all_labelled_graphs(n)]
    rng = random.Random(10)
    graphs += [random_graph(rng, rng.choice([5, 6]), rng.random()) for _ in range(150)]
    graphs += [Graph.path(n) for n in range(5, 8)]
    graphs += [Graph.empty(5), Graph.from_edges(6, C5_EDGES)]
    graphs += [Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])]
    for g in graphs:
        kappa = brute_force_connectivity(g)
        assert connectivity_at_most(g, g.n) == kappa, g
        for cap in range(-1, g.n + 2):
            assert connectivity_at_most(g, cap) == min(kappa, cap), (g, cap)


@pytest.mark.parametrize("n", [65, 2**70])
def test_constructors_check_the_cap_before_allocating(n):
    # At 2**70 a constructor that allocated first would raise OverflowError
    # (empty, complete, from_edges) or build an unbounded edge list (cycle, path).
    for build in (Graph.empty, Graph.complete, Graph.from_edges, Graph.cycle, Graph.path):
        with pytest.raises(VertexCapError):
            build(n)


@pytest.mark.parametrize(
    "build",
    [lambda n: Graph(n, ()), Graph.empty, Graph.complete, Graph.from_edges, Graph.path],
    ids=["Graph", "empty", "complete", "from_edges", "path"],
)
def test_constructors_reject_zero_vertices(build):
    # No zero-vertex Graph exists, so no operation that takes one (refine,
    # canonical_label, evaluate, the encoders, ...) needs a check of its own.
    with pytest.raises(ZeroVertexError, match="^zero-vertex graphs are not supported$"):
        build(0)


def test_check_vertex_count_is_the_one_count_rule():
    with pytest.raises(ZeroVertexError, match="^zero-vertex graphs are not supported$"):
        check_vertex_count(0)
    with pytest.raises(ValueError) as info:
        check_vertex_count(-1)
    assert not isinstance(info.value, (ZeroVertexError, VertexCapError))
    with pytest.raises(VertexCapError):
        check_vertex_count(VERTEX_CAP + 1)
    check_vertex_count(1)
    check_vertex_count(VERTEX_CAP)


def packed(rows, w):
    return sum(row << (i * w) for i, row in enumerate(rows))


def test_transpose_matches_the_pair_loop():
    # Any rows, not only symmetric ones: row j of the transpose holds bit j of every row.
    rng = random.Random(33)
    for n in PACKED_SIZES:
        w = packed_width(n)
        assert w == max(8, 1 << (n - 1).bit_length())
        for density in (0.0, 0.5, 1.0):
            rows = [sum(1 << c for c in range(n) if rng.random() < density) for _ in range(n)]
            columns = [sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(n)]
            assert transpose(packed(rows, w), w) == packed(columns, w)


def asymmetric_variants(rng, n, rows):
    """rows with defects: flipped bits, self-loops, bits past n or past the packed width, negative rows."""
    w = packed_width(n)
    out = []
    for flips in (1, 2, 3):
        bad = list(rows)
        for _ in range(flips):
            u, v = rng.sample(range(n), 2) if n > 1 else (0, 0)
            bad[u] ^= 1 << v
        out.append(bad)
    for _ in range(2):
        bad = list(rows)
        v = rng.randrange(n)
        bad[v] |= 1 << v
        if n > 2:  # the loop is named even when an asymmetric pair comes first
            bad[0] ^= 1 << rng.randrange(1, n)
        out.append(bad)
    for high in (rng.randrange(n, w) if w > n else n, w + rng.randrange(w), 2 * w * n):
        bad = list(rows)
        bad[rng.randrange(n)] |= 1 << high
        out.append(bad)
    if n > 2:
        # row a's bit w + b would land on the pair (a + 1, b) of the packed
        # matrix; set (b, a + 1) and clear (a + 1, b), so the packing would look
        # symmetric if it were not range-checked first
        a, b = rng.randrange(n - 1), rng.randrange(n)
        bad = list(rows)
        bad[a] |= 1 << (w + b)
        bad[b] |= 1 << (a + 1)
        bad[a + 1] &= ~(1 << b)
        out.append(bad)
    for negative in (-1 - rng.getrandbits(n), -(1 << (w * w))):
        # the second is all 1s from past the packed matrix up, all 0s below
        bad = list(rows)
        bad[rng.randrange(n)] = negative
        out.append(bad)
    return out


def test_graph_validation_raises_what_the_pair_loop_finds():
    rng = random.Random(34)
    for n in PACKED_SIZES:
        for density in (0.1, 0.5, 0.9):
            rows = list(random_graph(rng, n, density).rows)
            assert pair_loop_rows_error(n, rows) is None
            assert Graph(n, rows).rows == tuple(rows)
            for bad in asymmetric_variants(rng, n, rows):
                expected = pair_loop_rows_error(n, bad)
                if expected is None:  # a flip can undo another
                    assert Graph(n, bad).rows == tuple(bad)
                    continue
                with pytest.raises(ValueError) as info:
                    Graph(n, bad)
                assert str(info.value) == expected
