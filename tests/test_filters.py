import random
import re
from itertools import combinations

import pytest

from conftest import complete_bipartite, hypercube, petersen, random_graph, to_networkx
from gcanon import codec, core
from gcanon.core import Graph, Permutation, ZeroVertexError, connectivity_at_most, permute_graph
from gcanon.filters import (
    FilterSpecError,
    GraphFilter,
    PropertyConstraint,
    build_graph_filter,
    evaluate,
    filter_graphs,
    girth,
    parse_filter_spec,
)
from gcanon.generate import GenOptions, generate_graphs

FOREST = build_graph_filter([("NumCycles", 0)])
TREE = build_graph_filter([("NumCycles", 0), ("Connectivity", 0), ("NegateConnectivity", True)])
ACCEPT_ALL = build_graph_filter([])


def test_forest_filter():
    assert evaluate(FOREST, Graph.path(5))
    assert evaluate(FOREST, Graph.from_edges(4, [(0, 1), (2, 3)]))
    assert not evaluate(FOREST, Graph.cycle(5))


def test_tree_filter():
    assert evaluate(TREE, Graph.path(5))
    assert evaluate(TREE, Graph.empty(1))  # the one-vertex tree
    assert not evaluate(TREE, Graph.empty(2))  # disconnected forest
    assert not evaluate(TREE, Graph.cycle(5))


def test_accept_all():
    graphs = [Graph.path(3), Graph.cycle(4), Graph.empty(2)]
    assert all(evaluate(ACCEPT_ALL, g) for g in graphs)
    assert filter_graphs(graphs, ACCEPT_ALL) == graphs


def test_build_filter_errors():
    with pytest.raises(FilterSpecError):
        build_graph_filter([("NumLoops", 1)])
    with pytest.raises(FilterSpecError):
        build_graph_filter([("NumCycles", 0), ("NumCycles", 1)])
    with pytest.raises(FilterSpecError):
        build_graph_filter([("NegateConnectivity", True)])
    with pytest.raises(FilterSpecError):
        build_graph_filter([("Bipartite", 3)])
    with pytest.raises(FilterSpecError):
        build_graph_filter([("NumEdges", True)])
    with pytest.raises(FilterSpecError):
        build_graph_filter([("NumEdges", (4, 2))])
    with pytest.raises(FilterSpecError):
        build_graph_filter([("NegateConnectivity", 1), ("Connectivity", 0)])
    with pytest.raises(FilterSpecError, match="^unknown property 'NegateNumLoops'$"):
        build_graph_filter([("NegateNumLoops", True)])
    with pytest.raises(FilterSpecError, match="^duplicate key 'NegateGirth'$"):
        build_graph_filter([("Girth", 3), ("NegateGirth", True), ("NegateGirth", False)])
    with pytest.raises(FilterSpecError, match="^NumEdges takes an integer or range, got 'ab'$"):
        build_graph_filter([("NumEdges", "ab")])
    with pytest.raises(FilterSpecError, match=r"^NumEdges takes an integer or range, got range\(4, 6\)$"):
        build_graph_filter([("NumEdges", range(4, 6))])
    assert build_graph_filter([("NumEdges", [4, 6])]) == build_graph_filter([("NumEdges", (4, 6))])
    with pytest.raises(FilterSpecError, match=r"^expected a \(name, value\) pair, got \(1, 2\)$"):
        build_graph_filter([(1, 2)])
    with pytest.raises(FilterSpecError, match=r"^expected a \(name, value\) pair, got \('NumEdges',\)$"):
        build_graph_filter([("NumEdges",)])
    # A mapping iterates over its keys alone.
    with pytest.raises(FilterSpecError, match="^expected a \\(name, value\\) pair, got 'NumCycles'$"):
        build_graph_filter({"NumCycles": 0})


def test_constraint_validation():
    with pytest.raises(FilterSpecError):
        PropertyConstraint("Girth", (3, 1))
    with pytest.raises(FilterSpecError, match="^unknown property 'Foo'$"):
        PropertyConstraint("Foo", 1)
    with pytest.raises(FilterSpecError, match=r"^NumEdges takes an integer or range, got 2\.5$"):
        PropertyConstraint("NumEdges", 2.5)
    with pytest.raises(FilterSpecError, match="^more than one constraint for NumEdges$"):
        GraphFilter((PropertyConstraint("NumEdges", 1), PropertyConstraint("NumEdges", (0, 2))))


def test_an_integer_value_is_stored_as_its_range():
    assert PropertyConstraint("NumEdges", 3).value == (3, 3)
    assert PropertyConstraint("NumEdges", 3) == PropertyConstraint("NumEdges", (3, 3))
    assert parse_filter_spec("Girth=4") == build_graph_filter([("Girth", (4, 4))])
    assert GenOptions(min_edges=2, max_edges=2) == build_graph_filter([("NumEdges", 2)])
    for value in (True, (1, True), (1, 2, 3), (1.0, 2)):
        with pytest.raises(FilterSpecError, match="^Girth takes an integer or range, got "):
            PropertyConstraint("Girth", value)


def test_parse_filter_spec_grammar():
    assert parse_filter_spec("") == ACCEPT_ALL
    assert parse_filter_spec("  ") == ACCEPT_ALL
    tree = parse_filter_spec("NumCycles=0,!Connectivity=0")
    assert tree == TREE
    ranged = parse_filter_spec("NumEdges=4..6")
    assert ranged.constraints[0].value == (4, 6)
    boolean = parse_filter_spec("Bipartite=true,!Regular=false")
    by_name = {c.name: c for c in boolean.constraints}
    assert by_name["Bipartite"].value is True and not by_name["Bipartite"].negate
    assert by_name["Regular"].value is False and by_name["Regular"].negate
    assert parse_filter_spec(" NumCycles = 0 , Connected = true ").constraints


def test_parse_filter_spec_errors_name_the_item():
    with pytest.raises(FilterSpecError, match="Woof"):
        parse_filter_spec("NumCycles=0,Woof=3")
    with pytest.raises(FilterSpecError, match="NumEdges=x"):
        parse_filter_spec("NumEdges=x")
    with pytest.raises(FilterSpecError, match="Girth=3..q"):
        parse_filter_spec("Girth=3..q")
    # An integer is an optional sign and ASCII digits, with spaces around it;
    # int() would take the underscores and the Arabic-Indic three.
    for spec in ("NumEdges=1_0", "NumEdges=\u0663", "NumEdges=- 3", "NumEdges=3.0", "NumEdges="):
        with pytest.raises(FilterSpecError, match=f"^bad value in {re.escape(repr(spec))}$"):
            parse_filter_spec(spec)
    for spec in ("NumEdges=1_0..20", "NumEdges=1..\u0663", "NumEdges=1..2..3", "NumEdges=..3", "NumEdges=1..."):
        with pytest.raises(FilterSpecError, match=f"^bad range in {re.escape(repr(spec))}$"):
            parse_filter_spec(spec)
    assert parse_filter_spec("NumEdges=1 .. 3") == parse_filter_spec("NumEdges=+1..3")
    with pytest.raises(FilterSpecError):
        parse_filter_spec("NumCycles")
    with pytest.raises(FilterSpecError):
        parse_filter_spec("NumCycles=0,,NumEdges=1")


def test_girth_values():
    assert girth(Graph.cycle(5)) == 5
    assert girth(Graph.cycle(4)) == 4
    assert girth(Graph.complete(4)) == 3
    assert girth(Graph.path(6)) is None
    assert girth(Graph.empty(1)) is None
    # square with a pendant triangle: girth 3
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (5, 3)])
    assert girth(g) == 3
    assert girth(petersen()) == 5


def test_girth_against_cycle_enumeration():
    import itertools

    def brute_girth(g):
        best = None
        for size in range(3, g.n + 1):
            for verts in itertools.permutations(range(g.n), size):
                if verts[0] != min(verts) or verts[1] > verts[-1]:
                    continue  # fix rotation and reflection
                if all(g.has_edge(verts[i], verts[(i + 1) % size]) for i in range(size)):
                    return size
        return best

    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        assert girth(g) == brute_girth(g)


def test_girth_sentinel_never_matches():
    tree = Graph.path(4)
    wide = build_graph_filter([("Girth", (0, 10 ** 9))])
    assert not evaluate(wide, tree)
    negated = build_graph_filter([("Girth", (0, 10 ** 9)), ("NegateGirth", True)])
    assert evaluate(negated, tree)


def test_integer_properties():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])  # C5
    assert evaluate(build_graph_filter([("NumVertices", 5)]), g)
    assert evaluate(build_graph_filter([("NumEdges", (4, 6))]), g)
    assert evaluate(build_graph_filter([("MinDegree", 2)]), g)
    assert evaluate(build_graph_filter([("MaxDegree", (0, 2))]), g)
    assert not evaluate(build_graph_filter([("MaxDegree", 3)]), g)
    assert evaluate(build_graph_filter([("Girth", 5)]), g)


def test_boolean_properties():
    assert evaluate(build_graph_filter([("Regular", True)]), Graph.cycle(6))
    assert not evaluate(build_graph_filter([("Regular", True)]), Graph.path(3))
    assert evaluate(build_graph_filter([("Regular", True)]), Graph.empty(1))
    assert evaluate(build_graph_filter([("Bipartite", True)]), Graph.cycle(6))
    assert not evaluate(build_graph_filter([("Bipartite", True)]), Graph.cycle(5))
    assert evaluate(build_graph_filter([("Connected", True)]), Graph.path(4))
    assert not evaluate(build_graph_filter([("Connected", True)]), Graph.empty(2))


def test_connected_sugar_matches_negated_zero_connectivity():
    rng = random.Random(32)
    sugar = build_graph_filter([("Connected", True)])
    not_zero_connected = build_graph_filter([("Connectivity", 0), ("NegateConnectivity", True)])
    graphs = [random_graph(rng, rng.randint(1, 7), rng.random()) for _ in range(80)]
    graphs.append(Graph.empty(1))
    for g in graphs:
        assert evaluate(sugar, g) == evaluate(not_zero_connected, g)


def test_connectivity_exact_k_semantics():
    disconnected = Graph.from_edges(5, [(0, 1), (2, 3)])
    cut_vertex = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert evaluate(build_graph_filter([("Connectivity", 0)]), disconnected)
    assert not evaluate(build_graph_filter([("Connectivity", 0)]), cut_vertex)
    assert evaluate(build_graph_filter([("Connectivity", 1)]), cut_vertex)
    assert not evaluate(build_graph_filter([("Connectivity", 2)]), cut_vertex)
    assert evaluate(build_graph_filter([("Connectivity", 4)]), Graph.complete(5))
    assert evaluate(build_graph_filter([("Connectivity", (1, 4))]), cut_vertex)
    # K1 is connected and cannot be disconnected: matches no value at all
    assert not evaluate(build_graph_filter([("Connectivity", 0)]), Graph.empty(1))
    assert not evaluate(build_graph_filter([("Connectivity", (0, 99))]), Graph.empty(1))


def two_k5_sharing_two() -> Graph:
    """K5 on {0, 1, 2, 3, 4} and K5 on {0, 1, 5, 6, 7}: minimum degree 4, connectivity 2."""
    return Graph.from_edges(8, {e for side in ((0, 1, 2, 3, 4), (0, 1, 5, 6, 7)) for e in combinations(side, 2)})


def test_connectivity_cap_witness_q4():
    # kappa(Q4) = 4 = hi + 1 for 2..3: the flows are capped at 4, not at 3
    q4 = hypercube(4)
    assert connectivity_at_most(q4, q4.n) == 4
    assert not evaluate(parse_filter_spec("Connectivity=2..3"), q4)
    assert evaluate(parse_filter_spec("Connectivity=4"), q4)
    assert not evaluate(parse_filter_spec("Connectivity=5..9"), q4)


def test_connectivity_below_minimum_degree_witness():
    # the minimum degree (4) only starts the bound; the flows bring it down to 2
    g = two_k5_sharing_two()
    assert connectivity_at_most(g, g.n) == 2
    assert evaluate(parse_filter_spec("Connectivity=2..3"), g)
    assert not evaluate(parse_filter_spec("Connectivity=3..4"), g)
    assert not evaluate(parse_filter_spec("Connectivity=1"), g)


def test_connectivity_common_neighbour_witness_k55(monkeypatch):
    # every non-adjacent pair of K_{5,5} shares 5 = minimum degree neighbours,
    # so the common-neighbour rule skips them all and no flow runs
    def no_flow(*args):
        raise AssertionError("flow on a pair with enough common neighbours")

    monkeypatch.setattr(core, "_local_connectivity", no_flow)
    k55 = complete_bipartite(5, 5)
    assert connectivity_at_most(k55, k55.n) == 5
    assert evaluate(parse_filter_spec("Connectivity=5"), k55)
    assert not evaluate(parse_filter_spec("Connectivity=2..4"), k55)
    assert not evaluate(parse_filter_spec("Connectivity=6..9"), k55)


def test_connectivity_at_most_one_runs_no_flow(monkeypatch):
    # a connected graph on n >= 2 vertices has kappa >= 1, so minimum degree 1,
    # or a bound of at most 1, settles it without a flow
    def no_flow(*args):
        raise AssertionError("flow where the bound is already at most 1")

    monkeypatch.setattr(core, "_local_connectivity", no_flow)
    rng = random.Random(44)
    star = Graph.from_edges(10, [(0, v) for v in range(1, 10)])
    tree = Graph.from_edges(12, [(v, rng.randrange(v)) for v in range(1, 12)])
    c5_pendant = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5)])
    for g in (Graph.path(10), star, tree, c5_pendant):
        assert connectivity_at_most(g, g.n) == 1, g
        assert evaluate(parse_filter_spec("Connectivity=1"), g)
        assert not evaluate(parse_filter_spec("Connectivity=0"), g)
        assert evaluate(parse_filter_spec("!Connectivity=0"), g)
        assert not evaluate(parse_filter_spec("Connectivity=-3..-1"), g)
    assert evaluate(parse_filter_spec("!Connectivity=0"), Graph.cycle(5))  # a bound of 1 needs no flow


def test_connectivity_stops_once_a_flow_brings_the_bound_to_one(monkeypatch):
    # two K4s joined through the cut vertex 4: minimum degree 2 starts the
    # bound, the first flow (0, 5) brings it to 1, and 1 is already kappa
    g = Graph.from_edges(9, [*combinations(range(4), 2), *combinations(range(5, 9), 2), (0, 4), (4, 5)])
    flows = []

    def counted(*args, local_connectivity=core._local_connectivity):
        flows.append(args[1:3])
        return local_connectivity(*args)

    monkeypatch.setattr(core, "_local_connectivity", counted)
    assert connectivity_at_most(g, g.n) == 1
    assert flows == [(0, 5)]


def test_connectivity_builds_no_edge_list(monkeypatch):
    # every flow reads its network from the adjacency rows, not from an edge list
    rng = random.Random(45)
    graphs = [random_graph(rng, 30, 0.2) for _ in range(6)]
    graphs = [g for g in graphs if g.is_connected() and min(row.bit_count() for row in g.rows) >= 2]
    assert graphs  # minimum degree 2 or more, so flows run
    expected = [(connectivity_at_most(g, 4), connectivity_at_most(g, g.n)) for g in graphs]

    def no_edge_list(self):
        raise AssertionError("edge list built on the connectivity path")

    monkeypatch.setattr(Graph, "edges", no_edge_list)
    assert [(connectivity_at_most(g, 4), connectivity_at_most(g, g.n)) for g in graphs] == expected


def _ranges_around(k: int) -> list[tuple[int, int]]:
    """Ranges that k lies below, inside and above."""
    candidates = [(k + 1, k + 3), (k, k), (k - 1, k + 1), (0, k - 1), (k - 3, k - 1)]
    return [(max(lo, 0), hi) for lo, hi in candidates if hi >= max(lo, 0)]


def test_connectivity_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    graphs = [hypercube(4), complete_bipartite(3, 5), two_k5_sharing_two(), petersen()]
    for n in range(7, 21):
        for p in (0.2, 0.35, 0.5, 0.65, 0.85):
            graphs += [random_graph(rng, n, p) for _ in range(2)]
    for g in graphs:
        kappa = nx.node_connectivity(to_networkx(g))  # 0 when disconnected
        assert connectivity_at_most(g, g.n) == kappa, g
        for lo, hi in _ranges_around(kappa):
            spec = build_graph_filter([("Connectivity", (lo, hi))])
            assert evaluate(spec, g) == (lo <= kappa <= hi), (g, lo, hi)
        for cap in range(-1, g.n + 2):
            assert connectivity_at_most(g, cap) == min(kappa, cap), (g, cap)


def _sparse_with_minimum_degree_two(rng: random.Random, count: int) -> list[Graph]:
    """Connected G(64, 0.1) draws with minimum degree 2, like the heaviest stream lines."""
    found = []
    while len(found) < count:
        g = random_graph(rng, 64, 0.1)
        if g.is_connected() and min(row.bit_count() for row in g.rows) == 2:
            found.append(g)
    return found


def test_local_connectivity_matches_networkx_at_stream_sizes():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    rng = random.Random(46)
    graphs = [random_graph(rng, 30, 0.2), *_sparse_with_minimum_degree_two(rng, 2), random_graph(rng, 64, 0.5)]
    for g in graphs:
        h = to_networkx(g)
        non_adjacent = [(s, t) for s, t in combinations(range(g.n), 2) if not g.has_edge(s, t)]
        for s, t in rng.sample(non_adjacent, 6):
            kappa_st = local_node_connectivity(h, s, t)  # no cutoff: the exact value
            for limit in (1, 2, 4, g.n):
                assert core._local_connectivity(g, s, t, limit) == min(limit, kappa_st), (g, s, t, limit)
        assert connectivity_at_most(g, 4) == min(nx.node_connectivity(h), 4), g


def test_local_connectivity_cancels_flow_on_a_reverse_arc():
    # s=0, t=3: the unique shortest path 0-1-2-3 takes the first unit of flow;
    # the second path 0-4-5-2 ~> 1-6-7-3 exists only by cancelling 1 -> 2
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import local_node_connectivity

    trap = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 2), (1, 6), (6, 7), (7, 3)]
    rng = random.Random(47)
    for _ in range(8):
        p = list(range(8))
        rng.shuffle(p)
        g = Graph.from_edges(8, [(p[u], p[v]) for u, v in trap])
        s, t = p[0], p[3]
        assert local_node_connectivity(to_networkx(g), s, t) == 2
        for limit in (1, 2, 4, g.n):
            assert core._local_connectivity(g, s, t, limit) == min(limit, 2), (g, s, t, limit)


def test_girth_components_and_bipartition_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(43)
    graphs = []
    for n in range(8, 65, 4):
        graphs.append(random_graph(rng, n, 1.0 / n))  # sparse: forests with many components
        graphs.append(random_graph(rng, n, 3.0 / n))  # sparse with a few cycles
        side = [rng.random() < 0.5 for _ in range(n)]  # planted bipartite
        across = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
        graphs.append(Graph.from_edges(n, [e for e in across if rng.random() < 0.2]))
        graphs.append(Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)]))  # a tree
    for n in range(8, 65, 4):  # planted bipartite at p = 0.5: many even cycles
        side = [rng.random() < 0.5 for _ in range(n)]
        across = [(u, v) for u, v in combinations(range(n), 2) if side[u] != side[v]]
        graphs.append(Graph.from_edges(n, [e for e in across if rng.random() < 0.5]))
    # even girth, where a vertex meets two paths from the layer above, and odd
    # girth, where an edge lies inside a layer, with the shortest cycle away from 0
    grid = Graph.from_edges(64, [(v, v + 1) for v in range(64) if v % 8 < 7] + [(v, v + 8) for v in range(56)])
    ring = [(v, (v + 1) % 14) for v in range(14)]
    heawood = Graph.from_edges(14, ring + [(v, (v + 5) % 14) for v in range(0, 14, 2)])
    graphs += [hypercube(4), hypercube(5), hypercube(6), grid, heawood, complete_bipartite(3, 3)]
    graphs += [Graph.cycle(n) for n in range(3, 65)]
    c5_c4 = [(v, (v + 1) % 5) for v in range(5)] + [(5 + v, 5 + (v + 1) % 4) for v in range(4)]
    graphs.append(permute_graph(Graph.from_edges(9, c5_c4), Permutation(tuple(rng.sample(range(9), 9)))))
    # C4 and C5 through 0: at depth 2 from 0, vertex 2 closes the C4 before the edge 5-6 closes the C5
    graphs.append(Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 0)]))
    for g in graphs:
        h = to_networkx(g)
        expected_girth = nx.girth(h)
        assert girth(g) == (None if expected_girth == float("inf") else expected_girth), g
        assert g.component_count() == nx.number_connected_components(h), g
        comps = core.component_masks(g.rows)
        assert [c & -c for c in comps] == sorted(c & -c for c in comps)  # ordered by smallest member
        side_masks = core.bipartition_masks(g.rows)
        assert (side_masks is not None) == nx.is_bipartite(h), g
        if side_masks is not None:
            a = sum(side_a for side_a, _ in side_masks)
            b = sum(side_b for _, side_b in side_masks)
            assert a | b == (1 << g.n) - 1 and not a & b
            assert all((a >> u & 1) != (a >> v & 1) for u, v in g.edges())
            assert [a | b for a, b in side_masks] == comps
            assert all(comp & -comp & a for (a, _), comp in zip(side_masks, comps))  # smallest vertex in side_a
    # the sample reaches every case the oracles distinguish
    assert any(girth(g) is None and g.component_count() > 1 for g in graphs)
    assert any(core.bipartition_masks(g.rows) is None for g in graphs)
    assert any(core.bipartition_masks(g.rows) is not None and girth(g) is not None for g in graphs)
    assert [girth(g) for g in (heawood, grid, hypercube(6), graphs[-2], graphs[-1])] == [6, 4, 4, 4, 4]


def test_negate_flips_single_clause():
    rng = random.Random(33)
    cases = [
        ("NumCycles", 0),
        ("NumEdges", (2, 5)),
        ("Bipartite", True),
        ("Connected", True),
        ("Girth", (3, 4)),
        ("Connectivity", 0),
    ]
    for name, value in cases:
        plain = build_graph_filter([(name, value)])
        negated = build_graph_filter([(name, value), (f"Negate{name}", True)])
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 6), rng.random())
            assert evaluate(plain, g) != evaluate(negated, g)


def test_filtered_is_subsequence():
    rng = random.Random(34)
    items = [codec.encode_graph6(random_graph(rng, 6, rng.random())) for _ in range(40)]
    kept = filter_graphs(items, FOREST)
    it = iter(items)
    assert all(k in it for k in kept)  # order-preserving subsequence


def test_tree_filter_equals_forest_and_connected():
    connected = build_graph_filter([("Connected", True)])
    for n in range(1, 8):
        lines = generate_graphs(n, GenOptions(only_bipartite=True))
        trees = filter_graphs(lines, TREE)
        both = [s for s in filter_graphs(lines, FOREST) if s in set(filter_graphs(lines, connected))]
        assert trees == both


def test_edge_range_cross_check():
    lines = generate_graphs(5)
    ranged = filter_graphs(lines, build_graph_filter([("NumEdges", (4, 6))]))
    direct = [s for s in lines if 4 <= codec.decode(s).num_edges() <= 6]
    assert ranged == direct
    assert len(ranged) == sum(1 for s in lines if 4 <= codec.decode(s).num_edges() <= 6)


def test_forest_counts_small():
    forest_counts = [
        len(filter_graphs(generate_graphs(n, GenOptions(only_bipartite=True)), FOREST))
        for n in range(1, 8)
    ]
    assert forest_counts == [1, 2, 3, 6, 10, 20, 37]


def test_tree_counts_small():
    tree_counts = [
        len(filter_graphs(generate_graphs(n, GenOptions(only_bipartite=True)), TREE))
        for n in range(1, 8)
    ]
    assert tree_counts == [1, 1, 1, 2, 3, 6, 11]


def test_filter_graphs_error_carries_index():
    with pytest.raises(ValueError, match="item 1"):
        filter_graphs(["Dhc", "garbage!", "D~{"], ACCEPT_ALL)
    with pytest.raises(codec.CodecError, match="item 1") as info:
        filter_graphs(["Dhc", "D c"], ACCEPT_ALL)
    assert info.value.offset == 1
    with pytest.raises(ZeroVertexError, match="^item 0: "):
        filter_graphs(["?"], ACCEPT_ALL)
