import functools
import math
import random
from unittest import mock

import pytest

from conftest import all_labelled_graphs, closure_order, random_permutation
from gcanon import canon, codec, generate
from gcanon.core import Graph, Permutation, ZeroVertexError, permute_graph, permute_mask
from gcanon.filters import evaluate, filter_graphs, parse_filter_spec
from gcanon.generate import GenOptions, RandomModel, generate_graphs, generate_random_graphs

A000088 = [1, 2, 4, 11, 34, 156, 1044]


def test_counts_match_reference():
    assert [len(generate_graphs(n)) for n in range(1, 8)] == A000088


def test_single_vertex():
    assert generate_graphs(1) == ["@"]


def test_zero_vertex_rejected():
    with pytest.raises(ZeroVertexError):
        generate_graphs(0)
    with pytest.raises(ValueError):
        generate_graphs(-2)


def test_non_int_count_rejected():
    # 2.0 == 2 passed the count checks and failed later with a TypeError.
    with pytest.raises(ValueError, match=r"^vertex count must be an int, got 2\.0$"):
        generate_graphs(2.0)
    # isinstance(True, int) holds, so generate_graphs(True) used to return ['@'].
    with pytest.raises(ValueError, match=r"^vertex count must be an int, got True$"):
        generate_graphs(True)


def test_output_sorted_and_deterministic():
    first = generate_graphs(6)
    second = generate_graphs(6)
    assert first == second
    assert first == sorted(first)


def test_outputs_are_canonical_and_distinct():
    lines = generate_graphs(6)
    assert canon.remove_isomorphs(lines) == lines
    for line in lines:
        g = codec.decode(line)
        assert canon.canonical_label(g).canonical_graph == g


@functools.cache
def counted_generation(n, constraints):
    """``generate_graphs(n, constraints)`` and its canonical searches, each as
    (rows, the automorphisms it was seeded with, its record)."""
    searches = []
    real_search = canon.search

    def search(rows, cells=None, **options):
        found = real_search(rows, cells, **options)
        searches.append((rows, options.get("known", ()), found))
        return found

    with mock.patch.object(canon, "search", search):
        lines = generate_graphs(n, constraints)
    return lines, searches


def census(n):
    return counted_generation(n, None)[0]


@functools.cache
def brute_force_classes(n):
    """Canonical keys of every class, from all 2^C(n,2) labelled graphs."""
    return frozenset(canon.search(g.rows).key for g in all_labelled_graphs(n))


def brute_force_class_keys(n, predicate=None):
    # Every predicate is isomorphism-invariant, so one representative per class decides.
    return {
        key
        for key in brute_force_classes(n)
        if predicate is None or predicate(Graph(n, tuple(codec.rows_from_key(n, key))))
    }


# Hereditary clauses (pruned on every level) in plain, ranged and negated
# forms, and final-only clauses.  No level builds the one-vertex graph, so
# the empty range must still reject it.
FILTER_SPECS = [
    "NumCycles=0",
    "NumEdges=-2..-1",
    "NumCycles=1..2",
    "!NumCycles=0",
    "Bipartite=false",
    "!Bipartite=false",
    "!NumEdges=0..3",
    "Girth=4..5",
    "Connectivity=2",
    "NumCycles=0,!Connectivity=0",
]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_completeness_against_brute_force(n):
    cases = [
        (GenOptions(), None),
        (GenOptions(only_connected=True), lambda g: g.is_connected()),
        (GenOptions(only_bipartite=True), lambda g: g.is_bipartite()),
        (GenOptions(min_edges=2), lambda g: g.num_edges() >= 2),
        (GenOptions(max_edges=4), lambda g: g.num_edges() <= 4),
        (GenOptions(min_edges=3, max_edges=5), lambda g: 3 <= g.num_edges() <= 5),
        (
            GenOptions(only_connected=True, only_bipartite=True, max_edges=5),
            lambda g: g.is_connected() and g.is_bipartite() and g.num_edges() <= 5,
        ),
    ]
    for spec in FILTER_SPECS:
        graph_filter = parse_filter_spec(spec)
        cases.append((graph_filter, functools.partial(evaluate, graph_filter)))
    for constraints, predicate in cases:
        got = {codec.key_from_rows(codec.decode(s).rows, range(n)) for s in generate_graphs(n, constraints)}
        assert got == brute_force_class_keys(n, predicate), constraints


def test_classes_match_networkx_atlas():
    # An oracle independent of generation: the atlas lists every class on
    # up to 7 vertices once, each under some labelling of 0..n-1.
    nx = pytest.importorskip("networkx")
    atlas = nx.graph_atlas_g()
    for n in range(1, 8):
        forms = [
            codec.encode_graph6(canon.canonical_label(Graph.from_edges(n, list(g.edges()))).canonical_graph)
            for g in atlas
            if g.number_of_nodes() == n
        ]
        assert sorted(forms) == census(n), n


# Each hereditary pruner, alone and with others, one size past the brute-force
# oracle: pruned generation must equal filtering the unrestricted census.
# The positive lower bounds and the negations must survive into the residual
# filter that generation evaluates on the last level.
@pytest.mark.parametrize(
    "spec",
    [
        "NumEdges=0..6",
        "NumCycles=0..2",
        "Bipartite=true",
        "NumCycles=0,!Connectivity=0",
        "Bipartite=true,NumEdges=0..5",
        "NumEdges=3..6",
        "NumCycles=1..2",
        "!Bipartite=true",
        "!Bipartite=false",
        "Bipartite=true,NumEdges=4..9",
    ],
)
def test_pruned_generation_matches_post_filter_n7(spec):
    graph_filter = parse_filter_spec(spec)
    assert generate_graphs(7, graph_filter) == sorted(filter_graphs(census(7), graph_filter))


def test_generation_evaluates_only_the_residual_filter(monkeypatch):
    calls = []

    def counted(graph_filter, graph):
        calls.append(graph_filter)
        return evaluate(graph_filter, graph)

    monkeypatch.setattr(generate, "evaluate", counted)
    for spec in ("Bipartite=true", "NumCycles=0"):
        assert generate_graphs(7, parse_filter_spec(spec))
    assert calls == []


A001187 = [1, 1, 4, 38, 728, 26704, 1866256, 251548592]


@functools.cache
def labelled_copies(line):
    """n!/|Aut G| for the graph on the line, with |Aut G| the order of the returned generators."""
    g = codec.decode(line)
    return math.factorial(g.n) // closure_order(canon.canonical_label(g).automorphism_generators, g.n)


def test_labelled_counts_from_automorphism_groups():
    # A missing or repeated class changes a sum; generators that span only a
    # proper subgroup of some class's group make it too large.
    for n in range(1, 9):
        assert sum(map(labelled_copies, census(n))) == 2 ** math.comb(n, 2), n
        connected = generate_graphs(n, GenOptions(only_connected=True))
        assert sum(map(labelled_copies, connected)) == A001187[n - 1], n
    # Cayley: n^(n-2) labelled trees.  The closure of the star K_{1,n-1} has
    # (n-1)! elements, which bounds n.
    trees = parse_filter_spec("NumCycles=0,!Connectivity=0")
    for n in range(2, 10):
        assert sum(map(labelled_copies, generate_graphs(n, trees))) == n ** (n - 2), n


# One search per child and none per parent: each class is extended with the
# generators of the search that found it, so a parent search fails here.
@pytest.mark.parametrize(
    "n, constraints, count",
    [
        (8, None, 14654),
        (10, GenOptions(only_bipartite=True), 7644),
        (12, parse_filter_spec("NumCycles=0,!Connectivity=0"), 3109),
    ],
)
def test_generation_search_count(n, constraints, count):
    assert len(counted_generation(n, constraints)[1]) == count


# The same builds: each child's search starts from the automorphisms it
# inherits from its parent, so it visits about half the leaves (35,598,
# 28,753 and 19,280 without them) and the counts above stay.
@pytest.mark.parametrize(
    "n, constraints, leaves",
    [
        (8, None, 18372),
        (10, GenOptions(only_bipartite=True), 9867),
        (12, parse_filter_spec("NumCycles=0,!Connectivity=0"), 3611),
    ],
)
def test_generation_leaf_count(n, constraints, leaves):
    assert sum(found.leaves for *_, found in counted_generation(n, constraints)[1]) == leaves


@pytest.mark.parametrize("constraints", [None, GenOptions(only_bipartite=True)])
def test_children_inherit_automorphisms_that_fix_the_new_vertex(constraints):
    # A parent automorphism that maps the new neighbourhood onto itself,
    # extended by fixing the new vertex k - 1, is an automorphism of the
    # child; the search may start from nothing else.
    seeded = 0
    for rows, known, _ in counted_generation(7, constraints)[1]:
        k = len(rows)
        child = Graph(k, tuple(rows))
        for image in known:
            assert image[k - 1] == k - 1, (rows, image)
            assert permute_graph(child, Permutation(image)) == child, (rows, image)
        seeded += bool(known)
    assert seeded > 0


@pytest.mark.parametrize("bipartite", [False, True])
def test_kept_masks_are_unions_of_parent_orbits(bipartite):
    # The pre-check must commute with taking one neighbourhood per orbit, so
    # every automorphism of a parent maps its kept masks onto themselves.
    # The parents come from brute force, not from generation, each in its
    # canonical labelling and under a seeded relabelling, since generation
    # extends a class in the labelling its search ran on.
    rng = random.Random(18)
    bounds = (bipartite, None, None)
    for k in range(1, 7):
        for key in brute_force_class_keys(k, Graph.is_bipartite if bipartite else None):
            canonical = Graph(k, tuple(codec.rows_from_key(k, key)))
            for g in (canonical, permute_graph(canonical, random_permutation(rng, k))):
                parent = g.rows
                kept = set(generate._new_vertex_maximises_f(parent, generate._neighbourhood_masks(parent, *bounds)))
                for sigma in canon.search(parent).generators:
                    image_bits = [1 << w for w in sigma]
                    assert {permute_mask(image_bits, m) for m in kept} == kept, (parent, sigma)


def test_bipartite_counts():
    assert len(generate_graphs(4, GenOptions(only_bipartite=True))) == 7
    assert [len(generate_graphs(n, GenOptions(only_bipartite=True))) for n in range(1, 8)] == [
        1, 2, 3, 7, 13, 35, 88,
    ]


def test_every_output_satisfies_constraints():
    opts = GenOptions(only_connected=True, only_bipartite=True, min_edges=4, max_edges=6)
    lines = generate_graphs(7, opts)
    assert lines
    for line in lines:
        g = codec.decode(line)
        assert g.is_connected()
        assert g.is_bipartite()
        assert 4 <= g.num_edges() <= 6


def test_gen_options_validation():
    with pytest.raises(ValueError):
        GenOptions(min_edges=5, max_edges=2)
    with pytest.raises(ValueError):
        GenOptions(min_edges=-1)


@pytest.mark.parametrize(
    "options, message",
    [
        ({"min_edges": True}, r"^min_edges must be a non-negative int, got True$"),
        ({"max_edges": True}, r"^max_edges must be a non-negative int, got True$"),
        ({"min_edges": "3"}, r"^min_edges must be a non-negative int, got '3'$"),
        ({"min_edges": 1.5}, r"^min_edges must be a non-negative int, got 1\.5$"),
        ({"max_edges": 2.0}, r"^max_edges must be a non-negative int, got 2\.0$"),
        ({"min_edges": 2, "max_edges": "5"}, r"^max_edges must be a non-negative int, got '5'$"),
        ({"max_edges": -1}, r"^max_edges must be a non-negative int, got -1$"),
    ],
    ids=["bool-min", "bool-max", "str-min", "float-min", "float-max", "str-max", "negative-max"],
)
def test_gen_options_rejects_an_edge_bound_that_is_not_a_non_negative_int(options, message):
    # A bool min_edges used to be read as 1 and a bool max_edges to fail in
    # the filter, a str bound raised a bare TypeError from the sign check, and
    # min_edges=1.5 reported the range (0, 0.5).
    with pytest.raises(ValueError, match=message):
        GenOptions(**options)


def test_random_degenerate_probabilities():
    empties = generate_random_graphs(RandomModel(6, 10, 0.0, seed=1))
    assert empties == [Graph.empty(6)] * 10
    completes = generate_random_graphs(RandomModel(6, 10, 1.0, seed=1))
    assert completes == [Graph.complete(6)] * 10


def test_random_seed_determinism():
    a = generate_random_graphs(RandomModel(10, 50, 0.3, seed=42))
    b = generate_random_graphs(RandomModel(10, 50, 0.3, seed=42))
    c = generate_random_graphs(RandomModel(10, 50, 0.3, seed=43))
    assert a == b
    assert a != c


def test_random_mean_edge_count():
    samples = generate_random_graphs(RandomModel(10, 2000, 0.3, seed=7))
    mean = sum(g.num_edges() for g in samples) / len(samples)
    expected = 0.3 * 45
    stderr = math.sqrt(45 * 0.3 * 0.7 / 2000)
    assert abs(mean - expected) <= 3 * stderr


def test_random_per_edge_frequency():
    trials = 3000
    samples = generate_random_graphs(RandomModel(5, trials, 0.4, seed=9))
    for u in range(5):
        for v in range(u + 1, 5):
            freq = sum(g.has_edge(u, v) for g in samples) / trials
            margin = 4 * math.sqrt(0.4 * 0.6 / trials)
            assert abs(freq - 0.4) <= margin, (u, v, freq)


def test_random_model_validation():
    with pytest.raises(ZeroVertexError):
        RandomModel(0, 1, 0.5)
    with pytest.raises(ValueError):
        RandomModel(5, -1, 0.5)
    with pytest.raises(ValueError):
        RandomModel(5, 1, 1.5)


def test_random_model_rejects_a_non_int_count():
    # RandomModel(3, 1.5, 0.5) used to build, and only sampling failed.
    with pytest.raises(ValueError, match=r"^sample count must be a non-negative int, got 1\.5$"):
        RandomModel(3, 1.5, 0.5)
    with pytest.raises(ValueError, match=r"^vertex count must be an int, got 3\.0$"):
        RandomModel(3.0, 1, 0.5)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: RandomModel(True, 1, 0.5), r"^vertex count must be an int, got True$"),
        (lambda: RandomModel(3, True, 0.5), r"^sample count must be a non-negative int, got True$"),
        (lambda: RandomModel(3, 1, "0.5"), r"^edge probability must be an int or float, got '0\.5'$"),
        (lambda: RandomModel(3, 1, True), r"^edge probability must be an int or float, got True$"),
        (lambda: RandomModel(3, 1, 0.5, seed=[1]), r"^seed must be an int, got \[1\]$"),
        (lambda: RandomModel(3, 1, 0.5, seed=True), r"^seed must be an int, got True$"),
        (lambda: RandomModel(3, 1, 0.5, seed=1.0), r"^seed must be an int, got 1\.0$"),
    ],
    ids=["bool-n", "bool-count", "str-p", "bool-p", "list-seed", "bool-seed", "float-seed"],
)
def test_random_model_rejects_each_field_of_the_wrong_type(build, message):
    # A str p used to raise a bare TypeError from the range comparison, a
    # list seed failed only inside random.Random, and a bool count built.
    with pytest.raises(ValueError, match=message):
        build()


def test_random_model_takes_an_int_p():
    assert generate_random_graphs(RandomModel(4, 1, 1)) == [Graph.complete(4)]
