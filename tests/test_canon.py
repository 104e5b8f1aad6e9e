import hashlib
import itertools
import random
from collections import deque

import pytest

from conftest import (
    brute_force_automorphism_count,
    brute_force_colour_isomorphic,
    brute_force_isomorphic,
    cartesian_product,
    cayley_table,
    cfi_graph,
    chang,
    closure_order,
    complete_bipartite,
    compose,
    deadline,
    disjoint_union,
    hypercube,
    is_colour_preserving,
    johnson,
    latin_square_graph,
    normalize_colouring,
    permute_colouring,
    petersen,
    projective_plane_incidence,
    random_colouring,
    random_graph,
    random_permutation,
    shrikhande,
    sylvester_hadamard_graph,
    to_networkx,
    triangular,
)
from gcanon import canon, codec
from gcanon.canon import (
    are_isomorphic,
    canonical_label,
    refine,
    remove_isomorphs,
)
from gcanon.core import (
    Colouring,
    Graph,
    Permutation,
    ZeroVertexError,
    permute_graph,
)
from gcanon.generate import generate_graphs

C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C5_RELABELLED = Graph.from_edges(5, [(0, 2), (2, 4), (1, 4), (1, 3), (0, 3)])


def cell_lists(colouring):
    return [sorted(c) for c in colouring.cells]


def is_equitable(graph, colouring):
    for cell in colouring.cells:
        for other in colouring.cells:
            counts = {sum(1 for w in other if graph.has_edge(v, w)) for v in cell}
            if len(counts) > 1:
                return False
    return True


def refines(finer, coarser):
    return all(any(cell <= big for big in coarser.cells) for cell in finer.cells)


def test_refine_regular_graphs_unchanged():
    for g in [Graph.complete(5), Graph.cycle(6), Graph.empty(4)]:
        assert refine(g) == Colouring.unit(g.n)


def test_refine_path_example():
    assert refine(Graph.path(3)) == Colouring(([0, 2], [1]))


def test_refine_is_coarsest_equitable():
    rng = random.Random(21)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.random())
        pi = random_colouring(rng, n)
        result = refine(g, pi)
        assert is_equitable(g, result)
        assert refines(result, pi)
        assert refine(g, result) == result  # idempotent
        # coarsest: merging any two result cells breaks equitability or pi-fineness
        cells = list(result.cells)
        for i, j in itertools.combinations(range(len(cells)), 2):
            merged_cells = [c for k, c in enumerate(cells) if k not in (i, j)]
            merged_cells.append(cells[i] | cells[j])
            merged = Colouring(tuple(merged_cells))
            assert not (is_equitable(g, merged) and refines(merged, pi))


def test_refine_size_mismatch():
    with pytest.raises(ValueError):
        refine(Graph.empty(3), Colouring.unit(4))


def test_canonical_of_k5_is_k5():
    result = canonical_label(Graph.complete(5))
    assert result.canonical_graph == Graph.complete(5)
    assert closure_order(result.automorphism_generators, 5) == 120


def test_canon_result_invariants():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        pi = random_colouring(rng, n)
        result = canonical_label(g, pi)
        assert result.canonical_graph == permute_graph(g, result.labelling)
        assert permute_colouring(result.labelling, pi) == normalize_colouring(pi)
        for sigma in result.automorphism_generators:
            assert permute_graph(g, sigma) == g
            assert is_colour_preserving(sigma, pi)
        assert result.leaf_count >= 1


def test_canonical_invariance_with_colourings():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, rng.random())
        pi = random_colouring(rng, n)
        sigma = random_permutation(rng, n)
        relabelled = canonical_label(permute_graph(g, sigma), permute_colouring(sigma, pi))
        assert relabelled.canonical_graph == canonical_label(g, pi).canonical_graph


def test_pruning_neutrality():
    rng = random.Random(24)
    specials = [Graph.complete(6), Graph.empty(6), Graph.cycle(6), Graph.cycle(5), Graph.path(4)]
    graphs = specials + [random_graph(rng, rng.randint(1, 6), rng.random()) for _ in range(60)]
    # Unions of unlike symmetric parts: an automorphism that moves the path
    # above a level must not join orbits at that level.
    witnesses = [
        disjoint_union([Graph.cycle(4), Graph.complete(3), Graph.complete(3)]),
        disjoint_union([Graph.cycle(4), Graph.cycle(4), Graph.complete(3)]),
    ]
    # A colouring shapes the orbits kept per level; with or without one,
    # pruning keeps the key and the whole group.
    cases = [(g, None) for g in graphs + witnesses] + [(g, random_colouring(rng, g.n)) for g in graphs]
    for g, pi in cases:
        fast = canon.search(g.rows, None if pi is None else cell_lists(pi))
        slow = canon.search(g.rows, None if pi is None else cell_lists(pi), prune=False)
        assert fast.key == slow.key
        assert fast.leaves <= slow.leaves
        order = closure_order(slow.generators, g.n)
        assert closure_order(fast.generators, g.n) == order
        if g.n <= 6:  # the witnesses are too large to enumerate
            assert order == brute_force_automorphism_count(g, pi)


def test_idempotence_of_canonical_form():
    rng = random.Random(25)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        canonical = canonical_label(g).canonical_graph
        assert canonical_label(canonical).canonical_graph == canonical


def test_are_isomorphic_c5_relabelling():
    assert are_isomorphic(C5, C5_RELABELLED)
    assert not are_isomorphic(C5, Graph.complete(5))


def test_are_isomorphic_edge_cases():
    assert not are_isomorphic(Graph.empty(3), Graph.empty(4))
    # mismatched cell sizes: no search, just False
    pi = Colouring(([0], [1, 2]))
    rho = Colouring(([0, 1], [2]))
    assert not are_isomorphic(Graph.empty(3), Graph.empty(3), pi, rho)


def test_are_isomorphic_matches_brute_force_random_pairs():
    rng = random.Random(26)
    graphs = [random_graph(rng, 6, rng.choice([0.3, 0.5, 0.7])) for _ in range(25)]
    graphs += [permute_graph(g, random_permutation(rng, 6)) for g in graphs[:10]]
    for g, h in itertools.combinations(graphs, 2):
        assert are_isomorphic(g, h) == brute_force_isomorphic(g, h)


def test_coloured_isomorphism_matches_brute_force():
    rng = random.Random(27)
    checked_true = 0
    for _ in range(150):
        n = rng.randint(2, 5)
        g = random_graph(rng, n, rng.random())
        pi = random_colouring(rng, n)
        if rng.random() < 0.5:
            # relabel so colour-preserving isomorphs exist
            sigma = random_permutation(rng, n)
            h = permute_graph(g, sigma)
            rho = permute_colouring(sigma, pi)
        else:
            h = random_graph(rng, n, rng.random())
            rho = random_colouring(rng, n)
            if pi.cell_sizes() != rho.cell_sizes():
                continue
        expected = brute_force_colour_isomorphic(g, h, pi, rho)
        assert are_isomorphic(g, h, pi, rho) == expected
        checked_true += expected
    assert checked_true > 20


def test_automorphism_generators_examples():
    assert closure_order(canonical_label(Graph.complete(3)).automorphism_generators, 3) == 6
    assert closure_order(canonical_label(Graph.path(3)).automorphism_generators, 3) == 2
    c5_gens = canonical_label(C5).automorphism_generators
    order = closure_order(c5_gens, 5)
    assert 10 % order == 0
    for sigma in c5_gens:
        assert permute_graph(C5, sigma) == C5


def test_generators_span_the_whole_group():
    # generate._orbit_reps needs the whole group, not just a subgroup.
    rng = random.Random(29)
    classes = [codec.decode(line) for n in range(1, 7) for line in generate_graphs(n)]
    assert len(classes) == 208
    for g in classes:
        h = permute_graph(g, random_permutation(rng, g.n))
        gens = canonical_label(h).automorphism_generators
        assert closure_order(gens, h.n) == brute_force_automorphism_count(h)


def test_symmetric_cliff_sentinel():
    # Counts, not seconds, so the machine's speed does not matter.  A search
    # that keeps every matching leaf as a generator keeps leaves - 1 of them
    # (1,128 on empty(48)) and filters them all for each sibling it tests.
    rng = random.Random(30)
    for g in [Graph.empty(48), Graph.complete(48), complete_bipartite(24, 24)]:
        relabelled = [permute_graph(g, random_permutation(rng, g.n)) for _ in range(2)]
        with deadline(10):  # about 1 s a graph; a search that prunes nothing never ends
            results = [canonical_label(h) for h in relabelled]
        assert results[0].canonical_graph == results[1].canonical_graph
        for h, result in zip(relabelled, results):
            for sigma in result.automorphism_generators:
                assert permute_graph(h, sigma) == h
            assert len(result.automorphism_generators) <= g.n - 1
            assert result.leaf_count <= g.n * (g.n - 1) // 2 + 1


def test_hard_families_keep_keys_generators_and_leaf_caps():
    # Classical hard inputs for individualization-refinement (McKay & Piperno,
    # J. Symb. Comput. 60, 2014), each searched on the relabellings of seeds
    # 0..4.  A cap is the most leaves any of them took when the test was
    # written, so more leaves on any one means the search prunes less.  About
    # 4 s in all.  J(9,2) (5,137 leaves on seed 3), the Latin square graph of
    # Z2^3, H16 and PG(2,5) take far longer; they wait for a search that jumps
    # back to the first path when a leaf proves an automorphism.
    families = [
        ("J(8,3)", johnson(8, 3), 407),
        ("Latin Z7", latin_square_graph(cayley_table(7)), 43),
        ("Latin Z8", latin_square_graph(cayley_table(8)), 214),
        ("Latin Z4xZ2", latin_square_graph(cayley_table(4, 2)), 409),
        ("PG(2,2)", projective_plane_incidence(2), 57),
        ("PG(2,3)", projective_plane_incidence(3), 504),
        ("H4", sylvester_hadamard_graph(4), 19),
        ("H8", sylvester_hadamard_graph(8), 774),
    ]
    with deadline(20):
        for name, g, leaf_cap in families:
            keys = set()
            for seed in range(5):
                h = permute_graph(g, random_permutation(random.Random(seed), g.n))
                found = canon.search(h.rows)
                keys.add(found.key)
                assert found.leaves <= leaf_cap, (name, seed, found.leaves)
                for image in found.generators:
                    assert permute_graph(h, Permutation(image)) == h, (name, seed, image)
            assert len(keys) == 1, name


def test_cfi_pairs_split_by_twist_parity():
    # Over a connected base graph H, the Cai-Furer-Immerman graph with an even
    # number of twisted base edges is isomorphic to the untwisted one, and with
    # an odd number it is not (Combinatorica 12, 1992); both have
    # 2^(|E|-|V|+1) |Aut H| automorphisms.  Every vertex has degree 3, so
    # refinement alone splits nothing.  A leaf cap is the most leaves any seed
    # took when the test was written.
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    bases = [
        ("K4", 4, list(itertools.combinations(range(4), 2)), 192, 28),
        ("K3,3", 6, [(i, j) for i in range(3) for j in range(3, 6)], 1152, 50),
        ("prism", 6, prism, 192, 28),
    ]

    def twist_sets(m):
        return [(), (1,), (m - 1,), (0, 1), (0, m - 1), (0, 1, 2)]

    with deadline(10):  # under 1 s
        for name, n, base_edges, order, leaf_cap in bases:
            plain = cfi_graph(n, base_edges, ())
            for twists in twist_sets(len(base_edges)):
                assert are_isomorphic(plain, cfi_graph(n, base_edges, twists)) == (len(twists) % 2 == 0), (name, twists)
            for g in (plain, cfi_graph(n, base_edges, (0,))):
                keys = set()
                for seed in range(5):
                    h = permute_graph(g, random_permutation(random.Random(seed), g.n))
                    found = canon.search(h.rows)
                    keys.add(found.key)
                    assert found.leaves <= leaf_cap, (name, seed, found.leaves)
                    for image in found.generators:
                        assert permute_graph(h, Permutation(image)) == h, (name, seed, image)
                assert len(keys) == 1, name
                assert closure_order(found.generators, g.n) == order, name
    # VF2++ takes about 20 s per odd twist over K3,3 (2-core x86-64 VM), so it checks K4 and the prism.
    nx = pytest.importorskip("networkx")
    for name, n, base_edges, _, _ in bases[::2]:
        plain = to_networkx(cfi_graph(n, base_edges, ()))
        for twists in twist_sets(len(base_edges)):
            twisted = to_networkx(cfi_graph(n, base_edges, twists))
            assert nx.vf2pp_is_isomorphic(plain, twisted) == (len(twists) % 2 == 0), (name, twists)


@pytest.fixture(scope="module")
def digest_searches():
    """2,714 search records: every graph with n <= 7, 100 seeded G(n, p) with
    n in 12..40 and five symmetric graphs, each relabelled and searched from
    the unit cell and from two random cells."""
    rng = random.Random(34)
    with deadline(10):  # under 1 s; a search that prunes nothing never ends
        graphs = [codec.decode(line) for n in range(1, 8) for line in generate_graphs(n)]
        graphs += [random_graph(rng, rng.randint(12, 40), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])) for _ in range(100)]
        graphs += [Graph.empty(24), Graph.complete(20), complete_bipartite(12, 12), hypercube(6), disjoint_union([petersen()] * 6)]
        found = []
        for g in graphs:
            h = permute_graph(g, random_permutation(rng, g.n))
            two_cells = None
            if h.n > 1:
                vertices = random_permutation(rng, h.n).image
                cut = rng.randint(1, h.n - 1)
                two_cells = [sorted(vertices[:cut]), sorted(vertices[cut:])]
            found += [canon.search(h.rows, cells) for cells in (None, two_cells)]
    return found


def test_search_records_match_recorded_digest(digest_searches):
    # Recorded at commit 4563d29, before refinement skipped splitters that
    # cannot split and stopped once discrete, before joins walked only moved
    # points, before leaves tested sigma instead of packing a key, before
    # refinement passed over the cells a splitter's neighbourhood misses, and
    # before mask permutation read a bit table: those rules must leave every
    # record (key, order, generators, leaves) as it was.  A change that deliberately walks another tree (a backjump, say)
    # records the digest again and declares the change in CHANGES.md.
    digest = hashlib.sha256()
    for found in digest_searches:
        digest.update(repr(tuple(found)).encode())
    assert digest.hexdigest() == "f569021b47b65fba18e09e5bb427763189597441ede7ad8d2da2a369d3a5207c"


def test_search_keys_and_orders_match_recorded_digest(digest_searches):
    # The canonical forms and best leaves alone, recorded at commit 4b31c97.
    # Pruning that skips only images of explored subtrees keeps the first
    # best leaf of the walk, so this digest holds where a change to the
    # leaves visited or the generators kept records the one above again.
    digest = hashlib.sha256()
    for found in digest_searches:
        digest.update(repr((found.key, found.order)).encode())
    assert len(digest_searches) == 2714
    assert digest.hexdigest() == "cf89e39451a5d05be9f123051e1f4eab428aa3f5365aa4ecf70ab3850bb2275c"


def closure_orbits(n, perms):
    """Each point's orbit under the group perms generate (dicts over the points each moves), closed point by point."""
    orbit_of = {}
    for v in range(n):
        if v not in orbit_of:
            orbit, frontier = {v}, [v]
            while frontier:
                frontier = [w for u in frontier for sigma in perms if (w := sigma.get(u, u)) not in orbit]
                orbit.update(frontier)
            orbit_of.update(dict.fromkeys(orbit, orbit))
    return [orbit_of[v] for v in range(n)]


def test_join_reads_only_moved_points():
    # Each sigma is a dict over the points it moves, so a join that reads a
    # fixed point fails.  About a third permute inside one orbit and so join
    # nothing.
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(2, 64)
        orbits = list(range(n))
        perms = []
        before = closure_orbits(n, perms)
        for _ in range(rng.randint(1, 16)):
            wide = [sorted(orbit) for orbit in before if len(orbit) > 1]
            pool = rng.choice(wide) if wide and rng.random() < 0.35 else range(n)
            points = rng.sample(pool, rng.randint(2, min(len(pool), 6)))
            sigma = dict(zip(points, points[1:] + points[:1]))
            merged = canon._join(orbits, sigma, list(sigma))
            perms.append(sigma)
            after = closure_orbits(n, perms)
            assert [orbits[v] == v for v in range(n)] == [min(orbit) == v for v, orbit in enumerate(after)]
            assert merged == (after != before)
            before = after


class RowsUntilDiscrete:
    """Adjacency rows that fail a read once the cells being refined are discrete."""

    def __init__(self, rows, cells):
        self.rows, self.cells = rows, cells

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, v):
        assert len(self.cells) < len(self.rows), "row read from a discrete colouring"
        return self.rows[v]


def test_refine_stops_once_discrete():
    rng = random.Random(36)
    cells = [[v] for v in random_permutation(rng, 9).image]
    canon._refine(RowsUntilDiscrete(Graph.cycle(9).rows, cells), cells, deque(cells))
    assert len(cells) == 9
    # Rigid graphs turn discrete partway through refinement, with splitters
    # left over; none of them may read a row.
    stopped = 0
    for _ in range(20):
        g = random_graph(rng, 20)
        cells = [list(range(20))]
        alpha = deque(cells)
        canon._refine(RowsUntilDiscrete(g.rows, cells), cells, alpha)
        assert Colouring(tuple(cells)) == refine(g)
        stopped += len(cells) == 20 and bool(alpha)
    assert stopped


class RowsMissedBy:
    """Adjacency rows that fail a read of a row in ``missed``, the vertices of
    cells that no splitter's neighbourhood meets."""

    def __init__(self, rows, missed):
        self.rows, self.missed = rows, set(missed)

    def __getitem__(self, v):
        assert v not in self.missed, f"row {v} read, in a cell that no splitter's neighbourhood meets"
        return self.rows[v]


def test_refine_reads_no_row_of_a_cell_its_splitters_miss():
    # In C9 + Petersen with a C9 vertex individualized, every splitter lies
    # in C9, so every neighbourhood misses the Petersen cell: its counts are
    # all 0, it cannot split, and refinement may not read its rows.  The
    # result splits C9 by distance from v.  Splitter [v] splits off the
    # distance-1 pair behind the rest, which distance 2 then 4 split
    # further, so the cells run [v], distance 2, 4, 3, 1, then Petersen.
    rng = random.Random(38)
    g = disjoint_union([Graph.cycle(9), petersen()])
    for sigma in [Permutation.identity(19)] + [random_permutation(rng, 19) for _ in range(4)]:
        h = permute_graph(g, sigma)
        cycle = sorted(sigma(v) for v in range(9))
        outer = sorted(sigma(v) for v in range(9, 19))
        for u in range(9):
            v = sigma(u)
            at = {k: sorted(sigma(w) for w in range(9) if min((w - u) % 9, (u - w) % 9) == k) for k in range(1, 5)}
            cells = [[v], [w for w in cycle if w != v], outer]
            canon._refine(RowsMissedBy(h.rows, outer), cells, deque([[v]]))
            assert cells == [[v], at[2], at[4], at[3], at[1], outer]


def test_search_packs_keys_only_at_leaves(monkeypatch):
    # Only leaves pack a candidate key, over a full order of n distinct
    # vertices; an inner node that packs a partial one to compare with the
    # best key would show here.  A leaf whose sigma is an automorphism packs
    # none, so on empty and complete graphs only the first leaf packs, while
    # the Chang graph has inequivalent leaves too.
    rng = random.Random(32)
    for g, only_first_packs in [(Graph.empty(20), True), (Graph.complete(12), True), (chang(), False)]:
        h = permute_graph(g, random_permutation(rng, g.n))
        orders = []

        def counted(rows, order, key_from_rows=codec.key_from_rows):
            orders.append(list(order))
            return key_from_rows(rows, order)

        monkeypatch.setattr(codec, "key_from_rows", counted)
        with deadline(10):
            found = canon.search(h.rows)
        monkeypatch.undo()
        assert all(sorted(order) == list(range(h.n)) for order in orders)
        assert 1 <= len(orders) < found.leaves
        assert (len(orders) == 1) == only_first_packs


class RowsOf:
    """Adjacency rows that fail a read outside the given points."""

    def __init__(self, rows, points):
        self.rows, self.points = rows, set(points)

    def __getitem__(self, v):
        assert v in self.points, f"row {v} read, outside sigma's support"
        return self.rows[v]


def plant_twins(rng, g, pairs):
    """g with v given u's neighbours (other than u and v) for each (u, v), adjacent to u or not at random."""
    rows = list(g.rows)
    for u, v in pairs:
        for w in range(g.n):
            if w not in (u, v) and (rows[w] >> v & 1) != (rows[w] >> u & 1):
                rows[w] ^= 1 << v
                rows[v] ^= 1 << w
        if (rows[u] >> v & 1) != (rng.random() < 0.5):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return Graph(g.n, tuple(rows))


def test_is_automorphism_matches_permute_graph():
    # Densities 0.1-0.9 run both the sparse branch and the one through
    # complements; sigma is a random permutation, a product of returned
    # generators or a transposition of twins, and may read only the rows of
    # the points it moves.
    rng = random.Random(37)
    outcomes = []
    for density in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(24):
            n = rng.randint(2, 24)
            g = random_graph(rng, n, density)
            g = plant_twins(rng, g, [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))])
            twins = [
                (u, v)
                for u, v in itertools.combinations(range(n), 2)
                if g.rows[u] & ~(1 << v) == g.rows[v] & ~(1 << u)
            ]
            gens = canonical_label(g).automorphism_generators
            sigmas = [random_permutation(rng, n) for _ in range(4)]
            for _ in range(4 if gens else 0):
                product = Permutation.identity(n)
                for gen in rng.choices(gens, k=rng.randint(1, 3)):
                    product = compose(product, gen)
                sigmas.append(product)
            for u, v in twins[:4]:
                image = list(range(n))
                image[u], image[v] = v, u
                sigmas.append(Permutation(tuple(image)))
            for sigma in sigmas:
                support = [v for v in range(n) if sigma(v) != v]
                fixes = canon._is_automorphism(RowsOf(g.rows, support), sigma.image, support)
                assert fixes == (permute_graph(g, sigma) == g)
                outcomes.append((density, fixes))
    for density in (0.1, 0.9):
        assert (density, True) in outcomes and (density, False) in outcomes


def test_known_automorphisms_keep_key_and_order():
    # Seeding a search with automorphisms it would find anyway changes only
    # the leaves it visits and the generators it keeps: the key, the best leaf
    # and the group stay.  Seeds are random subsets of the plain search's
    # generators, or products of them.  The ladder pieces are those whose
    # group is small enough to close.  A seeded search visits at most the
    # leaves of an unpruned one, but it can visit more than the plain one:
    # the last case, a relabelled 3xC4 seeded with one of its plain
    # generators and two products of them, visits 20 leaves against 18,
    # because a sigma that joins no orbit at its own level is dropped and so
    # cannot prune deeper on another path.
    rng = random.Random(38)
    cases = []
    for density in (0.1, 0.3, 0.5, 0.7, 0.9):
        for _ in range(12):
            n = rng.randint(2, 10)
            g = random_graph(rng, n, density)
            twins = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
            cases.append((plant_twins(rng, g, twins), None, None))
    census = [codec.decode(line) for n in range(1, 7) for line in generate_graphs(n)]
    ladder = [
        Graph.cycle(24),
        hypercube(4),
        petersen(),
        disjoint_union([petersen()] * 2),
        disjoint_union([Graph.complete(3)] * 3),
        disjoint_union([Graph.cycle(4)] * 3),
        complete_bipartite(4, 4),
        cartesian_product(Graph.path(4), Graph.path(6)),
        Graph.empty(7),
        Graph.complete(7),
    ]
    cases += [(permute_graph(g, random_permutation(rng, g.n)), None, None) for g in census + ladder]
    two_cells = permute_graph(disjoint_union([Graph.cycle(4)] * 3), random_permutation(rng, 12))
    vertices = random_permutation(rng, 12).image
    cases.append((two_cells, [sorted(vertices[:4]), sorted(vertices[4:])], None))
    more_leaves = Graph(12, (96, 1280, 2560, 2560, 1280, 129, 129, 96, 18, 12, 18, 12))
    seeds = [
        (0, 2, 1, 4, 3, 5, 6, 7, 9, 8, 11, 10),
        (0, 1, 3, 2, 4, 5, 6, 7, 10, 11, 8, 9),
        (0, 1, 2, 3, 4, 6, 5, 7, 10, 11, 8, 9),
    ]
    cases.append((more_leaves, None, seeds))
    seeded = 0
    for g, cells, known in cases:
        def search(**options):
            return canon.search(g.rows, None if cells is None else [c.copy() for c in cells], **options)

        plain, unpruned = search(), search(prune=False)
        if known is None:
            perms = [Permutation(p) for p in plain.generators]
            known = [p.image for p in rng.sample(perms, rng.randint(0, len(perms)))]
            for _ in range(rng.randint(0, 2) if perms else 0):
                product = Permutation.identity(g.n)
                for p in rng.choices(perms, k=rng.randint(1, 3)):
                    product = compose(product, p)
                known.append(product.image)
        seeded += bool(known)
        found = search(known=known)
        assert (found.key, found.order) == (plain.key, plain.order), (g, known)
        assert found.generators[: len(known)] == known
        colouring = Colouring(tuple(cells or [range(g.n)]))
        for sigma in map(Permutation, found.generators):
            assert permute_graph(g, sigma) == g and is_colour_preserving(sigma, colouring)
        assert closure_order(found.generators, g.n) == closure_order(plain.generators, g.n)
        assert found.leaves <= unpruned.leaves
    assert seeded > len(cases) // 2


def test_are_isomorphic_hard_pairs():
    # Strongly regular pairs with equal parameters: refinement leaves each
    # graph one cell, so only the search tells them apart.
    rng = random.Random(33)
    rook = cartesian_product(Graph.complete(4), Graph.complete(4))
    for g, g_order, h, h_order in [(rook, 1152, shrikhande(), 192), (triangular(8), 40320, chang(), 384)]:
        assert not are_isomorphic(g, h)
        for graph, order in [(g, g_order), (h, h_order)]:
            results = [canonical_label(permute_graph(graph, random_permutation(rng, graph.n))) for _ in range(3)]
            assert len({r.canonical_graph for r in results}) == 1
            for result in results:
                assert closure_order(result.automorphism_generators, graph.n) == order


def test_are_isomorphic_matches_networkx_vf2():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for n in range(8, 21):
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6]))
        planted = permute_graph(g, random_permutation(rng, n))
        # near miss: one edge of the relabelled copy moved to a non-edge
        edges = planted.edges()
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not planted.has_edge(u, v)]
        moved = list(edges)
        if edges and non_edges:
            moved.remove(rng.choice(edges))
            moved.append(rng.choice(non_edges))
        near = Graph.from_edges(n, moved)
        # symmetric: a cycle against a relabelled cycle and two shorter cycles
        cycle = Graph.cycle(n)
        two_cycles = disjoint_union([Graph.cycle(n // 2), Graph.cycle(n - n // 2)])
        pairs = [(g, planted), (g, near), (cycle, permute_graph(cycle, random_permutation(rng, n))), (cycle, two_cycles)]
        for a, b in pairs:
            assert are_isomorphic(a, b) == nx.is_isomorphic(to_networkx(a), to_networkx(b)), n


def test_automorphism_generators_respect_colouring():
    # pinning one vertex of C5 leaves only the reflection through it
    pi = Colouring(([0], [1, 2, 3, 4]))
    gens = canonical_label(C5, pi).automorphism_generators
    for sigma in gens:
        assert permute_graph(C5, sigma) == C5
        assert is_colour_preserving(sigma, pi)
    assert closure_order(gens, 5) == 2


def test_remove_isomorphs_c5_relabellings():
    strings = [
        codec.encode_graph6(permute_graph(C5, Permutation(p)))
        for p in itertools.permutations(range(5))
    ]
    survivors = remove_isomorphs(strings)
    assert len(survivors) == 1
    assert are_isomorphic(codec.decode(survivors[0]), C5)
    assert survivors[0] == strings[0]  # first occurrence survives


def test_remove_isomorphs_concatenated_census():
    from gcanon.generate import generate_graphs

    lines = generate_graphs(5)
    assert remove_isomorphs(lines + lines) == lines
    assert remove_isomorphs(lines) == lines  # already pairwise distinct


def test_remove_isomorphs_empty_and_order():
    assert remove_isomorphs([]) == []
    items = [Graph.path(3), Graph.complete(3), permute_graph(Graph.path(3), Permutation((2, 1, 0)))]
    assert remove_isomorphs(items) == items[:2]


def test_remove_isomorphs_mixed_kinds():
    items = ["Dhc", C5_RELABELLED, codec.encode_sparse6(Graph.complete(5)), "D~{"]
    assert remove_isomorphs(items) == ["Dhc", codec.encode_sparse6(Graph.complete(5))]


def test_remove_isomorphs_error_carries_index():
    with pytest.raises(codec.CodecError, match="item 1") as info:
        remove_isomorphs(["Dhc", "D c", "D~{"])
    assert info.value.offset == 1
    with pytest.raises(ZeroVertexError, match="^item 2: "):
        remove_isomorphs([Graph.path(2), Graph.path(3), "?"])
