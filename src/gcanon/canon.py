"""Canonical labelling by individualization and equitable refinement.

The search refines the input colouring to the coarsest equitable one, then
repeatedly individualizes each member of the first smallest non-singleton
cell and recurses.  Every discrete colouring (leaf) reads off a candidate
relabelling; the canonical graph is the candidate whose upper-triangle
bit-vector is lexicographically greatest.

Once a best leaf exists, each later leaf is decided without packing its
candidate: sigma, the permutation mapping the best leaf's order onto this
leaf's, is tested as an automorphism, reading only the rows of the points it
moves (see ``_is_automorphism``).  The two candidates are equal exactly when
sigma is an automorphism, so only a leaf whose sigma fails packs its key,
which then differs from the best key; the leaf becomes the best one if its
key is greater.  An automorphism sigma fixes the path the two leaves share
and moves the vertex individualized at the level d where they part.  Each
level of the current path holds an orbit array (a forest whose roots are the
orbit minima) of the kept automorphisms that fix the path above it; the
array is built from them when the level first needs it.  Sigma is kept only
if it joins two orbits at level d; it is then joined into the built arrays
of the ancestors too, whose groups contain the group at d, so a sigma that
joins nothing at d joins nothing above it either.  A sibling is skipped when
it shares an orbit with an explored one (cells stay sorted, so exactly when
it is not the minimum of its orbit): its subtree is the image of an explored
subtree, so pruning never changes the result, only how many leaves are
visited.  The kept automorphisms generate the whole colour-preserving
automorphism group (McKay, *Practical graph isomorphism*, 1981; McKay &
Piperno, J. Symb. Comput. 60, 2014).

A caller that already knows automorphisms of the coloured graph passes them
as ``known``; the kept automorphisms start from them, so orbits are coarser
from the first node on.  Key and best leaf stay: a skipped subtree is still
the image, under an automorphism fixing the path, of a sibling subtree
explored before it, so the first leaf with the greatest key, which no later
leaf replaces, is never skipped.  The seeds and the kept automorphisms still
generate the whole group.

``search`` is the one entry point that walks this tree; every caller reads
its result by field name from the record ``_Search``:

- ``key``: the canonical upper-triangle bit-vector (see ``codec``);
- ``order``: the vertices in canonical position order (the best leaf);
- ``generators``: the known automorphisms, then the kept ones, as image tuples;
- ``leaves``: the number of leaves visited.

Refinement is deterministic: splitter cells are taken from a FIFO worklist
seeded with the cells left to right, a splitting cell is replaced in place by
its fragments in ascending neighbour-count order, and new fragments join the
back of the worklist.  Three shortcuts leave the cell order, and so the
canonical form, unchanged:

- refinement stops once the colouring is discrete, since no splitter can
  split a singleton, so the splitters left would split nothing;
- a splitter whose neighbourhood (the union of its vertices' rows) misses
  every non-singleton cell gives all their vertices the count 0 and is
  skipped.  Otherwise only the non-singleton cells are visited, left to
  right, which is the order in which a visit of every cell splits them and
  queues their fragments;
- each non-singleton cell is kept with its vertex mask, and a cell that the
  splitter's neighbourhood misses is passed over without counting: all its
  counts are 0, so it cannot split.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from . import codec
from .core import Colouring, Graph, Permutation, permute_mask


@dataclass(frozen=True, slots=True)
class CanonResult:
    """Outcome of a canonical labelling search; the automorphism generators
    generate the whole group of permutations fixing the graph and colouring.
    """

    canonical_graph: Graph
    labelling: Permutation
    automorphism_generators: tuple[Permutation, ...]
    leaf_count: int


class _Search(NamedTuple):  # fields described in the module docstring
    key: int
    order: list[int]
    generators: list[tuple[int, ...]]
    leaves: int


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _refine(rows: Sequence[int], cells: list[list[int]], alpha: deque[list[int]]) -> None:
    """Refine cells in place to the coarsest equitable partition.

    alpha holds the splitter cells still to be processed.
    """
    bc = int.bit_count
    opened: list[tuple[list[int], int]] = []  # the non-singleton cells, left to right, with their masks
    live = 0  # their vertices: 0 once the colouring is discrete
    for cell in cells:
        if len(cell) > 1:
            cmask = _mask(cell)
            opened.append((cell, cmask))
            live |= cmask
    while alpha and live:
        smask = hood = 0
        for v in alpha.popleft():
            smask |= 1 << v
            hood |= rows[v]
        if not hood & live:
            continue
        still: list[tuple[list[int], int]] = []
        for entry in opened:
            cell, cmask = entry
            if not cmask & hood:
                still.append(entry)
                continue
            first = bc(rows[cell[0]] & smask)
            for v in cell:
                if bc(rows[v] & smask) != first:
                    break
            else:
                still.append(entry)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                groups.setdefault(bc(rows[v] & smask), []).append(v)
            frags = [groups[count] for count in sorted(groups)]
            i = cells.index(cell)
            cells[i : i + 1] = frags
            alpha.extend(frags)
            for frag in frags:
                if len(frag) > 1:
                    still.append((frag, _mask(frag)))
                else:
                    live ^= 1 << frag[0]
        opened = still


def _join(orbits: list[int], sigma: Sequence[int], support: Iterable[int]) -> bool:
    """Merge the orbits of sigma into orbits, given the points sigma moves.

    Returns whether two orbits merged.  Each point links to a smaller label
    of its orbit, and only the orbit minimum links to itself, so
    ``orbits[v] == v`` exactly when v is the minimum of its orbit.
    """
    merged = False
    for v in support:
        a = orbits[v]
        b = orbits[sigma[v]]
        if a != b:
            while orbits[a] != a:
                a = orbits[a]
            while orbits[b] != b:
                b = orbits[b]
            if a < b:
                orbits[b] = a
                merged = True
            elif b < a:
                orbits[a] = b
                merged = True
    return merged


def _is_automorphism(rows: Sequence[int], sigma: Sequence[int], support: Iterable[int]) -> bool:
    """Whether sigma maps the graph onto itself, given the points sigma moves.

    Only the rows of moved points are read: an edge between two fixed points
    is its own image.  A row with more than n/2 bits is tested through its
    complement in range(n), which holds the point itself.
    """
    n = len(sigma)
    full = (1 << n) - 1
    image_bits = [1 << w for w in sigma]
    for v in support:
        row, target = rows[v], rows[sigma[v]]
        if row.bit_count() * 2 > n:
            row ^= full
            target ^= full
        if permute_mask(image_bits, row) != target:
            return False
    return True


def search(
    rows: Sequence[int],
    cells: list[list[int]] | None = None,
    *,
    prune: bool = True,
    known: Iterable[tuple[int, ...]] = (),
) -> _Search:
    """Search the graph with adjacency rows ``rows`` from sorted cells (None:
    the unit cell), refined in place; the vertex count is ``len(rows)``.

    ``prune=False`` disables orbit pruning: the same key, order and group
    from more leaves.  It exists as the reference that tests compare
    pruning against.

    ``known`` holds automorphisms the caller already has, as image tuples;
    the caller vouches that each maps the graph and every input cell onto
    itself, since nothing checks it.  They prune from the first node on and
    change neither key nor order (see the module docstring).
    """
    n = len(rows)
    cells = [list(range(n))] if cells is None else cells
    gens = list(known)
    # per generator, the mask and the list of the vertices it moves
    moved = [(_mask(s), s) for s in ([v for v, w in enumerate(g) if v != w] for g in gens)]
    levels: list[list[int] | None] = [None] * n  # orbit array per level of the current path
    base: list[int] = []
    best_key = -1
    best_order: list[int] = []
    leaf_count = 0

    def build_level(d: int) -> list[int]:
        fixed = _mask(base[:d])
        orbits = levels[d] = list(range(n))
        for g, (m, support) in zip(gens, moved):
            if not m & fixed:
                _join(orbits, g, support)
        return orbits

    def process_leaf(cells: list[list[int]]) -> None:
        nonlocal best_key, best_order, leaf_count
        leaf_count += 1
        order = [c[0] for c in cells]
        if best_order:
            sigma = [0] * n
            for b, v in zip(best_order, order):
                sigma[b] = v
            support = [v for v, w in enumerate(sigma) if v != w]
            if _is_automorphism(rows, sigma, support):
                # sigma maps the best leaf's path onto this leaf's, so it fixes
                # the levels the two paths share and moves base[d] where they part.
                d = 0
                while sigma[base[d]] == base[d]:
                    d += 1
                if _join(levels[d] or build_level(d), sigma, support):
                    gens.append(tuple(sigma))
                    moved.append((_mask(support), support))
                    for orbits in levels[:d]:
                        if orbits is not None:
                            _join(orbits, sigma, support)
                return
        key = codec.key_from_rows(rows, order)  # not the best key: that would make sigma an automorphism
        if key > best_key:
            best_key = key
            best_order = order

    def recurse(cells: list[list[int]]) -> None:
        target = -1
        target_size = n + 1
        for idx, cell in enumerate(cells):
            if 1 < len(cell) < target_size:
                target = idx
                target_size = len(cell)
                if target_size == 2:
                    break
        if target < 0:
            process_leaf(cells)
            return
        d = len(base)
        levels[d] = None
        cell = cells[target]
        for i, v in enumerate(cell):
            # An orbit at this level lies inside the sorted cell, so v shares
            # one with an explored sibling exactly when it is not its minimum.
            if i and prune and gens and (levels[d] or build_level(d))[v] != v:
                continue
            child = cells.copy()  # cells are replaced, never changed in place
            child[target : target + 1] = [[v], [w for w in cell if w != v]]
            _refine(rows, child, deque([[v]]))
            base.append(v)
            recurse(child)
            base.pop()

    _refine(rows, cells, deque(cells))
    recurse(cells)
    return _Search(best_key, best_order, gens, leaf_count)


def _cells_for(graph: Graph, colouring: Colouring | None) -> list[list[int]]:
    if colouring is None:
        return [list(range(graph.n))]
    if colouring.n != graph.n:
        raise ValueError(f"colouring covers {colouring.n} vertices, graph has {graph.n}")
    return [sorted(c) for c in colouring.cells]


def refine(graph: Graph, colouring: Colouring | None = None) -> Colouring:
    """The coarsest equitable colouring finer than the input.

    Equitable means that for every pair of result cells all vertices of the
    first have the same number of neighbours in the second.
    """
    cells = _cells_for(graph, colouring)
    _refine(graph.rows, cells, deque(cells))
    return Colouring(tuple(frozenset(c) for c in cells))


def canonical_label(graph: Graph, colouring: Colouring | None = None) -> CanonResult:
    """Canonical form of a coloured graph.

    The result is invariant under relabelling: permuting the graph and its
    colouring identically yields the same canonical graph.  The labelling
    maps the input colouring onto consecutive blocks, and the returned
    automorphism generators fix both graph and colouring.
    """
    found = search(graph.rows, _cells_for(graph, colouring))
    image = [0] * graph.n
    for position, v in enumerate(found.order):
        image[v] = position
    return CanonResult(
        canonical_graph=Graph(graph.n, tuple(codec.rows_from_key(graph.n, found.key))),
        labelling=Permutation(tuple(image)),
        automorphism_generators=tuple(Permutation(g) for g in found.generators),
        leaf_count=found.leaves,
    )


def are_isomorphic(
    g: Graph,
    h: Graph,
    g_colouring: Colouring | None = None,
    h_colouring: Colouring | None = None,
) -> bool:
    """Whether some colour-preserving permutation maps g onto h.

    Colourings default to the single-cell colouring, making this plain graph
    isomorphism.  Colourings with different cell-size sequences cannot be
    mapped onto each other, so the answer is False without a search.
    """
    if g.n != h.n:
        return False
    g_cells = _cells_for(g, g_colouring)
    h_cells = _cells_for(h, h_colouring)
    if [len(c) for c in g_cells] != [len(c) for c in h_cells]:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return search(g.rows, g_cells).key == search(h.rows, h_cells).key


def remove_isomorphs(items: Iterable[Graph | str]) -> list[Graph | str]:
    """First representative of each isomorphism class, in input order.

    Items may be Graph values or Graph6/Sparse6 strings (mixed is fine);
    survivors keep their original form.  Decode failures are re-raised with
    the offending item's position.
    """
    kept: list[Graph | str] = []
    seen: set[tuple[int, int]] = set()
    for item, graph in codec.decode_numbered(enumerate(items), "item"):
        key = (graph.n, search(graph.rows).key)
        if key not in seen:
            seen.add(key)
            kept.append(item)
    return kept
