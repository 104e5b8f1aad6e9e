"""Canonical labelling by individualization and equitable refinement.

The search refines the input colouring to the coarsest equitable one, then
repeatedly individualizes each member of the first smallest non-singleton
cell and recurses.  Every discrete colouring (leaf) reads off a candidate
relabelling; the canonical graph is the candidate whose upper-triangle
bit-vector is lexicographically greatest.

The non-singleton cells, each with its vertex mask, left to right, are
carried from node to node: ``_refine`` takes them and returns them refined, a
node picks its target cell from them, and a child's list is its parent's
with the target entry replaced by the rest of the cell, or dropped when that
rest is a singleton.  So no node scans all n cells.

Every leaf packs its candidate's key (``codec.key_from_rows``), and the
first leaf with the greatest key is the best one.  A later leaf whose key
equals the best key is the same graph, so sigma, the permutation mapping the
best leaf's order onto this leaf's, is an automorphism: equal leaf
certificates decide automorphisms, as in nauty.  An automorphism sigma
fixes the path the two leaves share and moves the vertex individualized at
the level d where they part.  ``levels[i]`` is None or the orbit array (a
forest whose roots are the orbit minima) of the kept automorphisms that fix
``base[:i]``, built from them when level i needs it.
Sigma is kept only if it joins two orbits at level d; ``levels[:d]`` is then
reset, to be built again with sigma.  A sibling is skipped when it shares an
orbit with an explored one (cells stay sorted, so exactly when it is not the
minimum of its orbit): its subtree is the image of an explored subtree, so
pruning never changes the result, only how many leaves are visited.  The
kept automorphisms generate the whole colour-preserving automorphism group
(McKay, *Practical graph isomorphism*, 1981; McKay & Piperno, J. Symb.
Comput. 60, 2014).

A caller that already knows automorphisms of the coloured graph passes them
as ``known``; the kept automorphisms start from them, so orbits are coarser
from the first node on.  Key and best leaf stay: a skipped subtree is still
the image, under an automorphism fixing the path, of a sibling subtree
explored before it, so the first leaf with the greatest key, which no later
leaf replaces, is never skipped.  The seeds and the kept automorphisms still
generate the whole group.  Without ``known`` the search seeds itself with
the swaps of vertices that share a cell and have equal open rows, or equal
closed rows (the row with the vertex's own bit), the twin swaps (see
``search``), which cost two dict lookups per vertex; a caller that passes a
list, even an empty one, gets exactly that list.

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
- a non-singleton cell whose mask the splitter's neighbourhood misses is
  passed over without counting: all its counts are 0, so it cannot split.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import codec
from .core import Colouring, Graph, Permutation


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


_Opened = list[tuple[list[int], int]]  # non-singleton cells with their vertex masks, left to right


def _opened(cells: list[list[int]]) -> _Opened:
    """The non-singleton cells, left to right, each with its vertex mask."""
    return [(cell, _mask(cell)) for cell in cells if len(cell) > 1]


def _refine(rows: Sequence[int], cells: list[list[int]], opened: _Opened, alpha: deque[list[int]]) -> _Opened:
    """Refine cells in place to the coarsest equitable partition.

    opened holds the non-singleton cells with their masks, left to right (see
    ``_opened``), and alpha the splitter cells still to be processed.  Returns
    the non-singleton cells of the result in the same form.
    """
    bc = int.bit_count
    live = 0  # the vertices of the opened cells: 0 once the colouring is discrete
    for _, cmask in opened:
        live |= cmask
    while alpha and live:
        smask = hood = 0
        for v in alpha.popleft():
            smask |= 1 << v
            hood |= rows[v]
        if not hood & live:
            continue
        still: _Opened = []
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
    return opened


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


def search(
    rows: Sequence[int],
    cells: list[list[int]] | None = None,
    *,
    known: Iterable[tuple[int, ...]] | None = None,
) -> _Search:
    """Search the graph with adjacency rows ``rows`` from sorted cells (None:
    the unit cell), refined in place; the vertex count is ``len(rows)``.
    Every leaf packs its key, and equal keys prove automorphisms.

    ``known`` holds automorphisms the caller already has, as image tuples;
    the caller vouches that each maps the graph and every input cell onto
    itself, since nothing checks it.  They skip siblings from the first node
    on and change neither key nor order (see the module docstring).

    None, the default, seeds the search with the twin swaps: within each
    input cell, each vertex is swapped with the previous vertex of that cell
    whose open row ``rows[v]`` equals its own, and with the previous one
    whose closed row ``rows[v] | 1 << v`` equals its own.  Equal open rows
    mean u and v are not adjacent (a row has no self bit) and N(u) = N(v).
    Equal closed rows mean u ~ v (each holds the other's bit) and
    N(u) - {v} = N(v) - {u}.  Either way the swap (u v) maps every edge at
    u or v other than uv onto an edge, and uv onto itself, so it maps the
    graph onto itself, and since u and v share a cell it maps every cell
    onto itself: exactly what ``known`` asks.  So the seeds change neither
    key nor order, and with the kept automorphisms they still generate the
    group.  The classes of both kinds are disjoint.  No open row equals a
    closed row: ``rows[v] == rows[u] | 1 << u`` would put u in N(v), so v
    in N(u) and in its own row.  And no vertex has twins of both kinds: an
    open twin u and a closed twin w of v would put w in N(v) = N(u), so u
    in N[w] = N[v], though u is neither v nor adjacent to it.  The swaps
    form a chain through each class, not a star around its minimum: a star
    swap moves the minimum, so below the first individualized member of a
    class none of them prunes, while the chain links what every
    individualized prefix of the class leaves.  Relabelled empty and
    complete graphs take one leaf, and K_{a,b} at most two.
    """
    n = len(rows)
    cells = [list(range(n))] if cells is None else cells
    if known is None:
        known = []
        last: dict[tuple[int, int], int] = {}  # the latest vertex of each (cell, open or closed row) class
        for i, cell in enumerate(cells):
            for v in cell:
                for twins in (i, rows[v]), (i, rows[v] | 1 << v):
                    u = last.get(twins, v)
                    last[twins] = v
                    if u != v:
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        known.append(tuple(swap))
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
        key = codec.key_from_rows(rows, order)
        if key > best_key:
            best_key = key
            best_order = order
        elif key == best_key:
            # sigma, an automorphism, maps the best leaf's path onto this leaf's, so
            # it fixes the levels the two paths share and moves base[d] where they part.
            sigma = [0] * n
            for b, v in zip(best_order, order):
                sigma[b] = v
            support = [v for v, w in enumerate(sigma) if v != w]
            d = 0
            while sigma[base[d]] == base[d]:
                d += 1
            if _join(levels[d] or build_level(d), sigma, support):
                gens.append(tuple(sigma))
                moved.append((_mask(support), support))
                levels[:d] = [None] * d

    def recurse(cells: list[list[int]], opened: _Opened) -> None:
        if not opened:
            process_leaf(cells)
            return
        sizes = [len(cell) for cell, _ in opened]
        t = sizes.index(min(sizes))
        cell, cmask = opened[t]
        target = cells.index(cell)
        d = len(base)
        levels[d] = None
        for i, v in enumerate(cell):
            # An orbit at this level lies inside the sorted cell, so v shares
            # one with an explored sibling exactly when it is not its minimum.
            if i and gens and (levels[d] or build_level(d))[v] != v:
                continue
            rest = [w for w in cell if w != v]
            child = cells.copy()  # cells are replaced, never changed in place
            child[target : target + 1] = [[v], rest]
            child_opened = opened.copy()
            child_opened[t : t + 1] = [(rest, cmask ^ 1 << v)] if len(rest) > 1 else []
            base.append(v)
            recurse(child, _refine(rows, child, child_opened, deque([[v]])))
            base.pop()

    recurse(cells, _refine(rows, cells, _opened(cells), deque(cells)))
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
    _refine(graph.rows, cells, _opened(cells), deque(cells))
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
        canonical_graph=Graph(graph.n, codec.rows_from_key(graph.n, found.key)),
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

    Colourings default to the single cell (plain isomorphism), and each must
    cover its own graph, else ``ValueError``, even when the orders differ.
    Unequal cell-size sequences, which sum to the orders, answer False.
    """
    g_cells = _cells_for(g, g_colouring)
    h_cells = _cells_for(h, h_colouring)
    if [len(c) for c in g_cells] != [len(c) for c in h_cells]:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return search(g.rows, g_cells).key == search(h.rows, h_cells).key


def first_of_each_class(pairs: Iterable[tuple[Graph | str, Graph]]) -> Iterator[Graph | str]:
    """Each item of the (item, graph) pairs whose graph is the first of its isomorphism class, lazily."""
    seen: set[tuple[int, int]] = set()
    for item, graph in pairs:
        key = (graph.n, search(graph.rows).key)
        if key not in seen:
            seen.add(key)
            yield item


def remove_isomorphs(items: Iterable[Graph | str]) -> list[Graph | str]:
    """First representative of each isomorphism class, in input order.

    Items may be Graph values or Graph6/Sparse6 strings (mixed is fine);
    survivors keep their original form.  Decode failures are re-raised with
    the offending item's position.
    """
    return list(first_of_each_class(codec.decode_numbered(enumerate(items), "item")))
