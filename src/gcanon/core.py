"""Value-semantic graph, colouring, and permutation types.

Graphs are finite, simple, undirected, on vertex set 0..n-1, stored densely:
``rows[v]`` is an int whose bit ``u`` is set iff {u, v} is an edge.  All types
are immutable values and every operation is a pure function, so instances can
be shared across threads without coordination.

The dense representation targets small graphs.  ``VERTEX_CAP`` (64) is a
constant bound on the vertex count; anything larger is an error, not a
fallback.  ``GCANON_VERTEX_CAP`` replaces it for one CLI ``main`` call, in
that call's own context (``CAP_OVERRIDE``).  ``Graph`` checks its vertex
count with ``check_vertex_count`` when it is built, as does every entry point
that takes a count, so no operation ever sees a zero-vertex graph and 0 is
rejected with the same message everywhere.

Every breadth-first walk of a graph is ``_layers``, which returns the
distance layers from a root as bitmasks: ``component_masks``,
``bipartition_masks`` and ``girth`` read their answers off those layers.
(The connectivity flow searches its own residual digraph instead.)
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

VERTEX_CAP = 64
CAP_OVERRIDE: ContextVar[int] = ContextVar("CAP_OVERRIDE")


class ZeroVertexError(ValueError):
    """Raised for a vertex count of zero: no graph has zero vertices."""


class VertexCapError(ValueError):
    """Raised when a graph exceeds the configured vertex cap."""


def check_vertex_count(n: int) -> None:
    """Rejects a vertex count of 0, a negative one, or one above the cap in force."""
    if n == 0:
        raise ZeroVertexError("zero-vertex graphs are not supported")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    cap = CAP_OVERRIDE.get(VERTEX_CAP)
    if n > cap:
        raise VertexCapError(f"{n} vertices exceeds the cap of {cap}")


@dataclass(frozen=True, slots=True)
class Graph:
    """A simple undirected graph as an adjacency bit-matrix."""

    n: int
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(rows)}")
        full = (1 << self.n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} has neighbour bits outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if ((rows[u] >> v) & 1) != ((rows[v] >> u) & 1):
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
        check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @classmethod
    def empty(cls, n: int) -> Graph:
        check_vertex_count(n)
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> Graph:
        check_vertex_count(n)
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def cycle(cls, n: int) -> Graph:
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, ((v, (v + 1) % n) for v in range(n)))

    @classmethod
    def path(cls, n: int) -> Graph:
        return cls.from_edges(n, ((v, v + 1) for v in range(n - 1)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, in lexicographic order."""
        # -(2 << u) clears bits 0..u, leaving the neighbours v > u
        return [(u, v) for u, row in enumerate(self.rows) for v in bits(row & -(2 << u))]

    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def degree_sequence(self) -> tuple[int, ...]:
        """Vertex degrees sorted ascending."""
        return tuple(sorted(row.bit_count() for row in self.rows))

    def component_count(self) -> int:
        """Number of connected components (n for the edgeless graph on n vertices)."""
        return len(component_masks(self.rows))

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return sum(_layers(self.rows, 1, full)) == full

    def bipartition(self) -> tuple[frozenset[int], frozenset[int]] | None:
        """A proper two-colouring as a pair of vertex sets, or None if an odd cycle exists."""
        sides = bipartition_masks(self.rows)
        if sides is None:
            return None
        mask_a = 0
        mask_b = 0
        for a, b in sides:
            mask_a |= a
            mask_b |= b
        return frozenset(bits(mask_a)), frozenset(bits(mask_b))

    def is_bipartite(self) -> bool:
        return bipartition_masks(self.rows) is not None

    def circuit_rank(self) -> int:
        """Cyclomatic number: edges - vertices + components.  Zero iff a forest."""
        return self.num_edges() - self.n + self.component_count()

    def vertex_connectivity(self) -> int:
        """Minimum number of vertex deletions that disconnect the graph.

        Returns 0 for a disconnected graph and n - 1 for the complete graph
        (which no deletion disconnects); otherwise the smallest k such that
        deleting some k vertices leaves a disconnected graph.
        """
        return connectivity_at_most(self, self.n)


def connectivity_at_most(graph: Graph, cap: int) -> int:
    """min(vertex connectivity, cap) for any graph and any integer cap.

    kappa is 0 for a disconnected graph and n - 1 for the complete graph;
    otherwise it is the minimum, over non-adjacent pairs (s, t), of the
    number of internally disjoint s-t paths (Menger).  Four rules keep the
    flows down (Even, SIAM J. Comput. 4, 1975):

    - the running bound starts at ``cap``: a caller that only asks whether
      kappa <= hi passes hi + 1, and every flow stops at the bound;
    - it also starts at the minimum degree, since deleting the neighbours of
      a minimum-degree vertex isolates it (for the complete graph this gives
      n - 1, otherwise it is at most n - 2);
    - a connected graph on n >= 2 vertices has kappa >= 1, so a bound of at
      most 1 is already the answer and no flow runs;
    - a pair with at least ``best`` common neighbours is skipped, since the
      paths s-c-t already give kappa(s, t) >= best, so its flow cannot lower
      the bound.
    """
    if not graph.is_connected():
        return min(0, cap)
    rows = graph.rows
    best = min(min(row.bit_count() for row in rows), cap)
    if best <= 1:
        return best
    for s in range(graph.n):
        for t in range(s + 1, graph.n):
            if not graph.has_edge(s, t) and (rows[s] & rows[t]).bit_count() < best:
                best = min(best, _local_connectivity(graph, s, t, best))
    return best


def _local_connectivity(graph: Graph, s: int, t: int, limit: int) -> int:
    # Max internally vertex-disjoint s-t paths: unit-capacity max flow on
    # the split digraph (v_in = 2v, v_out = 2v+1), capped at `limit`.  The
    # network is read from the rows, once per pair: res[x] maps the head of
    # each arc from x to its residual capacity.  The arcs are v_in -> v_out
    # and v_out -> u_in for each neighbour u, at 1, with their reverses at 0.
    res: list[dict[int, int]] = []
    for v, row in enumerate(graph.rows):
        v_in = {2 * v + 1: 1}
        v_out = {2 * v: 0}
        while row:
            b = row & -row
            u_in = 2 * b.bit_length() - 2
            v_out[u_in] = 1
            v_in[u_in + 1] = 0
            row ^= b
        res += (v_in, v_out)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        prev = [-1] * len(res)
        prev[source] = source
        queue = [source]
        for x in queue:  # breadth first: the list grows behind the loop
            for y, cap in res[x].items():
                if cap and prev[y] < 0:
                    prev[y] = x
                    queue.append(y)
            if prev[sink] >= 0:
                break
        if prev[sink] < 0:
            break
        y = sink
        while y != source:
            x = prev[y]
            res[x][y] -= 1
            res[y][x] += 1
            y = x
        flow += 1
    return flow


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on 0..n-1; ``image[v]`` is where v is sent."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image}")

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]


@dataclass(frozen=True, slots=True)
class Colouring:
    """An ordered partition of 0..n-1 into non-empty colour cells."""

    cells: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        cells = tuple(frozenset(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        seen: set[int] = set()
        total = 0
        for i, cell in enumerate(cells):
            if not cell:
                raise ValueError(f"cell {i} is empty")
            if cell & seen:
                raise ValueError(f"cell {i} overlaps an earlier cell")
            seen |= cell
            total += len(cell)
        if seen != set(range(total)):
            raise ValueError(f"cells do not partition 0..{total - 1}")

    @classmethod
    def unit(cls, n: int) -> Colouring:
        """The single-cell colouring of 0..n-1."""
        check_vertex_count(n)
        return cls((frozenset(range(n)),))

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    def cell_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)


def permute_mask(image_bits: Sequence[int], mask: int) -> int:
    """The vertex mask {image[v] : v in mask} of a permutation given as its
    bit table, ``image_bits[v] == 1 << image[v]``; a caller that permutes
    many masks builds the table once."""
    out = 0
    while mask:
        b = mask & -mask
        out |= image_bits[b.bit_length() - 1]
        mask ^= b
    return out


def permute_graph(graph: Graph, sigma: Permutation) -> Graph:
    """The graph with edge {sigma(u), sigma(v)} for every edge {u, v}."""
    if len(sigma) != graph.n:
        raise ValueError(f"permutation length {len(sigma)} != vertex count {graph.n}")
    image = sigma.image
    image_bits = [1 << w for w in image]
    rows = [0] * graph.n
    for v, row in enumerate(graph.rows):
        rows[image[v]] = permute_mask(image_bits, row)
    return Graph(graph.n, tuple(rows))


def _layers(rows: Sequence[int], root: int, within: int) -> list[int]:
    """Breadth-first layers, as bitmasks, from the one-bit mask root in the subgraph on within."""
    frontier = root
    layers = []
    while frontier:
        layers.append(frontier)
        within ^= frontier
        nbrs = 0
        while frontier:
            b = frontier & -frontier
            nbrs |= rows[b.bit_length() - 1]
            frontier ^= b
        frontier = nbrs & within
    return layers


def component_masks(rows: Sequence[int]) -> list[int]:
    """Connected components as vertex bitmasks, ordered by smallest member."""
    unseen = (1 << len(rows)) - 1
    comps = []
    while unseen:
        comp = sum(_layers(rows, unseen & -unseen, unseen))
        unseen ^= comp
        comps.append(comp)
    return comps


def bipartition_masks(rows: Sequence[int]) -> list[tuple[int, int]] | None:
    """Per-component (side_a, side_b) bitmask pairs, or None if not bipartite.

    Even layers from a component's smallest vertex form side_a, so the result
    is deterministic; an edge inside a layer closes an odd cycle.
    """
    unseen = (1 << len(rows)) - 1
    sides = []
    while unseen:
        layers = _layers(rows, unseen & -unseen, unseen)
        for layer in layers:
            m = layer
            while m:
                b = m & -m
                if rows[b.bit_length() - 1] & layer:
                    return None
                m ^= b
        comp = sum(layers)
        side_a = sum(layers[::2])
        unseen ^= comp
        sides.append((side_a, comp ^ side_a))
    return sides


def girth(graph: Graph) -> int | None:
    """Length of a shortest cycle, or None for forests.

    Root r walks the subgraph on the vertices >= r, which holds every cycle
    whose smallest vertex is r.  At depth d a vertex with two neighbours in
    the layer above bounds the girth by 2d, and an edge inside the layer by
    2d + 1; from the smallest vertex of a shortest cycle one bound is exact.
    """
    rows = graph.rows
    best: int | None = None
    for root in range(graph.n):
        if best == 3:  # no cycle is shorter
            break
        layers = _layers(rows, 1 << root, (1 << graph.n) - (1 << root))
        for d, (above, layer) in enumerate(zip(layers, layers[1:]), 1):
            if best is not None and best <= 2 * d:
                break
            m = layer
            while m:
                b = m & -m
                row = rows[b.bit_length() - 1]
                up = row & above
                if up & (up - 1):
                    best = 2 * d
                    break  # the least bound at this depth
                if row & layer:
                    best = 2 * d + 1
                m ^= b
    return best


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b
