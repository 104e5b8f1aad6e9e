"""Value-semantic graph, colouring, and permutation types.

Graphs are finite, simple, undirected, on vertex set 0..n-1, stored densely:
``rows[v]`` is an int whose bit ``u`` is set iff {u, v} is an edge.  All types
are immutable values and every operation is a pure function, so instances can
be shared across threads without coordination.

The dense representation targets small graphs.  ``Graph`` checks its vertex
count with ``check_vertex_count`` when it is built, as does every entry point
that takes a count: a count above the constant ``VERTEX_CAP`` (64) is an
error, not a fallback, and 0 is rejected with the same message everywhere.

Every breadth-first walk of a graph is ``_layers``, which returns the
distance layers from a root as bitmasks: ``component_masks``,
``bipartition_masks`` (both through ``_component_layers``) and ``girth``
read their answers off those layers.
(The connectivity flow searches its own residual digraph instead: the
unit-capacity split network, kept as the set of arc heads from each node.)

Whole-matrix steps pack the n rows into one n*w-bit integer, row i from bit
i*w, with w (``packed_width``) the next power of two >= max(n, 8).
``transpose`` swaps the off-diagonal blocks of every diagonal block, halves
first, in log2(w) rounds of mask, shift and xor (Warren, *Hacker's Delight*,
7-3).  ``Graph`` is symmetric iff its packed rows M equal their transpose.
The first asymmetric pair in (u, v) order is the lowest set bit of the
symmetric M xor M^T, and any other fault re-runs the per-row loop, so every
message is the one a pair-by-pair check gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

VERTEX_CAP = 64


class ZeroVertexError(ValueError):
    """Raised for a vertex count of zero: no graph has zero vertices."""


class VertexCapError(ValueError):
    """Raised when a graph exceeds the vertex cap."""


def check_vertex_count(n: int) -> None:
    """Rejects a vertex count that is not an int (a bool included), 0, a negative one, or one above ``VERTEX_CAP``."""
    if not all_ints((n,)):
        raise ValueError(f"vertex count must be an int, got {n!r}")
    if n == 0:
        raise ZeroVertexError("zero-vertex graphs are not supported")
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if n > VERTEX_CAP:
        raise VertexCapError(f"{n} vertices exceeds the cap of {VERTEX_CAP}")


def all_ints(values: Iterable[object]) -> bool:
    """Whether every value is an int and none is a bool: the one rule for counts,
    rows, vertices, seeds and filter bounds.  One pass over the values collects
    their types, which are then few."""
    types = set(map(type, values))
    return types == {int} or all(issubclass(t, int) and t is not bool for t in types)


@dataclass(frozen=True, slots=True)
class Graph:
    """A simple undirected graph as an adjacency bit-matrix."""

    n: int
    rows: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        n = self.n
        check_vertex_count(n)
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        if all_ints(rows) and min(rows) >= 0 and max(rows) <= full:
            w = packed_width(n)
            m = _packed(rows, w)
            t = transpose(m, w)
            if m == t and not m & _MATRIX_MASKS[w][0]:
                return
        for v, row in enumerate(rows):
            if not all_ints((row,)):
                raise ValueError(f"row {v} is not an int: {row!r}")
            if row & ~full:
                raise ValueError(f"row {v} has neighbour bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        asym = m ^ t  # the rows are in range, so m and t exist
        u, v = divmod((asym & -asym).bit_length() - 1, w)
        raise ValueError(f"asymmetric adjacency between {u} and {v}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
        check_vertex_count(n)
        rows = [0] * n
        for edge in edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValueError(f"edge {edge!r} is not a pair of vertices") from None
            if not (type(u) is int is type(v) or all_ints((u, v))):  # two exact ints build no type set
                raise ValueError(f"edge ({u!r}, {v!r}) has an end that is not an int")
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

    def is_bipartite(self) -> bool:
        return bipartition_masks(self.rows) is not None

    def circuit_rank(self) -> int:
        """Cyclomatic number: edges - vertices + components.  Zero iff a forest."""
        return self.num_edges() - self.n + self.component_count()


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
      most 1 is already the answer: no flow runs when it starts there, and
      none runs after a flow brings it down to 1;
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
                if best == 1:
                    return best
    return best


def _local_connectivity(graph: Graph, s: int, t: int, limit: int) -> int:
    # Max internally vertex-disjoint s-t paths: unit-capacity max flow on
    # the split digraph (v_in = 2v, v_out = 2v+1), capped at `limit`.  The
    # network is read from the rows, once per pair: res[x] is the set of
    # heads of the residual arcs from x.  It starts with the n + 2m forward
    # arcs, v_in -> v_out and v_out -> u_in for each neighbour u.  No two
    # arcs join a pair of nodes in both directions, so every residual
    # capacity is 0 or 1, and flow along x -> y moves y out of res[x] and
    # x into res[y].
    res: list[set[int]] = []
    for v, row in enumerate(graph.rows):
        v_out = set()
        while row:  # inline: built through bits, kappa took 25-40% longer
            b = row & -row
            v_out.add(2 * b.bit_length() - 2)
            row ^= b
        res += ({2 * v + 1}, v_out)
    source, sink = 2 * s + 1, 2 * t
    flow = 0
    while flow < limit:
        prev = [-1] * len(res)
        prev[source] = source
        queue = [source]
        for x in queue:  # breadth first: the list grows behind the loop
            for y in res[x]:
                if prev[y] < 0:
                    prev[y] = x
                    queue.append(y)
            if prev[sink] >= 0:
                break
        if prev[sink] < 0:
            break
        y = sink
        while y != source:
            x = prev[y]
            res[x].remove(y)
            res[y].add(x)
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
        # 1.0 == 1 and True == 1 pass the range test, so only the type check rejects them
        if not all_ints(image) or sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image}")

    def __len__(self) -> int:
        return len(self.image)


@dataclass(frozen=True, slots=True)
class Colouring:
    """An ordered partition of 0..n-1 into non-empty colour cells."""

    cells: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        cells = tuple(frozenset(c) for c in self.cells)
        object.__setattr__(self, "cells", cells)
        seen: set[int] = set()
        for i, cell in enumerate(cells):
            if not cell:
                raise ValueError(f"cell {i} is empty")
            if not all_ints(cell):
                raise ValueError(f"cell {i} holds a vertex that is not an int")
            if cell & seen:
                raise ValueError(f"cell {i} overlaps an earlier cell")
            seen |= cell
        if seen != set(range(len(seen))):
            raise ValueError(f"cells do not partition 0..{len(seen) - 1}")

    @classmethod
    def unit(cls, n: int) -> Colouring:
        """The single-cell colouring of 0..n-1."""
        check_vertex_count(n)
        return cls((frozenset(range(n)),))

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)


def _matrix_masks(w: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The diagonal of a packed w x w matrix, and each round s of its transpose:
    the upper-right s x s block of every 2s x 2s diagonal block (the rows r
    with not r & s) as a mask, and the shift s*(w - 1) to its lower-left partner."""
    rounds = []
    s = w // 2
    while s:
        row = sum(((1 << s) - 1) << j for j in range(s, w, 2 * s))
        rounds.append((s * (w - 1), sum(row << r * w for r in range(w) if not r & s)))
        s //= 2
    return sum(1 << i * (w + 1) for i in range(w)), tuple(rounds)


_MATRIX_MASKS = {w: _matrix_masks(w) for w in (8, 16, 32, 64)}


def packed_width(n: int) -> int:
    """The row stride w of an n-row packed bit matrix: the next power of two >= max(n, 8)."""
    return max(8, 1 << (n - 1).bit_length())


def _packed(rows: Sequence[int], w: int) -> int:
    """The rows, each below 2**w, as one integer, row i from bit i*w."""
    m = shift = 0
    for row in rows:
        m |= row << shift
        shift += w
    return m


def unpacked(m: int, w: int, n: int) -> list[int]:
    """The first n rows of the packed bit matrix m of row stride w."""
    row_mask = (1 << w) - 1
    return [m >> i * w & row_mask for i in range(n)]


def transpose(m: int, w: int) -> int:
    """The transpose of the packed bit matrix m of at most w rows: row j holds
    bit j of every row."""
    for shift, mask in _MATRIX_MASKS[w][1]:
        x = (m ^ (m >> shift)) & mask
        m ^= x ^ (x << shift)
    return m


def permute_mask(image_bits: Sequence[int], mask: int) -> int:
    """The vertex mask {image[v] : v in mask} of a permutation given as its
    bit table, ``image_bits[v] == 1 << image[v]``; a caller that permutes
    many masks builds the table once."""
    out = 0
    while mask:  # inline: through bits, a call took about 40% longer
        b = mask & -mask
        out |= image_bits[b.bit_length() - 1]
        mask ^= b
    return out


def permute_graph(graph: Graph, sigma: Permutation) -> Graph:
    """The graph with edge {sigma(u), sigma(v)} for every edge {u, v}.

    Row v moves to sigma(v); in the transpose of the moved rows, row u is
    then sigma(N(u)), which moves to sigma(u) in turn.
    """
    n = graph.n
    if len(sigma) != n:
        raise ValueError(f"permutation length {len(sigma)} != vertex count {n}")
    image = sigma.image
    inverse = sorted(range(n), key=image.__getitem__)  # the v with image[v] == i, at i
    w = packed_width(n)
    t = unpacked(transpose(_packed([graph.rows[v] for v in inverse], w), w), w, n)
    return Graph(n, tuple(t[v] for v in inverse))


def _layers(rows: Sequence[int], root: int, within: int) -> list[int]:
    """Breadth-first layers, as bitmasks, from the one-bit mask root in the subgraph on within."""
    frontier = root
    layers = []
    while frontier:
        layers.append(frontier)
        within ^= frontier
        nbrs = 0
        for v in bits(frontier):
            nbrs |= rows[v]
        frontier = nbrs & within
    return layers


def _component_layers(rows: Sequence[int]) -> Iterator[list[int]]:
    """Each connected component's ``_layers`` from its smallest vertex, in the order of those vertices."""
    unseen = (1 << len(rows)) - 1
    while unseen:
        layers = _layers(rows, unseen & -unseen, unseen)
        unseen ^= sum(layers)
        yield layers


def component_masks(rows: Sequence[int]) -> list[int]:
    """Connected components as vertex bitmasks, ordered by smallest member."""
    return [sum(layers) for layers in _component_layers(rows)]


def bipartition_masks(rows: Sequence[int]) -> list[tuple[int, int]] | None:
    """Per-component (side_a, side_b) bitmask pairs, or None if not bipartite.

    Even layers from a component's smallest vertex form side_a, so the result
    is deterministic; an edge inside a layer closes an odd cycle.
    """
    sides = []
    for layers in _component_layers(rows):
        for layer in layers:
            for v in bits(layer):
                if rows[v] & layer:
                    return None
        side_a = sum(layers[::2])
        sides.append((side_a, sum(layers) ^ side_a))
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
            for v in bits(layer):
                row = rows[v]
                up = row & above
                if up & (up - 1):
                    best = 2 * d
                    break  # the least bound at this depth
                if row & layer:
                    best = 2 * d + 1
    return best


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b
