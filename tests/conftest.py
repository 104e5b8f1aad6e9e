"""Shared oracles and generators for the test suite.

Everything here but one oracle is deliberately independent of the canonical
search: the isomorphism oracles enumerate permutations outright so they can
sit on the other side of dual-route checks.  The permutation and colouring
oracles (``compose``, ``inverse``, ``permute_colouring``,
``is_colour_preserving``, ``normalize_colouring``) work on plain image tuples
and cell sets, so they share no code with the library they check.  The one
exception is ``unpruned_walk``, the whole search tree that orbit pruning is
checked against: it shares the public ``refine`` with the search, and is
itself checked against brute force.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import os
import random
import signal
import subprocess
import sys
from typing import Iterator

import pytest

import gcanon
from gcanon import refine
from gcanon.cli import main
from gcanon.core import Colouring, Graph, Permutation


def run_cli(argv, stdin_text=""):
    """Run ``main`` in process; returns (exit code, stdout)."""
    return run_cli_lines(argv, io.StringIO(stdin_text))


def run_cli_lines(argv, stdin):
    out = io.StringIO()
    code = 0
    try:
        code = main(argv, stdin=stdin, stdout=out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_module_cli(args, stdin_text="", env_extra=None):
    """Run `python -m gcanon ...` on the gcanon that this process imported.

    Its parent directory goes first on the path, so a subprocess runs the
    library under test, such as a mutated copy, and not the checkout's src/.
    A bytes stdin is sent as it is, and the result's streams are bytes too.
    """
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(gcanon.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([package_parent, env.get("PYTHONPATH", "")])
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gcanon", *args],
        input=stdin_text,
        capture_output=True,
        text=isinstance(stdin_text, str),
        env=env,
    )


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the test once the block has run for ``seconds`` of wall time.

    A search whose automorphism test or pruning is broken walks up to n!
    leaves on a symmetric graph; under a deadline it fails instead of hanging.
    The failure is the message alone, with no traceback: the frame the alarm
    interrupted may stand at an instruction with no line number, which
    pytest's traceback formatter cannot print.
    """
    missed = TimeoutError(f"over the {seconds} s deadline")

    def expire(signum, frame):
        raise missed

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        if exc is not missed:
            raise
        raise pytest.fail.Exception(str(exc), pytrace=False) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def all_labelled_graphs(n: int) -> Iterator[Graph]:
    """Every labelled simple graph on n vertices (2^C(n,2) of them)."""
    pairs = all_pairs(n)
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    return Graph.from_edges(n, [e for e in all_pairs(n) if rng.random() < p])


def to_networkx(g: Graph):
    """The same labelled graph as a networkx Graph (call after importorskip)."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def random_permutation(rng: random.Random, n: int) -> Permutation:
    image = list(range(n))
    rng.shuffle(image)
    return Permutation(tuple(image))


def random_colouring(rng: random.Random, n: int) -> Colouring:
    vertices = list(range(n))
    rng.shuffle(vertices)
    cells = []
    while vertices:
        size = rng.randint(1, len(vertices))
        cells.append(vertices[:size])
        vertices = vertices[size:]
    return Colouring(tuple(cells))


def compose(a: Permutation, b: Permutation) -> Permutation:
    """The permutation applying b first, then a."""
    return Permutation(tuple(a.image[w] for w in b.image))


def inverse(p: Permutation) -> Permutation:
    image = [0] * len(p.image)
    for v, w in enumerate(p.image):
        image[w] = v
    return Permutation(tuple(image))


def permute_colouring(sigma: Permutation, colouring: Colouring) -> Colouring:
    """Each cell mapped through sigma, in cell order."""
    return Colouring(tuple(frozenset(sigma.image[v] for v in cell) for cell in colouring.cells))


def is_colour_preserving(sigma: Permutation, colouring: Colouring) -> bool:
    """Whether sigma maps every cell onto itself."""
    return all(frozenset(sigma.image[v] for v in cell) == cell for cell in colouring.cells)


def normalize_colouring(colouring: Colouring) -> Colouring:
    """Cells of the same lengths, in the same order, as consecutive blocks from 0."""
    ends = itertools.accumulate(len(cell) for cell in colouring.cells)
    return Colouring(tuple(frozenset(range(end - len(cell), end)) for cell, end in zip(colouring.cells, ends)))


# Every n up to the cap, which holds the packed widths' edges 8/9, 16/17
# and 32/33, and the widest width, 64.
PACKED_SIZES = range(1, 65)


def pair_loop_rows_error(n: int, rows) -> str | None:
    """The message of the first check that a pair-by-pair validator fails, or None.

    Row by row, bits outside 0..n-1 and then a self-loop; then the pairs
    u < v in lexicographic order, for asymmetry.
    """
    full = (1 << n) - 1
    for v, row in enumerate(rows):
        if row & ~full:
            return f"row {v} has neighbour bits outside 0..{n - 1}"
        if (row >> v) & 1:
            return f"self-loop at vertex {v}"
    for u in range(n):
        for v in range(u + 1, n):
            if ((rows[u] >> v) & 1) != ((rows[v] >> u) & 1):
                return f"asymmetric adjacency between {u} and {v}"
    return None


def pair_loop_key(rows) -> int:
    """The Graph6 upper triangle in column order (0,1), (0,2), (1,2), ..., first pair most significant."""
    key = 0
    for j in range(len(rows)):
        for i in range(j):
            key = (key << 1) | ((rows[i] >> j) & 1)
    return key


def pair_loop_rows(n: int, key: int) -> list[int]:
    """The rows whose pair_loop_key is key."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(n):
        for i in range(j):
            pos -= 1
            if (key >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """All-permutations isomorphism search (early exit per permutation)."""
    if g.n != h.n or g.num_edges() != h.num_edges():
        return False
    edges = g.edges()
    hrows = h.rows
    for perm in itertools.permutations(range(g.n)):
        for u, v in edges:
            if not (hrows[perm[u]] >> perm[v]) & 1:
                break
        else:
            return True
    return False


def brute_force_colour_isomorphic(g, h, g_colouring, h_colouring) -> bool:
    """Searches permutations mapping cell i of g's colouring onto cell i of h's."""
    g_cells = [sorted(c) for c in g_colouring.cells]
    h_cells = [sorted(c) for c in h_colouring.cells]
    if [len(c) for c in g_cells] != [len(c) for c in h_cells]:
        return False
    edges = g.edges()
    m = g.num_edges()
    if m != h.num_edges():
        return False
    for choice in itertools.product(*[itertools.permutations(c) for c in h_cells]):
        image = [0] * g.n
        for sources, targets in zip(g_cells, choice):
            for v, w in zip(sources, targets):
                image[v] = w
        for u, v in edges:
            if not (h.rows[image[u]] >> image[v]) & 1:
                break
        else:
            return True
    return False


def closure_order(generators, n: int) -> int:
    """Order of the permutation group generated by the given images."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    gens = [tuple(g.image) if hasattr(g, "image") else tuple(g) for g in generators]
    while frontier:
        new = []
        for element in frontier:
            for g in gens:
                product = tuple(g[element[v]] for v in range(n))
                if product not in seen:
                    seen.add(product)
                    new.append(product)
        frontier = new
    return len(seen)


def unpruned_walk(graph: Graph, cells=None) -> tuple[int, int, int]:
    """The whole search tree, without orbit pruning: (greatest leaf key, leaf count, group order).

    ``cells`` is an ordered partition of the vertices (None: one cell).
    Built on the public ``refine`` and on ``pair_loop_key`` only.  A node
    whose colouring has a non-singleton cell takes the first smallest one
    and, for each vertex v of it in ascending order, splits it into {v}
    followed by the rest, refines, and recurses; a discrete colouring is a
    leaf, whose key is ``pair_loop_key`` of the graph relabelled in cell
    order (packed once per distinct relabelled graph).  The automorphisms of the coloured graph act freely on the leaves
    of the whole tree, and the leaves with the greatest key form one orbit,
    so their number is the group order.
    """
    neighbours = [[u for u in range(graph.n) if row >> u & 1] for row in graph.rows]
    leaves: collections.Counter[tuple[int, ...]] = collections.Counter()  # relabelled rows -> leaf count

    def walk(cells) -> None:
        if len(cells) == graph.n:
            order = [v for cell in cells for v in cell]
            position = {v: j for j, v in enumerate(order)}
            leaves[tuple(sum(1 << position[u] for u in neighbours[v]) for v in order)] += 1
            return
        target = min((i for i, c in enumerate(cells) if len(c) > 1), key=lambda i: len(cells[i]))
        for v in sorted(cells[target]):
            split = (*cells[:target], {v}, cells[target] - {v}, *cells[target + 1 :])
            walk(refine(graph, Colouring(split)).cells)

    walk(refine(graph, None if cells is None else Colouring(tuple(cells))).cells)
    keys = {pair_loop_key(rows): count for rows, count in leaves.items()}
    best = max(keys)
    return best, leaves.total(), keys[best]


def brute_force_automorphism_count(g: Graph, colouring=None) -> int:
    """Number of colour-preserving permutations mapping g onto itself, by enumerating all n!."""
    colour = [0] * g.n
    for index, cell in enumerate(colouring.cells if colouring else ()):
        for v in cell:
            colour[v] = index
    edges = g.edges()
    rows = g.rows
    return sum(
        all(colour[perm[v]] == colour[v] for v in range(g.n))
        and all((rows[perm[u]] >> perm[v]) & 1 for u, v in edges)
        for perm in itertools.permutations(range(g.n))
    )


def disjoint_union(graphs) -> Graph:
    """The graphs side by side, relabelled into consecutive blocks."""
    edges = []
    offset = 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph.from_edges(offset, edges)


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Vertex (a, b) is a * h.n + b; it is adjacent to (a', b) for a ~ a' in g and to (a, b') for b ~ b' in h."""
    edges = [(a * h.n + b, c * h.n + b) for a, c in g.edges() for b in range(h.n)]
    edges += [(a * h.n + b, a * h.n + c) for b, c in h.edges() for a in range(g.n)]
    return Graph.from_edges(g.n * h.n, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def hypercube(d: int) -> Graph:
    return Graph.from_edges(1 << d, [(v, v ^ (1 << i)) for v in range(1 << d) for i in range(d) if v < v ^ (1 << i)])


def paley(q: int) -> Graph:
    """Paley graph on the prime q = 1 (mod 4): u ~ v iff u - v is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u, v in all_pairs(q) if (v - u) % q in squares])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def shrikhande() -> Graph:
    """Cayley graph of Z4 x Z4 on the steps ±(1, 0), ±(0, 1), ±(1, 1); vertex (a, b) is 4a + b."""
    edges = {
        tuple(sorted((4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)))
        for a in range(4)
        for b in range(4)
        for x, y in [(1, 0), (0, 1), (1, 1)]
    }
    return Graph.from_edges(16, sorted(edges))


def triangular(m: int) -> Graph:
    """T(m), the line graph of K_m: vertex i is the i-th pair of itertools.combinations(range(m), 2)."""
    pairs = list(itertools.combinations(range(m), 2))
    edges = [(i, j) for i, j in itertools.combinations(range(len(pairs)), 2) if set(pairs[i]) & set(pairs[j])]
    return Graph.from_edges(len(pairs), edges)


def seidel_switch(g: Graph, part) -> Graph:
    """g with every adjacency between part and the other vertices toggled."""
    mask = sum(1 << v for v in part)
    outside = ((1 << g.n) - 1) ^ mask
    return Graph(g.n, tuple(row ^ (outside if (mask >> v) & 1 else mask) for v, row in enumerate(g.rows)))


def chang() -> Graph:
    """The Chang graph: T(8) switched on the pairs of a perfect matching of K8 (strongly regular like T(8), not isomorphic)."""
    pairs = list(itertools.combinations(range(8), 2))
    return seidel_switch(triangular(8), [pairs.index((a, a + 1)) for a in range(0, 8, 2)])


def cayley_table(*orders: int) -> list[list[int]]:
    """The addition table of Z_orders[0] x Z_orders[1] x ..., elements numbered in the order of itertools.product."""
    elements = list(itertools.product(*(range(m) for m in orders)))
    index = {e: i for i, e in enumerate(elements)}
    return [[index[tuple((x + y) % m for x, y, m in zip(a, b, orders))] for b in elements] for a in elements]


def latin_square_graph(table: list[list[int]]) -> Graph:
    """Cell (r, c) of an m x m Latin square is vertex m * r + c; cells are adjacent when they share a row, a column or a symbol."""
    m = len(table)
    cells = [(r, c, table[r][c]) for r in range(m) for c in range(m)]
    pairs = itertools.combinations(range(m * m), 2)
    return Graph.from_edges(m * m, [(i, j) for i, j in pairs if any(a == b for a, b in zip(cells[i], cells[j]))])


def johnson(m: int, k: int) -> Graph:
    """J(m, k): vertex i is the i-th k-subset of itertools.combinations(range(m), k); subsets meeting in k - 1 elements are adjacent."""
    subsets = [set(s) for s in itertools.combinations(range(m), k)]
    pairs = itertools.combinations(range(len(subsets)), 2)
    return Graph.from_edges(len(subsets), [(i, j) for i, j in pairs if len(subsets[i] & subsets[j]) == k - 1])


def projective_plane_incidence(q: int) -> Graph:
    """The point-line incidence graph of PG(2, q), q prime.

    Points and lines are both the vectors of F_q^3 whose first non-zero entry
    is 1, points first; point p ~ line l iff p . l = 0 (mod q).
    """
    vectors = [v for v in itertools.product(range(q), repeat=3) if any(v) and next(x for x in v if x) == 1]
    edges = [
        (i, len(vectors) + j)
        for i, p in enumerate(vectors)
        for j, line in enumerate(vectors)
        if sum(a * b for a, b in zip(p, line)) % q == 0
    ]
    return Graph.from_edges(2 * len(vectors), edges)


def sylvester_hadamard_graph(k: int) -> Graph:
    """The Hadamard graph of Sylvester's k x k matrix, k a power of 2, where H_ij = (-1)^popcount(i & j).

    Vertex 2i + s is r_i^a and 2k + 2j + t is c_j^b, with a = (-1)^s and
    b = (-1)^t; r_i^a ~ c_j^b iff a * b * H_ij = 1.
    """
    edges = [
        (2 * i + s, 2 * k + 2 * j + t)
        for i in range(k)
        for j in range(k)
        for s in (0, 1)
        for t in (0, 1)
        if (s + t + (i & j).bit_count()) % 2 == 0
    ]
    return Graph.from_edges(4 * k, edges)


def cfi_graph(n: int, base_edges: list[tuple[int, int]], twisted) -> Graph:
    """The Cai-Fürer-Immerman graph over a base graph on n vertices (Combinatorica 12, 1992).

    Base vertex v gets one middle vertex per even-size subset S of its
    incident edges, and vertices a_{v,e} and b_{v,e} per incident edge e;
    middle vertex S is adjacent to a_{v,e} if e is in S and to b_{v,e}
    otherwise.  Base edge number i = uv joins a to a and b to b, or a to b
    and b to a when i is in ``twisted``.
    """
    incident = [[i for i, e in enumerate(base_edges) if v in e] for v in range(n)]
    ends: dict[tuple[int, int], tuple[int, int]] = {}  # (v, i) -> (a_{v,i}, b_{v,i})
    edges = []
    count = 0
    for v in range(n):
        for i in incident[v]:
            ends[v, i] = (count, count + 1)
            count += 2
        for size in range(0, len(incident[v]) + 1, 2):
            for subset in itertools.combinations(incident[v], size):
                edges += [(count, ends[v, i][0] if i in subset else ends[v, i][1]) for i in incident[v]]
                count += 1
    for i, (u, v) in enumerate(base_edges):
        (au, bu), (av, bv) = ends[u, i], ends[v, i]
        edges += [(au, bv), (bu, av)] if i in twisted else [(au, av), (bu, bv)]
    return Graph.from_edges(count, edges)
