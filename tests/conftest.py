"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the canonical search: the
isomorphism oracles enumerate permutations outright so they can sit on the
other side of dual-route checks.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import signal
import subprocess
import sys
from typing import Iterator

from gcanon.cli import main
from gcanon.core import Graph, Permutation


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
    """Run `python -m gcanon ...` with src/ on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"), env.get("PYTHONPATH", "")]
    )
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gcanon", *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
    )


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise ``TimeoutError`` in the block once ``seconds`` of wall time pass.

    A search whose automorphism test or pruning is broken walks up to n!
    leaves on a symmetric graph; under a deadline it fails instead of hanging.
    """

    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
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


def random_colouring(rng: random.Random, n: int) -> "Colouring":
    from gcanon.core import Colouring

    vertices = list(range(n))
    rng.shuffle(vertices)
    cells = []
    while vertices:
        size = rng.randint(1, len(vertices))
        cells.append(vertices[:size])
        vertices = vertices[size:]
    return Colouring(tuple(cells))


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
