"""Seeded benchmark inputs, written without the library under test.

The stream corpus is sampled and written to Graph6/Sparse6 text here, so the
program receives only text.  The symmetric ladder is built as edge lists and
handed to the library's ``Graph.from_edges``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


# --- G(n, p) sampling and the text writers ---------------------------------


def sample_rows(rng: random.Random, n: int, p: float) -> tuple[int, ...]:
    """Adjacency bitmask rows of one G(n, p) sample."""
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def relabel_rows(rows: tuple[int, ...], image: list[int]) -> tuple[int, ...]:
    """Rows of the graph with edge {image[u], image[v]} for every edge {u, v}."""
    out = [0] * len(rows)
    for u, row in enumerate(rows):
        mask = 0
        for v in range(len(rows)):
            if (row >> v) & 1:
                mask |= 1 << image[v]
        out[image[u]] = mask
    return tuple(out)


def _size_header(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    return "~" + "".join(chr(63 + ((n >> shift) & 63)) for shift in (12, 6, 0))


def _pack6(bits: list[int]) -> str:
    bits = bits + [0] * (-len(bits) % 6)
    return "".join(
        chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6)
    )


def write_graph6(rows: tuple[int, ...]) -> str:
    n = len(rows)
    bits = [(rows[j] >> i) & 1 for j in range(1, n) for i in range(j)]
    return _size_header(n) + _pack6(bits)


def write_sparse6(rows: tuple[int, ...]) -> str:
    """Sparse6 per the format description: edges (u < v) sorted by v, then u."""
    n = len(rows)
    k = max(1, (n - 1).bit_length())
    edges = sorted((v, u) for v in range(n) for u in range(v) if (rows[v] >> u) & 1)
    bits: list[int] = []

    def field(x: int) -> list[int]:
        return [(x >> i) & 1 for i in range(k - 1, -1, -1)]

    cur = 0
    for v, u in edges:
        if v == cur:
            bits += [0] + field(u)
        elif v == cur + 1:
            cur = v
            bits += [1] + field(u)
        else:
            cur = v
            bits += [1] + field(v) + [0] + field(u)
    pad = -len(bits) % 6
    if n == (1 << k) and cur == n - 2 and pad >= k + 1:
        bits.append(0)  # 1-padding would read as a spurious edge (n-1, n-1)
    bits += [1] * (-len(bits) % 6)
    return ":" + _size_header(n) + _pack6(bits)


# --- the stream corpus -------------------------------------------------------


@dataclass(frozen=True)
class Line:
    """One corpus line; ``base`` is the line it duplicates under a relabelling."""

    text: str
    rows: tuple[int, ...]
    size_class: str
    base: int | None = None


# (size class, n, p values, graphs per p, planted duplicates, Sparse6 share)
STREAM_CLASSES = (
    ("small", tuple(range(8, 13)), (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), 6, 54, 0.5),
    ("n30", (30,), (0.2,), 24, 4, 0.5),
    ("n64", (64,), (0.1,), 6, 1, 1.0),
    ("n64", (64,), (0.5,), 2, 0, 0.0),
)
TINY_STREAM_CLASSES = (
    ("small", (8, 10), (0.2, 0.5, 0.8), 2, 3, 0.5),
    ("n30", (30,), (0.2,), 1, 1, 1.0),
)


def stream_corpus(seed: int, classes=STREAM_CLASSES) -> list[Line]:
    """Base samples of every class, then its planted duplicates, shuffled.

    The composition per class is fixed; the seed picks the samples, which
    bases get duplicated, their relabellings and the line order.  Sparse
    graphs (p <= 0.2) are written as Sparse6 with the class's share.
    """
    rng = random.Random(seed)
    lines: list[Line] = []
    for size_class, ns, ps, per_p, dupes, s6_share in classes:
        bases: list[Line] = []
        for n in ns:
            for p in ps:
                for _ in range(per_p):
                    rows = sample_rows(rng, n, p)
                    sparse = p <= 0.2 and rng.random() < s6_share
                    text = write_sparse6(rows) if sparse else write_graph6(rows)
                    bases.append(Line(text, rows, size_class))
        offset = len(lines)
        lines.extend(bases)
        for index in rng.sample(range(len(bases)), dupes):
            base = bases[index]
            rows = relabel_rows(base.rows, random_image(rng, len(base.rows)))
            text = write_sparse6(rows) if base.text.startswith(":") else write_graph6(rows)
            lines.append(Line(text, rows, size_class, offset + index))
    order = list(range(len(lines)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    return [
        Line(lines[old].text, lines[old].rows, lines[old].size_class,
             None if lines[old].base is None else where[lines[old].base])
        for old in order
    ]


# --- the symmetric ladder ----------------------------------------------------

Edges = list[tuple[int, int]]


def empty(n: int) -> tuple[int, Edges]:
    return n, []


def complete(n: int) -> tuple[int, Edges]:
    return n, [(u, v) for v in range(n) for u in range(v)]


def complete_bipartite(a: int) -> tuple[int, Edges]:
    return 2 * a, [(u, a + v) for u in range(a) for v in range(a)]


def cycle(n: int) -> tuple[int, Edges]:
    return n, [(v, (v + 1) % n) for v in range(n)]


def petersen() -> tuple[int, Edges]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return 10, outer + spokes + inner


def disjoint_copies(part: tuple[int, Edges], copies: int) -> tuple[int, Edges]:
    n, edges = part
    return n * copies, [(u + c * n, v + c * n) for c in range(copies) for u, v in edges]


def hypercube(d: int) -> tuple[int, Edges]:
    n = 1 << d
    return n, [(v, v ^ (1 << b)) for v in range(n) for b in range(d) if v < v ^ (1 << b)]


def paley(q: int) -> tuple[int, Edges]:
    """Paley graph on the prime q = 1 (mod 4): u ~ v iff u - v is a nonzero square."""
    squares = {(x * x) % q for x in range(1, q)}
    return q, [(u, v) for v in range(q) for u in range(v) if (v - u) % q in squares]


def grid(a: int, b: int) -> tuple[int, Edges]:
    edges = []
    for r in range(a):
        for c in range(b):
            v = r * b + c
            if c + 1 < b:
                edges.append((v, v + 1))
            if r + 1 < a:
                edges.append((v, v + b))
    return a * b, edges


# (family, case name, builder).  Sizes step up to the largest each family
# finishes within a run; README.md lists the cases left out and why.
LADDER = (
    ("empty", "empty8", lambda: empty(8)),
    ("empty", "empty16", lambda: empty(16)),
    ("empty", "empty24", lambda: empty(24)),
    ("complete", "complete8", lambda: complete(8)),
    ("complete", "complete14", lambda: complete(14)),
    ("complete", "complete20", lambda: complete(20)),
    ("kaa", "K4,4", lambda: complete_bipartite(4)),
    ("kaa", "K8,8", lambda: complete_bipartite(8)),
    ("kaa", "K12,12", lambda: complete_bipartite(12)),
    ("k3s", "4xK3", lambda: disjoint_copies(complete(3), 4)),
    ("k3s", "8xK3", lambda: disjoint_copies(complete(3), 8)),
    ("c4s", "4xC4", lambda: disjoint_copies(cycle(4), 4)),
    ("c4s", "8xC4", lambda: disjoint_copies(cycle(4), 8)),
    ("petersens", "2xPetersen", lambda: disjoint_copies(petersen(), 2)),
    ("petersens", "4xPetersen", lambda: disjoint_copies(petersen(), 4)),
    ("petersens", "6xPetersen", lambda: disjoint_copies(petersen(), 6)),
    ("hypercube", "Q4", lambda: hypercube(4)),
    ("hypercube", "Q5", lambda: hypercube(5)),
    ("hypercube", "Q6", lambda: hypercube(6)),
    ("paley", "Paley13", lambda: paley(13)),
    ("paley", "Paley29", lambda: paley(29)),
    ("paley", "Paley61", lambda: paley(61)),
    ("grid", "grid4x4", lambda: grid(4, 4)),
    ("grid", "grid8x8", lambda: grid(8, 8)),
    ("cycle", "C16", lambda: cycle(16)),
    ("cycle", "C64", lambda: cycle(64)),
)
TINY_LADDER = tuple(case for case in LADDER if case[1] in {
    "empty8", "complete8", "K4,4", "4xK3", "4xC4", "2xPetersen", "Q4", "Paley13", "grid4x4", "C16",
})
FAMILIES = tuple(dict.fromkeys(family for family, _, _ in LADDER))


def random_image(rng: random.Random, n: int) -> list[int]:
    image = list(range(n))
    rng.shuffle(image)
    return image
