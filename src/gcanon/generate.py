"""Exhaustive enumeration of non-isomorphic graphs and seeded random sampling.

Enumeration adds one vertex at a time, joined to each possible neighbourhood,
depth first: a child whose canonical form is new on its level is extended at
once, with the automorphism generators its own search found.  Generation may be
restricted by any ``GraphFilter``.  Its hereditary clauses, which every induced
subgraph of a match also satisfies (Bipartite=true, NumEdges<=b, NumCycles<=c),
cut down the neighbourhoods on every level.  Only the residual clauses, those
the pruning does not settle on every output graph (Connected, Connectivity,
positive lower bounds, negations, Bipartite=false), are then evaluated on the
final level; with none left, no ``Graph`` is built there.

Before any canonical form is computed, a child is dropped unless its new
vertex maximises f(v) = (deg v, sum of deg u over the neighbours u of v),
compared lexicographically over the child's vertices; ties are kept.  For a
neighbourhood ``m`` the test reads the parent alone: the new vertex scores
(|m|, |m| + sum of deg i over i in m), and a parent vertex i has child degree
deg i + [i in m] and neighbour-degree sum nsum i + |N(i) & m| + [i in m]·|m|,
with deg and nsum (the sum of deg over N(i)) taken in the parent.
No class is lost.  Every class X has a vertex v that maximises f in X, and
X arises from X - v.  X - v, an induced subgraph, keeps the hereditary
clauses, so it was generated, in some labelling, as a parent P in which the
neighbourhood of v is some ``m`` that survives their pruning; the child of
P and ``m`` is X, and f is preserved by isomorphism, so ``m`` passes the
test.  The test commutes with taking one neighbourhood per orbit: an
automorphism s of P extends, fixing the new vertex, to an isomorphism from
the child of ``m`` to the child of s(m), so the kept masks are a union of
orbits and one representative of each still reaches every class.  The test
reads degrees only, so P need not be canonical, and the key set of each level
removes the remaining duplicates.  The test is a cheap case of McKay's
canonical augmentation (*Isomorph-free exhaustive generation*, J. Algorithms
26, 1998).

A child's search starts from the parent generators s with s(m) = m, each
extended to fix the new vertex: such an s maps the child onto itself, since
it maps the parent onto itself and the new vertex's neighbourhood onto
s(m) = m.  ``canon.search`` takes them as ``known`` and visits fewer leaves
for the same key and the same group, so the key sets still remove the
duplicates and the next level takes the same representatives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from . import canon, codec
from .core import Graph, all_ints, bipartition_masks, bits, check_vertex_count, component_masks, permute_mask
from .filters import GraphFilter, PropertyConstraint, evaluate


def GenOptions(
    only_connected: bool = False,
    only_bipartite: bool = False,
    min_edges: int | None = None,
    max_edges: int | None = None,
) -> GraphFilter:
    """The filter for the classic generation switches and edge-count window."""
    for name, value in (("min_edges", min_edges), ("max_edges", max_edges)):
        if value is not None and (not all_ints((value,)) or value < 0):
            raise ValueError(f"{name} must be a non-negative int, got {value!r}")
    if min_edges is not None and max_edges is not None and min_edges > max_edges:
        raise ValueError(f"min_edges {min_edges} exceeds max_edges {max_edges}")
    clauses = []
    if max_edges is not None:
        clauses.append(PropertyConstraint("NumEdges", (min_edges or 0, max_edges)))
    elif min_edges:
        clauses.append(PropertyConstraint("NumEdges", (0, min_edges - 1), negate=True))
    if only_bipartite:
        clauses.append(PropertyConstraint("Bipartite", True))
    if only_connected:
        clauses.append(PropertyConstraint("Connected", True))
    return GraphFilter(tuple(clauses))


def check_sample_count(count: int) -> None:
    """Rejects a sample count that is not an int (a bool included) or is negative."""
    if not all_ints((count,)) or count < 0:
        raise ValueError(f"sample count must be a non-negative int, got {count!r}")


@dataclass(frozen=True, slots=True)
class RandomModel:
    """Parameters for Bernoulli edge sampling: each of the C(n,2) possible
    edges is included independently with probability p."""

    n: int
    count: int
    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        check_sample_count(self.count)
        if not isinstance(self.p, (int, float)) or isinstance(self.p, bool):
            raise ValueError(f"edge probability must be an int or float, got {self.p!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {self.p}")
        if not all_ints((self.seed,)):
            raise ValueError(f"seed must be an int, got {self.seed!r}")


def _submasks(mask: int) -> list[int]:
    out = []
    s = mask
    while True:
        out.append(s)
        if s == 0:
            return out
        s = (s - 1) & mask


def _orbit_reps(masks, gens: list[tuple[int, ...]]) -> list[tuple[int, list[tuple[int, ...]]]]:
    # One neighbourhood per orbit under the parent's automorphisms, each with
    # the generators that map it onto itself; children of orbit-equivalent
    # neighbourhoods are isomorphic, so reps suffice.  The walk from a rep
    # pops the rep first, so its stabilising generators are read there.
    tables = [(g, [1 << w for w in g]) for g in gens]
    seen: set[int] = set()
    reps = []
    for m in masks:
        if m in seen:
            continue
        fixing: list[tuple[int, ...]] = []
        reps.append((m, fixing))
        stack = [m]
        seen.add(m)
        while stack:
            x = stack.pop()
            for g, image_bits in tables:
                y = permute_mask(image_bits, x)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
                elif x == y == m:
                    fixing.append(g)
    return reps


def _hereditary_bounds(constraints: GraphFilter) -> tuple[tuple[bool, int | None, int | None], GraphFilter]:
    # (bipartite, edge budget, cycle budget) from the clauses that survive
    # vertex deletion, and the residual filter of the clauses that these do
    # not settle; a negated bound is not hereditary and stays in the residual.
    bipartite, budgets = False, {"NumEdges": None, "NumCycles": None}
    residual = []
    for c in constraints.constraints:
        if c.name == "Bipartite":
            bipartite = enforced = c.value != c.negate
        elif c.name in budgets and not c.negate:
            lo, hi = c.value
            budgets[c.name] = hi
            enforced = lo <= 0 <= hi  # hi < 0 must still reject the one-vertex graph
        else:
            enforced = False
        if not enforced:
            residual.append(c)
    return (bipartite, budgets["NumEdges"], budgets["NumCycles"]), GraphFilter(tuple(residual))


def _neighbourhood_masks(
    parent: Sequence[int], bipartite: bool, max_edges: int | None, max_cycles: int | None
) -> list[int]:
    # The new neighbourhood is a product of choices, one per parent component.
    # The child stays bipartite iff each choice sits wholly inside one side of
    # the component's proper 2-colouring, and joining s >= 1 vertices of a
    # component adds s - 1 to the circuit rank.  A budget of m never binds.
    m = len(parent)
    edges = sum(r.bit_count() for r in parent) // 2
    edge_budget = m if max_edges is None else max_edges - edges
    if not bipartite and max_cycles is None:
        return [mask for mask in range(1 << m) if mask.bit_count() <= edge_budget]
    if bipartite:
        sides = bipartition_masks(parent)
        assert sides is not None  # parents were generated bipartite
        parts = [_submasks(a) + [s for s in _submasks(b) if s] for a, b in sides]
    else:
        parts = [_submasks(comp) for comp in component_masks(parent)]
    cycle_budget = m if max_cycles is None else max_cycles - (edges - m + len(parts))
    ranked = [(0, 0)]  # (neighbourhood so far, circuit rank it adds)
    for choices in parts:
        ranked = [
            (acc | choice, added)
            for acc, used in ranked
            for choice in choices
            if (added := used + max(choice.bit_count() - 1, 0)) <= cycle_budget
        ]
    return [mask for mask, _ in ranked if mask.bit_count() <= edge_budget]


def _new_vertex_maximises_f(parent: Sequence[int], masks: list[int]) -> list[int]:
    # The masks whose new vertex maximises f in the child, ties allowed, with
    # the scores of the module docstring.  Only a parent vertex whose child
    # degree equals |m| can beat the new vertex on the second component.
    degrees = [r.bit_count() for r in parent]
    nsums = [sum(degrees[j] for j in bits(r)) for r in parent]
    of_degree = [0] * (len(parent) + 1)
    for i, d in enumerate(degrees):
        of_degree[d] |= 1 << i
    top = max(degrees)
    kept = []
    for m in masks:
        d = m.bit_count()
        if d < top + (1 if m & of_degree[top] else 0):
            continue  # some parent vertex has a larger child degree
        ties = (of_degree[d] & ~m) | (of_degree[d - 1] & m)  # at d = 0, m is empty
        if ties:
            score = d + sum(degrees[i] for i in bits(m))
            if any(nsums[i] + (parent[i] & m).bit_count() + (d if m >> i & 1 else 0) > score for i in bits(ties)):
                continue
        kept.append(m)
    return kept


def generate_graphs(n: int, constraints: GraphFilter | None = None) -> list[str]:
    """Graph6 strings of all non-isomorphic graphs on n vertices matching constraints.

    One canonical representative per isomorphism class, sorted ascending as
    byte strings.  Output is deterministic.
    """
    check_vertex_count(n)
    bounds, residual = _hereditary_bounds(constraints or GraphFilter())

    keys = [{0} if k == 1 else set() for k in range(n + 1)]  # the canonical keys on k vertices

    def extend(parent: list[int], gens: list[tuple[int, ...]]) -> None:
        k = len(parent) + 1
        new_bit = 1 << (k - 1)
        masks = _new_vertex_maximises_f(parent, _neighbourhood_masks(parent, *bounds))
        for mask, fixing in _orbit_reps(masks, gens):
            child = [row | new_bit if (mask >> i) & 1 else row for i, row in enumerate(parent)]
            child.append(mask)
            found = canon.search(child, known=[g + (k - 1,) for g in fixing])
            if found.key not in keys[k]:
                keys[k].add(found.key)
                if k < n:
                    extend(child, found.generators)

    if n > 1:
        extend([0], [])
    del extend  # the closure refers to itself: break the cycle so the key sets go on return
    return [
        codec.graph6_from_key(n, key)
        for key in sorted(keys[n])
        if not residual.constraints or evaluate(residual, Graph(n, codec.rows_from_key(n, key)))
    ]


def generate_random_graphs(model: RandomModel) -> list[Graph]:
    """Independent Bernoulli-edge samples, fully determined by the seed.

    Draws come from ``random.Random(seed)`` (Mersenne Twister), one uniform
    variate per vertex pair in upper-triangle column order (0,1), (0,2),
    (1,2), (0,3), ...; a pair becomes an edge when the variate is below p.
    """
    rng = random.Random(model.seed)
    uniform = rng.random
    n, p = model.n, model.p
    out = []
    for _ in range(model.count):
        rows = [0] * n
        for j in range(1, n):
            bit = 1 << j
            for i in range(j):
                if uniform() < p:
                    rows[i] |= bit
                    rows[j] |= 1 << i
        out.append(Graph(n, tuple(rows)))
    return out
