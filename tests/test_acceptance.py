"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`).
"""

import itertools
import random
import time

from conftest import (
    brute_force_isomorphic,
    random_graph,
    random_permutation,
    run_module_cli,
)
from gcanon import canon, codec
from gcanon.cli import er_connectivity_rows, format_tuple
from gcanon.core import Graph, Permutation, connectivity_at_most, permute_graph
from gcanon.generate import generate_graphs

A000088_9 = (1, 2, 4, 11, 34, 156, 1044, 12346, 274668)
A005195_10 = (1, 2, 3, 6, 10, 20, 37, 76, 153, 329)
A000055_10 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)
A005195_12 = A005195_10 + (710, 1601)
A000055_12 = A000055_10 + (235, 551)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def parse_tuple(line: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in line.strip().strip("()").split(",") if tok.strip())


def test_criterion_1_graph_census():
    start = time.monotonic()
    quick = run_module_cli(["repro", "a000088", "--max-n", "7"])
    quick_elapsed = time.monotonic() - start
    assert quick.returncode == 0
    assert parse_tuple(quick.stdout) == A000088_9[:7]
    assert quick_elapsed < 10, f"n<=7 census took {quick_elapsed:.1f}s"

    result = run_module_cli(["repro", "a000088", "--max-n", "9"])
    assert result.returncode == 0
    got = parse_tuple(result.stdout)
    report(
        "criterion 1 (graph census n<=9)",
        got == A000088_9 and result.stdout.strip() == format_tuple(A000088_9),
        f"got {got}, n<=7 in {quick_elapsed:.1f}s",
    )


def test_criterion_2_forest_counts():
    result = run_module_cli(["repro", "a005195", "--max-n", "10"])
    assert result.returncode == 0
    got = parse_tuple(result.stdout)
    report("criterion 2 (forest counts n<=10)", got == A005195_10, f"got {got}")


def test_criterion_3_tree_counts():
    result = run_module_cli(["repro", "a000055", "--max-n", "10"])
    assert result.returncode == 0
    got = parse_tuple(result.stdout)
    report("criterion 3 (tree counts n<=10)", got == A000055_10, f"got {got}")


def test_criterion_2_forest_counts_full_row():
    result = run_module_cli(["repro", "a005195", "--max-n", "12"])
    got = parse_tuple(result.stdout)
    report("criterion 2 extension (forest counts n<=12)", got == A005195_12, f"got {got}")


def test_criterion_3_tree_counts_full_row():
    result = run_module_cli(["repro", "a000055", "--max-n", "12"])
    got = parse_tuple(result.stdout)
    report("criterion 3 extension (tree counts n<=12)", got == A000055_12, f"got {got}")


def test_criterion_4_codec_exactness():
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)])
    ok = (
        codec.encode_graph6(c5) == "Dhc"
        and codec.encode_graph6(Graph.complete(5)) == "D~{"
        and set(codec.decode("Dhc").edges()) == {(0, 1), (1, 2), (2, 3), (0, 4), (3, 4)}
    )
    report("criterion 4 (codec exactness)", ok, "Dhc / D~{ byte-exact")


def test_criterion_5_isomorph_rejection():
    c5 = Graph.cycle(5)
    strings = [
        codec.encode_graph6(permute_graph(c5, Permutation(p)))
        for p in itertools.permutations(range(5))
    ]
    survivors = canon.remove_isomorphs(strings)
    ok = len(survivors) == 1 and canon.are_isomorphic(codec.decode(survivors[0]), c5)
    report("criterion 5 (isomorph rejection)", ok, f"120 relabellings -> {len(survivors)} class")


def test_criterion_6_oracle_equivalence():
    rng = random.Random(606)
    disagreements = 0
    pairs = 0

    def check(g, h):
        nonlocal disagreements, pairs
        pairs += 1
        if canon.are_isomorphic(g, h) != brute_force_isomorphic(g, h):
            disagreements += 1

    for n in range(1, 7):
        reps = [codec.decode(s) for s in generate_graphs(n)]
        for g, h in itertools.combinations(reps, 2):
            check(g, h)
        for g in reps:  # positive pairs: a random relabelling of each class
            check(g, permute_graph(g, random_permutation(rng, n)))
    randoms = [random_graph(rng, 7, rng.choice([0.2, 0.5, 0.8])) for _ in range(50)]
    for g, h in itertools.combinations(randoms, 2):
        check(g, h)
    report(
        "criterion 6 (isomorphism oracle equivalence)",
        disagreements == 0,
        f"{pairs} pairs, {disagreements} disagreements",
    )


def test_criterion_7_canonical_invariance():
    rng = random.Random(707)
    failures = 0
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        sigma = random_permutation(rng, n)
        relabelled = permute_graph(g, sigma)
        if canon.search(g.rows).key != canon.search(relabelled.rows).key:
            failures += 1
    report("criterion 7 (canonical invariance)", failures == 0, f"1000 trials, {failures} failures")


def test_criterion_8_round_trips():
    rng = random.Random(808)
    checked = 0
    ok = True
    corpus = [codec.decode(s) for n in range(1, 8) for s in generate_graphs(n)]
    corpus += [random_graph(rng, rng.randint(1, 32), rng.random()) for _ in range(1000)]
    for g in corpus:
        s = codec.encode_graph6(g)
        ok = ok and codec.decode(s) == g and codec.encode_graph6(codec.decode(s)) == s
        ok = ok and codec.decode(codec.encode_sparse6(g)) == g
        checked += 1
    report("criterion 8 (codec round trips)", ok, f"{checked} graphs, both formats")


def test_criterion_9_er_threshold():
    start = time.monotonic()
    result = run_module_cli(
        ["repro", "er-connectivity", "--max-n", "30", "--trials", "100", "--seed", "1"]
    )
    elapsed = time.monotonic() - start
    assert result.returncode == 0
    rows = [parse_tuple(line) for line in result.stdout.splitlines() if not line.startswith("#")]
    high, low = rows
    assert len(high) == len(low) == 29  # n = 2..30
    high_ok = all(count >= 85 for count in high[8:])  # n = 10..30
    low_ok = all(count <= 25 for count in low[8:])
    library_high, library_low = er_connectivity_rows(30, 100, 1)
    ok = high_ok and low_ok and list(high) == library_high and list(low) == library_low
    report(
        "criterion 9 (ER threshold bands)",
        ok and elapsed < 60,
        f"n=10..30 high min {min(high[8:])} >= 85, low max {max(low[8:])} <= 25, {elapsed:.1f}s",
    )


def test_criterion_10_connectivity_oracle():
    from itertools import combinations

    def oracle(g: Graph) -> int:
        if g.component_count() != 1:
            return 0
        if g.num_edges() == g.n * (g.n - 1) // 2:
            return g.n - 1
        for k in range(1, g.n - 1):
            for removed in combinations(range(g.n), k):
                keep = [v for v in range(g.n) if v not in removed]
                sub = Graph.from_edges(
                    len(keep),
                    [
                        (keep.index(u), keep.index(v))
                        for u, v in g.edges()
                        if u in keep and v in keep
                    ],
                )
                if sub.component_count() > 1:
                    return k
        raise AssertionError("non-complete graphs always disconnect")

    mismatches = 0
    graphs = 0
    for n in range(1, 7):
        for s in generate_graphs(n):
            g = codec.decode(s)
            graphs += 1
            if connectivity_at_most(g, g.n) != oracle(g):
                mismatches += 1
    witnesses = (
        connectivity_at_most(Graph.from_edges(5, [(0, 1), (2, 3)]), 5) == 0
        and connectivity_at_most(Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]), 5) == 1
        and connectivity_at_most(Graph.complete(5), 5) == 4
    )
    report(
        "criterion 10 (connectivity oracle)",
        mismatches == 0 and witnesses,
        f"{graphs} classes n<=6, {mismatches} mismatches; witnesses hold",
    )
