"""The three workloads, each driven through the public API of ``gcanon``.

A workload builds its inputs from the seed, then runs passes.  One pass is a
fixed amount of work; it records the time of every operation, counts the
operations that raised or ran over budget, and keeps the outputs that
``check`` verifies afterwards, outside the timed region.  The caller times
the pass as a whole.  Every call into the library sits inside a
``tracer.span`` block, which records nothing in the untraced run, so the
traced and untraced passes make identical calls.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import signal
from dataclasses import dataclass, field
from time import perf_counter

import inputs
from meter import Meter
from tracing import NullTracer

DEFAULT_SEED = 1
DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stream_digests.json")

Interval = tuple[float, float]


@dataclass
class Pass:
    """What one pass did.

    ``wall``, ``ops`` and ``parts`` (named sub-phases) are ``perf_counter``
    intervals; ``meter.reference`` turns them into reference seconds.  Only
    a timed pass activates its meter; warm-up passes are never probed.
    """

    meter: Meter = field(default_factory=Meter)
    wall: Interval = (0.0, 0.0)
    ops: list[Interval] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    parts: dict[str, Interval] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    canon: list[tuple[str, int, int]] = field(default_factory=list)  # (item, leaves, generators)
    out: dict = field(default_factory=dict)


def _op(p: Pass, item: str, fn):
    """Run one operation, time it, and count an exception as a failure."""
    start = perf_counter()
    try:
        return fn()
    except Exception as exc:  # a failed operation is counted, never fatal
        p.errors.append(f"{item}: {type(exc).__name__}: {exc}")
        return None
    finally:
        p.ops.append((start, perf_counter()))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _tuple(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# --- repro -------------------------------------------------------------------

A000088 = (1, 2, 4, 11, 34, 156, 1044, 12346)
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106)
GEN8_SHA256 = "631a5603ad058afeec76d797a5d79453e1664e12917345de4a3b78ce223ce27f"
# stdout of `gcanon repro er-connectivity --max-n 30 --trials 100 --seed 1`
ER_SHA256 = "633c100855919e4b9de71f4e2bc4d2cc6e6de05a84cce780a5be36a768fea3bf"
ER_GOLDEN = (30, 100, 1)


class Repro:
    """The `gcanon repro` tables, built the way the CLI builds them."""

    name = "repro"

    def __init__(self, api, seed: int, tiny: bool = False) -> None:
        self.api = api
        self.seed = seed
        self.census_max, self.trees_max = (5, 6) if tiny else (8, 10)
        self.er_max, self.trials = (10, 20) if tiny else (30, 100)
        self.bipartite = api.GenOptions(only_bipartite=True)
        self.tree = api.build_graph_filter([("NumCycles", 0), ("Connectivity", 0), ("NegateConnectivity", True)])
        self.connected = api.build_graph_filter([("Connectivity", 0), ("NegateConnectivity", True)])

    def warm_up(self, tracer) -> None:
        api = self.api
        api.filter_graphs(api.generate_graphs(5, self.bipartite), self.tree)
        self._er_text(Pass(), tracer, 12, 10, self.seed)

    def _er_text(self, p: Pass, tracer, max_n: int, trials: int, seed: int) -> str:
        api = self.api
        high, low = [], []

        def row(n: int, item: str) -> None:
            base = math.log(n) / n
            for prob, out in ((2 * base, high), (base / 2, low)):
                with tracer.span("generate.generate_random_graphs", item):
                    samples = api.generate_random_graphs(api.RandomModel(n, trials, prob, seed))
                with tracer.span("filters.filter_graphs", item):
                    out.append(len(api.filter_graphs(samples, self.connected)))

        for n in range(2, max_n + 1):
            item = f"er-connectivity/n={n}"
            with tracer.span("repro.er_connectivity", item):
                _op(p, item, lambda: row(n, item))
        return (
            f"# connected out of {trials} at p = 2 log(n)/n, n = 2..{max_n}\n{_tuple(high)}\n"
            f"# connected out of {trials} at p = log(n)/(2 n), n = 2..{max_n}\n{_tuple(low)}\n"
        )

    def run_pass(self, p: Pass, tracer) -> None:
        api = self.api
        start = perf_counter()
        census = []
        for n in range(1, self.census_max + 1):
            item = f"a000088/n={n}"
            with tracer.span("repro.a000088", item):
                with tracer.span(f"generate.generate_graphs.n{n}", item):
                    lines = _op(p, item, lambda: api.generate_graphs(n))
            census.append(len(lines) if lines is not None else None)
            p.counts[f"generate.generate_graphs.n{n}.classes"] = census[-1] or 0
        p.out["last_census"] = lines
        p.parts["a000088_s"] = (start, perf_counter())

        middle = perf_counter()
        trees = []
        for n in range(1, self.trees_max + 1):
            item = f"a000055/n={n}"

            def tree_row() -> int:
                with tracer.span(f"generate.generate_graphs.bip_n{n}", item):
                    bip = api.generate_graphs(n, self.bipartite)
                p.counts[f"generate.generate_graphs.bip_n{n}.classes"] = len(bip)
                with tracer.span("filters.filter_graphs", item):
                    return len(api.filter_graphs(bip, self.tree))

            with tracer.span("repro.a000055", item):
                trees.append(_op(p, item, tree_row))
        p.parts["a000055_s"] = (middle, perf_counter())

        p.out["er"] = self._er_text(p, tracer, self.er_max, self.trials, self.seed)
        p.out["census"], p.out["trees"] = census, trees

    def check(self, p: Pass) -> tuple[int, list[str]]:
        failures = []
        for name, got, want in (("a000088", p.out["census"], A000088), ("a000055", p.out["trees"], A000055)):
            for n, (g, w) in enumerate(zip(got, want), start=1):
                if g != w:
                    failures.append(f"{name} n={n}: {g} classes, expected {w}")
        checks = len(p.out["census"]) + len(p.out["trees"]) + 1
        if self.census_max == 8:
            checks += 1
            lines = p.out["last_census"] or []
            if sha256("".join(line + "\n" for line in lines)) != GEN8_SHA256:
                failures.append("gen 8 output does not match its golden sha256")
        if (self.er_max, self.trials, self.seed) == ER_GOLDEN:
            er = p.out["er"]
        else:
            er = self._er_text(Pass(), NullTracer(), *ER_GOLDEN)
        if sha256(er) != ER_SHA256:
            failures.append("er-connectivity --max-n 30 --trials 100 --seed 1 does not match its golden sha256")
        return checks, failures


# --- stream ------------------------------------------------------------------

FILTER_SPECS = (
    ("trees", "NumCycles=0,!Connectivity=0"),
    ("girth", "Girth=3..4"),
    ("kappa", "Connectivity=2..3"),
    ("bipartite", "Bipartite=true"),
)


class Stream:
    """Three CLI-like pipelines over a seeded Graph6/Sparse6 corpus."""

    name = "stream"

    def __init__(self, api, seed: int, tiny: bool = False) -> None:
        self.api = api
        self.seed = seed
        self.tiny = tiny
        self.lines = inputs.stream_corpus(seed, inputs.TINY_STREAM_CLASSES if tiny else inputs.STREAM_CLASSES)
        self.texts = [line.text for line in self.lines]
        self.decode_spans = ["codec.decode_s6" if t.startswith(":") else "codec.decode" for t in self.texts]
        self.filters = [(name, api.parse_filter_spec(spec)) for name, spec in FILTER_SPECS]

    def warm_up(self, tracer) -> None:
        small = [i for i, line in enumerate(self.lines) if line.size_class == "small"]
        self._pipelines(Pass(), tracer, small[:40])

    def run_pass(self, p: Pass, tracer) -> None:
        self._pipelines(p, tracer, range(len(self.lines)))

    def _pipelines(self, p: Pass, tracer, indices) -> None:
        api = self.api
        clock = perf_counter
        texts, decode_spans = self.texts, self.decode_spans
        decode, canonical_label, encode, evaluate = api.decode, api.canonical_label, api.encode_graph6, api.evaluate
        indices = list(indices)

        labels, rows = [], []

        def label(i: int) -> str:
            with tracer.span(decode_spans[i], i):
                g = decode(texts[i])
            rows.append(g.rows)
            with tracer.span("canon.canonical_label", i):
                result = canonical_label(g)
            p.canon.append((i, result.leaf_count, len(result.automorphism_generators)))
            with tracer.span("codec.encode_graph6", i):
                return encode(result.canonical_graph)

        begin = clock()
        for i in indices:
            with tracer.span("stream.label", i):
                labels.append(_op(p, f"label/{i}", lambda: label(i)))
        p.parts["label_s"] = (begin, clock())

        seen, kept = set(), []

        def short(i: int) -> None:
            with tracer.span(decode_spans[i], i):
                g = decode(texts[i])
            with tracer.span("canon.canonical_label", i):
                result = canonical_label(g)
            p.canon.append((i, result.leaf_count, len(result.automorphism_generators)))
            if result.canonical_graph not in seen:
                seen.add(result.canonical_graph)
                kept.append(i)

        begin = clock()
        for i in indices:
            with tracer.span("stream.short", i):
                _op(p, f"short/{i}", lambda: short(i))
        p.parts["short_s"] = (begin, clock())

        verdicts = {}
        begin = clock()
        for name, graph_filter in self.filters:
            span_name = f"filters.evaluate.{name}"

            def pick(i: int) -> bool:
                with tracer.span(decode_spans[i], i):
                    g = decode(texts[i])
                with tracer.span(span_name, i):
                    return evaluate(graph_filter, g)

            verdicts[name] = out = []
            for i in indices:
                with tracer.span("stream.filter", i):
                    out.append(_op(p, f"{name}/{i}", lambda: pick(i)))
        p.parts["filter_s"] = (begin, clock())
        p.counts.update(label_lines=len(indices), short_lines=len(indices), filter_evals=len(indices) * len(self.filters))
        p.out.update(labels=labels, rows=rows, kept=kept, verdicts=verdicts)

    def outputs(self, p: Pass) -> dict[str, str]:
        """The text each pipeline writes, as the CLI would print it."""
        texts = self.texts
        picked = "".join(
            f"# {name}\n" + "".join(texts[i] + "\n" for i, keep in enumerate(p.out["verdicts"][name]) if keep)
            for name, _ in FILTER_SPECS
        )
        return {
            "label": "".join(f"{label}\n" for label in p.out["labels"]),
            "short": "".join(texts[i] + "\n" for i in p.out["kept"]),
            "filter": picked,
        }

    def check(self, p: Pass) -> tuple[int, list[str]]:
        failures = []
        labels, verdicts = p.out["labels"], p.out["verdicts"]
        decoded = p.out["rows"]
        checks = 0
        if len(decoded) != len(self.lines):
            failures.append(f"decoded {len(decoded)} of {len(self.lines)} lines")
        for i, (line, got) in enumerate(zip(self.lines, decoded)):
            checks += 1
            if got != line.rows:
                failures.append(f"line {i}: decoded adjacency differs from the written graph")
        for i, line in enumerate(self.lines):
            if line.base is None:
                continue
            checks += 1 + len(verdicts)
            if labels[i] is None or labels[i] != labels[line.base]:
                failures.append(f"line {i}: label differs from its base line {line.base}")
            for name, out in verdicts.items():
                if out[i] is None or out[i] != out[line.base]:
                    failures.append(f"line {i}: {name} verdict differs from its base line {line.base}")
        first: dict[str, int] = {}
        for i, lab in enumerate(labels):
            first.setdefault(lab, i)
        checks += 1
        if p.out["kept"] != sorted(first.values()):
            failures.append("short did not keep exactly the first line of each distinct label")
        if self.seed == DEFAULT_SEED and not self.tiny:
            with open(DIGESTS_FILE, encoding="utf-8") as fh:
                recorded = json.load(fh)
            for name, text in self.outputs(p).items():
                checks += 1
                if sha256(text) != recorded[name]:
                    failures.append(f"{name} output digest differs from the one recorded for seed {DEFAULT_SEED}")
        return checks, failures


# --- symmetric ---------------------------------------------------------------

CASE_BUDGET_S = 10.0


class OverBudget(Exception):
    """A ladder case ran past its time budget."""


def _alarm(signum, frame):
    raise OverBudget


def call_with_budget(fn, arg, seconds: float):
    """fn(arg), interrupted by SIGALRM after the given seconds."""
    if seconds <= 0:
        raise OverBudget
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(arg)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Symmetric:
    """`canonical_label` on two seeded relabellings of each ladder case."""

    name = "symmetric"

    def __init__(self, api, seed: int, tiny: bool = False) -> None:
        self.api = api
        self.deadline = math.inf
        rng = random.Random(seed)
        self.cases = []
        for family, case, build in inputs.TINY_LADDER if tiny else inputs.LADDER:
            n, edges = build()
            graph = api.Graph.from_edges(n, edges)
            relabelled = [api.permute_graph(graph, api.Permutation(tuple(inputs.random_image(rng, n)))) for _ in range(2)]
            self.cases.append((family, case, relabelled))

    def warm_up(self, tracer) -> None:
        firsts = {}
        for family, _, graphs in self.cases:
            firsts.setdefault(family, graphs[0])
        for graph in firsts.values():
            self.api.canonical_label(graph)

    def run_pass(self, p: Pass, tracer) -> None:
        canonical_label = self.api.canonical_label
        results = []
        for family, case, graphs in self.cases:
            pair = []
            for r, graph in enumerate(graphs):
                item = f"{family}/{case}/{r}"

                def label():
                    with tracer.span("canon.canonical_label", item):
                        return call_with_budget(canonical_label, graph, min(CASE_BUDGET_S, self.deadline - perf_counter()))

                result = _op(p, item, label)
                if result is not None:
                    p.canon.append((item, result.leaf_count, len(result.automorphism_generators)))
                pair.append(result)
            results.append(pair)
        p.out["results"] = results

    def check(self, p: Pass) -> tuple[int, list[str]]:
        permute_graph = self.api.permute_graph
        failures = []
        checks = 0
        for (family, case, graphs), pair in zip(self.cases, p.out["results"]):
            checks += 1
            if any(r is None for r in pair):
                failures.append(f"{case}: no result (see the operation errors)")
                continue
            if pair[0].canonical_graph != pair[1].canonical_graph:
                failures.append(f"{case}: the two relabellings have different canonical graphs")
            for graph, result in zip(graphs, pair):
                checks += 1
                if any(permute_graph(graph, gen) != graph for gen in result.automorphism_generators):
                    failures.append(f"{case}: a returned generator is not an automorphism")
        return checks, failures

WORKLOADS = {cls.name: cls for cls in (Repro, Stream, Symmetric)}
