"""Streaming command-line frontend over line-oriented Graph6/Sparse6 text.

Streams carry one graph per line.  An optional leading ``>>graph6<<`` or
``>>sparse6<<`` header is stripped at ingestion; every other line must
decode, and failures abort with the 1-based line number.  Exit codes: 0 for
success (and a true ``iso`` answer), 1 for a false ``iso`` answer, 2 for
usage or data errors.

The ``repro`` subcommand regenerates the reference tables: graph counts
(a000088), forests (a005195) and trees (a000055), each from one generation
run restricted by a filter spec, and the random-graph connectivity
experiment around the p = log(n)/n threshold (natural logarithm).
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from typing import IO, Iterable, Iterator, NoReturn

from . import canon, codec, core, filters, generate


# repro count tables: default max n, and the filter spec generation runs under.
COUNT_TABLES = {
    "a000088": (9, ""),
    "a005195": (12, "NumCycles=0"),
    "a000055": (12, "NumCycles=0,!Connectivity=0"),
}


def er_connectivity_rows(max_n: int, trials: int, seed: int) -> tuple[list[int], list[int]]:
    """Connected-sample counts at p = 2 log(n)/n and p = log(n)/(2n), n = 2..max_n."""
    high = []
    low = []
    for n in range(2, max_n + 1):
        p = math.log(n) / n
        for p_scaled, out in ((2 * p, high), (p / 2, low)):
            samples = generate.generate_random_graphs(generate.RandomModel(n, trials, p_scaled, seed))
            out.append(sum(g.is_connected() for g in samples))
    return high, low


def format_tuple(values: Iterable[int]) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _fail(message: str, code: int = 2) -> NoReturn:
    print(f"gcanon: {message}", file=sys.stderr)
    raise SystemExit(code)


def _graph_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(stream, start=1):
        line = codec.strip_line_end(raw)
        if lineno == 1 and line.startswith((">>graph6<<", ">>sparse6<<")):
            line = line.partition("<<")[2]
            if not line:
                continue
        yield lineno, line


def _cmd_gen(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    opts = generate.GenOptions(
        only_connected=args.connected,
        only_bipartite=args.bipartite,
        min_edges=args.min_edges,
        max_edges=args.max_edges,
    )
    for line in generate.generate_graphs(args.n, opts):
        out.write(line + "\n")
    return 0


def _cmd_rand(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    model = generate.RandomModel(args.n, args.count, args.p, args.seed)
    for graph in generate.generate_random_graphs(model):
        out.write(codec.encode_graph6(graph) + "\n")
    return 0


def _cmd_label(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    for _, graph in codec.decode_numbered(_graph_lines(stdin), "line"):
        out.write(codec.graph6_from_key(graph.n, canon.search(graph.rows).key) + "\n")
    return 0


def _cmd_short(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    for line in canon.first_of_each_class(codec.decode_numbered(_graph_lines(stdin), "line")):
        out.write(line + "\n")
    return 0


def _cmd_pick(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    graph_filter = filters.parse_filter_spec(args.filter)
    matched = 0
    for line, graph in codec.decode_numbered(_graph_lines(stdin), "line"):
        if filters.evaluate(graph_filter, graph):
            matched += 1
            if args.command == "pick":
                out.write(line + "\n")
    if args.command == "count":
        out.write(f"{matched}\n")
    return 0


def _cmd_iso(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    texts = (os.fsencode(text).decode("latin-1") for text in (args.g6a, args.g6b))
    (_, g), (_, h) = codec.decode_numbered(enumerate(texts, 1), "argument")
    answer = canon.are_isomorphic(g, h)
    out.write("true\n" if answer else "false\n")
    return 0 if answer else 1


def _cmd_repro(args: argparse.Namespace, stdin: IO[str], out: IO[str]) -> int:
    name = args.experiment
    default_n, spec = COUNT_TABLES.get(name, (30, ""))
    max_n = args.max_n if args.max_n is not None else default_n
    if max_n != 0:  # 0 prints the empty table
        core.check_vertex_count(max_n)  # before the rows for every smaller n
    if name in COUNT_TABLES:
        graph_filter = filters.parse_filter_spec(spec)
        counts = (len(generate.generate_graphs(n, graph_filter)) for n in range(1, max_n + 1))
        out.write(format_tuple(counts) + "\n")
    else:  # er-connectivity; argparse restricts the choices
        generate.check_sample_count(args.trials)  # before the rows, which may build no sample
        high, low = er_connectivity_rows(max_n, args.trials, args.seed)
        out.write(f"# connected out of {args.trials} at p = 2 log(n)/n, n = 2..{max_n}\n")
        out.write(format_tuple(high) + "\n")
        out.write(f"# connected out of {args.trials} at p = log(n)/(2 n), n = 2..{max_n}\n")
        out.write(format_tuple(low) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcanon",
        description="Canonical labelling, generation, and filtering of graphs in Graph6/Sparse6 streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate all non-isomorphic graphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--connected", action="store_true")
    p.add_argument("--bipartite", action="store_true")
    p.add_argument("--min-edges", type=int, default=None, metavar="A")
    p.add_argument("--max-edges", type=int, default=None, metavar="B")
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("rand", help="sample random graphs with edge probability p")
    p.add_argument("n", type=int)
    p.add_argument("count", type=int)
    p.add_argument("p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rand)

    p = sub.add_parser("label", help="replace each stdin graph by its canonical Graph6")
    p.set_defaults(handler=_cmd_label)
    p = sub.add_parser("short", help="drop isomorphic duplicates from stdin, keeping first occurrences")
    p.set_defaults(handler=_cmd_short)

    for name, verb in (("pick", "write"), ("count", "count")):
        p = sub.add_parser(name, help=f"{verb} stdin graphs matching the filter")
        p.add_argument("--filter", default="", metavar="SPEC")
        p.set_defaults(handler=_cmd_pick)

    p = sub.add_parser("iso", help="test two graph strings for isomorphism")
    p.add_argument("g6a")
    p.add_argument("g6b")
    p.set_defaults(handler=_cmd_iso)

    p = sub.add_parser("repro", help="reprint a reference table")
    p.add_argument("experiment", choices=[*COUNT_TABLES, "er-connectivity"])
    p.add_argument("--max-n", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=_cmd_repro)
    return parser


def main(argv: list[str] | None = None, stdin: IO[str] | None = None, stdout: IO[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        stdin = stdin if stdin is not None else io.TextIOWrapper(sys.stdin.buffer, encoding="latin-1", newline="\n")
        stdout = stdout if stdout is not None else sys.stdout
        return args.handler(args, stdin, stdout)
    except BrokenPipeError:
        return 0
    except ValueError as exc:
        _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
