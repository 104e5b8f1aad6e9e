"""Alternating A/B runs of the benchmark: a parent revision against the working tree.

    python3 tools/bench_pairs.py PARENT_REV --out BENCH.json

Run from anywhere inside a git checkout.  PARENT_REV is exported with
``git archive`` into a temporary directory.  For each workload that
``BENCHMARK.json`` lists, ``perfbench/run.py --workload WORKLOAD --seed 1``
runs ``PAIRS`` times in the parent tree and ``PAIRS`` times in the working
tree, alternately, with the first side of each pair flipped from one pair to
the next.  Each tree runs its own ``perfbench/`` and its own ``src/``.

The JSON written to ``--out`` holds every run's result line (the last line
``run.py`` prints) and its pass count (from
``.perfbench/<workload>-seed1-trace0.json``), and, per workload and
end-to-end metric, each side's median and quartiles, the number of pairs
the working tree won, the relative change of the median and whether it is
worse than the metric's ``bound`` in ``BENCHMARK.json`` (``over_bound``),
next to each side's failed operations, whether every run was correct, and
each side's pass-count median and quartiles.  A run that exits non-zero is
kept with its exit code and the last lines of its stderr, counts as not
correct, and the pairs go on; metrics are summarised over the pairs whose
two runs both finished.  After its pairs,
each side of a workload runs once more with ``--trace 1``; ``layers`` holds
every per-layer metric of those two runs side by side (None for a side whose
traced run failed), and ``traced`` each side's run.  It exits 1 when any run,
traced or not, was not correct.  The working tree is named by ``provenance``,
and ``src_lines`` gives each tree's line count of ``src/gcanon/*.py``, the
net line count that a change reports next to its numbers; one stderr line,
``src_lines PARENT -> CHANGE (+N)``, says the same before the runs start.
``src_code_lines`` counts only the lines that are not blank, comment-only or
docstring lines, so that deleted comments do not read as a smaller program,
and its own stderr line, ``src_code_lines PARENT -> CHANGE (+N)``, follows.
After the pairs, one ``claim:`` stderr line per workload and end-to-end metric
gives the figures a gain claim is judged by: both medians, the median change,
the change's wins out of the pairs and the parent's IQR as a share of its
median, then both pass-count medians, and ``OVER BOUND`` with the bound when
``over_bound`` is set.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import glob
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

SIDES = ("parent", "change")
SEED = 1  # of every run; each BENCH file records it in its command
PAIRS = 10  # per workload: at 3 pairs, a workload that did not move read +4.8% (BENCH_19.json)
STDERR_LINES = 20  # kept from a run that exits non-zero


def git(root: str, *args: str) -> bytes:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True).stdout


def export(root: str, rev: str, into: str) -> None:
    """Writes the files of rev, as committed, under into."""
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", "--format=tar", rev))) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def provenance(root: str) -> dict:
    """The working tree: its HEAD, whether it differs from HEAD, and the sha256 of the difference.

    The difference is ``git diff HEAD`` and then each untracked file that is
    not ignored, by name and content, since a run measures those files too.
    """
    listed = git(root, "ls-files", "--others", "--exclude-standard", "-z")
    untracked = [name for name in listed.split(b"\0") if name]
    digest = hashlib.sha256(git(root, "diff", "--binary", "HEAD"))
    for name in untracked:
        with open(os.path.join(root, os.fsdecode(name)), "rb") as fh:
            digest.update(b"\0" + name + b"\0" + fh.read())
    return {
        "head": git(root, "rev-parse", "HEAD").decode().strip(),
        "dirty": bool(git(root, "status", "--porcelain").strip()),
        "untracked": len(untracked),
        "diff_sha256": digest.hexdigest(),
    }


def src_lines(tree: str) -> int:
    """The number of lines in the files src/gcanon/*.py of tree."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "gcanon", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def src_code_lines(tree: str) -> int:
    """The number of lines in the files src/gcanon/*.py of tree that are not
    blank, comment-only or part of a docstring, which ``ast`` finds."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "gcanon", "*.py")):
        with open(path, "rb") as fh:
            source = fh.read()
        documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, documented) and ast.get_docstring(node) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for lineno, line in enumerate(source.splitlines(), start=1):
            text = line.strip()
            total += bool(text) and not text.startswith(b"#") and lineno not in docstrings
    return total


def run_once(tree: str, workload: str, trace: int = 0) -> dict:
    """One benchmark run in tree, at the benchmark's own length: its result line and its pass count.

    A run that exits non-zero has no result: its exit code and the end of its stderr instead.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        return {"result": None, "exit_code": done.returncode, "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
    with open(os.path.join(tree, ".perfbench", f"{workload}-seed{SEED}-trace{trace}.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "result": json.loads(done.stdout.strip().splitlines()[-1]),
        "passes": report["passes"],
        "loadavg_1m": report["environment"]["loadavg_1m"],
    }


def correct(run: dict) -> bool:
    return run["result"] is not None and run["result"]["correct"]


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's spread and the pairs the change won (ties count for neither).

    A win only counts beside ``failed`` and ``correct``: each side's failed
    operations over its finished runs, and whether every one of its runs
    finished and passed.  Only pairs whose two runs finished are summarised,
    and ``passes`` gives each side's pass-count spread over them: a side that
    fits more passes in the window retains more of them, which raises
    ``peak_rss_mb``.
    """
    result = {(r["pair"], r["side"]): r["result"] for r in runs if r["result"] is not None}
    out = {
        side: {
            "failed": sum(res["failed"] for (_, s), res in result.items() if s == side),
            "correct": all(correct(r) for r in runs if r["side"] == side),
        }
        for side in SIDES
    }
    pairs = sorted(p for p, side in result if side == "parent" and (p, "change") in result)
    if not pairs:
        return out
    out["passes"] = {
        side: spread([r["passes"] for r in runs if r["side"] == side and r["pair"] in pairs]) for side in SIDES
    }
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        parent = [result[p, "parent"]["metrics"][name]["value"] for p in pairs]
        change = [result[p, "change"]["metrics"][name]["value"] for p in pairs]
        out[name] = {
            "parent": spread(parent),
            "change": spread(change),
            "change_wins": sum(sign * (c - a) < 0 for a, c in zip(parent, change)),
            "pairs": len(pairs),
        }
        a, c = out[name]["parent"]["median"], out[name]["change"]["median"]
        out[name]["median_change"] = (c - a) / a if a else None
        out[name]["over_bound"] = sign * (c - a) > metric["bound"] * abs(a)
    return out


def claim_figures(summary: dict) -> str:
    """What a gain claim is judged by: both medians, the median change, the
    change's wins out of the pairs, and the parent's IQR as a share of its median."""
    parent, change = summary["parent"], summary["change"]
    moved = "from 0" if summary["median_change"] is None else f"{summary['median_change']:+.1%}"
    iqr = f"{(parent['q3'] - parent['q1']) / parent['median']:.1%}" if parent["median"] else "undefined"
    return (
        f"median {parent['median']:.4g} -> {change['median']:.4g} ({moved}), "
        f"change wins {summary['change_wins']} of {summary['pairs']}, parent IQR {iqr} of its median"
    )


def layers(traced: dict[str, dict]) -> dict:
    """Each per-layer metric of the traced runs: its unit and each side's value, None where that run failed."""
    out: dict[str, dict] = {}
    for side in SIDES:
        result = traced[side]["result"]
        for name, metric in (result["metrics"] if result else {}).items():
            out.setdefault(name, {"unit": metric["unit"], **dict.fromkeys(SIDES)})[side] = metric["value"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="the revision to compare against, e.g. HEAD~1")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    root = git(os.getcwd(), "rev-parse", "--show-toplevel").decode().strip()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = declared["end_to_end"]
    bench = {
        "command": f"python3 perfbench/run.py --workload W --seed {SEED}",
        "parent": git(root, "rev-parse", args.parent).decode().strip(),
        "change": provenance(root),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as parent_tree:
        export(root, args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": root}
        lines = bench["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        print(f"src_lines {lines['parent']} -> {lines['change']} ({lines['change'] - lines['parent']:+d})", file=sys.stderr)
        code = bench["src_code_lines"] = {side: src_code_lines(tree) for side, tree in trees.items()}
        print(f"src_code_lines {code['parent']} -> {code['change']} ({code['change'] - code['parent']:+d})", file=sys.stderr)
        for workload in (w["name"] for w in declared["workloads"]):
            runs = []
            for pair in range(PAIRS):
                for order, side in enumerate(SIDES if pair % 2 == 0 else SIDES[::-1]):
                    run = run_once(trees[side], workload)
                    runs.append({"pair": pair, "side": side, "order": order, **run})
                    if run["result"] is None:
                        said = f"exit {run['exit_code']}"
                    else:
                        said = f"wall_s {run['result']['metrics']['wall_s']['value']:.4g}, passes {run['passes']}"
                    print(f"{workload} pair {pair} {side}: {said}", file=sys.stderr)
            traced = {side: run_once(trees[side], workload, trace=1) for side in SIDES}
            for side, run in traced.items():
                print(f"{workload} traced {side}: {'correct' if correct(run) else 'not correct'}", file=sys.stderr)
            bench["workloads"][workload] = {
                "summary": summarise(runs, metrics),
                "layers": layers(traced),
                "traced": traced,
                "runs": runs,
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for workload, entry in bench["workloads"].items():
        for metric in metrics:
            summary = entry["summary"].get(metric["name"])
            if summary:
                passes = " -> ".join(f"{entry['summary']['passes'][side]['median']:g}" for side in SIDES)
                tag = f", OVER BOUND {metric['bound']:.0%}" if summary["over_bound"] else ""
                print(f"claim: {workload} {metric['name']} {claim_figures(summary)}, passes {passes}{tag}", file=sys.stderr)
    wrong = [w for w, entry in bench["workloads"].items() if not all(map(correct, [*entry["runs"], *entry["traced"].values()]))]
    if wrong:
        print(f"runs not correct on: {', '.join(wrong)}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
