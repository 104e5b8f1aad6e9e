"""Benchmark of gcanon: one workload per run, in one process, with no threads.

    python3 perfbench/run.py --workload repro|stream|symmetric --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Set-up (import, input building, warm-up) is repeated
``SETUP_REPEATS`` times and its median reported.  The timed phase then runs
untraced passes until the next one would end after ``--seconds``, at least
one.  With ``--trace 1`` one more pass runs with spans recorded, and the
per-layer metrics come from it.  Outputs of every pass are checked afterwards.
Every time is reported in reference seconds (see ``meter.py``).

The report, with the environment and every metric, and the spans of a traced
run are written under ``.perfbench/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics untraced, the per-layer metrics traced).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 150.0  # symmetric cases still running after this are over budget

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from meter import Meter  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402

# --- metric names: BENCHMARK.json lists exactly these ------------------------

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)

ITEM_SPANS = (
    "codec.decode",
    "codec.decode_s6",
    "codec.encode_graph6",
    "canon.canonical_label",
    "generate.generate_random_graphs",
    *(f"filters.evaluate.{name}" for name, _ in workloads.FILTER_SPECS),
)
LEVEL_SPANS = (
    *(f"generate.generate_graphs.n{k}" for k in range(5, 9)),
    *(f"generate.generate_graphs.bip_n{k}" for k in range(6, 11)),
)
CANON_VALUES = (("leaves", "count"), ("generators", "count"), ("us_per_leaf", "us"), ("multi_leaf_share", "ratio"))
WORKLOAD_VALUES = (
    ("a000088_s", "s", "lower"),
    ("a000055_s", "s", "lower"),
    ("label_per_s", "1/s", "higher"),
    ("short_per_s", "1/s", "higher"),
    ("filter_per_s", "1/s", "higher"),
    ("canon_p50_ms", "ms", "lower"),
    ("canon_tail_ms", "ms", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span in ITEM_SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower"), (f"{span}.p50_us", "us", "lower")]
    for span in LEVEL_SPANS:
        out += [(f"{span}.self_s", "s", "lower"), (f"{span}.classes", "count", "higher")]
    out += [("filters.filter_graphs.calls", "count", "lower"), ("filters.filter_graphs.self_s", "s", "lower")]
    out += [(f"canon.{value}", unit, "lower") for value, unit in CANON_VALUES]
    for family in workloads.inputs.FAMILIES:
        prefix = f"canon.canonical_label.{family}"
        out.append((f"{prefix}.self_s", "s", "lower"))
        out += [(f"{prefix}.{value}", unit, "lower") for value, unit in CANON_VALUES]
    out += [(f"filters.evaluate.{name}.match_share", "ratio", "higher") for name, _ in workloads.FILTER_SPECS]
    out += [("stream.short.kept_share", "ratio", "lower"), ("trace.overhead", "ratio", "lower")]
    out += list(WORKLOAD_VALUES)
    return out


# --- environment -------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, trace: bool) -> dict:
    try:
        load1 = os.getloadavg()[0]  # the first field of /proc/loadavg
    except OSError:
        load1 = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "trace": trace,
        "loadavg_1m": load1,
    }


# --- statistics --------------------------------------------------------------


def tail_percentile(samples_per_pass: int) -> int:
    """The highest whole percentile with at least 10 samples of a pass beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples_per_pass))) if samples_per_pass else 50


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# --- the run -----------------------------------------------------------------


def import_api():
    """A fresh import of gcanon from the checkout's src/, timed with set-up."""
    for name in [m for m in sys.modules if m == "gcanon" or m.startswith("gcanon.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    api = importlib.import_module("gcanon")
    if not os.path.abspath(api.__file__).startswith(SRC + os.sep):
        raise ImportError(f"gcanon was imported from {api.__file__}, not from {SRC}")
    return api


def set_up(name: str, seed: int, tiny: bool):
    """Import, build the inputs and warm up; repeated, the last one is used.

    Returns the workload and the reference seconds of each repetition.
    """
    meter = Meter()
    intervals = []
    with meter:
        for _ in range(SETUP_REPEATS):
            gc.collect()
            meter.probe()
            start = perf_counter()
            api = import_api()
            workload = workloads.WORKLOADS[name](api, seed, tiny)
            workload.warm_up(NullTracer())
            intervals.append((start, perf_counter()))
    return workload, [meter.reference(*interval) for interval in intervals]


def timed_pass(workload, tracer) -> workloads.Pass:
    """One pass with its meter probing; ``wall`` spans the whole pass."""
    p = workloads.Pass()
    gc.collect()
    with p.meter:
        start = perf_counter()
        workload.run_pass(p, tracer)
        p.wall = (start, perf_counter())
    return p


def timed_passes(workload, seconds: float) -> list:
    passes = []
    start = perf_counter()
    while True:
        passes.append(timed_pass(workload, NullTracer()))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall[1] - p.wall[0] for p in passes) > seconds:
            return passes


def reference_s(p, interval) -> float:
    """Reference seconds of a work-clock interval of pass p."""
    return p.meter.reference(*interval)


def span_metrics(tracer: Tracer, traced) -> dict[str, float]:
    """Per-layer values of the traced pass; times in reference seconds."""
    spans = tracer.spans
    durations = [traced.meter.reference(span[1], span[2]) for span in spans]
    own = self_times(spans, durations)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)
    m: dict[str, float] = {}
    for name in ITEM_SPANS:
        idx = by_name.get(name, [])
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.self_s"] = sum(own[i] for i in idx)
        m[f"{name}.p50_us"] = 1e6 * median_or_zero([durations[i] for i in idx])
    for name in LEVEL_SPANS:
        m[f"{name}.self_s"] = sum(own[i] for i in by_name.get(name, []))
        m[f"{name}.classes"] = traced.counts.get(f"{name}.classes", 0)
    idx = by_name.get("filters.filter_graphs", [])
    m["filters.filter_graphs.calls"] = len(idx)
    m["filters.filter_graphs.self_s"] = sum(own[i] for i in idx)

    canon_time: dict[object, float] = {}
    for i in by_name.get("canon.canonical_label", []):
        item = spans[i][4]
        canon_time[item] = canon_time.get(item, 0.0) + own[i]

    def canon_values(prefix: str, calls: list[tuple[object, int, int]], seconds: float) -> None:
        leaves = sum(c[1] for c in calls)
        m[f"{prefix}.leaves"] = leaves
        m[f"{prefix}.generators"] = sum(c[2] for c in calls)
        m[f"{prefix}.us_per_leaf"] = 1e6 * seconds / leaves if leaves else 0.0
        m[f"{prefix}.multi_leaf_share"] = sum(c[1] > 1 for c in calls) / len(calls) if calls else 0.0

    canon_values("canon", traced.canon, m["canon.canonical_label.self_s"])
    for family in workloads.inputs.FAMILIES:
        prefix = f"canon.canonical_label.{family}"
        calls = [c for c in traced.canon if isinstance(c[0], str) and c[0].split("/")[0] == family]
        seconds = sum(canon_time.get(c[0], 0.0) for c in calls)
        m[f"{prefix}.self_s"] = seconds
        canon_values(prefix, calls, seconds)

    verdicts = traced.out.get("verdicts", {})
    for name, _ in workloads.FILTER_SPECS:
        out = verdicts.get(name, [])
        m[f"filters.evaluate.{name}.match_share"] = sum(v is True for v in out) / len(out) if out else 0.0
    lines = traced.counts.get("short_lines", 0)
    m["stream.short.kept_share"] = len(traced.out.get("kept", [])) / lines if lines else 0.0
    return m


def workload_values(name: str, passes: list) -> dict[str, float]:
    """One-workload end-to-end numbers, from the untraced passes; 0 where they do not apply."""
    m = {metric: 0.0 for metric, _, _ in WORKLOAD_VALUES}

    def seconds(part: str) -> float:
        return statistics.median(reference_s(p, p.parts[part]) for p in passes)

    if name == "repro":
        m["a000088_s"] = seconds("a000088_s")
        m["a000055_s"] = seconds("a000055_s")
    elif name == "stream":
        m["label_per_s"] = passes[0].counts["label_lines"] / seconds("label_s")
        m["short_per_s"] = passes[0].counts["short_lines"] / seconds("short_s")
        m["filter_per_s"] = passes[0].counts["filter_evals"] / seconds("filter_s")
    else:
        ops = op_times(passes)
        m["canon_p50_ms"] = 1e3 * statistics.median(ops)
        m["canon_tail_ms"] = 1e3 * percentile(ops, tail_percentile(len(passes[0].ops)))
    return m


def op_times(passes: list) -> list[float]:
    """Every operation time of the passes, in reference seconds."""
    return [reference_s(p, op) for p in passes for op in p.ops]


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False, out_dir: str = OUT_DIR) -> tuple[dict, dict]:
    """Run one workload; returns (the result line, the full report)."""
    env = environment(seed, trace)
    workload, setup_times = set_up(name, seed, tiny)
    if name == "symmetric":
        workload.deadline = perf_counter() + RUN_DEADLINE_S
    passes = timed_passes(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ops = op_times(passes)
    q = tail_percentile(len(passes[0].ops))
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(reference_s(p, p.wall) for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }

    tracer = per_layer = None
    all_passes = list(passes)
    if trace:
        tracer = Tracer()
        traced = timed_pass(workload, tracer)
        all_passes.append(traced)
        per_layer = span_metrics(tracer, traced)
        per_layer["trace.overhead"] = reference_s(traced, traced.wall) / end_to_end["wall_s"] - 1
        per_layer.update(workload_values(name, passes))

    attempted = failed = 0
    failures: list[str] = []
    for p in all_passes:
        checks, bad = workload.check(p)
        attempted += len(p.ops) + checks
        failed += len(p.errors) + len(bad)
        failures += p.errors + bad

    metrics = per_layer if trace else end_to_end
    units = dict((n, u) for n, u, _ in per_layer_names()) if trace else dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    report = {
        "workload": name,
        "environment": env,
        "seconds": seconds,
        "passes": len(passes),
        "ops_per_pass": len(passes[0].ops),
        "op_samples": len(ops),
        "op_tail_percentile": q,
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail_ms": 1e3 * percentile(ops, q),
        "setup_samples_s": setup_times,
        "pass_walls_s": [reference_s(p, p.wall) for p in passes],
        "pass_walls_measured_s": [p.wall[1] - p.wall[0] for p in passes],
        "probes_per_pass": [len(p.meter.points) for p in passes],
        "error_rate": failed / attempted,
        "failures": failures[:50],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    if isinstance(workload, workloads.Stream):
        report["output_sha256"] = {k: workloads.sha256(v) for k, v in workload.outputs(passes[0]).items()}
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    return result, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcanon", "__init__.py")):
        print(f"perfbench: no gcanon sources under {SRC}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} python={env['python']} nproc={env['nproc']} "
          f"git={env['git_sha'][:12]} load1={env['loadavg_1m']}")
    print(f"# passes={report['passes']} ops/pass={report['ops_per_pass']} op samples={report['op_samples']} "
          f"tail=p{report['op_tail_percentile']} setup samples={len(report['setup_samples_s'])} "
          f"error_rate={report['error_rate']:.6g}")
    print(f"# pass walls: {report['pass_walls_s']} reference s, {report['pass_walls_measured_s']} measured s")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for key, metric in result["metrics"].items():
        print(f"{key:55s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
