"""tools/bench_pairs.py on stub repositories whose benchmark prints fixed metrics."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_pairs.py")

STUB_RUN = """\
import json, os, sys
workload, seed = sys.argv[sys.argv.index("--workload") + 1], sys.argv[sys.argv.index("--seed") + 1]
trace = sys.argv[sys.argv.index("--trace") + 1]
with open("perfbench/stub.json") as fh:
    stub = json.load(fh)
os.makedirs(".perfbench", exist_ok=True)
if stub["fail_first"] and not os.path.exists(".perfbench/ran"):
    open(".perfbench/ran", "w").close()
    print("stub: first run fails", file=sys.stderr)
    sys.exit(3)
with open(f".perfbench/{workload}-seed{seed}-trace{trace}.json", "w") as fh:
    json.dump({"passes": stub["passes"], "environment": {"loadavg_1m": 0.0}}, fh)
values = stub["layers"] if trace == "1" else stub["metrics"]
metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
print(json.dumps({"metrics": metrics, "correct": True, "failed": 0}))
"""


def bench_stub(tmp_path, end_to_end, parent, change=None, fail_first=False, passes=(2, 2), layers=({}, {})):
    """Commit a stub benchmark printing the parent metrics, leave the working tree printing the change ones, run the tool.

    Each side's runs report its entry of passes as their pass count, and its
    traced run its entry of layers as the per-layer metrics.  The parent's
    src/gcanon holds nine lines in two files, four of them code, and the
    change drops a blank line, a comment and one line of code from core.py.
    """
    os.makedirs(tmp_path / "perfbench")
    os.makedirs(tmp_path / "src" / "gcanon")
    (tmp_path / "src" / "gcanon" / "core.py").write_text('"""Doc\nstring."""\nx = 1\n\n# note\ny = 2\n')
    (tmp_path / "src" / "gcanon" / "cli.py").write_text('def z():\n    """Doc."""\n    return 3  # trailing\n')
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"workloads": [{"name": "symmetric"}], "end_to_end": end_to_end}))
    stub = tmp_path / "perfbench" / "stub.json"
    stub.write_text(json.dumps({"fail_first": fail_first, "metrics": parent, "passes": passes[0], "layers": layers[0]}))
    commit_all(tmp_path)
    stub.write_text(json.dumps({"fail_first": fail_first, "metrics": change or parent, "passes": passes[1], "layers": layers[1]}))
    (tmp_path / "src" / "gcanon" / "core.py").write_text('"""Doc\nstring."""\nx = 1\n')
    out = tmp_path / "pairs.json"
    proc = subprocess.run([sys.executable, TOOL, "HEAD", "--out", str(out)], cwd=tmp_path, capture_output=True, text=True)
    return proc, json.loads(out.read_text())["workloads"]["symmetric"]


def commit_all(root):
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=stub", "-c", "user.email=stub@example.com", "commit", "-qm", "stub"]):
        subprocess.run(["git", *args], cwd=root, check=True, capture_output=True)


def test_bench_pairs_keeps_finished_pairs_when_a_run_fails(tmp_path):
    proc, entry = bench_stub(tmp_path, [{"name": "wall_s", "better": "lower", "bound": 0.25}], {"wall_s": 1.0}, fail_first=True)
    assert proc.returncode == 1, proc.stderr
    first, later = entry["runs"][:2], entry["runs"][2:]
    assert [r["side"] for r in first] == ["parent", "change"]
    for run in first:
        assert run["result"] is None and run["exit_code"] == 3
        assert run["stderr_tail"] == ["stub: first run fails"]
    assert [r["result"]["correct"] for r in later] == [True] * 18
    summary = entry["summary"]
    assert summary["parent"] == summary["change"] == {"failed": 0, "correct": False}
    assert summary["wall_s"]["pairs"] == 9
    # Ties count for neither side, and a pair with a failed run is not counted.
    assert "claim: symmetric wall_s median 1 -> 1 (+0.0%), change wins 0 of 9, parent IQR 0.0% of its median" in proc.stderr
    assert summary["passes"] == {side: {"median": 2, "q1": 2, "q3": 2} for side in ("parent", "change")}
    # Every run takes the one seed that the BENCH files record.
    assert json.loads((tmp_path / "pairs.json").read_text())["command"] == "python3 perfbench/run.py --workload W --seed 1"


def test_bench_pairs_flags_a_metric_over_its_bound(tmp_path):
    # A peak_rss_mb rise that comes with more retained passes reads off the
    # summary and the stderr line alike.
    end_to_end = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "per_s", "better": "higher", "bound": 0.1},
    ]
    parent = {"wall_s": 2.0, "peak_rss_mb": 20.0, "per_s": 100.0}
    change = {"wall_s": 1.0, "peak_rss_mb": 23.0, "per_s": 150.0}
    proc, entry = bench_stub(tmp_path, end_to_end, parent, change, passes=(4, 6))
    assert proc.returncode == 0, proc.stderr
    summary = entry["summary"]
    assert (summary["wall_s"]["median_change"], summary["wall_s"]["over_bound"]) == (-0.5, False)
    assert summary["peak_rss_mb"]["median_change"] == 0.15 and summary["peak_rss_mb"]["over_bound"]
    assert (summary["per_s"]["median_change"], summary["per_s"]["over_bound"]) == (0.5, False)
    assert summary["passes"] == {"parent": {"median": 4, "q1": 4, "q3": 4}, "change": {"median": 6, "q1": 6, "q3": 6}}
    # One claim line per end-to-end metric, in the order BENCHMARK.json lists
    # them; the one over its bound carries the tag.
    assert [line for line in proc.stderr.splitlines() if line.startswith("claim")] == [
        "claim: symmetric wall_s median 2 -> 1 (-50.0%), change wins 10 of 10, parent IQR 0.0% of its median, passes 4 -> 6",
        "claim: symmetric peak_rss_mb median 20 -> 23 (+15.0%), change wins 0 of 10, parent IQR 0.0% of its median,"
        " passes 4 -> 6, OVER BOUND 10%",
        "claim: symmetric per_s median 100 -> 150 (+50.0%), change wins 10 of 10, parent IQR 0.0% of its median, passes 4 -> 6",
    ]


def test_bench_pairs_keeps_each_sides_traced_layers(tmp_path):
    # After the pairs, one --trace 1 run per side; its per-layer metrics sit
    # side by side, a metric only one side reports reads None on the other.
    layers = ({"codec.decode.self_s": 0.13, "old.self_s": 1.0}, {"codec.decode.self_s": 0.05, "new.self_s": 2.0})
    proc, entry = bench_stub(tmp_path, [{"name": "wall_s", "better": "lower", "bound": 0.25}], {"wall_s": 1.0}, layers=layers)
    assert proc.returncode == 0, proc.stderr
    assert entry["layers"] == {
        "codec.decode.self_s": {"unit": "s", "parent": 0.13, "change": 0.05},
        "old.self_s": {"unit": "s", "parent": 1.0, "change": None},
        "new.self_s": {"unit": "s", "parent": None, "change": 2.0},
    }
    assert [entry["traced"][side]["result"]["correct"] for side in ("parent", "change")] == [True, True]
    assert len(entry["runs"]) == 20
    bench = json.loads((tmp_path / "pairs.json").read_text())
    assert (bench["src_lines"], bench["src_code_lines"]) == ({"parent": 9, "change": 6}, {"parent": 4, "change": 3})
    assert [line for line in proc.stderr.splitlines() if line.startswith("src_")] == [
        "src_lines 9 -> 6 (-3)",
        "src_code_lines 4 -> 3 (-1)",
    ]


def test_provenance_hashes_untracked_files(tmp_path):
    # A new source file that is not committed yet is measured, so it makes the
    # tree dirty and enters the hash; an ignored file does neither.
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    (tmp_path / ".gitignore").write_text("build/\n")
    commit_all(tmp_path)
    clean = tool.provenance(str(tmp_path))
    assert (clean["dirty"], clean["untracked"]) == (False, 0)
    assert clean["diff_sha256"] == hashlib.sha256(b"").hexdigest()
    os.makedirs(tmp_path / "build")
    (tmp_path / "build" / "out.txt").write_text("ignored")
    assert tool.provenance(str(tmp_path)) == clean
    (tmp_path / "new.py").write_text("x = 1\n")
    added = tool.provenance(str(tmp_path))
    assert (added["dirty"], added["untracked"]) == (True, 1)
    (tmp_path / "new.py").write_text("x = 2\n")
    assert tool.provenance(str(tmp_path))["diff_sha256"] not in (clean["diff_sha256"], added["diff_sha256"])


def test_claim_figures_give_the_parents_iqr_as_a_share_of_its_median():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    summary = {
        "parent": {"median": 0.8, "q1": 0.79, "q3": 0.83},
        "change": {"median": 0.64, "q1": 0.63, "q3": 0.66},
        "change_wins": 9,
        "pairs": 10,
        "median_change": -0.2,
    }
    assert tool.claim_figures(summary) == "median 0.8 -> 0.64 (-20.0%), change wins 9 of 10, parent IQR 5.0% of its median"
    zero = {**summary, "parent": {"median": 0, "q1": 0, "q3": 0}, "median_change": None}
    assert tool.claim_figures(zero) == "median 0 -> 0.64 (from 0), change wins 9 of 10, parent IQR undefined of its median"
