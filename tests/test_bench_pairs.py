"""tools/bench_pairs.py on a stub repository whose benchmark fails its first run in each tree."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

STUB_RUN = """\
import json, os, sys
workload, seed = sys.argv[sys.argv.index("--workload") + 1], sys.argv[sys.argv.index("--seed") + 1]
os.makedirs(".perfbench", exist_ok=True)
if not os.path.exists(".perfbench/ran"):
    open(".perfbench/ran", "w").close()
    print("stub: first run fails", file=sys.stderr)
    sys.exit(3)
with open(f".perfbench/{workload}-seed{seed}-trace0.json", "w") as fh:
    json.dump({"passes": 2, "environment": {"loadavg_1m": 0.0}}, fh)
print(json.dumps({"metrics": {"wall_s": {"value": 1.0}}, "correct": True, "failed": 0}))
"""


def test_bench_pairs_keeps_finished_pairs_when_a_run_fails(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    for args in (["init", "-q"], ["add", "-A"], ["-c", "user.name=stub", "-c", "user.email=stub@example.com", "commit", "-qm", "stub"]):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"), "HEAD", "symmetric:2", "--out", str(out)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    entry = json.loads(out.read_text())["workloads"]["symmetric"]
    first, later = entry["runs"][:2], entry["runs"][2:]
    assert [r["side"] for r in first] == ["parent", "change"]
    for run in first:
        assert run["result"] is None and run["exit_code"] == 3
        assert run["stderr_tail"] == ["stub: first run fails"]
    assert [r["result"]["correct"] for r in later] == [True, True]
    summary = entry["summary"]
    assert summary["parent"] == summary["change"] == {"failed": 0, "correct": False}
    assert summary["wall_s"]["pairs"] == 1
