"""Run the mutation catalogue: every mutant must fail the tests it names.

    python3 tools/mutants.py

Each entry of ``tools/mutants.json`` names a file under ``src/``, an anchor
text that occurs in it exactly once, the anchor's replacement, and the tests
expected to fail, as pytest node ids; an id without parameters fails when
any of its cases fails.  Each mutant is written into its own temporary copy
of ``src/``, and its tests run from this checkout with ``PYTHONPATH`` set to
that copy, at most two mutants at a time.  A mutant is killed when each
of its tests fails.  One line per mutant says what happened; the run exits 1
when a mutant survives, a named test did not run, or a run broke in another
way.  Standard library only.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "tools", "mutants.json")
WORKERS = 2
TIMEOUT_S = 900  # per mutant; its tests carry their own deadlines, this only stops a hang


def load() -> list[dict]:
    with open(CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def anchor_count(mutant: dict) -> int:
    """How often the mutant's anchor occurs in its file in this checkout."""
    return read(os.path.join(ROOT, mutant["file"])).count(mutant["anchor"])


def failed_cases(report: str) -> dict[str, bool]:
    """Whether each test case in a JUnit XML report failed, by node id (file::name).

    A file that fails to collect is a case with no class name, under its module name.
    """
    cases = {}
    for case in ET.parse(report).iter("testcase"):
        module, name = case.get("classname"), case.get("name")
        node = module.replace(".", "/") + ".py::" + name if module else name
        cases[node] = any(child.tag in ("failure", "error") for child in case)
    return cases


def verdict(tests: list[str], cases: dict[str, bool]) -> str:
    """'killed' when every test failed in some case, else what went wrong."""
    ran = {test: [failed for node, failed in cases.items() if node == test or node.startswith(test + "[")] for test in tests}
    missing = [test for test, results in ran.items() if not results]
    if missing:
        return "did not run: " + ", ".join(missing)
    passed = [test for test, results in ran.items() if not any(results)]
    return "SURVIVED, passed: " + ", ".join(passed) if passed else "killed"


def run(mutant: dict) -> str:
    """The verdict on one mutant, from its tests on a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(tmp, "src"), ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(tmp, mutant["file"])
        text = read(path)
        count = text.count(mutant["anchor"])
        if count != 1:
            return f"anchor occurs {count} times"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant["anchor"], mutant["replacement"]))
        report = os.path.join(tmp, "report.xml")
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *mutant["tests"]]
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
        if done.returncode not in (0, 1) or not os.path.exists(report):
            return f"pytest exit {done.returncode}: " + " | ".join(done.stdout.splitlines()[-3:])
        return verdict(mutant["tests"], failed_cases(report))


def timed(mutant: dict) -> tuple[str, float]:
    began = time.perf_counter()
    return run(mutant), time.perf_counter() - began


def main() -> int:
    mutants = load()
    start = time.perf_counter()
    bad = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=WORKERS) as pool:
        futures = {pool.submit(timed, m): m for m in mutants}
        for future in concurrent.futures.as_completed(futures):
            said, seconds = future.result()
            bad += said != "killed"
            print(f"{futures[future]['name']}: {said} ({seconds:.1f} s)", flush=True)
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
