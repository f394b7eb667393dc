#!/usr/bin/env python3
"""Self-test of the benchmark:  python3 perfbench/selftest.py

1. Runs every workload of BENCHMARK.json on a one-block suite (``--smoke``),
   untraced and traced, and asserts that every metric BENCHMARK.json names
   is printed on its own line with its unit and appears, with the same unit,
   in the JSON summary on the last line.
2. Runs every workload with one expected verdict deliberately inverted
   (``--flip-expected``) and asserts that the run exits non-zero without
   printing a summary.
3. Runs ``exact-search``, untraced and traced, with a state budget of 1 in
   every child (``--state-budget 1``), so the searches exit 3, and asserts
   that the run exits non-zero without printing a summary.
4. Runs the benchmark from a copy holding only BENCHMARK.json and the
   benchmark's directories, and asserts that it exits non-zero without a
   summary, because there is no fdsi source to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUMMARY_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=root, capture_output=True, text=True, timeout=900,
    )


def has_summary(stdout: str) -> bool:
    lines = stdout.strip().splitlines()
    if not lines:
        return False
    try:
        return isinstance(json.loads(lines[-1]), dict)
    except json.JSONDecodeError:
        return False


def check_metrics(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace {trace} failed:\n{proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            summary = json.loads(lines[-1])
            assert set(summary) == SUMMARY_KEYS, summary.keys()
            assert summary["correct"] is True and summary["attempted"] >= 1
            printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
                       if not line.startswith("#") and len(line.split()) >= 3}
            want = {m["name"]: m["unit"] for m in spec[key]}
            assert set(summary["metrics"]) == set(want), (workload, key, summary["metrics"].keys())
            for name, unit in want.items():
                assert printed.get(name) == unit, f"{workload}: {name} not printed with unit {unit}"
                assert summary["metrics"][name]["unit"] == unit, (workload, name)
            print(f"ok   {workload} trace {trace}: {len(want)} metrics printed with units")


def check_wrong_verdict_fails(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        proc = bench(ROOT, workload, 0, "--flip-expected")
        assert proc.returncode != 0, f"{workload}: a wrong expected verdict passed"
        assert not has_summary(proc.stdout), f"{workload}: printed a summary after a wrong answer"
        assert "wrong answer" in proc.stderr, proc.stderr
        print(f"ok   {workload}: wrong expected verdict fails the run")


def check_failed_call_fails() -> None:
    for trace in (0, 1):
        proc = bench(ROOT, "exact-search", trace, "--state-budget", "1")
        assert proc.returncode != 0, f"trace {trace}: a call over its state budget passed"
        assert not has_summary(proc.stdout), f"trace {trace}: printed a summary after a failed call"
        assert "failed call" in proc.stderr, proc.stderr
        print(f"ok   exact-search trace {trace}: a call that exits 3 fails the run")


def check_bare_copy_fails(spec: dict) -> None:
    bare = ROOT / ".perfbench_out" / "bare-copy"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0 and not has_summary(proc.stdout), proc.stdout
        print("ok   a copy without the fdsi source exits non-zero without a summary")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_wrong_verdict_fails(spec)
    check_failed_call_fails()
    check_bare_copy_fails(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
