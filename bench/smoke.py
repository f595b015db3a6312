#!/usr/bin/env python3
"""Fast smoke test of bench/run.py at tiny P and a tiny grid.

Run from the repository root:

    python3 bench/smoke.py

For every workload in BENCHMARK.json, with the trace off and on, it checks
that the result line names every metric of BENCHMARK.json with its unit and
a finite number, that every check passed, and that the exact counts repeat
between two runs of the same seed.  It also checks that the benchmark fails
without printing a result when the ofbic sources are missing.  Exit code 1
on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 5
TIMEOUT_S = 120


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", "0.2", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=TIMEOUT_S, check=False)


def line(stdout: str, key: str):
    for text in stdout.splitlines():
        if text.startswith(f"{key}: "):
            return json.loads(text[len(key) + 2:])
    return None


def check_run(workload: str, trace: int, expected: dict) -> list:
    problems = []
    outputs = [run(workload, trace) for _ in range(2)]
    for proc in outputs:
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr[-500:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"result keys {sorted(result)}")
        if result["correct"] is not True or result["failed"] != 0:
            problems.append(f"checks failed: {proc.stdout[-800:]}")
        if not isinstance(result["attempted"], int) or result["attempted"] < 1:
            problems.append(f"attempted {result['attempted']!r}")
        if set(result["metrics"]) != set(expected):
            problems.append(f"metrics {sorted(result['metrics'])} != {sorted(expected)}")
        for name, unit in expected.items():
            metric = result["metrics"].get(name, {})
            value = metric.get("value")
            if metric.get("unit") != unit:
                problems.append(f"{name} unit {metric.get('unit')!r} != {unit!r}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name} value {value!r} is not a finite number")
        for key in ("env", "counts", "detail"):
            if line(proc.stdout, key) is None:
                problems.append(f"no {key} line")
    counts = [line(proc.stdout, "counts") for proc in outputs]
    if not problems and counts[0] != counts[1]:
        problems.append("exact counts differ between two runs of the same seed")
    return problems


def check_without_sources(workload: str) -> list:
    """In a copy holding only BENCHMARK.json and bench/, the run must fail."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out"))
        proc = run(workload, 0, bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without src/ofbic: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in config["end_to_end"]},
             1: {m["name"]: m["unit"] for m in config["per_layer"]}}
    (HERE / "out").mkdir(exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in config["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, units[trace])
            failures += bool(problems)
            print(f"{workload} trace {trace}: {'ok' if not problems else 'FAIL'}")
            for problem in problems:
                print(f"  {problem}")
    problems = check_without_sources(config["workloads"][0]["name"])
    failures += bool(problems)
    print(f"without sources: {'ok' if not problems else 'FAIL'}")
    for problem in problems:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
