#!/usr/bin/env python3
"""Run bench/run.py over several seeds and report the spread of each metric.

Run from the repository root, for example:

    python3 bench/spread.py --seeds 1-10 --seconds 10 --out bench/out/set1.json
    python3 bench/spread.py --seeds 1-10 --seconds 10 --against bench/out/set1.json

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median.  With ``--trace 0`` each
spread is held against the metric's bound in BENCHMARK.json: ``ok`` below a
third of the bound, ``wide`` above it, ``OVER`` above the bound itself.
``--against`` compares with an earlier set written by ``--out``: exact counts
must repeat for every (workload, seed) and no median may be worse than the
earlier one by more than its bound.  Runs are made one after another.
Exit code 1 when a run failed a check or a comparison failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if not lines:
        return {"seed": seed, "correct": False, "error": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    for line in lines:
        for key in ("counts", "env", "detail"):
            if line.startswith(f"{key}: "):
                result[key] = json.loads(line[len(key) + 2:])
    result["seed"] = seed
    result["exit_code"] = proc.returncode
    result["wall_s"] = wall
    return result


def summarize(runs: list) -> dict:
    """Per metric, and per raw figure of the detail line, median and spread."""
    out = {}
    raw = [k for k in runs[0].get("detail", {}) if k.startswith("raw_")]
    for name in list(runs[0]["metrics"]) + raw:
        values = [r["metrics"][name]["value"] if name in r["metrics"]
                  else r["detail"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / abs(median) if median else float("inf"),
                     "unit": runs[0]["metrics"].get(name, {}).get("unit", "")}
    return out


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative: better)."""
    if better == "lower":
        return (new - old) / abs(old)
    return (old - new) / abs(old)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every run and the summary here (JSON)")
    parser.add_argument("--against", help="an earlier --out file to compare with")
    args = parser.parse_args(argv)

    metric_spec = {m["name"]: m for m in config["end_to_end"] + config["per_layer"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None
    failures = []
    report = {"seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            status = "correct" if result.get("correct") else "FAILED"
            print(f"{workload} seed {seed}: {status} in {result.get('wall_s', 0):.1f} s",
                  flush=True)
        report["runs"][workload] = runs
        report.setdefault("env", runs[0].get("env"))
        broken = [r for r in runs if not r.get("correct")]
        if broken:
            failures += [f"{workload} seed {r['seed']} failed: {r}" for r in broken]
            continue
        summary = report["summary"][workload] = summarize(runs)
        print(f"\n{workload}: {len(runs)} runs of {args.seconds} s")
        for name, row in summary.items():
            spec = metric_spec.get(name, {})
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("ok" if row["spread"] < bound / 3
                           else "wide" if row["spread"] <= bound else "OVER")
            print(f"  {name:<30} median {row['median']:<14.6g} {row['unit']:<6} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {row['spread']:.4f} bound {bound} {verdict}")
            if verdict == "OVER":
                failures.append(f"{workload} {name} spread {row['spread']:.4f} > {bound}")
        if earlier and workload in earlier.get("summary", {}):
            before_runs = {r["seed"]: r for r in earlier["runs"][workload]}
            for r in runs:
                old = before_runs.get(r["seed"])
                if old and old.get("counts") != r.get("counts"):
                    failures.append(f"{workload} seed {r['seed']}: counts differ "
                                    f"{old.get('counts')} vs {r.get('counts')}")
            for name, row in summary.items():
                spec = metric_spec.get(name)
                old = earlier["summary"][workload].get(name)
                if not spec or not old or "bound" not in spec:
                    continue
                drift = worse_by(row["median"], old["median"], spec["better"])
                flag = "OVER" if drift > spec["bound"] else "ok"
                print(f"  vs earlier {name:<22} worse by {drift:+.4f} "
                      f"(bound {spec['bound']}) {flag}")
                if flag == "OVER":
                    failures.append(f"{workload} {name} median worse by {drift:.4f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
