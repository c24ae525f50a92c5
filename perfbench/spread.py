#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

    python3 perfbench/spread.py [--seeds 1-10] [--compare OTHER_ROOT]

Runs perfbench/run.py once per (workload, seed), with every workload and the
run_seconds of BENCHMARK.json, and prints, per end-to-end metric, the median
and the interquartile range as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them).  Each spread is marked
against its bound: "ok" below a third of the bound, "wide" below the
bound, "FAIL" above it.  With --compare, the same
runs are made from a second checkout (e.g. the parent commit) and the
median change is reported against each bound: the second-seed check of
perfbench/README.md.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_all(root, workloads, seeds, seconds):
    values = {}
    for workload in workloads:
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=root, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(out.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(metric["value"])
    return values


def spread(vals):
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q2, (q3 - q1) / abs(q2) if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    base = run_all(ROOT, workloads, seeds, seconds)
    other = run_all(args.compare.resolve(), workloads, seeds, seconds) \
        if args.compare else None
    worst = "ok"
    for workload in workloads:
        print(f"== {workload} ({len(seeds)} seeds, {seconds} s)")
        for name, vals in base[workload].items():
            med, iqr = spread(vals)
            verdict = "ok" if iqr < bounds[name] / 3 else (
                "wide" if iqr <= bounds[name] else "FAIL")
            if verdict == "FAIL" or (verdict == "wide" and worst == "ok"):
                worst = verdict
            line = (f"  {name:28s} median {med:14.6g}  iqr/median {iqr:7.4f}"
                    f"  bound {bounds[name]:.2f} {verdict}")
            if other is not None:
                other_med, _ = spread(other[workload][name])
                line += f"  vs {other_med:14.6g} ({(med - other_med) / abs(other_med):+.4f})"
            print(line)
    print(f"spread verdict: {worst}")
    return 1 if worst == "FAIL" else 0


if __name__ == "__main__":
    sys.exit(main())
