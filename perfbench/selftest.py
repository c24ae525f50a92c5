#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few seconds per workload).

    python3 perfbench/selftest.py

Asserts, for every workload in BENCHMARK.json:
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is printed, with the unit BENCHMARK.json gives it, and no
    other metric is;
  * the exact-repeat values (busy_time_ratio and the per-layer counters)
    are identical across two runs with one seed; on every workload some of
    them change with the seed, and each of them changes on at least one
    workload;
  * a deliberately corrupted response is counted (failed >= 1, ok_share < 1,
    correct false) and makes the command exit nonzero.
It also asserts that the command fails, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())
# Exact-repeat values, by the --trace mode that prints them.
EXACT = {
    0: ["busy_time_ratio"],
    1: ["core.components", "core.max_component_share", "algo.ff_profile_checks",
        "algo.ff_segments", "online.machines_opened", "online.slots_recycled",
        "online.jobs_cancelled", "net.bytes_per_req"],
}
ALL_EXACT = {name for names in EXACT.values() for name in names}
failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print("FAIL:", message)


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def value(result, name):
    return result["metrics"][name]["value"]


def expect_metrics(workload, trace, result, catalogue):
    where = f"{workload} --trace {trace}"
    if result is None:
        check(False, f"{where}: no result line")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{where}: correct={result['correct']} failed={result['failed']}")
    printed = result["metrics"]
    check(set(printed) == {m["name"] for m in catalogue},
          f"{where}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(printed) ^ {m['name'] for m in catalogue})}")
    for m in catalogue:
        got = printed.get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"{where}: {m['name']} printed as {got}")


def main():
    # Some counters are fixed by the sizes alone on some workloads (e.g. the
    # wire bytes of a warm-handle request); each must move on at least one.
    moved_anywhere = set()
    for w in CONFIG["workloads"]:
        name = w["name"]
        moved_here = []
        for trace, catalogue in ((0, CONFIG["end_to_end"]), (1, CONFIG["per_layer"])):
            code, first = run(name, 1, trace)
            check(code == 0, f"{name} --trace {trace} exited {code}")
            expect_metrics(name, trace, first, catalogue)
            _, again = run(name, 1, trace)
            _, other = run(name, 2, trace)
            if not (first and again and other):
                continue
            exact = EXACT[trace]
            same = [c for c in exact if value(first, c) == value(again, c)]
            check(same == exact, f"{name}: not repeated exactly: "
                  f"{sorted(set(exact) - set(same))}")
            moved_here += [c for c in exact if value(first, c) != value(other, c)]
        print(f"{name}: exact-repeat values that moved with the seed: {moved_here}")
        check(moved_here, f"{name}: no exact-repeat value changed with the seed")
        moved_anywhere.update(moved_here)

        code, corrupted = run(name, 1, 0, "--corrupt")
        check(code != 0, f"{name} --corrupt exited 0")
        check(corrupted is not None and not corrupted["correct"] and
              corrupted["failed"] >= 1 and
              corrupted["metrics"]["ok_share"]["value"] < 1,
              f"{name} --corrupt: the corrupted response was not counted: {corrupted}")

    check(moved_anywhere == ALL_EXACT,
          f"never moved with the seed: {sorted(ALL_EXACT - moved_anywhere)}")

    # A directory with only the benchmark's own files cannot build the
    # program: the command must fail without a result.
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in CONFIG["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    code, result = run(CONFIG["workloads"][0]["name"], 1, 0, cwd=bare)
    check(code != 0 and result is None,
          f"bare directory: exit {code}, result {result}")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
