#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Each workload runs for one second (three
segments of a third of a second each), untraced and traced; every metric registered in BENCHMARK.json must be emitted with
its registered unit, and the output checks must pass. A run with one reply
cost deliberately corrupted must fail its checks. A directory holding only
BENCHMARK.json and the benchmark must make the benchmark fail fast without
printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc, result


def check(condition, message):
    if not condition:
        sys.exit("selftest: FAIL: " + message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "predictions.json")) as f:
        predictions = json.load(f)["predictions"]
    registered = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                  1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check(set(predictions) == set(registered[1]),
          "predictions.json does not cover exactly the per_layer metrics")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc, result = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                                "--trace", str(trace)])
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None,
                  f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
            check(result["correct"] is True, f"{label} failed its output checks")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result keys {sorted(result)}")
            check(result["attempted"] >= 1, f"{label} attempted nothing")
            emitted = {name: m["unit"] for name, m in result["metrics"].items()}
            check(emitted == registered[trace],
                  f"{label} emitted {emitted}, registered {registered[trace]}")
            print(f"selftest: ok {label}: {result['attempted']} requests")

    proc, result = run(["--workload", "miss-dp", "--seed", "3", "--seconds", "1",
                        "--trace", "0", "--corrupt-cost"])
    check(proc.returncode != 0 and result is not None and result["correct"] is False,
          "a corrupted reply cost did not trip the output check")
    print("selftest: ok corrupted cost trips the check")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = run(["--workload", "miss-dp", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and result is None,
          "the benchmark did not fail without the repository")
    print("selftest: ok fails fast without the repository")


if __name__ == "__main__":
    main()
