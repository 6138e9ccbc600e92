"""Smoke test of the benchmark: every workload at tiny size, with and
without tracing, in a few seconds each.

    python3 bench/smoke.py

Each run must exit 0, answer every operation correctly and print, as its
last line, exactly the metrics BENCHMARK.json names for that mode, each
with its declared unit and a numeric value.  A copy of the benchmark
without the library sources must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(cwd, script, workload, trace, smoke=True):
    argv = [sys.executable, script, "--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace) -> list[str]:
    where = f"{workload} --trace {trace}"
    done = run(ROOT, os.path.join(BENCH_DIR, "run.py"), workload, trace)
    if done.returncode:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: not all answers correct: {done.stdout.strip()[-2000:]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(declared) - set(got)):
        problems.append(f"{where}: metric {name} missing")
    for name in sorted(set(got) - set(declared)):
        problems.append(f"{where}: metric {name} not declared in BENCHMARK.json")
    for name in sorted(set(got) & set(declared)):
        value, unit = got[name].get("value"), got[name].get("unit")
        if unit != declared[name]:
            problems.append(f"{where}: {name} has unit {unit!r}, declared {declared[name]!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} value {value!r} is not a number")
    return problems


def check_without_sources(spec) -> list[str]:
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(BENCH_DIR, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path), ignore=shutil.ignore_patterns("out"))
        done = run(bare, spec["command"][1], spec["workloads"][0]["name"], 0, smoke=False)
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout.strip()[-300:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = check_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print(f"{workload['name']} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for line in problems:
        print(line)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
