"""Benchmark self-test at a tiny size; prints every metric by name.

    python3 bench/selftest.py

For each workload, runs ``bench/run.py --tiny`` untraced and traced and
checks that every end-to-end and per-layer metric named in BENCHMARK.json is
present with its unit, a sample count and a finite value.  Then checks that
a corrupted reference makes a task count as failed, and that the benchmark
refuses to run without the package sources.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(*args, cwd=ROOT):
    argv = [sys.executable, "bench/run.py", "--seed", "0", "--seconds", "1", "--tiny", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    print(f"{'workload':13s} {'metric':45s} {'value':>14s} {'unit':6s} n")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run("--workload", workload, "--trace", str(trace))
            if proc.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"] or line["failed"]:
                problems.append(f"{workload} trace {trace}: checks failed")
            record = json.loads((BENCH / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
            for m in declared:
                got = record["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{workload}: {m['name']} missing")
                    continue
                print(f"{workload:13s} {m['name']:45s} {got['value']:14.6g} {got['unit']:6s} {got.get('n')}")
                if got["unit"] != m["unit"] or "n" not in got or not math.isfinite(got["value"]):
                    problems.append(f"{workload}: {m['name']} has unit {got['unit']!r}, n {got.get('n')}, "
                                    f"value {got['value']}")
                if line["metrics"].get(m["name"]) != {"value": got["value"], "unit": got["unit"]}:
                    problems.append(f"{workload}: {m['name']} differs between output line and results file")

    proc = run("--workload", "paths", "--trace", "0", "--corrupt")
    line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    if line is None or line["correct"] or line["failed"] < 1:
        problems.append(f"a corrupted reference did not fail its task: {line}")
    else:
        print(f"corrupted reference: {line['failed']} of {line['attempted']} tasks failed, as required")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run("--workload", "paths", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("the benchmark ran without the package sources")
    else:
        print(f"without sources: exit {proc.returncode}, no result printed, as required")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL:", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
