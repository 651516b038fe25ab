"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/steadiness.py --workloads paths,phase_space --seeds 1-10 \
        [--trace 0] [--out bench/out/steadiness.json] [--against EARLIER.json]

For every workload and metric: the median over the seeds and the spread,
(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(n=4)``,
next to the metric's bound from BENCHMARK.json.  With ``--against``, also
the move of each median from an earlier set's, as a share of the earlier
median and of this one: two sets agree when both moves are within the
bound.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=str(BENCH / "out" / "steadiness.json"))
    ap.add_argument("--against", help="an earlier report of this script")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    report = {}
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in seeds_from(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{workload} seed {seed}: incorrect result {line}", file=sys.stderr)
            for name, m in line["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            row = rows[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0,
                                "bound": bounds.get(name), "values": vs}
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            moves = ""
            if before and before["median"] and med:
                row["move"] = [med / before["median"] - 1.0, before["median"] / med - 1.0]
                moves = f"  moves {row['move'][0]:+.3f} / {row['move'][1]:+.3f}"
            print(f"{workload:13s} {name:34s} median {med:.6g}  spread {row['spread']:.3f}"
                  f"  bound {bounds.get(name)}{moves}", flush=True)
        report[workload] = {"metrics": rows, "run_wall_s": walls}
        print(f"{workload:13s} run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
