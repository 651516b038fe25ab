"""weylpath benchmark: time to a checked number, per workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is used from ``src/`` of that
checkout; nothing is installed.  Workloads: paths, phase_space (see
``bench/DESIGN.md``).

``--trace 0`` reports the end-to-end metrics.  Set-up is timed in fresh
processes, three times, and its median is reported; the measured process is
the second, so one sample comes before it and one after.  Every timing is
scaled to the reference host's speed by probes run beside it
(``bench/speed.py``); the wall-clock figures are in the results file.
``--trace 1`` reports the per-layer metrics from spans recorded around every
public call the benchmark makes.  Every run writes
``bench/out/<workload>-seed<N>-trace<T>.json`` with all metrics, their
sample counts, the environment and the failures, and prints one JSON object
as the last line of its output.  Every process the run starts ends before
it does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("paths", "phase_space")
END_TO_END = ("setup_s", "task_s_p50", "task_s_tail", "tasks_per_s", "err_max", "peak_rss_mb")
DEADLINE_S = 170.0
SETUPS_AROUND = 1  # set-up-only processes before the measured one, and again after it


class BenchError(RuntimeError):
    pass


# One BLAS/OpenMP thread.  On the 2-vCPU reference host a second BLAS
# thread made the oracle's eigh slower, not faster (cutoff-80 request: 10-13
# ms with one thread, 14 ms with two), and it spins on the other vCPU
# between calls (CPU time 1.8 x wall time), which slows the vCPU the
# benchmark runs on.
BLAS_THREADS = "1"


def child_env() -> dict:
    """The checkout's src on the path; one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _kill(proc) -> None:
    proc.kill()
    proc.wait()


def run_worker(args, extra: list, deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, its result or None)."""
    argv = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--outdir", str(OUT / args.workload), *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise BenchError("worker did not finish set-up in time")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited during set-up (code {proc.wait()})")
            if line.strip() == "READY":
                setup_s = time.perf_counter() - t0
                break
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except (BenchError, subprocess.TimeoutExpired):
        _kill(proc)
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unavailable"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="one small block per workload (self-test)")
    ap.add_argument("--corrupt", action="store_true", help="perturb one reference (self-test)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "weylpath" / "__init__.py").is_file():
        print(f"error: no weylpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    extra = [flag for flag, on in (("--tiny", args.tiny), ("--corrupt", args.corrupt)) if on]
    try:
        # Set-up samples come before and after the measured process, so that
        # they see the host at different moments of the run.
        setups = []  # (seconds to READY, its scale to the reference speed)

        def setup_only():
            setup_s, r = run_worker(args, extra + ["--setup-only"], deadline)
            setups.append((setup_s, r["setup_scale"]))

        around = SETUPS_AROUND if args.trace == 0 else 0
        for _ in range(around):
            setup_only()
        setup_s, result = run_worker(args, extra, deadline)
        setups.append((setup_s, result["setup_scale"]))
        for _ in range(around):
            setup_only()
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if result is None or not Path(result["weylpath_file"]).resolve().is_relative_to(ROOT / "src"):
        print("error: the worker did not report a result from this checkout's sources", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(s * k for s, k in setups), "unit": "s",
                              "n": len(setups), "runs": setups}
        metrics["wall.setup_s"] = {"value": statistics.median(s for s, _ in setups), "unit": "s",
                                   "n": len(setups)}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": {
            **result["versions"],
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
            "worker_cpu": result["cpu"],
            "git_revision": git_revision(),
            "platform": sys.platform,
        },
        **{k: result[k] for k in
           ("attempted", "failed", "failures", "blocks", "timed_wall_s", "import_s", "classes", "timeline", "probes")},
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    names = END_TO_END if args.trace == 0 else [k for k in metrics]
    summary = {
        "correct": result["failed"] == 0 and finite,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]} for k in names},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
