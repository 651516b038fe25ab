"""Time the rows of the ROADMAP baseline table and compare with it.

    python3 bench/reconcile.py [--reps 3] [--out bench/out/reconcile.json]

Each row is timed at the table's own parameters, in one fresh process
(library rows) or as fresh processes (import and CLI rows), and reported as
the median of ``--reps`` runs next to the table's figure, with the deviation:
as wall time, and scaled to the reference host speed by a probe before and
after every run (``bench/speed.py``), as the benchmark's timings are.
Where a traced benchmark run left per-layer medians in ``bench/out``, the
nearest per-layer metric is listed beside the row.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
from run import child_env  # noqa: E402
from workloads import CliCold  # noqa: E402

# (row, table seconds, nearest per-layer metric, workload it is traced on)
TABLE = [
    ("import weylpath", 1.45, "cli.import_s", "phase_space"),
    ("cli symbols", 1.9, "cli.symbols_s", "phase_space"),
    ("cli harmonic-compare", 2.1, "cli.harmonic_compare_s", "phase_space"),
    ("cli propagate-exact", 1.8, "cli.propagate_exact_s", "phase_space"),
    ("cli semiclassical", 1.9, "cli.semiclassical_s", "phase_space"),
    ("cli propagate-w", 3.4, "cli.propagate_w_s", "phase_space"),
    ("cli wigner-u", 3.6, "cli.wigner_u_s", "phase_space"),
    ("solve_bvp quartic 512", 0.062, None, None),
    ("solve_bvp quartic 2048", 0.222, "semiclassics.solve_bvp_s", "paths"),
    ("det_continuum 1024 + halving", 1.58, "fluctuation.det_continuum_s", "paths"),
    ("exact_propagator 120 cold", 0.036, "coherent.exact_propagator_cold_s", "phase_space"),
    ("exact_propagator 120 warm", 0.0006, "coherent.exact_propagator_warm_s", "phase_space"),
    ("exact_propagator 400 cold", 0.61, None, None),
    ("quadrature_K P N=2", 1.59, "discrete.quadrature_K_s", "phase_space"),
    ("quadrature_K W N=2", 0.81, "discrete.quadrature_K_s", "phase_space"),
    ("weyl_U_grid 60", 0.10, "wigner.weyl_U_grid_s", "phase_space"),
    ("weyl_U_grid 200", 1.27, "wigner.weyl_U_grid_s", "phase_space"),
    ("husimi_U_grid 200", 0.13, "wigner.husimi_U_grid_s", "phase_space"),
    ("det_recursive 1e5", 0.236, "fluctuation.det_recursive_s", "paths"),
    ("phi_N 1e5", 0.056, "discrete.phi_N_s", "paths"),
    ("phi_N_alt 1e5", 0.076, None, None),
]


def library_rows(reps: int) -> dict:
    """Run in a fresh worker process: time each library row, print JSON."""
    import numpy as np

    import weylpath as W
    from weylpath.semiclassics import trajectory_hessian_samplers

    ctx = W.ScaleContext.default()
    Hh, Hq = W.harmonic_hamiltonian(ctx), W.quartic_position_hamiltonian(0.1, ctx)
    sym = W.weyl_symbol(Hq)
    qs, ps = W.phase_grid_axes(ctx)
    N = 100_000
    traj = W.solve_bvp(sym, 0.7, 0.7, 0.5, steps=2048, tol=1e-12)
    A, B, C = trajectory_hessian_samplers(traj, sym)
    co = W.FluctuationCoeffs(A=np.zeros(N), B=np.zeros(N), C=np.ones(N), tau=2 * np.pi / N)
    path = W.stationary_path_harmonic(0.5, 0.3 + 0.4j, 1.0, 2 * np.pi, N)
    Hw = W.weyl_symbol(Hh)

    fresh = itertools.count(1)

    def cold(cutoff):  # a Hamiltonian no earlier call has cached
        H = W.quartic_position_hamiltonian(0.1 + 1e-9 * next(fresh), ctx)
        return W.exact_propagator(H, 0.3, 0.2j, 0.5, cutoff=cutoff)

    rows = {
        "solve_bvp quartic 512": lambda: W.solve_bvp(sym, 0.7, 0.7, 0.5, steps=512, tol=1e-12),
        "solve_bvp quartic 2048": lambda: W.solve_bvp(sym, 0.7, 0.7, 0.5, steps=2048, tol=1e-12),
        "det_continuum 1024 + halving": lambda: W.det_continuum(A, B, C, 0.5, steps=1024),
        "exact_propagator 120 cold": lambda: cold(120),
        "exact_propagator 120 warm": lambda: W.exact_propagator(Hq, 0.3, 0.2j, 0.5, cutoff=120),
        "exact_propagator 400 cold": lambda: cold(400),
        "quadrature_K P N=2": lambda: W.quadrature_K("p", Hh, 0.3, 0.5j, 0.2, 2),
        "quadrature_K W N=2": lambda: W.quadrature_K("w", Hh, 0.3, 0.5j, 0.2, 2),
        "weyl_U_grid 60": lambda: W.weyl_U_grid(Hh, ctx, 1.0, qs, ps, cutoff=60),
        "weyl_U_grid 200": lambda: W.weyl_U_grid(Hh, ctx, 1.0, qs, ps, cutoff=200),
        "husimi_U_grid 200": lambda: W.husimi_U_grid(Hh, ctx, 1.0, qs, ps, cutoff=200),
        "det_recursive 1e5": lambda: W.det_recursive(co),
        "phi_N 1e5": lambda: W.phi_N(path, Hw),
        "phi_N_alt 1e5": lambda: W.phi_N_alt(path, Hw),
    }
    return {name: timed(fn, reps) for name, fn in rows.items()}


def timed(fn, reps: int) -> dict:
    """Wall times of ``reps`` calls, and the same scaled by the probes around them."""
    times, probes = [], []
    for _ in range(reps):
        probes.append(speed.probe())
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    probes.append(speed.probe())
    return {"wall": times, "scaled": speed.scale_all(times, probes)}


def process_rows(reps: int) -> dict:
    outdir = BENCH / "out" / "reconcile"
    outdir.mkdir(parents=True, exist_ok=True)
    for name, data in CliCold.HAMILTONIANS.items():
        (outdir / name).write_text(json.dumps(data))
    argvs = {"import weylpath": [sys.executable, "-c", "import weylpath"]}
    for name, args in CliCold.COMMANDS.items():
        argvs[f"cli {name}"] = [sys.executable, "-m", "weylpath.cli", *args]
    env = child_env()
    run = lambda argv: subprocess.run(argv, cwd=outdir, env=env, capture_output=True, check=True)
    return {name: timed(lambda: run(argv), reps) for name, argv in argvs.items()}


def traced_medians() -> dict:
    found = {}
    for path in sorted((BENCH / "out").glob("*-trace1.json")):
        record = json.loads(path.read_text())
        if not record.get("tiny"):
            for name, m in record["metrics"].items():
                found.setdefault((record["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in found.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--out", default=str(BENCH / "out" / "reconcile.json"))
    ap.add_argument("--library-worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # One CPU for the probes and the timed work, as in the benchmark's worker.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.library_worker:
        print(json.dumps(library_rows(args.reps)))
        return 0

    proc = subprocess.run([sys.executable, __file__, "--library-worker", "--reps", str(args.reps)],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    measured = {**process_rows(args.reps), **json.loads(proc.stdout.strip().splitlines()[-1])}
    traced = traced_medians()
    rows = []
    print(f"{'row':30s} {'table s':>9s} {'wall s':>9s} {'dev':>7s} {'scaled s':>9s} {'dev':>7s}"
          "  traced median (scaled)")
    for name, table_s, metric, workload in TABLE:
        now = statistics.median(measured[name]["wall"])
        scaled = statistics.median(measured[name]["scaled"])
        tr = traced.get((workload, metric))
        rows.append({"row": name, "table_s": table_s, "measured_s": now, "scaled_s": scaled,
                     "runs": measured[name], "deviation": now / table_s - 1.0,
                     "scaled_deviation": scaled / table_s - 1.0, "traced_metric": metric,
                     "traced_on": workload, "traced_median_s": tr})
        tr_text = f"{metric}@{workload} = {tr:.4g}" if tr is not None else ""
        print(f"{name:30s} {table_s:9.4g} {now:9.4g} {now / table_s - 1.0:+7.0%}"
              f" {scaled:9.4g} {scaled / table_s - 1.0:+7.0%}  {tr_text}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(rows, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
