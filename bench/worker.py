"""One benchmark process: set up, signal readiness, run whole blocks, check, report.

Run by ``bench/run.py``, never directly by a user.  It prints ``READY`` on
its own line when set-up ends (the parent times set-up up to that line) and
one JSON object as its last line.  With ``--setup-only`` it exits after
``READY``.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent


def bind_api(weylpath, names, tracer):
    """The public functions the workloads call, wrapped in spans when tracing."""
    api = SimpleNamespace(tracer=tracer)
    for name in names:
        fn = getattr(weylpath, name, None) or getattr(weylpath.semiclassics, name)
        setattr(api, name, tracer.wrap(fn) if tracer is not None else fn)
    return api


def tail(times: list) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with 10 samples beyond it."""
    xs = sorted(times)
    idx = max(0, len(xs) - 11)
    pct = 100.0 * idx / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[idx], pct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true", help="perturb the first reference (self-test)")
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args(argv)

    # One CPU for this process and the README processes it starts, which
    # inherit the mask: the probes then measure the CPU that runs the task.
    # The reference host's two vCPUs change speed independently, and a
    # README process started from an unpinned worker could land on the
    # other one (scaled README command times spread 0.16-0.37 over ten runs
    # unpinned, 0.06-0.18 pinned).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    t0 = time.perf_counter()
    import weylpath
    import weylpath.cli  # noqa: F401  (the README commands' in-process reference)
    import_s = time.perf_counter() - t0

    import numpy
    import scipy

    import speed
    from spans import Span, Tracer, coverage, layer_times
    from workloads import API_FUNCTIONS, WORKLOADS, OracleRequests

    cls = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.on = True
        if not cls.probes_import:  # otherwise cli.import is the fresh-process probe
            tracer.spans.append(Span(0, "cli.import", t0, t0 + import_s, None, None))
    api = bind_api(weylpath, API_FUNCTIONS, tracer)
    # A fixed number of whole blocks, sized so that a run takes about
    # --seconds on the reference machine.  A traced run executes each of its
    # blocks twice, untraced and traced, in alternating order (the oracle
    # cache favours the second run), so the overhead figure compares the
    # same tasks.  Counts come from first executions only.
    n_blocks = cls.blocks_for(args.seconds, args.tiny)
    if tracer is None:
        plan = [(b, False, True) for b in range(n_blocks)]
    else:
        n_blocks = max(2, math.ceil(n_blocks / 2))
        plan = [(b, traced, traced == (b % 2 == 1))
                for b in range(n_blocks) for traced in (b % 2 == 1, b % 2 == 0)]
    oracle = OracleRequests()
    workload = cls(api, weylpath, args.seed, args.tiny, oracle, Path(args.outdir), n_blocks)
    workload.warm_up()

    refs = {}
    if workload.refs_in_setup:
        for block in workload.blocks:
            for task in block:
                if task.ref is not None:
                    refs[id(task)] = task.ref()
    print("READY", flush=True)
    # The host's speed right after set-up, which scales this set-up sample.
    setup_scale = speed.REF_PROBE_S / speed.burst()
    if args.setup_only:
        print(json.dumps({"setup_scale": setup_scale}))
        return 0

    records, task_spans, timeline, probes = [], [], [], []
    if tracer is not None:
        tracer.on = False
    start = time.perf_counter()
    for i, (b, traced, first) in enumerate(plan):
        oracle.counting = first
        if tracer is not None:
            tracer.on = traced
        for task in workload.blocks[b]:
            probes.append(speed.probe())
            if traced:
                tracer.task = len(records)
                root = tracer.begin("task")
            t = time.perf_counter()
            try:
                out, error = task.call(), None
            except Exception as exc:  # a refused call is a failed task, timed like any other
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            timeline.append((round(t - start, 4), task.kind, dt))
            if traced:
                tracer.end(root)
                task_spans.append(tracer.spans[root])
                tracer.task = None
            records.append((task, dt, out, error, traced, i))
    probes.append(speed.probe())
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.on = False
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # Checks, against references computed outside the timed region.
    failed, errs, sc_devs, failures = 0, [], [], []
    passed = 0
    corrupt = args.corrupt
    for task, dt, out, error, traced, i in records:
        ok, err = False, None
        if error is None:
            if id(task) not in refs:
                refs[id(task)] = task.ref() if task.ref is not None else None
            ref = refs[id(task)]
            if corrupt and isinstance(ref, numbers.Number):  # moved beyond every tolerance
                ref, corrupt = ref + 10.0 * max(1.0, abs(ref)), False
            ok, err = task.check(out, ref)
        passed += ok
        if not ok:
            failed += 1
            if len(failures) < 10:
                failures.append({"kind": task.kind, "error": error, "err": err})
        elif err is not None:
            (sc_devs if task.err_kind == "sc" else errs).append(err)

    # Task times scaled to the reference host speed (bench/speed.py); the
    # wall times themselves are reported beside them in the results file.
    wall_times = [r[1] for r in records]
    times = speed.scale_all(wall_times, probes)
    n = len(times)
    metrics = {}
    if args.trace == 0:
        tail_s, tail_pct = tail(times)
        wall_tail_s, _ = tail(wall_times)
        metrics = {
            "task_s_p50": {"value": statistics.median(times), "unit": "s", "n": n},
            "task_s_tail": {"value": tail_s, "unit": "s", "n": n, "percentile": tail_pct},
            "tasks_per_s": {"value": passed / sum(times), "unit": "1/s", "n": n, "blocks": len(plan)},
            "failed_frac": {"value": failed / n, "unit": "ratio", "n": n},
            "err_max": {"value": max(errs) if errs else 0.0, "unit": "abs", "n": len(errs)},
            "peak_rss_mb": {"value": rss_self / 1024.0, "unit": "MB", "n": 1},
            "peak_rss_children_mb": {"value": rss_children / 1024.0, "unit": "MB", "n": 1},
            "wall.task_s_p50": {"value": statistics.median(wall_times), "unit": "s", "n": n},
            "wall.task_s_tail": {"value": wall_tail_s, "unit": "s", "n": n, "percentile": tail_pct},
            "wall.tasks_per_s": {"value": passed / wall, "unit": "1/s", "n": n},
            "probe_s": {"value": statistics.median(probes), "unit": "s", "n": len(probes),
                        "ref": speed.REF_PROBE_S},
        }
    else:
        traced_wall = sum(s.end - s.start for s in task_spans)
        per_task = speed.factors(probes)
        scale = lambda span: setup_scale if span.task is None else per_task[span.task]
        metrics.update(layer_times(tracer.spans, traced_wall, scale))
        metrics.update(_counts(records, oracle, sc_devs))
        rate = lambda flag: sum(1 for r in records if r[4] == flag) / max(
            sum(t for t, r in zip(times, records) if r[4] == flag), 1e-12
        )
        metrics["trace.coverage"] = {"value": coverage(tracer.spans, task_spans), "unit": "ratio",
                                     "n": len(task_spans)}
        metrics["trace.overhead_frac"] = {"value": 1.0 - rate(True) / rate(False), "unit": "ratio", "n": n}

    classes = {}
    for task, dt, *_ in records:
        classes.setdefault(task.kind, []).append(dt)
    result = {
        "attempted": n,
        "classes": {k: {"n": len(v), "median_s": statistics.median(v), "max_s": max(v)}
                    for k, v in classes.items()},
        "failed": failed,
        "failures": failures,
        "blocks": len(plan),
        "timed_wall_s": wall,
        "timeline": timeline,  # (start from the loop's start, class, seconds) per task
        "probes": probes,
        "setup_scale": setup_scale,
        "cpu": cpu,
        "import_s": import_s,
        "metrics": metrics,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "weylpath_file": weylpath.__file__,
    }
    print(json.dumps(result))
    return 0


def _counts(records, oracle, sc_devs) -> dict:
    """Per-layer counts and accuracy figures, from every task of the run."""
    outs = [(task.kind, out) for task, dt, out, error, *_ in records if error is None]
    ident = [o for kind, o in outs if kind == "identity"]
    sc = [o for _, o in outs if "converged" in o]
    quad = [o for _, o in outs if "pairs" in o]
    grids = [o for kind, o in outs if kind.startswith("grid-")]
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0
    figure = lambda value, unit, n: {"value": float(value), "unit": unit, "n": n}
    return {
        "coherent.repeat_ratio": figure(oracle.repeats / oracle.requests if oracle.requests else 0.0,
                                        "ratio", oracle.requests),
        "coherent.distinct_oracle_keys": figure(len(oracle.keys), "count", oracle.requests),
        "semiclassics.newton_iters": figure(mean([o["newton_iters"] for o in ident]), "count", len(ident)),
        "semiclassics.rk4_steps": figure(mean([o["rk4_steps"] for o in ident]), "count", len(ident)),
        "semiclassics.converged_ratio": figure(
            sum(o["converged"] for o in sc) / sum(o["guesses"] for o in sc) if sc else 0.0, "ratio", len(sc)
        ),
        "semiclassics.sc_dev_max": figure(max(sc_devs, default=0.0), "abs", len(sc_devs)),
        "fluctuation.identity_err": figure(
            max((abs(o["value"] - o["inline_ref"]) for o in ident), default=0.0), "abs", len(ident)
        ),
        "discrete.quad_pairs": figure(mean([o["pairs"] for o in quad]), "count", len(quad)),
        "discrete.refinement_delta": figure(max((o["delta"] for o in quad), default=0.0), "abs", len(quad)),
        "wigner.smoothing_dev": figure(max((o["value"] for o in grids), default=0.0), "abs", len(grids)),
    }


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
