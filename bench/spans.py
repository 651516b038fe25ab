"""Spans recorded from outside the package, and the per-layer figures built from them.

Every call the benchmark makes into a public weylpath function can go
through a wrapper that records a span: name ``<module>.<function>``, start,
end, parent span and task id.  The spans stay in memory and are summarised
when the run ends.  Nothing inside the package is instrumented, so a call a
public function makes internally is not a span of its own.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None
    label: str | None = None


@dataclass
class Tracer:
    on: bool = False
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    task: int | None = None
    label: str | None = None  # consumed by the next span, e.g. "cold" / "warm"

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        label, self.label = self.label, None
        self._stack.append(sid)
        self.spans.append(Span(sid, name, time.perf_counter(), 0.0, parent, self.task, label))
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str | None = None):
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                self.label = None
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)

        return traced


def _self_times(spans: list) -> dict:
    """Duration of each span minus the part of it its children cover."""
    covered = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.sid: (s.end - s.start) - covered[s.sid] for s in spans}


# Per-layer time metrics: metric name -> span names it aggregates, and the
# span label it requires (None: any).
TIME_METRICS = {
    "algebra.symbols_s": (
        ("algebra.q_symbol", "algebra.p_symbol", "algebra.weyl_symbol", "algebra.symbol_for_form",
         "algebra.quartic_position_hamiltonian"),  # the last is a Weyl quantization
        None,
    ),
    "coherent.exact_propagator_cold_s": (("coherent.exact_propagator",), "cold"),
    "coherent.exact_propagator_warm_s": (("coherent.exact_propagator",), "warm"),
    "coherent.weyl_element_s": (("coherent.weyl_element",), None),
    "semiclassics.semiclassical_K_s": (("semiclassics.semiclassical_K",), None),
    "semiclassics.solve_bvp_s": (("semiclassics.solve_bvp",), None),
    "semiclassics.samplers_s": (("semiclassics.trajectory_hessian_samplers",), None),
    "fluctuation.det_continuum_s": (("fluctuation.det_continuum",), None),
    "fluctuation.det_recursive_s": (("fluctuation.det_recursive",), None),
    "fluctuation.det_dense_s": (("fluctuation.det_dense",), None),
    "discrete.quadrature_K_s": (("discrete.quadrature_K",), None),
    "discrete.phi_N_s": (("discrete.phi_N",), None),
    "wigner.weyl_U_grid_s": (("wigner.weyl_U_grid",), None),
    "wigner.husimi_U_grid_s": (("wigner.husimi_U_grid",), None),
    "wigner.smoothing_check_s": (("wigner.smoothing_check",), None),
    "cli.import_s": (("cli.import",), None),
    "cli.symbols_s": (("cli.symbols",), None),
    "cli.harmonic_compare_s": (("cli.harmonic-compare",), None),
    "cli.propagate_exact_s": (("cli.propagate-exact",), None),
    "cli.propagate_w_s": (("cli.propagate-w",), None),
    "cli.semiclassical_s": (("cli.semiclassical",), None),
    "cli.wigner_u_s": (("cli.wigner-u",), None),
}


def layer_times(spans: list, task_wall: float, scale=lambda span: 1.0) -> dict:
    """For each time metric: per-call median, total, and self-time share.

    The share is the metric's self time inside tasks over the traced task
    wall time; spans outside tasks (set-up) count in the median and total
    only.  ``scale(span)`` turns a span's duration into the reported time
    (the benchmark scales to the reference host speed); the share is a
    ratio of wall times.  A layer the workload never calls reports zeros
    with n = 0.
    """
    selfs = _self_times(spans)
    out = {}
    for metric, (names, label) in TIME_METRICS.items():
        hits = [s for s in spans if s.name in names and (label is None or s.label == label)]
        durs = [(s.end - s.start) * scale(s) for s in hits]
        in_tasks = sum(selfs[s.sid] for s in hits if s.task is not None)
        out[metric] = {"value": statistics.median(durs) if durs else 0.0, "unit": "s", "n": len(durs)}
        out[metric + ".total"] = {"value": sum(durs, 0.0), "unit": "s", "n": len(durs)}
        out[metric + ".self_share"] = {
            "value": in_tasks / task_wall if task_wall > 0 else 0.0,
            "unit": "ratio",
            "n": len(durs),
        }
    return out


def coverage(spans: list, task_spans: list) -> float:
    """Time covered by layer spans directly under task spans, over task wall time."""
    roots = {s.sid for s in task_spans}
    covered = sum(s.end - s.start for s in spans if s.parent in roots)
    wall = sum(s.end - s.start for s in task_spans)
    return covered / wall if wall > 0 else 0.0
