"""The two benchmark workloads: seeded inputs, the public calls, their checks.

A task is one user-level request (one public call, or one README CLI
command) together with its check.  Each workload is a list of blocks with a
fixed mix of task classes; the seed draws the inputs inside each class and
the order inside each block, so every seed runs the same mix.  A run
builds and executes a fixed number of whole blocks, so the mix of a run
never depends on where the clock stopped.

Checks compare against a reference that does not share the code path under
test.  ``err`` is |value - reference| / max(1, |reference|): absolute for
propagator values, which are at most 1 in modulus, and relative for the
large determinants and exponents.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

# Public functions the benchmark calls; each becomes a span when traced.
API_FUNCTIONS = (
    "harmonic_hamiltonian", "quartic_position_hamiltonian", "weyl_symbol", "symbol_for_form",
    "exact_propagator", "harmonic_exact_K", "weyl_element", "operator_matrix", "fock_coherent",
    "semiclassical_K", "solve_bvp", "d2S", "trajectory_hessian_samplers",
    "build_matrix", "det_dense", "det_recursive", "det_continuum",
    "quadrature_K", "harmonic_discrete_K", "phi_N", "phi_N_alt", "stationary_path_harmonic",
    "phase_grid_axes", "weyl_U_grid", "husimi_U_grid", "smoothing_check",
)

# Semiclassical vs exact on quartic H: the deviation is the approximation's
# own next order, O(lambda hbar); over 1,200 draws of the trajectories box it
# reached 3.1 lambda hbar (P form, lambda = 0.1, hbar = 1).  A wrong saddle,
# branch or sign moves K by order |K| and still fails.
SC_TOL_PER_LAMBDA_HBAR = 5.0
HARMONIC_SC_TOL = 1e-8  # semiclassics is exact for quadratic H (criterion 6)
IDENTITY_TOL = 1e-6  # criterion 7
DET_TOL = 1e-10  # criterion 5
PHI_TOL = 1e-10
ORACLE_TOL = 1e-9
WEYL_ELEMENT_TOL = 1e-6  # criterion 11
QUAD_TAIL = 1e-7  # disc truncation at 6 widths, which grid refinement does not see


def rel_err(value, ref) -> float:
    return abs(complex(value) - complex(ref)) / max(1.0, abs(complex(ref)))


def in_disc(rng, radius: float, u: float | None = None) -> complex:
    """A point uniform in the disc; ``u`` in [0, 1) fixes its radius quantile."""
    u = rng.uniform() if u is None else u
    return complex(radius * math.sqrt(u) * np.exp(2j * math.pi * rng.uniform()))


def strata(rng, n: int, lo: float = 0.0, hi: float = 1.0) -> list:
    """n draws from [lo, hi), one in each of n equal slices, in random order.

    Task cost grows with T and |z| (Newton iterations), so stratified draws
    keep a block's total cost, and with it the run's timings, from moving
    with the seed.
    """
    return list(lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n)


@dataclass
class Task:
    kind: str
    call: Callable[[], dict]
    check: Callable[[dict, object], tuple[bool, float]]
    ref: Callable[[], object] | None = None
    err_kind: str = "err"  # "err": counts in err_max; "sc": semiclassical deviation


@dataclass
class OracleRequests:
    """Cold or warm by whether this (H, cutoff) was requested earlier in the run."""

    seen: set = field(default_factory=set)
    keys: set = field(default_factory=set)
    requests: int = 0
    repeats: int = 0
    counting: bool = True  # off while a traced run re-executes a block

    def label(self, H, cutoff: int) -> str:
        terms = tuple(sorted(H.terms.items()))
        pair = (terms, H.hbar, cutoff)
        warm = pair in self.seen
        self.seen.add(pair)
        if self.counting:
            self.requests += 1
            self.repeats += warm
            self.keys.update({(terms, H.hbar, cutoff), (terms, H.hbar, 2 * cutoff)})
        return "warm" if warm else "cold"


class Workload:
    name = ""
    refs_in_setup = False
    probes_import = False  # a task runs a bare `import weylpath` in a fresh process
    min_blocks = 1
    block_seconds = 1.0  # one block's wall time on the reference machine (2 cores), rounded up

    def __init__(self, api, wl, seed, tiny: bool, oracle: OracleRequests, outdir: Path,
                 n_blocks: int):
        self.api, self.wl, self.tiny, self.oracle, self.outdir = api, wl, tiny, oracle, outdir
        self.n_blocks = n_blocks
        self.rng = np.random.default_rng(seed)  # an int, or a list of ints for a sub-stream

    @classmethod
    def blocks_for(cls, seconds: float, tiny: bool) -> int:
        """Blocks a run executes: about ``seconds`` on the reference machine."""
        return cls.min_blocks if tiny else max(cls.min_blocks, math.ceil(seconds / cls.block_seconds))

    def warm_up(self) -> None:
        """First calls that load lazily imported modules, outside the timing."""

    def request(self, H, cutoff: int) -> None:
        """Label the next exact_propagator span cold or warm."""
        label = self.oracle.label(H, cutoff)
        if self.api.tracer is not None:
            self.api.tracer.label = label


class Trajectories(Workload):
    """semiclassical_K over seeded endpoints: RK4 + Newton shooting only (a part of ``paths``)."""

    name = "trajectories"
    refs_in_setup = True
    HBARS = (1.0, 0.5, 0.25)
    LAMS = (0.05, 0.1)
    # (H kind, steps, several guesses) per block; the first entry is the
    # accuracy anchor, at the corner of the harmonic draw box where the RK4
    # error is largest, so err_max is the same figure on every seed.  A third
    # of the tasks are harmonic, a third quartic at 512 steps, and a third
    # cost about four 512-step solves: quartic at 2048 steps, or at 512
    # steps with three shooting guesses.
    MIX = (
        ("anchor", 512, False),
        ("harm", 512, False), ("harm", 2048, False), ("harm", 2048, False),
        ("q0.05", 512, False), ("q0.05", 512, False), ("q0.1", 512, False), ("q0.1", 512, False),
        ("quartic", 2048, False), ("quartic", 2048, False),
        ("quartic", 512, True), ("quartic", 512, True),
    )
    TINY_MIX = (("anchor", 512, False), ("harm", 2048, False), ("q0.1", 512, False), ("quartic", 512, True))

    def __init__(self, *args):
        super().__init__(*args)
        api, rng = self.api, self.rng
        self.H = {}
        for hbar in self.HBARS:
            ctx = self.wl.ScaleContext.default(hbar=hbar)
            self.H[(0.0, hbar)] = api.harmonic_hamiltonian(ctx)
            for lam in self.LAMS:
                self.H[(lam, hbar)] = api.quartic_position_hamiltonian(lam, ctx)
        mix = self.TINY_MIX if self.tiny else self.MIX
        self.blocks = []
        for _ in range(self.n_blocks):
            # T and the two radius quantiles, stratified within each class
            draws = {}
            for key in {self._class(e) for e in mix}:
                n = sum(self._class(e) == key for e in mix)
                t_range = (0.5, 5.0) if key[0] == "harm" else (0.2, 0.8)
                draws[key] = iter(zip(strata(rng, n, *t_range), strata(rng, n), strata(rng, n)))
            block = [self._task(*entry, *next(draws[self._class(entry)])) for entry in mix]
            rng.shuffle(block)
            self.blocks.append(block)

    @staticmethod
    def _class(entry) -> tuple:
        kind, steps, multi = entry
        return ("harm" if kind in ("anchor", "harm") else "quartic", steps, multi)

    def _task(self, kind: str, steps: int, multi: bool, T: float, u1: float, u2: float) -> Task:
        rng, api = self.rng, self.api
        form = str(rng.choice(["q", "p", "w"]))
        hbar = float(rng.choice(self.HBARS))
        if kind == "anchor":
            form, hbar, zp, zpp, T = "w", 1.0, 0.8 + 0j, 0.8j, 6.0
        elif kind == "harm":
            zp, zpp = in_disc(rng, 0.8, u1), in_disc(rng, 0.8, u2)
        else:
            zp, zpp = in_disc(rng, 0.7, u1), in_disc(rng, 0.7, u2)
        lam = {"q0.05": 0.05, "q0.1": 0.1}.get(kind, float(rng.choice(self.LAMS)))
        harmonic = kind in ("anchor", "harm")
        H = self.H[(0.0 if harmonic else lam, hbar)]
        s = complex(np.conj(zpp))
        guesses = [None, s, 0.9 * s] if multi else None

        def call():
            res = api.semiclassical_K(form, H, zp, zpp, T, steps=steps, guesses=guesses)
            return {"value": res.K, "converged": len(res.contributions), "guesses": len(guesses or [None])}

        if harmonic:
            return Task(
                f"harmonic-{steps}",
                call,
                lambda out, ref: _close(out["value"], ref, HARMONIC_SC_TOL),
                ref=lambda: api.harmonic_exact_K(zp, zpp, 1.0, T),
            )
        return Task(
            f"quartic-{steps}" + ("-multi" if multi else ""),
            call,
            lambda out, ref: _close(out["value"], ref, SC_TOL_PER_LAMBDA_HBAR * lam * hbar),
            ref=lambda: self._oracle(H, zp, zpp, T),
            err_kind="sc",
        )

    def _oracle(self, H, zp, zpp, T):
        """exact_propagator at the first cutoff from 80 that passes its doubling check."""
        cutoff = 80
        while True:
            self.request(H, cutoff)
            try:
                return self.api.exact_propagator(H, zp, zpp, T, cutoff=cutoff)
            except self.wl.errors.NonConverged:
                if cutoff >= 320:
                    raise
                cutoff *= 2

    def warm_up(self):
        self.api.semiclassical_K("w", self.H[(0.1, 1.0)], 0.3, 0.3, 0.2, steps=16)


class Determinants(Workload):
    """The determinant-action identity, recursion vs dense, and N = 1e5 recursions (a part of ``paths``)."""

    name = "determinants"
    MIX = ("identity", "dense", "dense", "recursive", "phi")
    TINY_MIX = ("identity", "dense", "recursive", "phi")
    N_BIG = 100_000

    def __init__(self, *args):
        super().__init__(*args)
        api, rng, wl = self.api, self.rng, self.wl
        ctx = wl.ScaleContext.default()
        self.syms = {lam: api.weyl_symbol(api.quartic_position_hamiltonian(lam, ctx)) for lam in (0.05, 0.1)}
        # phi_N runs on one fixed path, the W-form stationary path of the
        # oscillator at criterion 3's point: its phi_N - phi_N_alt round-off
        # (5e-12) sets err_max, and a seeded path would move it from seed to seed.
        self.path = api.stationary_path_harmonic(0.5, 0.3 + 0.4j, 1.0, 2 * math.pi, self.N_BIG)
        self.H_W = api.weyl_symbol(api.harmonic_hamiltonian(ctx))
        mix = self.TINY_MIX if self.tiny else self.MIX
        self.blocks = []
        for _ in range(self.n_blocks):
            n = mix.count("identity")  # T, radius quantiles and lambda, stratified
            self._draws = iter(zip(strata(rng, n, 0.4, 1.0), strata(rng, n), strata(rng, n), strata(rng, n)))
            block = [getattr(self, "_" + kind)() for kind in mix]
            rng.shuffle(block)
            self.blocks.append(block)

    def _identity(self) -> Task:
        api, rng = self.api, self.rng
        T, u1, u2, v = next(self._draws)
        sym = self.syms[0.05 if v < 0.5 else 0.1]
        zp, zpps = in_disc(rng, 0.7, u1), in_disc(rng, 0.7, u2)

        def call():
            traj = api.solve_bvp(sym, zp, zpps, T, steps=2048, tol=1e-12)
            d2s, _ = api.d2S(traj)
            A, B, C = api.trajectory_hessian_samplers(traj, sym)
            delta = api.det_continuum(A, B, C, T, steps=1024)
            return {
                "value": delta,
                "inline_ref": 1.0 / (1j * d2s),
                "newton_iters": traj.newton_iters,
                "rk4_steps": (traj.newton_iters + 1) * (len(traj.times) - 1),
            }

        return Task("identity", call, lambda out, _: _close(out["value"], out["inline_ref"], IDENTITY_TOL))

    def _dense(self) -> Task:
        api, rng, wl = self.api, self.rng, self.wl
        N = int(rng.integers(1, 9))
        draw = lambda: rng.normal(size=N) + 1j * rng.normal(size=N)
        co = wl.FluctuationCoeffs(
            A=draw(), B=draw(), C=draw(), tau=float(rng.uniform(0.02, 0.4)), hbar=float(rng.uniform(0.5, 2.0))
        )

        def call():
            rec = api.det_recursive(co).Delta
            dense = api.det_dense(api.build_matrix(co)) / (2j) ** (2 * N)
            return {"value": rec, "inline_ref": dense}

        return Task("dense", call, lambda out, _: _close(out["value"], out["inline_ref"], DET_TOL))

    def _recursive(self) -> Task:
        # A = B = 0 reduces the recursion to Delta_N = prod (1 + i c_k)^2,
        # which numpy evaluates independently.
        api, rng, wl = self.api, self.rng, self.wl
        N = self.N_BIG
        omega, T = float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 2 * math.pi))
        C = omega * (1.0 + 0.3 * np.sin(2 * math.pi * rng.uniform(1, 4) * np.arange(N) / N))
        co = wl.FluctuationCoeffs(A=np.zeros(N), B=np.zeros(N), C=C, tau=T / N)
        c = 0.5 * co.tau * co.C / co.hbar
        return Task(
            "recursive",
            lambda: {"value": api.det_recursive(co).Delta},
            lambda out, ref: _close(out["value"], ref, DET_TOL),
            ref=lambda: np.prod((1.0 + 1j * c) ** 2),
        )

    def _phi(self) -> Task:
        api = self.api
        return Task(
            "phi",
            lambda: {"value": api.phi_N(self.path, self.H_W)},
            lambda out, ref: _close(out["value"], ref, PHI_TOL),
            ref=lambda: api.phi_N_alt(self.path, self.H_W),
        )

    def warm_up(self):
        api = self.api
        traj = api.solve_bvp(self.syms[0.1], 0.3, 0.3, 0.2, steps=16)
        A, B, C = api.trajectory_hessian_samplers(traj, self.syms[0.1])
        api.det_continuum(A, B, C, 0.2, steps=16, step_tolerance=None)


class Paths(Workload):
    """Everything that integrates a path: shooting, the continuum ODE, the recursions."""

    name = "paths"
    refs_in_setup = True  # the warm oracle references of the quartic trajectories
    block_seconds = 6.0
    TRAJ_BLOCKS = 2  # trajectories blocks per block
    # A block is 24 semiclassical_K tasks and 5 determinant tasks, one of
    # them an identity task (about 1.7-2.5 s, the slowest class).  Over six
    # blocks, 174 tasks: the median sits among the 48 quartic 512-step
    # trajectories, the tail (10 samples beyond it) among the 48 that cost
    # about four 512-step solves, below the 6 identity tasks, and the
    # identity tasks hold about a third of the timed wall time.

    def __init__(self, *args):
        super().__init__(*args)
        api, wl, seed, tiny, oracle, outdir, n_blocks = args
        k = 1 if tiny else self.TRAJ_BLOCKS
        self.parts = (Trajectories(api, wl, [seed, 1], tiny, oracle, outdir, k * n_blocks),
                      Determinants(api, wl, [seed, 2], tiny, oracle, outdir, n_blocks))
        traj, det = self.parts
        self.rng = np.random.default_rng([seed, 0])
        self.blocks = []
        for b in range(n_blocks):
            block = [task for part in traj.blocks[k * b:k * (b + 1)] for task in part] + det.blocks[b]
            self.rng.shuffle(block)
            self.blocks.append(block)

    def warm_up(self):
        for part in self.parts:
            part.warm_up()


class PhaseSpaceCalls(Workload):
    """Fock oracle (cold and warm), Weyl elements, brute-force quadrature, grids (a part of ``phase_space``)."""

    name = "phase_space_calls"
    # Per block: 18 new (H, cutoff) requests (two thirds at cutoff 80), 6
    # repeats of earlier ones, 4 Weyl elements, 3 quadratures and 3 grids.
    # Two blocks request 36 new pairs, 72 oracle keys: more than the
    # cache's 64.
    MIX = (("new", 80),) * 12 + (("new", 120),) * 6 + (("repeat", 0),) * 6 + (("weyl_element", 0),) * 4 + (
        ("quadrature", "q"), ("quadrature", "p"), ("quadrature", "w"),
        ("grid", 60), ("grid", 60), ("grid", 200),
    )
    TINY_MIX = (
        ("new", 80), ("new", 120), ("repeat", 0), ("weyl_element", 0), ("quadrature", "w"), ("grid", 60),
    )
    # The README's propagate point: its grid error sets err_max on every seed.
    QUAD_POINT = (0.3 + 0j, 0.5j, 0.2)
    QUAD_N = {"q": 3, "p": 2, "w": 2}

    def __init__(self, *args):
        super().__init__(*args)
        api, rng, wl = self.api, self.rng, self.wl
        self.ctx = wl.ScaleContext.default()
        self.harmonic = api.harmonic_hamiltonian(self.ctx)
        self.quartic = api.quartic_position_hamiltonian(0.05, self.ctx)
        self.elem_H = api.quartic_position_hamiltonian(1.0, self.ctx)
        self.elem_sym = api.weyl_symbol(self.elem_H)
        self.qs, self.ps = api.phase_grid_axes(self.ctx)
        self._elem_matrix = None
        mix = self.TINY_MIX if self.tiny else self.MIX
        self.blocks, self.pairs = [], []
        for _ in range(self.n_blocks):
            entries = list(mix)
            rng.shuffle(entries)
            if not self.pairs:  # the first request of the run cannot be a repeat
                first = next(i for i, e in enumerate(entries) if e[0] == "new")
                entries.insert(0, entries.pop(first))
            self.blocks.append([self._task(kind, arg) for kind, arg in entries])

    def _task(self, kind, arg) -> Task:
        if kind in ("new", "repeat"):
            return self._exact(kind, arg)
        return getattr(self, "_" + kind)(arg)

    def _exact(self, kind, cutoff) -> Task:
        api, rng = self.api, self.rng
        if kind == "new":
            H = api.quartic_position_hamiltonian(float(rng.uniform(0.02, 0.1)), self.ctx)
            self.pairs.append((H, cutoff))
        else:
            H, cutoff = self.pairs[int(rng.integers(len(self.pairs)))]
        zp, zpp, T = in_disc(rng, 0.6), in_disc(rng, 0.6), float(rng.uniform(0.2, 0.5))

        def call():
            self.request(H, cutoff)
            return {"value": api.exact_propagator(H, zp, zpp, T, cutoff=cutoff)}

        return Task(
            f"exact-{cutoff}",
            call,
            lambda out, ref: _close(out["value"], ref, ORACLE_TOL),
            ref=lambda: _expm_element(api, H, zp, zpp, T, 2 * cutoff),
        )

    def _weyl_element(self, _) -> Task:
        api, rng = self.api, self.rng
        z1 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2)
        z2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / math.sqrt(2)

        def ref():
            if self._elem_matrix is None:
                self._elem_matrix = api.operator_matrix(self.elem_H, 80)
            v1 = api.fock_coherent(z1, 80).amplitudes
            v2 = api.fock_coherent(z2, 80).amplitudes
            return np.vdot(v2, self._elem_matrix @ v1)

        return Task(
            "weyl_element",
            lambda: {"value": api.weyl_element(self.elem_sym, z1, z2)},
            lambda out, r: _close(out["value"], r, WEYL_ELEMENT_TOL),
            ref=ref,
        )

    def _quadrature(self, form) -> Task:
        api = self.api
        N = self.QUAD_N[form]
        zp, zpp, T = self.QUAD_POINT

        def call():
            res = api.quadrature_K(form, self.harmonic, zp, zpp, T, N)
            return {"value": res.value, "delta": res.refinement_delta, "pairs": _quad_pairs(res)}

        return Task(
            f"quadrature-{form}",
            call,
            lambda out, ref: _close(out["value"], ref, out["delta"] + QUAD_TAIL),
            ref=lambda: api.harmonic_discrete_K(form, zp, zpp, 1.0, T, N),
        )

    def _grid(self, cutoff) -> Task:
        api, rng = self.api, self.rng
        harmonic = bool(rng.integers(2))
        H, tol = (self.harmonic, 1e-4) if harmonic else (self.quartic, 1e-3)  # criterion 10
        T = float(rng.uniform(0.3, 1.0))

        def call():
            gw = api.weyl_U_grid(H, self.ctx, T, self.qs, self.ps, cutoff=cutoff)
            gh = api.husimi_U_grid(H, self.ctx, T, self.qs, self.ps, cutoff=cutoff)
            return {"value": api.smoothing_check(gw, gh, self.ctx)}

        return Task(f"grid-{cutoff}", call, lambda out, _: _close(out["value"], 0.0, tol))

    def warm_up(self):
        api = self.api
        api.quadrature_K("w", self.harmonic, 0.3, 0.5j, 0.2, 2, self.wl.DiscGridSpec(points=8))
        qs, ps = api.phase_grid_axes(self.ctx, nq=8, npts=8, q_widths=1.0, p_widths=1.0)
        api.smoothing_check(
            api.weyl_U_grid(self.harmonic, self.ctx, 0.2, qs, ps, cutoff=20, check=False),
            api.husimi_U_grid(self.harmonic, self.ctx, 0.2, qs, ps, cutoff=20),
            self.ctx,
            margin_sigmas=0.5,
        )


class CliCold(Workload):
    """The README commands, each a fresh process, after a bare import probe (a part of ``phase_space``)."""

    name = "cli_cold"
    COMMANDS = {
        "symbols": ["symbols", "--hamiltonian", "quartic.json"],
        "harmonic-compare": [
            "harmonic-compare", "--T", "6.2831853", "--z0", "0.5,0", "--z1", "0.3,0.4",
            "--N-list", "10,100,1000", "--out", "table.csv",
        ],
        "propagate-exact": [
            "propagate", "--hamiltonian", "harmonic.json", "--form", "exact",
            "--z0", "0.3,0", "--z1", "0,0.5", "--T", "1.0",
        ],
        "propagate-w": [
            "propagate", "--hamiltonian", "harmonic.json", "--form", "w", "--N", "2",
            "--z0", "0.3,0", "--z1", "0,0.5", "--T", "0.2",
        ],
        "semiclassical": [
            "semiclassical", "--hamiltonian", "quartic.json", "--form", "w",
            "--z0", "0.7,0", "--z1", "0.7,0", "--T", "0.5",
        ],
        "wigner-u": ["wigner-u", "--hamiltonian", "harmonic.json", "--T", "1.0", "--out", "grid.csv"],
    }
    TINY = ("propagate-exact", "semiclassical")
    HAMILTONIANS = {
        "harmonic.json": {"hbar": 1.0, "ordering": "normal",
                          "terms": [{"m": 1, "n": 1, "re": 1.0}, {"m": 0, "n": 0, "re": 0.5}]},
        "quartic.json": {"hbar": 1.0, "ordering": "weyl_qp",
                         "terms": [{"m": 0, "n": 2, "re": 0.5}, {"m": 2, "n": 0, "re": 0.5},
                                   {"m": 4, "n": 0, "re": 0.1}]},
    }

    def __init__(self, *args):
        super().__init__(*args)
        self.outdir.mkdir(parents=True, exist_ok=True)
        for name, data in self.HAMILTONIANS.items():
            (self.outdir / name).write_text(json.dumps(data))
        names = list(self.TINY if self.tiny else self.COMMANDS)
        self.blocks, self._inproc = [], {}
        for _ in range(self.n_blocks):
            self.rng.shuffle(names)
            self.blocks.append([self._probe()] + [self._command(n) for n in names])

    def _run(self, span: str, argv):
        """One child process, run to completion; traced as a span of its own."""
        tracer = self.api.tracer
        sid = tracer.begin(span) if tracer is not None and tracer.on else None
        try:
            proc = subprocess.run(argv, cwd=self.outdir, capture_output=True, text=True, check=False)
        finally:
            if sid is not None:
                tracer.end(sid)
        return proc.returncode, proc.stdout, proc.stderr

    def _probe(self) -> Task:
        def call():
            rc, out, err = self._run("cli.import", [sys.executable, "-c", "import weylpath"])
            return {"rc": rc, "stdout": out + err}

        return Task("import", call, lambda out, _: (out["rc"] == 0 and out["stdout"] == "", None))

    def _command(self, name) -> Task:
        args = self.COMMANDS[name]
        out_file = args[args.index("--out") + 1] if "--out" in args else None

        def call():
            rc, text, err = self._run(f"cli.{name}", [sys.executable, "-m", "weylpath.cli", *args])
            if out_file is not None and rc == 0:
                text = (self.outdir / out_file).read_text()
            return {"rc": rc, "text": text, "stderr": err}

        return Task(name, call, lambda out, ref: self._check(name, out, ref),
                    ref=lambda: self._in_process(name, args, out_file),
                    err_kind="sc" if name == "semiclassical" else "err")

    def _in_process(self, name, args, out_file):
        """The same command through weylpath.cli.main in this process."""
        if name not in self._inproc:
            argv = list(args)
            if out_file is not None:
                argv[argv.index("--out") + 1] = str(self.outdir / ("inproc-" + out_file))
            buf = io.StringIO()
            with contextlib.chdir(self.outdir), contextlib.redirect_stdout(buf):
                rc = self.wl.cli.main(argv)
            text = buf.getvalue() if out_file is None else (self.outdir / ("inproc-" + out_file)).read_text()
            self._inproc[name] = (rc, text)
        return self._inproc[name]

    def _check(self, name, out, ref):
        """Same bytes as the in-process call, plus an independent numeric reference."""
        rc_ref, text_ref = ref
        if out["rc"] != 0 or rc_ref != 0 or out["text"] != text_ref:
            return False, None
        api, text = self.api, out["text"]
        if name == "propagate-exact":
            rec = json.loads(text)
            exact = api.harmonic_exact_K(0.3, 0.5j, 1.0, 1.0)
            return _close(complex(rec["re_K"], rec["im_K"]), exact, ORACLE_TOL)
        if name == "propagate-w":
            rec = json.loads(text)
            exact = api.harmonic_discrete_K("w", 0.3, 0.5j, 1.0, 0.2, 2)
            return _close(complex(rec["re_K"], rec["im_K"]), exact, rec["refinement_delta"] + QUAD_TAIL)
        if name == "harmonic-compare":
            errs = [
                rel_err(complex(float(r["re_K"]), float(r["im_K"])),
                        api.harmonic_discrete_K(r["form"], 0.5, 0.3 + 0.4j, 1.0, 6.2831853, int(r["N"])))
                for r in csv.DictReader(io.StringIO(text))
            ]
            return max(errs) <= ORACLE_TOL, max(errs)
        if name == "semiclassical":
            rec = json.loads(text)
            H, _ = self.wl.load_hamiltonian(self.HAMILTONIANS["quartic.json"])
            self.oracle.label(H, 120)
            exact = api.exact_propagator(H, 0.7, 0.7, 0.5, cutoff=120)
            return _close(complex(rec["re_K"], rec["im_K"]), exact, SC_TOL_PER_LAMBDA_HBAR * 0.1 * 1.0)
        if name == "wigner-u":
            rows = list(csv.DictReader(io.StringIO(text)))
            ctx = self.wl.ScaleContext.default()
            qs, ps = api.phase_grid_axes(ctx)
            shape = (len(qs), len(ps))
            grid = lambda col: np.array(
                [complex(float(r["re_" + col]), float(r["im_" + col])) for r in rows]
            ).reshape(shape)
            dev = api.smoothing_check(self.wl.PhaseSpaceGrid(qs, ps, grid("U")),
                                      self.wl.PhaseSpaceGrid(qs, ps, grid("husimi")), ctx)
            return _close(dev, 0.0, 1e-4)
        return True, None  # symbols: exact text match is the whole check


class PhaseSpace(Workload):
    """The exact and dense-numpy side, in process and through the README commands."""

    name = "phase_space"
    block_seconds = 15.0
    CALL_BLOCKS_PER_CLI = 3  # one block of README commands per this many blocks of calls
    # Three blocks of in-process calls (102 tasks) and one of README
    # commands (7 fresh processes, 1.5-4 s each), spread over them.  About
    # as many tasks run faster than a cold cutoff-80 oracle request as run
    # slower, so the median sits inside that class.  The 19 slowest tasks
    # (quadratures, cutoff-200 grids, the commands) lie between 1 and 4 s,
    # so the tail lands among the light commands and the Q-form quadratures
    # (1.6-2.2 s).  Three blocks request 54 new pairs, 108 oracle keys:
    # more than the cache's 64.
    probes_import = True

    def __init__(self, *args):
        super().__init__(*args)
        api, wl, seed, tiny, oracle, outdir, n_blocks = args
        self.parts = (PhaseSpaceCalls(api, wl, [seed, 1], tiny, oracle, outdir, n_blocks),
                      CliCold(api, wl, [seed, 2], tiny, oracle, outdir,
                              max(1, n_blocks // self.CALL_BLOCKS_PER_CLI)))
        calls, cli = self.parts
        self.rng = np.random.default_rng([seed, 0])
        self.blocks = [list(block) for block in calls.blocks]
        # Commands go in at seeded places; the calls keep their order, so a
        # repeated oracle request still follows the request it repeats.
        commands = [task for block in cli.blocks for task in block]
        for i, task in enumerate(commands):
            block = self.blocks[i % n_blocks]
            block.insert(int(self.rng.integers(1, len(block) + 1)), task)

    def warm_up(self):
        self.parts[0].warm_up()


def _close(value, ref, tol) -> tuple[bool, float]:
    err = rel_err(value, ref)
    return bool(np.isfinite(err) and err <= tol), err


def _expm_element(api, H, zp, zpp, T, cutoff):
    """<zpp| exp(-i H T / hbar) |zp> by scipy's Pade expm: independent of the eigh oracle."""
    U = expm((-1j * T / H.hbar) * api.operator_matrix(H, cutoff))
    v1 = api.fock_coherent(zp, cutoff).amplitudes
    v2 = api.fock_coherent(zpp, cutoff).amplitudes
    return complex(np.vdot(v2, U @ v1))


def _disc_count(n: int) -> int:
    """Points of an n x n grid inside the inscribed disc (DiscGridSpec's planes)."""
    ax = np.linspace(-1.0, 1.0, n)
    return int(np.count_nonzero(ax[:, None] ** 2 + ax[None, :] ** 2 <= 1.0))


def _quad_pairs(res) -> int:
    """Kernel entries over the coarse and the refined pass."""
    coarse = _disc_count(48)  # DiscGridSpec().points
    fine = res.points_per_plane
    return coarse ** 2 + fine ** 2 if res.dims == 4 else coarse + fine


WORKLOADS = {cls.name: cls for cls in (Paths, PhaseSpace)}
