"""Command-line front end: Hamiltonian ingestion and experiment drivers.

Exit codes: 0 success, 1 a parse/usage error or an unwritable ``--out``, else the
``exit_code`` of the ``errors.WeylPathError`` a command raised; any other exception is a
program fault and ends in a traceback.  Complex numbers are always emitted as separate
re/im fields, and repeated runs with the same configuration give bit-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

# every command reads algebra; each imports the rest of what it runs in its own body
from . import errors
from .algebra import FORM_S, load_hamiltonian, symbol_for_form, symbol_to_qp
from .errors import require_finite, require_index, require_nonnegative, require_positive

EXIT_PARSE = 1


def _parse_complex(text: str) -> complex:
    """Argument type: a 're,im' pair of numbers."""
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im' pair, got {text!r}")


def _checked(kind, rule, name: str, *least):
    """Argument type: ``kind(text)`` checked under ``name`` by the ``errors`` helper ``rule``,
    as ``rule(name=value)`` or, given a bound ``least`` (``require_index``), as
    ``rule(value, name, *least)``.  A ValueError of ``kind`` or of ``rule`` (InvalidArgument is
    one) becomes a parse error, exit 1, with its message."""

    def parse(text: str):
        try:
            value = kind(text)
            if least:
                rule(value, name, *least)
            else:
                rule(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


def _steps(text: str) -> int:
    """Argument type: a shooting step count, at least ``semiclassics.MIN_STEPS``."""
    from .semiclassics import MIN_STEPS

    return _checked(int, require_index, "steps", MIN_STEPS)(text)


def _list_of(item):
    """Argument type: comma-separated values, each parsed by ``item``."""
    return lambda text: [item(part) for part in text.split(",")]


def _cell(value) -> str:
    """One CSV cell: a float as ``.17g``, None as empty, anything else as ``str``."""
    if isinstance(value, float):
        return f"{value:.17g}"
    return "" if value is None else str(value)


def _write(payload, fmt: str | None, out_path: str | None) -> int:
    """The one output site: write a command's payload and return the exit code.

    A ``str`` goes out as it is, anything else as sorted JSON or, with ``fmt == "csv"``, as
    rows (a record is one row with sorted columns; a list keeps its first row's key order).
    The text goes to ``out_path``, else to ``sys.stdout`` as it is at the call.
    """
    if isinstance(payload, str):
        text = payload
    elif fmt != "csv":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        rows = [payload] if isinstance(payload, dict) else payload
        cols = sorted(payload) if isinstance(payload, dict) else list(rows[0])
        lines = [cols] + [[_cell(row[k]) for k in cols] for row in rows]
        text = "".join(",".join(line) + "\n" for line in lines)
    if not out_path:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return 0


def _c_fields(**values) -> dict:
    """Separate re_<name> and im_<name> fields for each complex value."""
    fields = {}
    for name, z in values.items():
        fields.update({f"re_{name}": z.real, f"im_{name}": z.imag})
    return fields


def _poly_listing(terms: dict, names: tuple[str, str]) -> list[str]:
    lines = []
    for (m, n), c in sorted(terms.items()):
        lines.append(
            f"  {names[0]}^{m} {names[1]}^{n}: {c.real:+.12g}"
            + (f" {c.imag:+.12g}i" if abs(c.imag) > 0 else "")
        )
    return lines or ["  0"]


def cmd_symbols(args) -> str:
    op, ctx = load_hamiltonian(args.hamiltonian)
    sections = []
    for form in FORM_S:
        label, sym = f"H_{form.upper()}", symbol_for_form(op, form)
        sections.append(f"{label} in (u, v):")
        sections.extend(_poly_listing(sym.trimmed().terms, ("v", "u")))
        sections.append(f"{label} in (q, p):")
        sections.extend(_poly_listing(symbol_to_qp(sym, ctx), ("q", "p")))
    return "\n".join(sections) + "\n"


def cmd_harmonic_compare(args) -> list[dict]:
    from .discrete import convergence_table

    return convergence_table(args.omega, args.T, args.z0, args.z1, args.N_list)


def cmd_propagate(args) -> dict:
    op, _ = load_hamiltonian(args.hamiltonian)
    record = {"T": args.T, "form": args.form, **_c_fields(z0=args.z0, z1=args.z1)}
    if args.form == "exact":
        from .coherent import CUTOFF_TOLERANCE, DEFAULT_CUTOFF, exact_propagator

        cutoff = DEFAULT_CUTOFF if args.cutoff is None else args.cutoff
        tol = CUTOFF_TOLERANCE if args.tol is None else args.tol
        K = exact_propagator(op, args.z0, args.z1, args.T, cutoff, check_tolerance=tol)
        record.update(cutoff=cutoff, tolerance=tol)
    else:
        from .discrete import DiscGridSpec, quadrature_K

        grid = DiscGridSpec(tolerance=args.tol)
        result = quadrature_K(args.form, op, args.z0, args.z1, args.T, args.N, grid)
        record.update(N=args.N, refinement_delta=result.refinement_delta, tolerance=args.tol)
        K = result.value
    return {**record, **_c_fields(K=K)}


def cmd_semiclassical(args) -> dict:
    from .semiclassics import semiclassical_K

    op, _ = load_hamiltonian(args.hamiltonian)
    result = semiclassical_K(args.form, op, args.z0, args.z1, args.T, steps=args.steps, tol=args.tol)
    return {
        "T": args.T,
        "form": args.form,
        "steps": result.steps,
        "tolerance": args.tol,
        **_c_fields(z0=args.z0, z1=args.z1, K=result.K),
        "trajectories": [
            {**_c_fields(v0=tr.v0, S=tr.S, I=tr.I, d2S=tr.d2S, term=tr.term), "residual": tr.residual}
            for tr in result.contributions
        ],
    }


def cmd_wigner_u(args) -> list[dict]:
    from .wigner import GRID_CUTOFF, husimi_U_grid, phase_grid_axes, weyl_U_grid

    op, ctx = load_hamiltonian(args.hamiltonian)
    qs, ps = phase_grid_axes(
        ctx, nq=args.nq, npts=args.np, q_widths=args.q_widths, p_widths=args.p_widths
    )
    cutoff = GRID_CUTOFF if args.cutoff is None else args.cutoff
    weyl = weyl_U_grid(op, ctx, args.T, qs, ps, cutoff=cutoff)
    husimi = husimi_U_grid(op, ctx, args.T, qs, ps, cutoff=cutoff)
    # lists of Python floats: a cell indexed from an array is a numpy scalar, slower to write
    re_U, im_U, re_husimi, im_husimi = (
        part.tolist() for g in (weyl, husimi) for part in (g.values.real, g.values.imag)
    )
    return [
        {
            "q": q,
            "p": p,
            "re_U": re_U[i][j],
            "im_U": im_U[i][j],
            "re_husimi": re_husimi[i][j],
            "im_husimi": im_husimi[i][j],
        }
        for i, q in enumerate(qs.tolist())
        for j, p in enumerate(ps.tolist())
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylpath",
        description="Coherent-state propagators in the Q, P and Weyl representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # option types that several commands share
    z0, z1 = (_checked(_parse_complex, require_finite, name) for name in ("z0", "z1"))
    cutoff = _checked(int, require_index, "cutoff", 0)
    tol = _checked(float, require_positive, "tol")

    def common(p, needs_h=True, formats=True):
        if needs_h:
            p.add_argument("--hamiltonian", required=True, help="JSON description")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("symbols", help="print the Q, P and Weyl symbols")
    common(p, formats=False)
    p.set_defaults(func=cmd_symbols)

    p = sub.add_parser(
        "harmonic-compare", help="finite-N harmonic propagators vs the exact one"
    )
    common(p, needs_h=False)
    p.add_argument("--omega", type=_checked(float, require_finite, "omega"), default=1.0)
    p.add_argument("--T", type=_checked(float, require_finite, "T"), required=True)
    p.add_argument("--z0", type=z0, default=0j, help="initial label re,im")
    p.add_argument("--z1", type=z1, default=0j, help="final label re,im")
    p.add_argument(
        "--N-list", type=_list_of(_checked(int, require_index, "N", 1)), required=True,
        help="comma separated slice counts",
    )
    p.set_defaults(func=cmd_harmonic_compare, format="csv")

    p = sub.add_parser("propagate", help="exact or brute-force discrete propagator")
    common(p)
    p.add_argument("--form", choices=(*FORM_S, "exact"), default="exact")
    p.add_argument("--z0", type=z0, required=True)
    p.add_argument("--z1", type=z1, required=True)
    p.add_argument("--T", type=_checked(float, require_nonnegative, "T"), required=True)
    p.add_argument("--N", type=_checked(int, require_index, "N", 1), default=2)
    p.add_argument("--cutoff", type=cutoff, default=None)  # coherent.DEFAULT_CUTOFF
    p.add_argument("--tol", type=tol, default=None)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("semiclassical", help="complex-trajectory propagator")
    common(p, formats=False)
    p.add_argument("--form", choices=tuple(FORM_S), default="w")
    p.add_argument("--z0", type=z0, required=True)
    p.add_argument("--z1", type=z1, required=True)
    p.add_argument("--T", type=_checked(float, require_nonnegative, "T"), required=True)
    p.add_argument("--steps", type=_steps, default=512)
    p.add_argument("--tol", type=tol, default=1e-10)
    p.set_defaults(func=cmd_semiclassical)

    p = sub.add_parser("wigner-u", help="Weyl and Husimi grids of the evolution")
    common(p)
    p.add_argument("--T", type=_checked(float, require_finite, "T"), required=True)
    p.add_argument("--cutoff", type=cutoff, default=None)  # wigner.GRID_CUTOFF
    p.add_argument("--nq", type=_checked(int, require_index, "nq", 1), default=64)
    p.add_argument("--np", type=_checked(int, require_index, "np", 1), default=64)
    p.add_argument("--q-widths", type=_checked(float, require_positive, "q_widths"), default=4.0)
    p.add_argument("--p-widths", type=_checked(float, require_positive, "p_widths"), default=4.0)
    p.set_defaults(func=cmd_wigner_u, format="csv")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        payload = args.func(args)
    except errors.WeylPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return _write(payload, getattr(args, "format", None), args.out)


if __name__ == "__main__":
    sys.exit(main())
