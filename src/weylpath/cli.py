"""Command-line front end: Hamiltonian ingestion and experiment drivers.

Exit codes: 0 success, 1 parse/usage error or HamiltonianFormatError,
2 NonConverged, 3 DomainError or ValueError.  Complex numbers are always
emitted as separate re/im columns or fields, and repeated runs with the same
configuration give bit-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import errors
from .algebra import FORM_S, load_hamiltonian, symbol_for_form, symbol_to_qp
from .coherent import exact_propagator
from .discrete import DiscGridSpec, convergence_table, quadrature_K
from .semiclassics import semiclassical_K
from .wigner import husimi_U_grid, phase_grid_axes, weyl_U_grid

EXIT_PARSE = 1
EXIT_CONVERGENCE = 2
EXIT_NUMERIC = 3


def _parse_complex(text: str) -> complex:
    """Argument type: a 're,im' pair of finite numbers."""
    try:
        re_s, im_s = text.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im' pair, got {text!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise argparse.ArgumentTypeError(f"expected finite parts, got {text!r}")
    return z


def _checked(kind, ok, wanted: str):
    """Argument type: a finite ``kind`` value for which ``ok`` holds."""

    def parse(text: str):
        try:
            val = kind(text)
            finite = math.isfinite(val)
        except (ValueError, OverflowError):
            raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
        if not (finite and ok(val)):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return val

    return parse


def _at_least(low, kind=float):
    """Argument type: a finite ``kind`` value no smaller than ``low``."""
    return _checked(kind, lambda val: val >= low, f"at least {low}")


_finite = _checked(float, lambda val: True, "finite")
_positive = _checked(float, lambda val: val > 0, "positive")


def _list_of(item):
    """Argument type: comma-separated values, each parsed by ``item``."""
    return lambda text: [item(part) for part in text.split(",")]


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows: list[dict], fieldnames: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row[k]) for k in fieldnames})
    return buf.getvalue()


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return value


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _c_fields(z: complex, prefix: str) -> dict:
    return {f"re_{prefix}": z.real, f"im_{prefix}": z.imag}


def _poly_listing(terms: dict, names: tuple[str, str]) -> list[str]:
    lines = []
    for (m, n), c in sorted(terms.items()):
        lines.append(
            f"  {names[0]}^{m} {names[1]}^{n}: {c.real:+.12g}"
            + (f" {c.imag:+.12g}i" if abs(c.imag) > 0 else "")
        )
    return lines or ["  0"]


def cmd_symbols(args) -> int:
    op, ctx = load_hamiltonian(args.hamiltonian)
    sections = []
    for form in FORM_S:
        label, sym = f"H_{form.upper()}", symbol_for_form(op, form)
        sections.append(f"{label} in (u, v):")
        sections.extend(_poly_listing(sym.trimmed().terms, ("v", "u")))
        sections.append(f"{label} in (q, p):")
        sections.extend(_poly_listing(symbol_to_qp(sym, ctx), ("q", "p")))
    _emit("\n".join(sections) + "\n", args.out)
    return 0


def cmd_harmonic_compare(args) -> int:
    rows = convergence_table(args.omega, args.T, args.z0, args.z1, args.N_list)
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    else:
        _emit(_csv_text(rows, list(rows[0])), args.out)
    return 0


def cmd_propagate(args) -> int:
    op, _ = load_hamiltonian(args.hamiltonian)
    record = {
        "T": args.T,
        "form": args.form,
        "cutoff": args.cutoff,
        "tolerance": args.tol,
        **_c_fields(args.z0, "z0"),
        **_c_fields(args.z1, "z1"),
    }
    if args.form == "exact":
        K = exact_propagator(
            op,
            args.z0,
            args.z1,
            args.T,
            cutoff=args.cutoff,
            check_tolerance=args.tol if args.tol is not None else 1e-10,
        )
    else:
        grid = DiscGridSpec(tolerance=args.tol)
        result = quadrature_K(args.form, op, args.z0, args.z1, args.T, args.N, grid)
        record["refinement_delta"] = result.refinement_delta
        record["N"] = args.N
        K = result.value
    record.update(_c_fields(K, "K"))
    if args.format == "csv":
        fields = sorted(record)
        _emit(_csv_text([record], fields), args.out)
    else:
        _emit(_json_text(record), args.out)
    return 0


def cmd_semiclassical(args) -> int:
    op, _ = load_hamiltonian(args.hamiltonian)
    result = semiclassical_K(
        args.form, op, args.z0, args.z1, args.T, steps=args.steps, tol=args.tol
    )
    record = {
        "T": args.T,
        "form": args.form,
        "steps": args.steps,
        "tolerance": args.tol,
        **_c_fields(args.z0, "z0"),
        **_c_fields(args.z1, "z1"),
        **_c_fields(result.K, "K"),
        "trajectories": [
            {
                **_c_fields(tr.v0, "v0"),
                **_c_fields(tr.S, "S"),
                **_c_fields(tr.I, "I"),
                **_c_fields(tr.d2S, "d2S"),
                **_c_fields(tr.term, "term"),
                "residual": tr.residual,
            }
            for tr in result.contributions
        ],
    }
    _emit(_json_text(record), args.out)
    return 0


def cmd_wigner_u(args) -> int:
    op, ctx = load_hamiltonian(args.hamiltonian)
    qs, ps = phase_grid_axes(
        ctx, nq=args.nq, npts=args.np, q_widths=args.q_widths, p_widths=args.p_widths
    )
    weyl = weyl_U_grid(op, ctx, args.T, qs, ps, cutoff=args.cutoff)
    husimi = husimi_U_grid(op, ctx, args.T, qs, ps, cutoff=args.cutoff)
    rows = []
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            rows.append(
                {
                    "q": q,
                    "p": p,
                    "re_U": weyl.values[i, j].real,
                    "im_U": weyl.values[i, j].imag,
                    "re_husimi": husimi.values[i, j].real,
                    "im_husimi": husimi.values[i, j].imag,
                }
            )
    if args.format == "json":
        _emit(_json_text(rows), args.out)
    else:
        _emit(_csv_text(rows, list(rows[0])), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylpath",
        description="Coherent-state propagators in the Q, P and Weyl representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--omega", type=_finite, default=1.0)
    p.add_argument("--T", type=_finite, required=True)
    p.add_argument("--z0", type=_parse_complex, default=0j, help="initial label re,im")
    p.add_argument("--z1", type=_parse_complex, default=0j, help="final label re,im")
    p.add_argument(
        "--N-list", type=_list_of(_at_least(1, int)), required=True,
        help="comma separated slice counts",
    )
    p.set_defaults(func=cmd_harmonic_compare, format="csv")

    p = sub.add_parser("propagate", help="exact or brute-force discrete propagator")
    common(p)
    p.add_argument("--form", choices=(*FORM_S, "exact"), default="exact")
    p.add_argument("--z0", type=_parse_complex, required=True)
    p.add_argument("--z1", type=_parse_complex, required=True)
    p.add_argument("--T", type=_at_least(0.0), required=True)
    p.add_argument("--N", type=_at_least(1, int), default=2)
    p.add_argument("--cutoff", type=_at_least(0, int), default=80)
    p.add_argument("--tol", type=_positive, default=None)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("semiclassical", help="complex-trajectory propagator")
    common(p, formats=False)
    p.add_argument("--form", choices=tuple(FORM_S), default="w")
    p.add_argument("--z0", type=_parse_complex, required=True)
    p.add_argument("--z1", type=_parse_complex, required=True)
    p.add_argument("--T", type=_at_least(0.0), required=True)
    p.add_argument("--steps", type=_at_least(16, int), default=512)
    p.add_argument("--tol", type=_positive, default=1e-10)
    p.set_defaults(func=cmd_semiclassical)

    p = sub.add_parser("wigner-u", help="Weyl and Husimi grids of the evolution")
    common(p)
    p.add_argument("--T", type=_finite, required=True)
    p.add_argument("--cutoff", type=_at_least(0, int), default=200)
    p.add_argument("--nq", type=_at_least(1, int), default=64)
    p.add_argument("--np", type=_at_least(1, int), default=64)
    p.add_argument("--q-widths", type=_positive, default=4.0)
    p.add_argument("--p-widths", type=_positive, default=4.0)
    p.set_defaults(func=cmd_wigner_u, format="csv")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except errors.HamiltonianFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except errors.NonConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (errors.DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
