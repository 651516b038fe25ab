"""Exception hierarchy shared by all weylpath modules, and the one refinement check.

Each error class maps to one CLI exit code: malformed input (1), a
refinement or iteration that did not converge (2), and a numerical-domain
failure such as a truncated tail, a caustic or a singular pivot (3).
"""

from __future__ import annotations

import math

import numpy as np


class WeylPathError(Exception):
    """Base class for all errors raised by this package."""


class HamiltonianFormatError(WeylPathError):
    """A Hamiltonian description (JSON file or term map) is malformed."""


class NonConverged(WeylPathError):
    """A refinement check or an iteration failed to stabilise."""


class DomainError(WeylPathError):
    """The inputs lie outside the region where a method is valid."""


class CausticWarning(UserWarning):
    """Emitted when a trajectory passes close to a caustic."""


def refine(coarse, fine, tol: float | None, what: str):
    """Compare a result with its refinement: ``(fine, delta)``.

    ``delta`` is max |fine - coarse| over scalars or arrays.  Raises
    :class:`NonConverged` unless ``delta <= tol``; with ``tol=None`` only a
    non-finite delta raises.
    """
    delta = float(np.abs(np.subtract(fine, coarse)).max())
    if not (delta <= tol if tol is not None else math.isfinite(delta)):
        bound = "" if tol is None else f" (tolerance {tol:.3e})"
        raise NonConverged(f"{what} moved the result by {delta:.3e}{bound}")
    return fine, delta


def refuse_bool(**values) -> None:
    """Raise ValueError naming the first value that is a Python or numpy boolean."""
    for name, val in values.items():
        if isinstance(val, (bool, np.bool_)):
            raise ValueError(f"{name} must be a number, not the boolean {val}")


def require_finite(**values) -> None:
    """Raise ValueError naming the first boolean or non-finite value (a number or an array)."""
    refuse_bool(**values)
    for name, val in values.items():
        if not np.isfinite(val).all():
            raise ValueError(f"{name} must be finite, got {val}")
