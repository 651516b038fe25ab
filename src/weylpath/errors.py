"""Exception hierarchy shared by all weylpath modules, the refinement check and the output guard.

Every deliberate refusal is a WeylPathError whose class carries its CLI exit code: malformed
input (1), non-convergence (2), or a numerical-domain failure or a refused argument (3).
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np


class WeylPathError(Exception):
    """Base class for all errors raised by this package; ``exit_code`` is the CLI status."""
    exit_code = 3


class HamiltonianFormatError(WeylPathError):
    """A Hamiltonian description (JSON file or term map) is malformed."""
    exit_code = 1


class NonConverged(WeylPathError):
    """A refinement check or an iteration failed to stabilise."""
    exit_code = 2


class DomainError(WeylPathError):
    """The inputs lie outside the region where a method is valid."""


class InvalidArgument(WeylPathError, ValueError):
    """An argument is refused before any work: a bad value, shape, name or count."""


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


def finite_double(compute, what: str):
    """``compute()``, or DomainError ``"{what} is not a finite double"`` where it is not.

    An array result must be finite in every element.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = compute()
        except OverflowError:  # a Python float or complex operation beyond the double range
            value = math.nan
    if not np.isfinite(value).all():
        raise DomainError(f"{what} is not a finite double")
    return value


def refuse_bool(**values) -> None:
    """Raise InvalidArgument naming the first value that is a Python or numpy boolean."""
    for name, val in values.items():
        if isinstance(val, (bool, np.bool_)):
            raise InvalidArgument(f"{name} must be a number, not the boolean {val}")


def require_index(value, name: str, least: int | None = None) -> int:
    """``value`` as an int, refused (naming ``name``) if boolean, non-integral, beyond the double
    range (by ``require_finite``) or below ``least``."""
    refuse_bool(**{name: value})
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None
    require_finite(**{name: index})
    if least is not None and index < least:
        raise InvalidArgument(f"{name} must be at least {least}, got {value!r}")
    return index


def require_finite(**values) -> None:
    """Raise InvalidArgument naming the first boolean, non-number or non-finite value or array."""
    refuse_bool(**values)
    for name, val in values.items():
        try:  # a Python int as a float: numpy cannot test one of 2**64 or more
            finite = math.isfinite(val) if isinstance(val, int) else np.isfinite(val).all()
        except (TypeError, ValueError, OverflowError):  # a string, None, a ragged list, a huge int
            raise InvalidArgument(f"{name} must be a number, got {val!r}") from None
        if not finite:
            raise InvalidArgument(f"{name} must be finite, got {val}")


def require_scalar(**values) -> None:
    """Raise InvalidArgument naming the first value that ``require_finite`` refuses or that has a
    dimension (an array or a list); a numpy scalar or a 0-d array passes."""
    require_finite(**values)
    for name, val in values.items():
        if np.ndim(val):
            shape = np.shape(val)
            raise InvalidArgument(f"{name} must be a scalar, got an array of shape {shape}")


def require_nonnegative(**values) -> None:
    """Raise InvalidArgument naming the first value that ``require_scalar`` refuses or that is
    complex or below 0."""
    require_scalar(**values)
    for name, val in values.items():
        if np.iscomplexobj(val) or val < 0:
            raise InvalidArgument(f"{name} must be non-negative, got {val}")


def require_positive(**values) -> None:
    """Raise InvalidArgument naming the first value that is not a finite real scalar above zero."""
    refuse_bool(**values)
    for name, val in values.items():
        try:
            positive = isinstance(val, numbers.Real) and math.isfinite(val) and val > 0
        except OverflowError:  # an int beyond the double range
            positive = False
        if not positive:
            raise InvalidArgument(f"{name} must be positive, got {val!r}")
