"""Coherent-state propagators in the Q, P and Weyl representations.

Numerical toolkit covering ladder-operator symbol calculus, a truncated
Fock-space exact oracle, the three discrete path-integral forms with their
harmonic closed forms, complex-trajectory semiclassical propagators with
fluctuation determinants, and the Wigner-Husimi connection on phase-space
grids.  Every name in a module's ``__all__`` is exported here.
"""

from .algebra import *
from .coherent import *
from .discrete import *
from .fluctuation import *
from .semiclassics import *
from .wigner import *

from . import errors

__version__ = "0.1.0"
