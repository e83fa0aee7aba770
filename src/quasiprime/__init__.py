"""Quasi-prime toolkit: digital roots, 6m-wheels, the multiplication grid,
staged primality testing, grid factorization, and a sieve oracle.

The names of the sieve oracle, of the digital-root and wheel algebra
(numerics) and of the grid and prefilter that no verdict runs (explore)
are served on first access (PEP 562), so a caller that never uses one of
them never loads its module.  The package's vars() and __dict__ hold
explore's names too, and load explore to do so.
"""

import sys
from types import ModuleType

from . import errors, pipeline, qgrid
from .errors import *
from .pipeline import PrimalityVerdict, SearchStrategy, Stage, VerdictKind, full_factorize, is_prime
from .qgrid import GridCoordinate, axis_value

__version__ = "0.1.0"

# Each name served on first access, with the module that holds it.  Written
# out, since reading a module's own list would import it.
_LAZY = {
    **dict.fromkeys(("MismatchReport", "PrimeTable", "sieve", "trial_factor", "trial_is_prime",
                     "verify_range"), "oracle"),
    **dict.fromkeys(("TripletClass", "WheelConfig", "admissible_moduli", "digital_root", "dr_add",
                     "dr_mul", "fibonacci_dr_cycle", "modulus_of", "prime_moduli", "triplet_class"),
                    "numerics"),
    # qgrid's and pipeline's exports that they serve from explore
    **dict.fromkeys([name for module in (qgrid, pipeline) for name in module.__all__ if name in module._MOVED],
                    "explore"),
}

__all__ = [name for name, home in _LAZY.items() if home == "oracle"]
__all__ += errors.__all__
__all__ += [name for name, home in _LAZY.items() if home == "numerics"]
__all__ += qgrid.__all__
__all__ += pipeline.__all__

__getattr__, __dir__ = errors.serve_moved(globals(), _LAZY)


class _Package(ModuleType):
    # Read through this property, the namespace holds explore's names too,
    # so that a copy of vars(quasiprime) serves every export but the
    # oracle's and numerics' before their first use.  The interpreter and
    # the PEP 562 hooks read the namespace itself, so neither an attribute
    # load nor dir() loads explore.
    @property
    def __dict__(self):
        getattr(self, "region")  # binds every name served from explore
        return ModuleType.__dict__["__dict__"].__get__(self)

    def __dir__(self) -> list[str]:
        return __dir__()


sys.modules[__name__].__class__ = _Package
