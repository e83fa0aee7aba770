"""Quasi-prime toolkit: digital roots, 6m-wheels, the multiplication grid,
staged primality testing, grid factorization, and a sieve oracle.

The sieve oracle's names are served on first access (PEP 562), so a caller
that never checks against the sieve never loads it.
"""

from . import errors, numerics, pipeline, qgrid
from .errors import *
from .numerics import *
from .pipeline import *
from .qgrid import *

__version__ = "0.1.0"

# Written out, since reading the oracle's own list would import it.
_ORACLE_NAMES = ("MismatchReport", "PrimeTable", "sieve", "trial_factor", "trial_is_prime", "verify_range")

__all__ = list(_ORACLE_NAMES)
__all__ += errors.__all__
__all__ += numerics.__all__
__all__ += qgrid.__all__
__all__ += pipeline.__all__


def __getattr__(name: str):
    # The submodule itself is served too, as when the package imported it.
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    oracle = import_module(".oracle", __name__)
    # Bound once, so that later lookups and vars() find every name, as an
    # eager import left them.
    globals().update({n: getattr(oracle, n) for n in _ORACLE_NAMES})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), "oracle", *_ORACLE_NAMES})
