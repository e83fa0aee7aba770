"""Quasi-prime toolkit: digital roots, 6m-wheels, the multiplication grid,
staged primality testing, grid factorization, and a sieve oracle.

The names of the sieve oracle and of the digital-root and wheel algebra
(numerics) are served on first access (PEP 562), so a caller that never
uses one of them never loads its module.
"""

from . import errors, pipeline, qgrid
from .errors import *
from .pipeline import *
from .qgrid import *

__version__ = "0.1.0"

# Each name served on first access, with the module that holds it.  Written
# out, since reading a module's own list would import it.
_LAZY = {
    **dict.fromkeys(("MismatchReport", "PrimeTable", "sieve", "trial_factor", "trial_is_prime",
                     "verify_range"), "oracle"),
    **dict.fromkeys(("TripletClass", "WheelConfig", "admissible_moduli", "digital_root", "dr_add",
                     "dr_mul", "fibonacci_dr_cycle", "modulus_of", "prime_moduli", "triplet_class"),
                    "numerics"),
}

__all__ = [name for name, home in _LAZY.items() if home == "oracle"]
__all__ += errors.__all__
__all__ += [name for name, home in _LAZY.items() if home == "numerics"]
__all__ += qgrid.__all__
__all__ += pipeline.__all__


def __getattr__(name: str):
    # Each module is served by its own name too, as when the package imported it.
    home = _LAZY.get(name, name)
    if home not in _LAZY.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f".{home}", __name__)
    # Bound once, so that later lookups and vars() find every name, as an
    # eager import left them.
    globals().update({n: getattr(module, n) for n, h in _LAZY.items() if h == home})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
