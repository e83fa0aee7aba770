"""Quasi-prime toolkit: digital roots, 6m-wheels, the multiplication grid,
staged primality testing, grid factorization, and a sieve oracle.

The sieve oracle's names are served on first access (PEP 562), so a caller
that never checks against the sieve never loads it.
"""

from .numerics import (
    TripletClass,
    WheelConfig,
    admissible_moduli,
    digital_root,
    dr_add,
    dr_mul,
    fibonacci_dr_cycle,
    modulus_of,
    prime_moduli,
    triplet_class,
)
from .qgrid import (
    GridCoordinate,
    QuasiPrimeTag,
    axis_index,
    axis_value,
    contains,
    diagonal_dr,
    grid_value,
    quasiprime_tag,
    region,
)
from .pipeline import (
    DensityReport,
    FactorPair,
    FilterVerdict,
    PrimalityVerdict,
    SearchStrategy,
    Stage,
    VerdictKind,
    dr_pairs,
    factor_on_grid,
    full_factorize,
    is_prime,
    last_digit_pairs,
    prefilter,
    survivor_density,
)
from .errors import (
    ConsistencyError,
    NoFactorsError,
    NotOnPrimeModuliError,
    NotQuasiPrimeError,
    ResourceLimitError,
)

__version__ = "0.1.0"

_ORACLE_NAMES = ("MismatchReport", "PrimeTable", "sieve", "trial_factor", "trial_is_prime", "verify_range")

__all__ = [
    "TripletClass",
    "WheelConfig",
    "admissible_moduli",
    "digital_root",
    "dr_add",
    "dr_mul",
    "fibonacci_dr_cycle",
    "modulus_of",
    "prime_moduli",
    "triplet_class",
    "GridCoordinate",
    "QuasiPrimeTag",
    "axis_index",
    "axis_value",
    "contains",
    "diagonal_dr",
    "grid_value",
    "quasiprime_tag",
    "region",
    "DensityReport",
    "FactorPair",
    "FilterVerdict",
    "PrimalityVerdict",
    "SearchStrategy",
    "Stage",
    "VerdictKind",
    "dr_pairs",
    "factor_on_grid",
    "full_factorize",
    "is_prime",
    "last_digit_pairs",
    "prefilter",
    "survivor_density",
    *_ORACLE_NAMES,
    "ConsistencyError",
    "NoFactorsError",
    "NotOnPrimeModuliError",
    "NotQuasiPrimeError",
    "ResourceLimitError",
]


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
