"""Staged primality testing and grid-based factorization.

The filter stages run in a fixed order: odd, last digit in {1,3,7,9},
digital root not in {3,6,9}, residue on a prime modulus of the 24-wheel.
The prime-modulus stage never fires, since odd and free of 3 already puts
n on a 6k±1 spoke, so it stays in the reports as an always-0 count.  The
other three read only n mod 2, n mod 10 and whether 3 divides n (a digital
root in {3,6,9}), so n mod 30 fixes the first failing stage and the
divisor 2 or 3 behind it.  A 30-row table built at import holds both.
Survivors go to the grid stage, which settles primality exactly in the
order that qgrid's docstring sets out.  One guard, require_strategy,
refuses a strategy that is not a SearchStrategy member.

What no verdict runs lives in quasiprime.explore and is served here on
first access (PEP 562): prefilter, factor_on_grid, survivor_density with
the running counts of the stage table, and the last-digit and
digital-root pair tables.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import require_int, serve_moved
from .qgrid import MAX_VALUE, GridCoordinate, _cell, axis_divisor, axis_factors, require_in_cap

__all__ = ["DensityReport", "FactorPair", "FilterVerdict", "PrimalityVerdict", "SearchStrategy",
           "Stage", "VerdictKind", "dr_pairs", "factor_on_grid", "full_factorize", "is_prime",
           "last_digit_pairs", "prefilter", "survivor_density"]

# The names that no verdict runs, held by quasiprime.explore and served here
# on first access, so that importing pipeline compiles none of them.
_MOVED = ("DensityReport", "FactorPair", "FilterVerdict", "dr_pairs", "factor_on_grid", "last_digit_pairs",
          "prefilter", "rejections_by_name", "survivor_density", "_COUNTS_TO", "_running_counts")
__getattr__, __dir__ = serve_moved(globals(), dict.fromkeys(_MOVED, "explore"))


class Stage(str, Enum):
    NOT_ODD = "NotOdd"
    LAST_DIGIT = "LastDigit"
    DIGITAL_ROOT_369 = "DigitalRoot369"
    NOT_PRIME_MODULUS = "NotPrimeModulus"
    GRID_SEARCH = "GridSearch"


FILTER_STAGES = (Stage.NOT_ODD, Stage.LAST_DIGIT, Stage.DIGITAL_ROOT_369, Stage.NOT_PRIME_MODULUS)


class VerdictKind(str, Enum):
    PRIME = "prime"
    PRIME_SPECIAL_SMALL = "prime_special_small"
    COMPOSITE = "composite"
    INVALID = "invalid"


class SearchStrategy(str, Enum):
    ASCENDING_SCAN = "asc"
    BALANCED_FIRST = "balanced"


# The hot paths read the members from here, a module-level name lookup each.
_PRIME = VerdictKind.PRIME
_PRIME_SPECIAL_SMALL = VerdictKind.PRIME_SPECIAL_SMALL
_COMPOSITE = VerdictKind.COMPOSITE
_INVALID = VerdictKind.INVALID
_GRID_SEARCH = Stage.GRID_SEARCH
_ASCENDING_SCAN = SearchStrategy.ASCENDING_SCAN
_BALANCED_FIRST = SearchStrategy.BALANCED_FIRST
_new = tuple.__new__


def require_strategy(strategy: object) -> None:
    """Refuse a strategy that is not a SearchStrategy member.

    A plain string equals a member but is not one, so it is refused rather
    than read as asc.
    """
    if not isinstance(strategy, SearchStrategy):
        raise TypeError(f"expected a SearchStrategy, got {type(strategy).__name__}")


class PrimalityVerdict(namedtuple("PrimalityVerdict", "n kind witness deciding_stage strategy")):
    """Verdict on n.  A composite's witness is 2, 3 or its GridCoordinate;
    deciding_stage is the Stage that settled n, None for n < 4."""

    __slots__ = ()

    @property
    def is_prime(self) -> bool:
        return self.kind in (_PRIME, _PRIME_SPECIAL_SMALL)

    def to_json_dict(self) -> dict:
        if isinstance(self.witness, GridCoordinate):
            witness = list(self.witness.axis_values)
        else:
            witness = self.witness
        return {
            "n": self.n,
            "verdict": self.kind.value,
            "witness": witness,
            "stage": self.deciding_stage.value if self.deciding_stage else None,
            "strategy": self.strategy.value,
        }


def _stage_row(m: int) -> tuple[Stage | None, int | None]:
    """First failing filter stage of m >= 1 and the divisor 2 or 3 behind it.

    The divisor is None when the stage implies none, which sends the caller
    to the grid: the last-digit stage also hits 5 itself (prime) and the
    multiples of 5 that live on the grid.  The prime-modulus stage is not
    tested, since no m that passes the other three fails it.  Those three
    read m mod 2, m mod 10 and m mod 3, so the row depends on m mod 30 alone.
    """
    if m % 2 == 0:
        return Stage.NOT_ODD, 2
    if m % 10 not in (1, 3, 7, 9):
        return Stage.LAST_DIGIT, 3 if m % 3 == 0 else None
    if m % 3 == 0:  # a digital root in {3, 6, 9}
        return Stage.DIGITAL_ROOT_369, 3
    return None, None


# Row r serves every n = r (mod 30); 30 stands in for residue 0, since the
# digital root is defined for positive integers only.
_STAGE_AT = tuple(_stage_row(r or 30) for r in range(30))


def is_prime(n: int, strategy: SearchStrategy = SearchStrategy.ASCENDING_SCAN) -> PrimalityVerdict:
    """Exact staged primality verdict with a checkable witness for composites."""
    # Range sweeps call this once per n, so an exact int skips the call, and
    # the strategy costs one identity check or two.
    if type(n) is not int:
        require_int(n, "n")
    if strategy is _ASCENDING_SCAN:
        descending = False
    elif strategy is _BALANCED_FIRST:
        descending = True
    else:  # the guard is called only to raise
        require_strategy(strategy)
    if n > MAX_VALUE:  # the guard is called only to raise
        require_in_cap(n)
    # PrimalityVerdict's constructor checks nothing, so tuple.__new__ (_new)
    # builds the same verdict without its keyword-argument handling.
    if n < 4:
        kind = _INVALID if n < 2 else _PRIME_SPECIAL_SMALL
        return _new(PrimalityVerdict, (n, kind, None, None, strategy))
    stage, witness = _STAGE_AT[n % 30]
    if witness is not None:
        return _new(PrimalityVerdict, (n, _COMPOSITE, witness, stage, strategy))
    a = axis_divisor(n, descending)
    if a is None:
        return _new(PrimalityVerdict, (n, _PRIME, None, _GRID_SEARCH, strategy))
    deciding = stage if stage is not None else _GRID_SEARCH
    return _new(PrimalityVerdict, (n, _COMPOSITE, _cell(a, n), deciding, strategy))


def full_factorize(n: int) -> list[int]:
    """Sorted prime multiset of n.

    Factors 2 and 3 sit outside the quasi-prime domain; they are stripped
    first, then the grid axis splits off the rest: table lookups up to
    qgrid.TABLE_CAP, and above it a gcd and a lookup, the Fermat stage,
    Miller-Rabin and rho.
    """
    require_in_cap(n)
    if n < 2:
        raise ValueError(f"factorization needs n >= 2, got {n}")
    factors: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    return factors + axis_factors(n)


