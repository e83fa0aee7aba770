"""Staged primality testing and grid-based factorization.

The filter stages run in a fixed order: odd, last digit in {1,3,7,9},
digital root not in {3,6,9}, residue on a prime modulus of the 24-wheel.
Each stage reads only n mod 2, 10, 9 or 24, and all four moduli divide
360, so the first failing stage, and the divisor 2 or 3 behind it, depend
on n mod 360 alone.  A 360-row table built at import holds both.  The
prime-modulus stage never fires, since odd and free of 3 already puts n
on a 6k±1 spoke, so the table is built from the other three stages; the
fourth stays in the reports as an always-0 count.
Survivors go to the grid stage, which settles primality exactly in the
order that qgrid's docstring sets out.  One guard, require_strategy,
refuses a strategy that is not a SearchStrategy member.
The last-digit and digital-root pair tables are tested facts about factor
pairs, not filters on the grid search.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from . import qgrid
from .errors import NoFactorsError, NotQuasiPrimeError, require_int, require_limit
from .numerics import digital_root
from .qgrid import MAX_VALUE, GridCoordinate, require_in_cap

__all__ = ["DensityReport", "FactorPair", "FilterVerdict", "PrimalityVerdict", "SearchStrategy",
           "Stage", "VerdictKind", "dr_pairs", "factor_on_grid", "full_factorize", "is_prime",
           "last_digit_pairs", "prefilter", "survivor_density"]


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


def require_strategy(strategy: object) -> None:
    """Refuse a strategy that is not a SearchStrategy member.

    A plain string equals a member but is not one, so it is refused rather
    than read as asc.
    """
    if not isinstance(strategy, SearchStrategy):
        raise TypeError(f"expected a SearchStrategy, got {type(strategy).__name__}")


class FilterVerdict(namedtuple("FilterVerdict", "passed stage")):
    """Prefilter outcome; stage is the first failing Stage, None when passed."""

    __slots__ = ()


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


class FactorPair(namedtuple("FactorPair", "a b")):
    """Axis pair (a, b), a <= b, both on the 6k±1 moduli."""

    __slots__ = ()

    def __new__(cls, a: int, b: int):
        if type(a) is not int:
            require_int(a, "a")
        if type(b) is not int:
            require_int(b, "b")
        if not (5 <= a <= b):
            raise ValueError(f"need 5 <= a <= b, got ({a}, {b})")
        if a % 6 not in (1, 5) or b % 6 not in (1, 5):
            raise ValueError(f"factor pair ({a}, {b}) is off the 6k±1 moduli")
        return tuple.__new__(cls, (a, b))

    @property
    def product(self) -> int:
        return self.a * self.b


def rejections_by_name(per_stage_rejections: dict[Stage, int]) -> dict[str, int]:
    """A report's rejection counts keyed by stage name, in stage order."""
    return {s.value: per_stage_rejections[s] for s in FILTER_STAGES}


class DensityReport(namedtuple("DensityReport", "limit survivors fraction per_stage_rejections")):
    """Prefilter survivors over [1, limit], their share of it as a
    ``fractions.Fraction``, and the rejections at each stage."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "fraction": float(self.fraction),
            "per_stage_rejections": rejections_by_name(self.per_stage_rejections),
        }


def _stage_row(m: int) -> tuple[Stage | None, int | None]:
    """First failing filter stage of m >= 1 and the divisor 2 or 3 behind it.

    The divisor is None when the stage implies none, which sends the caller
    to the grid: the last-digit stage also hits 5 itself (prime) and the
    multiples of 5 that live on the grid.  The prime-modulus stage is not
    tested, since no m that passes the other three fails it.
    """
    if m % 2 == 0:
        return Stage.NOT_ODD, 2
    if m % 10 not in (1, 3, 7, 9):
        return Stage.LAST_DIGIT, 3 if m % 3 == 0 else None
    if digital_root(m) in (3, 6, 9):
        return Stage.DIGITAL_ROOT_369, 3
    return None, None


# fractions.Fraction, imported by the first density report rather than at
# import: fractions loads decimal, which no verdict needs.  A global, since an
# import statement in the call costs far more than its lookup.
_Fraction = None

# Row r serves every n = r (mod 360); 360 stands in for residue 0, since the
# digital root is defined for positive integers only.
_STAGE_AT = tuple(_stage_row(r or 360) for r in range(360))

def prefilter(n: int) -> FilterVerdict:
    """Run the four cheap stages in order; Pass means n survives them all."""
    require_in_cap(n)
    if n < 2:
        raise ValueError(f"prefilter is defined for n >= 2, got {n}")
    stage = _STAGE_AT[n % 360][0]
    return FilterVerdict(stage is None, stage)


def last_digit_pairs(d: int) -> frozenset[tuple[int, int]]:
    """Unordered last-digit pairs (x, y) from {1,3,7,9} with x*y ending in d."""
    require_int(d, "last digit")
    if d not in (1, 3, 7, 9):
        raise ValueError(f"last digit of a candidate must be 1, 3, 7 or 9, got {d}")
    return frozenset(
        (x, y)
        for x in (1, 3, 7, 9)
        for y in (1, 3, 7, 9)
        if x <= y and (x * y) % 10 == d
    )


def dr_pairs(r: int) -> frozenset[tuple[int, int]]:
    """Unordered digital-root pairs (x, y) from {1,2,4,5,7,8} whose product has root r."""
    require_int(r, "digital root")
    if r in (3, 6, 9):
        raise ValueError(f"no factor coprime to 3 yields a product with digital root {r}")
    if r not in (1, 2, 4, 5, 7, 8):
        raise ValueError(f"digital root must be in 1..9, got {r}")
    units = (1, 2, 4, 5, 7, 8)
    return frozenset(
        (x, y) for x in units for y in units if x <= y and digital_root(x * y) == r
    )


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
    # PrimalityVerdict's constructor checks nothing, so tuple.__new__ builds
    # the same verdict without its keyword-argument handling.
    if n < 4:
        kind = _INVALID if n < 2 else _PRIME_SPECIAL_SMALL
        return tuple.__new__(PrimalityVerdict, (n, kind, None, None, strategy))
    stage, witness = _STAGE_AT[n % 360]
    if witness is not None:
        return tuple.__new__(PrimalityVerdict, (n, _COMPOSITE, witness, stage, strategy))
    a = qgrid.axis_divisor(n, descending)
    if a is None:
        return tuple.__new__(PrimalityVerdict, (n, _PRIME, None, _GRID_SEARCH, strategy))
    deciding = stage if stage is not None else _GRID_SEARCH
    return tuple.__new__(PrimalityVerdict, (n, _COMPOSITE, qgrid._cell(a, n), deciding, strategy))


def factor_on_grid(n: int, strategy: SearchStrategy = SearchStrategy.ASCENDING_SCAN) -> FactorPair:
    """Split a composite coprime to 6 into an axis pair (a, b), a*b = n.

    AscendingScan returns the pair with the smallest a (the least prime
    factor); BalancedFirst returns the pair minimizing b - a.
    """
    require_strategy(strategy)
    require_in_cap(n)
    if n < 2:
        raise ValueError(f"factorization needs n >= 2, got {n}")
    if n % 2 == 0 or n % 3 == 0:
        raise NotQuasiPrimeError(f"{n} has factor 2 or 3, off the quasi-prime domain")
    a = qgrid.axis_divisor(n, descending=strategy is _BALANCED_FIRST)
    if a is None:
        raise NoFactorsError(f"{n} is prime; the grid holds no factor pair for it")
    return FactorPair(a, n // a)


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
    return factors + qgrid.axis_factors(n)


def survivor_density(limit: int) -> DensityReport:
    """Prefilter survival statistics over [1, limit].

    Every n is either a survivor or rejected at exactly one stage, so the
    counts partition the range.  The stage is a function of n mod 360, so
    the counts come from the stage table in closed form: limit // 360 full
    periods of it, plus its rows 1..limit % 360 for the last, partial one.
    """
    require_limit(limit, "density limit", 100)
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction

    periods, rest = divmod(limit, 360)
    counts = dict.fromkeys((None, *FILTER_STAGES), 0)
    for r, (stage, _) in enumerate(_STAGE_AT):
        counts[stage] += periods + (0 < r <= rest)
    survivors = counts.pop(None)
    return DensityReport(limit, survivors, _Fraction(survivors, limit), counts)
