"""The names of the grid and of the prefilter that no verdict runs.

From the grid: axis_index, grid_value, region and its cell cap, contains,
quasiprime_tag and diagonal_dr.  From the prefilter and the factor pairs:
prefilter's FilterVerdict, factor_on_grid's FactorPair, survivor_density's
DensityReport with the running counts of the stage table, and the
last-digit and digital-root pair tables, which are tested facts about
factor pairs, not filters on the grid search.

Each name is served by its old home, qgrid or pipeline, and by the
package, on first access (PEP 562), so that `import quasiprime` and the
prime, factor, verify and wheel commands compile none of it.  The qgrid,
density and bench commands import their names from here.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import (NoFactorsError, NotOnPrimeModuliError, NotQuasiPrimeError, ResourceLimitError,
                     require_int, require_limit)
from .pipeline import (_ASCENDING_SCAN, _BALANCED_FIRST, _STAGE_AT, FILTER_STAGES, SearchStrategy, Stage,
                       require_strategy)
from .qgrid import MAX_VALUE, GridCoordinate, _cell, axis_divisor, axis_value, require_in_cap

REGION_CELL_CAP = 10**4


def axis_index(v: int) -> int | None:
    """Inverse of axis_value; None when v is not on the axis."""
    if type(v) is not int:
        require_int(v, "axis value")
    if v < 5:
        return None
    r = v % 6
    if r == 5:
        return 2 * ((v + 1) // 6) - 1
    if r == 1:
        return 2 * ((v - 1) // 6)
    return None


class QuasiPrimeTag(Enum):
    PRIME_SQUARE = "prime-square"
    QUASI_PRIME = "quasi-prime"


def grid_value(i: int, j: int) -> int:
    """Product at cell (i, j); symmetric in its arguments."""
    v = axis_value(i) * axis_value(j)
    if v > MAX_VALUE:
        raise ResourceLimitError(f"cell ({i}, {j}) exceeds the 64-bit cap")
    return v


def contains(n: int) -> GridCoordinate | None:
    """Locate n in the grid; None means n is prime.

    Returns the coordinate with the smallest axis divisor, which for a
    composite n coprime to 6 is its smallest prime factor.
    """
    require_in_cap(n)
    if n < 5 or n % 6 not in (1, 5):
        raise NotOnPrimeModuliError(f"{n} is not on the 6k±1 moduli")
    a = axis_divisor(n)
    if a is None:
        return None
    return _cell(a, n)


def quasiprime_tag(c: GridCoordinate) -> QuasiPrimeTag:
    """PrimeSquare for p*p with p prime on the axis, QuasiPrime otherwise."""
    if c.i == c.j and contains(axis_value(c.i)) is None:
        return QuasiPrimeTag.PRIME_SQUARE
    return QuasiPrimeTag.QUASI_PRIME


def diagonal_dr(count: int) -> list[int]:
    """Digital roots of the reflection-line squares, cell (k, k) for k = 1..count.

    A diagonal is cells of the grid, so count is capped like a region.
    """
    require_limit(count, "count", 1, REGION_CELL_CAP)
    from .numerics import digital_root

    return [digital_root(grid_value(k, k)) for k in range(1, count + 1)]


def region(i_lo: int, i_hi: int, j_lo: int, j_hi: int) -> list[list[int]]:
    """Rectangular table of grid values, rows i_lo..i_hi by columns j_lo..j_hi."""
    for bound in (i_lo, i_hi, j_lo, j_hi):
        if type(bound) is not int:
            require_int(bound, "region bound")
    if not (1 <= i_lo <= i_hi and 1 <= j_lo <= j_hi):
        raise ValueError("region bounds must satisfy 1 <= lo <= hi")
    cells = (i_hi - i_lo + 1) * (j_hi - j_lo + 1)
    if cells > REGION_CELL_CAP:
        raise ResourceLimitError(f"region of {cells} cells exceeds cap {REGION_CELL_CAP}")
    rows = [axis_value(i) for i in range(i_lo, i_hi + 1)]
    cols = [axis_value(j) for j in range(j_lo, j_hi + 1)]
    grid_value(i_hi, j_hi)  # both axes ascend, so this cell is the largest: past the cap, it raises
    return [[a * b for b in cols] for a in rows]


class FilterVerdict(namedtuple("FilterVerdict", "passed stage")):
    """Prefilter outcome; stage is the first failing Stage, None when passed."""

    __slots__ = ()


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


def _running_counts() -> tuple[tuple[int, ...], ...]:
    """Row r holds the survivors, then the rejections at each FILTER_STAGES
    member, among the residues 1..r of one period, for r in 0..30."""
    slot = {stage: i for i, stage in enumerate((None, *FILTER_STAGES))}
    counts = [0] * len(slot)
    rows = [tuple(counts)]
    for r in range(1, 31):
        counts[slot[_STAGE_AT[r % 30][0]]] += 1
        rows.append(tuple(counts))
    return tuple(rows)


_COUNTS_TO = _running_counts()


# fractions.Fraction, set by the first density report rather than at import:
# fractions loads decimal, which no verdict needs.  A global, since an import
# statement in the call costs far more than its lookup.
_Fraction = None


def prefilter(n: int) -> FilterVerdict:
    """First failing filter stage of n, read off the stage table's row for
    n mod 30; passed means n survives all four."""
    require_in_cap(n)
    if n < 2:
        raise ValueError(f"prefilter is defined for n >= 2, got {n}")
    stage = _STAGE_AT[n % 30][0]
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
    from .numerics import digital_root

    units = (1, 2, 4, 5, 7, 8)
    return frozenset(
        (x, y) for x in units for y in units if x <= y and digital_root(x * y) == r
    )


def factor_on_grid(n: int, strategy: SearchStrategy = SearchStrategy.ASCENDING_SCAN) -> FactorPair:
    """Split a composite coprime to 6 into an axis pair (a, b), a*b = n.

    AscendingScan returns the pair with the smallest a (the least prime
    factor); BalancedFirst returns the pair minimizing b - a.
    """
    # The guards run inline, as in is_prime, and are called only to refuse:
    # the strategy first, then n.
    if strategy is _ASCENDING_SCAN:
        descending = False
    elif strategy is _BALANCED_FIRST:
        descending = True
    else:
        require_strategy(strategy)
    if type(n) is not int or n > MAX_VALUE:  # an exact int within the cap skips the guard
        require_in_cap(n)
    if n < 2:
        raise ValueError(f"factorization needs n >= 2, got {n}")
    if n % 2 == 0 or n % 3 == 0:
        raise NotQuasiPrimeError(f"{n} has factor 2 or 3, off the quasi-prime domain")
    a = axis_divisor(n, descending)
    if a is None:
        raise NoFactorsError(f"{n} is prime; the grid holds no factor pair for it")
    # The search proved a <= n // a, both coprime to 6, so the checks of
    # FactorPair's constructor are skipped, as qgrid._cell skips GridCoordinate's.
    return tuple.__new__(FactorPair, (a, n // a))


def survivor_density(limit: int) -> DensityReport:
    """Prefilter survival statistics over [1, limit].

    Every n is either a survivor or rejected at exactly one stage, so the
    counts partition the range.  The stage is a function of n mod 30, so
    the counts come in closed form from the running counts of the stage
    table: limit // 30 times their row 30 (one full period), plus their row
    limit % 30 for the last, partial period.
    """
    require_limit(limit, "density limit", 100)
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction

    periods, rest = divmod(limit, 30)
    full, part = _COUNTS_TO[30], _COUNTS_TO[rest]
    survivors = periods * full[0] + part[0]
    rejected = {stage: periods * full[i] + part[i] for i, stage in enumerate(FILTER_STAGES, 1)}
    return DensityReport(limit, survivors, _Fraction(survivors, limit), rejected)
