"""The quasi-prime multiplication grid.

Both axes are the ascending integers >= 5 congruent to ±1 mod 6
(5, 7, 11, 13, 17, 19, 23, 25, 29, 31, ...).  Cell (i, j) holds the
product of the i-th and j-th axis values.  The cells are exactly the
composites coprime to 6, so membership decides primality for any
number on the prime moduli.

Membership is exact, never probabilistic.  Up to TABLE_CAP, the n with
isqrt(n) <= AXIS_PRIME_MAX, the grid is materialized as a least-axis-factor
table: slot n // 3 of each n coprime to 6 holds the (6k-1, 6k+1) pair of
n's least prime factor, so a lookup replaces trial division.  It is the
least-prime-factor sieve (Gries & Misra, CACM 1978) restricted to the
wheel's 6k±1 slots (Pritchard, CACM 1981), built block by block on first
touch, as in the segmented sieve (Bays & Hudson, BIT 1977).  Above the
cap, one gcd with the product of the axis primes up to AXIS_PRIME_MAX gives
the product of n's primes that the table can name, and the table (or, for
a gcd above the cap, a scan of those primes) names the least of them.  An
n with none goes to the splitter (quasiprime.splitter), loaded by the first
n that needs it: the Fermat stage, Miller-Rabin and rho, in one order, the
same for both strategies.  The balanced pair, the one nearest the
reflection line, is read off the prime factors.

What no verdict runs lives in quasiprime.explore and is served here on
first access (PEP 562): axis_index, grid_value, region and REGION_CELL_CAP,
contains, quasiprime_tag with QuasiPrimeTag, and diagonal_dr.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt, prod

from .errors import ResourceLimitError, require_int, serve_moved

__all__ = ["GridCoordinate", "QuasiPrimeTag", "axis_index", "axis_value", "contains",
           "diagonal_dr", "grid_value", "quasiprime_tag", "region"]

# The names that no verdict runs, held by quasiprime.explore and served here
# on first access, so that importing qgrid compiles none of them.
_MOVED = ("QuasiPrimeTag", "axis_index", "contains", "diagonal_dr", "grid_value", "quasiprime_tag", "region",
          "REGION_CELL_CAP")
__getattr__, __dir__ = serve_moved(globals(), dict.fromkeys(_MOVED, "explore"))

MAX_VALUE = 2**63 - 1  # the input cap of every entry point that takes an n
# n with isqrt(n) <= AXIS_PRIME_MAX read the table.  Above it, a gcd with
# _AXIS_PRIMORIAL and a lookup give n's least factor when the table names it;
# an n with no prime factor up to AXIS_PRIME_MAX goes to the splitter.  A table
# byte holds the pair index k <= 255 of a least factor 6k-1 or 6k+1, so
# AXIS_PRIME_MAX is the largest axis prime with k <= 255, 1531 = 6 * 255 + 1
# (no axis prime lies in (1531, 1543)).  The byte, not the cost, sets it.
# Per call on CPython 3.11.7 (2-core VM, CPU time, best of 7 over 60 n of each
# class, both strategies, is_prime, factor_on_grid and full_factorize;
# semiprimes p*q with p in the 10 % below sqrt(n); best of three processes):
#
#   class       n in (TABLE_CAP/2, TABLE_CAP]    n in (TABLE_CAP, 4 TABLE_CAP]
#   random      0.7-2.0 us (table)               1.3-3.8 us (gcd, lookup, MR, rho)
#   prime       0.5-0.7 us                       4.6-5.0 us
#   semiprime   0.7-1.2 us                       2.5-3.1 us
AXIS_PRIME_MAX = 1531
TABLE_CAP = (AXIS_PRIME_MAX + 1) ** 2 - 1
# Slot n // 3 of each n coprime to 6 holds k for n's least prime factor 6k-1 or
# 6k+1, and 0 when n is 1 or prime.  The slots come in blocks of BLOCK_SLOTS:
# slot i is _blocks[i >> _BLOCK_BITS][i & _BLOCK_MASK], and a block is None
# until the first lookup in it builds it in place.  A block's bytes depend on
# its index alone, so every caller can share them.  A block pays two slice
# assignments per axis prime up to its root, whatever its size.  Measured as
# above, a block of 2**14 slots builds in 0.15-0.6 ms, all 48 in ~22 ms, and a
# fresh process's first is_prime plus full_factorize, n log-uniform in
# [1e3, 1e9], takes 0.54 ms on average; with 2**16 slots, 0.2-0.6 ms, ~5 ms
# for all 12, and 0.63 ms.  2**14 weighs a one-shot call against a long run.
_BLOCK_BITS = 14
BLOCK_SLOTS = 1 << _BLOCK_BITS
_BLOCK_MASK = BLOCK_SLOTS - 1
_blocks: list[bytearray | None] = [None] * -(-(TABLE_CAP // 3 + 1) // BLOCK_SLOTS)
_PRIMES_5_TO_37 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the axis primes below 41
_PRODUCT_5_TO_37 = prod(_PRIMES_5_TO_37)
# The axis primes up to AXIS_PRIME_MAX, 5 ... 1531, ascending: those below 41,
# then the axis values up to AXIS_PRIME_MAX < 41**2 coprime to them, since every
# composite below 41**2 has a prime factor below 41.  Built once, at import.
_AXIS_PRIMES = _PRIMES_5_TO_37 + tuple(
    v for v in range(41, AXIS_PRIME_MAX + 1, 2) if v % 3 and gcd(v, _PRODUCT_5_TO_37) == 1)
# Their product (2,139 bits).  Above TABLE_CAP, gcd(n, _AXIS_PRIMORIAL) is the
# product of n's distinct primes up to AXIS_PRIME_MAX, so its least prime is n's
# least factor.  The first pair, 5 and 7, is asked by two remainders before
# the gcd: it holds the least factor of 31 % of the n coprime to 6, and the
# two cost ~0.07 us on CPython 3.11.7 against ~0.6-1.4 us for the gcd.
_AXIS_PRIMORIAL = prod(_AXIS_PRIMES)
# The splitter module, None until the first n with no factor the table names
# loads it: a call pays one test, then finds it here.
_splitter = None


def axis_value(k: int) -> int:
    """k-th axis value: a(2t-1) = 6t-1, a(2t) = 6t+1, so a(1) = 5, a(2) = 7, ..."""
    # Every witness runs both axis helpers twice, so an exact int skips the call.
    if type(k) is not int:
        require_int(k, "axis index")
    if k < 1:
        raise ValueError(f"axis indices start at 1, got {k}")
    half, rem = divmod(k, 2)
    v = 6 * (half + 1) - 1 if rem else 6 * half + 1
    if v > MAX_VALUE:
        raise ResourceLimitError(f"axis value at index {k} exceeds the 64-bit cap")
    return v


class GridCoordinate(namedtuple("GridCoordinate", "i j value")):
    """Cell (i, j), i <= j, holding the product of axis values i and j."""

    __slots__ = ()

    def __new__(cls, i: int, j: int, value: int):
        if type(value) is not int:
            require_int(value, "cell value")
        if not (1 <= i <= j):
            raise ValueError(f"need 1 <= i <= j, got ({i}, {j})")
        if value != axis_value(i) * axis_value(j):
            raise ValueError(f"value {value} does not match cell ({i}, {j})")
        return tuple.__new__(cls, (i, j, value))

    @property
    def axis_values(self) -> tuple[int, int]:
        return axis_value(self.i), axis_value(self.j)


# contains builds its witness cell through _cell, and is_prime builds its own
# the same way; each reads the constructor from a module-level name rather
# than an attribute of tuple.
_new = tuple.__new__


def _cell(a: int, n: int) -> GridCoordinate:
    """Cell of n for an axis divisor a <= sqrt(n) of n that the grid search has proved.

    v // 3 is the index of any axis value v (6t-1 -> 2t-1, 6t+1 -> 2t), and
    a * (n // a) == n holds already, so the constructor's checks are skipped.
    """
    return _new(GridCoordinate, (a // 3, n // a // 3, n))


def require_in_cap(n: int) -> None:
    """Refuse an n that is not an int or is above MAX_VALUE."""
    if type(n) is not int:
        require_int(n, "n")
    if n > MAX_VALUE:
        raise ResourceLimitError(f"{n} exceeds the 64-bit cap")


def axis_divisor(n: int, descending: bool = False) -> int | None:
    """Axis divisor of n no larger than sqrt(n); None when there is none.

    n must be coprime to 6, so every divisor above 1 lies on the axis.  The
    least one is the least prime factor; with ``descending`` the largest
    one, whose pair (a, n // a) is nearest the reflection line.  Up to
    TABLE_CAP the table gives the least prime factor p.  Above it the least
    one is the least prime of n's gcd with _AXIS_PRIMORIAL when that exceeds
    1, else it comes from n's prime factors.  The largest one is p when
    n // p is prime, else it comes from n's prime factors.  None means n is
    1 or prime.
    """
    if n <= TABLE_CAP:
        i = n // 3
        try:
            k = _blocks[i >> _BLOCK_BITS][i & _BLOCK_MASK]
        except TypeError:  # None: the block is not built yet
            k = _build(i >> _BLOCK_BITS)[i & _BLOCK_MASK]
        if not k:
            return None
        p = 6 * k - 1
        if n % p:
            p += 2
        if not descending:
            return p
        # The slot of q = n // p: a third copy of the lookup, after the one
        # above and axis_factors', since reading it through axis_factors(n) or
        # axis_factors(q) measured slower on balanced calls.
        q = n // p
        i = q // 3
        try:
            k = _blocks[i >> _BLOCK_BITS][i & _BLOCK_MASK]
        except TypeError:
            k = _build(i >> _BLOCK_BITS)[i & _BLOCK_MASK]
        if not k:  # q is prime: p is the largest one too
            return p
        # three prime factors or more
        return _largest_divisor([p] + axis_factors(q), isqrt(n))
    if not descending:
        if not (n % 5 and n % 7):
            return 7 if n % 5 else 5
        small = gcd(n, _AXIS_PRIMORIAL)
        if small > 1:
            return _least_prime(small)
        if _splitter is None:
            _load_splitter()
        # the Fermat stage's window or Miller-Rabin in it decides whether n is prime, once
        factors = _splitter._split(n)
        return min(factors) if len(factors) > 1 else None
    factors = axis_factors(n)
    if len(factors) < 3:  # prime, or the product of two primes
        return factors[0] if len(factors) == 2 else None
    return _largest_divisor(factors, isqrt(n))


def axis_factors(n: int) -> list[int]:
    """Prime factors of n, ascending; n must be coprime to 6.

    Up to TABLE_CAP each factor is one table lookup.  Above it each one up
    to AXIS_PRIME_MAX is the least prime of a gcd with _AXIS_PRIMORIAL, and the
    splitter factors what has none.
    """
    factors: list[int] = []
    small = _AXIS_PRIMORIAL
    while n > TABLE_CAP:
        if not (n % 5 and n % 7):
            p = 7 if n % 5 else 5
        else:
            small = gcd(n, small)  # a cofactor's small primes are among n's, so the next gcd is short
            if small == 1:
                if _splitter is None:
                    _load_splitter()
                return factors + sorted(_splitter._split(n))
            p = _least_prime(small)
        factors.append(p)
        n //= p
    while n > 1:  # the lookup of axis_divisor, one per factor, without its call
        i = n // 3
        try:
            k = _blocks[i >> _BLOCK_BITS][i & _BLOCK_MASK]
        except TypeError:
            k = _build(i >> _BLOCK_BITS)[i & _BLOCK_MASK]
        if not k:  # n is prime
            factors.append(n)
            break
        p = 6 * k - 1
        if n % p:
            p += 2
        factors.append(p)
        n //= p
    return factors


def _build(b: int) -> bytearray:
    """Build block b of the table, store it and return it.

    Each axis prime p writes its pair index to the slots of p*m for the axis
    values m >= p, in two progressions of step 2p (m = p and the next axis
    value, each + 6t), from the first of each that falls in the block.  The
    primes go in descending order, so the least factor of each slot is
    written last.  Every axis prime up to the root of the block's largest n
    is written, so each slot is exact.
    """
    lo = b << _BLOCK_BITS
    size = min(BLOCK_SLOTS, TABLE_CAP // 3 + 1 - lo)
    top = 3 * (lo + size) - 1  # the largest n with a slot in the block
    block = bytearray(size)
    for p in reversed(_AXIS_PRIMES):
        if p * p > top:
            continue
        mark = bytes([(p + 1) // 6])
        step = 2 * p
        for m in (p, p + 2 if p % 6 == 5 else p + 4):
            start = p * m // 3 - lo
            if start < 0:
                start %= step
            block[start::step] = mark * len(range(start, size, step))
    _blocks[b] = block
    return block


def _largest_divisor(factors: list[int], r: int) -> int:
    """Largest product of a sub-multiset of factors that is <= r."""
    divisors = {1}  # those <= r: each one's partial products are <= r too
    for p in factors:
        divisors |= {d * p for d in divisors if d * p <= r}
    return max(divisors)


def _least_prime(g: int) -> int:
    """Least prime of g > 1, a product of distinct axis primes up to AXIS_PRIME_MAX."""
    if g <= TABLE_CAP:
        return axis_divisor(g) or g  # one lookup
    # three primes or more, since two distinct ones up to AXIS_PRIME_MAX multiply
    # to at most TABLE_CAP: the first of _AXIS_PRIMES that divides g
    for p in _AXIS_PRIMES:
        if g % p == 0:
            return p


def _load_splitter() -> None:
    """Import the splitter into its slot, _splitter."""
    global _splitter
    from . import splitter as _splitter


