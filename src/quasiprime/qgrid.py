"""The quasi-prime multiplication grid.

Both axes are the ascending integers >= 5 congruent to ±1 mod 6
(5, 7, 11, 13, 17, 19, 23, 25, 29, 31, ...).  Cell (i, j) holds the
product of the i-th and j-th axis values.  The cells are exactly the
composites coprime to 6, so membership decides primality for any
number on the prime moduli.

Membership is exact, never probabilistic.  Up to TABLE_CAP, the n with
isqrt(n) <= WALK_LIMIT, the grid is materialized as a least-axis-factor
table: slot n // 3 of each n coprime to 6 holds the (6k-1, 6k+1) pair of
n's least prime factor, so a lookup replaces trial division.  It is the
least-prime-factor sieve (Gries & Misra, CACM 1978) restricted to the
wheel's 6k±1 slots (Pritchard, CACM 1981), built block by block on first
touch, as in the segmented sieve (Bays & Hudson, BIT 1977).  Above the
cap, a short walk over the axis values up to SMALL_SPAN comes first, then
deterministic Miller-Rabin on at most the first 12 prime bases, which is
exact below 3.18e23 (Sorenson & Webster, Math. Comp. 2017), far above
MAX_VALUE, and Pollard-Brent rho (Brent, BIT 1980) splits the composites.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd, isqrt, prod

from .errors import NotOnPrimeModuliError, ResourceLimitError, require_int
from .numerics import digital_root

__all__ = ["GridCoordinate", "QuasiPrimeTag", "axis_index", "axis_value", "contains",
           "diagonal_dr", "grid_value", "quasiprime_tag", "region"]

MAX_VALUE = 2**63 - 1  # the input cap of every entry point that takes an n
REGION_CELL_CAP = 10**4
# n with isqrt(n) <= WALK_LIMIT read the table; larger n take a walk over the
# axis values up to SMALL_SPAN, then Miller-Rabin and rho.  A table byte holds
# the pair index k <= 255 of a least factor 6k-1 or 6k+1, so WALK_LIMIT is the
# largest axis prime with k <= 255, 1531 = 6 * 255 + 1 (no axis prime lies in
# (1531, 1543)).  The byte, not the cost, sets it.  Per call on CPython 3.11.7
# (2-core VM, best of 5 over 60 n of each class, both strategies and
# full_factorize):
#
#   class       n in (TABLE_CAP/2, TABLE_CAP]    n in (TABLE_CAP, 4 TABLE_CAP]
#   random      1.5-4.6 us (table)               6.7-19.7 us (walk, MR, rho)
#   prime       0.9-1.2 us                       12.4-15.9 us
#   semiprime   2.0-2.5 us                       3.8-35.5 us
#
# SMALL_SPAN from 100 to 1000 moved the mean over these classes at 1e7, 1e10,
# 1e13 and 1e18 by no more than the run-to-run spread (~30 %), except primes
# near 1e7: 8-12 us up to 300 and 20-29 us at 600 and 1000.  So it stays 300.
WALK_LIMIT = 1531
SMALL_SPAN = 300
TABLE_CAP = (WALK_LIMIT + 1) ** 2 - 1
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
# The axis primes up to WALK_LIMIT, ascending; listed once, by the first build.
_axis_primes: list[int] = []
_PRIMES_5_TO_37 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # the axis primes below 41
# (a, psi_k): the k-th prime base and the least composite that passes the
# first k of them (Jaeschke, Math. Comp. 1993; Jiang & Deng, Math. Comp.
# 2014; Sorenson & Webster, Math. Comp. 2017).  psi_12 > 3.18e23 > MAX_VALUE.
_MR_ROUNDS = (
    (2, 2047),
    (3, 1373653),
    (5, 25326001),
    (7, 3215031751),
    (11, 2152302898747),
    (13, 3474749660383),
    (17, 341550071728321),
    (19, 341550071728321),
    (23, 3825123056546413051),
    (29, 3825123056546413051),
    (31, 3825123056546413051),
    (37, 318665857834031151167461),
)
_RHO_BATCH = 128  # rho steps whose differences share one gcd


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


def _cell(a: int, n: int) -> GridCoordinate:
    """Cell of n for an axis divisor a <= sqrt(n) of n that a walk has proved.

    v // 3 is the index of any axis value v (6t-1 -> 2t-1, 6t+1 -> 2t), and
    a * (n // a) == n holds already, so the constructor's checks are skipped.
    """
    return tuple.__new__(GridCoordinate, (a // 3, n // a // 3, n))


def require_in_cap(n: int) -> None:
    """Refuse an n that is not an int or is above MAX_VALUE."""
    if type(n) is not int:
        require_int(n, "n")
    if n > MAX_VALUE:
        raise ResourceLimitError(f"{n} exceeds the 64-bit cap")


class QuasiPrimeTag(Enum):
    PRIME_SQUARE = "prime-square"
    QUASI_PRIME = "quasi-prime"


def grid_value(i: int, j: int) -> int:
    """Product at cell (i, j); symmetric in its arguments."""
    v = axis_value(i) * axis_value(j)
    if v > MAX_VALUE:
        raise ResourceLimitError(f"cell ({i}, {j}) exceeds the 64-bit cap")
    return v


def axis_divisor(n: int, descending: bool = False) -> int | None:
    """Axis divisor of n no larger than sqrt(n); None when there is none.

    n must be coprime to 6, so every divisor above 1 lies on the axis.  The
    least one is the least prime factor; with ``descending`` the largest
    one, whose pair (a, n // a) is nearest the reflection line.  Up to
    TABLE_CAP the table gives the least prime factor p, and the largest
    divisor is p when n // p is prime, else it comes from n's prime factors.
    Above it a walk covers SMALL_SPAN only (the small factors going up, the
    stretch below sqrt(n) going down), and the answer otherwise comes from
    n's prime factors.  None means n is 1 or prime.
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
        if descending and axis_divisor(n // p) is not None:
            return _largest_divisor(axis_factors(n), isqrt(n))
        return p
    r = isqrt(n)
    if descending:
        a = _walk(n, range(_pair_start(r), r - SMALL_SPAN, -6), True)
        # Miller-Rabin first, though axis_factors may run it on n again: a
        # prime would otherwise pay axis_factors' upward walk as well.
        if a is not None or _is_prime_mr(n):
            return a
        return _largest_divisor(axis_factors(n), r)
    a = _walk(n, range(5, SMALL_SPAN + 1, 6), False)
    if a is not None:
        return a
    factors = _split(n)  # Miller-Rabin in it decides whether n is prime, once
    return min(factors) if len(factors) > 1 else None


def axis_factors(n: int) -> list[int]:
    """Prime factors of n, ascending; n must be coprime to 6.

    Up to TABLE_CAP each factor is one table lookup.  Above it the walk
    stops at SMALL_SPAN, resuming after each factor it splits off at that
    factor's pair, and Miller-Rabin and rho factor what is left.
    """
    factors: list[int] = []
    low = 5
    while n > TABLE_CAP:
        p = _walk(n, range(low, SMALL_SPAN + 1, 6), False)
        if p is None:
            return factors + sorted(_split(n))
        factors.append(p)
        n //= p
        low = _pair_start(p)
    while n > 1:
        p = axis_divisor(n) or n  # None: n is prime
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
    is written, so each slot is exact.  The primes are listed once: those
    below 41, then the axis values up to WALK_LIMIT < 41**2 coprime to them,
    since every composite below 41**2 has a prime factor below 41.
    """
    if not _axis_primes:
        skip = prod(_PRIMES_5_TO_37)
        _axis_primes.extend(_PRIMES_5_TO_37)
        _axis_primes.extend(p for p in range(41, WALK_LIMIT + 1, 2) if p % 3 and gcd(p, skip) == 1)
    lo = b << _BLOCK_BITS
    size = min(BLOCK_SLOTS, TABLE_CAP // 3 + 1 - lo)
    top = 3 * (lo + size) - 1  # the largest n with a slot in the block
    block = bytearray(size)
    for p in reversed(_axis_primes):
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


def _pair_start(v: int) -> int:
    """6k-1 of the largest (6k-1, 6k+1) pair starting at or below v."""
    return v - (v + 1) % 6


def _walk(n: int, lows: range, descending: bool) -> int | None:
    """Divisor of n from the first pair (d, d + 2), d in lows, that holds one.

    Within a pair the walk prefers d going up and d + 2 going down.  The hit
    or its cofactor is returned, whichever is <= sqrt(n).
    """
    for d in lows:
        if n % d == 0 or n % (d + 2) == 0:
            break
    else:
        return None
    if descending:
        hit = d + 2 if n % (d + 2) == 0 else d
    else:
        hit = d if n % d == 0 else d + 2
    # The first pair of the downward walk may hit at d + 2 > sqrt(n).  No axis
    # value lies between sqrt(n) and d + 2, so its cofactor is then the
    # largest divisor <= sqrt(n).  Everywhere else hit <= sqrt(n) already.
    return min(hit, n // hit)


def _split(n: int) -> list[int]:
    """Prime factors of n > 1, unordered; n has none up to SMALL_SPAN.

    So n is prime when isqrt(n) <= SMALL_SPAN, and Miller-Rabin is needed
    only above that.
    """
    if isqrt(n) <= SMALL_SPAN or _is_prime_mr(n):
        return [n]
    d = _rho(n)
    return _split(d) + _split(n // d)


def _is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 37.

    n passes a base a when a**d == 1 or a**(d * 2**i) == -1 (mod n) for some
    i < s, where n - 1 = d * 2**s with d odd.  A composite below psi_k
    fails one of the first k bases, so the rounds stop once n < psi_k.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in _MR_ROUNDS:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            break
    return True


def _rho(n: int) -> int:
    """A proper divisor of n, which is odd and composite.

    Pollard-Brent rho on x -> x*x + c from x = 2 (Brent, BIT 1980).  The
    constant c runs 1, 2, ... until one splits n, so the result is
    deterministic.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
        c += 1


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
    require_int(count, "count")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count > REGION_CELL_CAP:
        raise ResourceLimitError(f"diagonal of {count} cells exceeds cap {REGION_CELL_CAP}")
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
