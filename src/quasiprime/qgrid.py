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
cap, one gcd with the product of the primes up to SMALL_SPAN says whether
n has a factor there, and only then does a short walk over the axis values
find the least one.  The factor pair nearest the reflection line comes
first from a bounded Fermat stage: a runs up from ceil(sqrt(n)) over the
residues mod 12 that n mod 24 admits, and the first a with a*a - n a
square gives n's largest divisor <= sqrt(n).  Deterministic Miller-Rabin on
at most the first 12 prime bases, exact below 3.18e23 (Sorenson & Webster,
Math. Comp. 2017), far above MAX_VALUE, decides the rest, and the
composites are split by the same Fermat stage, which on a known composite
goes on past its window to a reach sized to n, else by Pollard-Brent rho
(Brent, BIT 1980).  Miller-Rabin runs at most once on n, and the Fermat
stage tries no value of a twice.
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
# axis values up to SMALL_SPAN when their gcd with _SMALL_PRIMORIAL shows a
# factor there (balanced: the Fermat stage first), then Miller-Rabin, the
# Fermat stage and rho.  A table byte holds the pair index k <= 255 of a
# least factor 6k-1 or 6k+1, so WALK_LIMIT is the largest axis prime with
# k <= 255, 1531 = 6 * 255 + 1 (no axis prime lies in (1531, 1543)).  The
# byte, not the cost, sets it.  Per call on CPython 3.11.7
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
_PRODUCT_5_TO_37 = prod(_PRIMES_5_TO_37)
# The product of the primes the walk over SMALL_SPAN can meet, 5 ... 293:
# every composite up to SMALL_SPAN + 1 coprime to 6 has a factor below 41.
# Above TABLE_CAP the walk runs only when n shares a prime with it.  The
# walk's first pair, 5 and 7, is asked by two remainders before the gcd:
# it holds the least factor of 31 % of the n coprime to 6, and the two cost
# ~0.07 us on CPython 3.11.7 against ~0.4 us for the gcd.
_SMALL_PRIMORIAL = _PRODUCT_5_TO_37 * prod(
    v for v in range(41, SMALL_SPAN + 2, 2) if v % 3 and gcd(v, _PRODUCT_5_TO_37) == 1)
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
# The Fermat stage tries a = ceil(sqrt(n)), ... for FERMAT_WINDOW values of a.
# A divisor d <= s = sqrt(n) is met at a = (d + n / d) / 2, which falls as d
# rises, so the first a with a*a - n = b*b a square gives the largest divisor,
# a - b (Lehman, Math. Comp. 1974; McKee, Math. Comp. 1999).  For d = s - t,
# a - s = t*t / (2 (s - t)).  The stage replaced a walk down from s over
# SMALL_SPAN: a divisor there, t < 300, is met at a - s < 300**2 / (2 (1532 -
# 300)) < 36.6 just above TABLE_CAP, and closer as s grows, so a window of 37
# values of a covers the walk's whole range at every n above the cap (over
# every n in (TABLE_CAP, TABLE_CAP + 2e5], the farthest such a is 36 past
# ceil(sqrt(n))).  A window W reaches t = sqrt(2 d W), about sqrt(2 W) n**(1/4).
# The share of products p*q, p uniform in the 10 % below sqrt(n), that the
# stage splits, and the cost of a miss on p*q with p ~ n**(1/3) (CPython
# 3.11.7, 2-core VM, best of 9 over 60 n):
#
#   W              40    60   100   150   200   300   500  1000
#   1e7   split   97 %  100   100   100   100   100   100   100 %
#         miss   3.4   4.1   5.9   8.0   9.7  13.6  20.9  41.6 us
#   1e10  split   22 %   27    32    38    44    54    69    92 %
#         miss   3.7   4.5   6.4   8.4  10.8  13.1  23.2  45.5 us
#   1e13  split    4 %    4     5     7     8     9    12    17 %
#         miss   3.4   4.5   5.5   8.3  11.9  17.7  29.0  51.2 us
#   1e18  split    0 %    0     0     0     1     1     1     1 %
#         miss   4.5   5.8   8.0  10.9  14.0  20.6  28.3  58.3 us
#
# A split saves a rho, 30 us, 270 us, 1.4 ms and 31 ms on those products at
# the four sizes.  A miss comes before Miller-Rabin on n, 3-17 us, or before a
# rho, 13, 68, 165 and 1060 us on the p ~ n**(1/3) products.  100 keeps a
# miss under half the cheapest rho it precedes and near one Miller-Rabin test
# of n.  Stepping a by 2 alone, by parity, made each miss 1.8-2.4x dearer.
#
# Once Miller-Rabin has shown n composite, a miss no longer delays a prime's
# verdict, only rho, so the stage goes on to _reach(n) = max(100, min(1000,
# 2 n**(1/4))) values of a.  Rho on a pair near sqrt(n) takes ~n**(1/4) steps,
# and a reach R costs ~R, so R grows with rho's cost, up to a cap where a miss
# on a composite with its factors far apart stays a small share of its rho.
# Mean us per _split(n), interleaved, best of 5 per n, 60 n in [N, 1.5 N] per
# cell, measured as above; "window" is the 100 values of a alone:
#
#   N                          1e7   1e8   1e9  1e10  1e12  1e14  1e18
#   p in the 10 % below sqrt(n)
#     window                   7.2   8.2  46.4   170   519  1784  25.6 ms
#     1.5 n**(1/4), cap 1000   8.1   9.6  16.1  45.0   413  1591  25.0
#     2 n**(1/4), cap 500      8.2   9.9  16.7  50.9   430  1725  25.3
#     2 n**(1/4), cap 1000     8.2   9.9  16.5  27.9   406  1582  25.0
#     2 n**(1/4), cap 2000     8.2   9.9  16.6  27.6   364  1519  25.9
#     3 n**(1/4), cap 1000     8.8  11.0  18.4  29.8   408  1579  25.1
#   p ~ n**(1/3)
#     window                  16.6  26.0  36.7  75.4   133   294   909
#     1.5 n**(1/4), cap 1000  17.2  28.4  42.5  90.7   169   331   949
#     2 n**(1/4), cap 500     17.4  29.6  44.8  90.3   146   305   940
#     2 n**(1/4), cap 1000    17.6  28.9  44.7  95.7   165   330   954
#     2 n**(1/4), cap 2000    17.3  29.3  45.1  97.0   210   369  1005
#     3 n**(1/4), cap 1000    18.9  32.6  50.1   107   168   328   954
#   p ~ n**0.4
#     window                  21.6  28.4  78.6   156   252   598  4290
#     2 n**(1/4), cap 1000    22.5  31.5  89.3   173   284   651  4491
#
# 2 n**(1/4) up to 1000 splits every pair of the first row up to 1e10 (the
# window alone: 71 % at 1e9, 35 % at 1e10), 38 % at 1e12 and 20 % at 1e14, and
# costs the p ~ n**(1/3) products +6, 11, 22, 27, 24, 12 and 5 % and the
# p ~ n**0.4 ones +4, 11, 14, 11, 13, 9 and 5 %: a miss over 632 and 1000
# values of a takes ~22 and ~44 us.  1.5 n**(1/4) saves up to 5 % of that
# but splits only 88 % at 1e10; a cap of 500 brings the p ~ n**(1/3) cost at
# 1e12 and 1e14 down to +9 and +4 % but splits 86 % at 1e10 and 30 % at 1e12;
# a cap of 2000 saves 10 % at 1e12 on the near-square products and costs the
# others 27 %.  The near-square products at 1e7 and 1e8 hit inside the
# window; the 1-2 us they lose is the call of _reach and the runs of the
# residues tried before the hit, which go on to the reach's end.
FERMAT_WINDOW = 100
_SQUARES_MOD_64 = frozenset(i * i & 63 for i in range(32))  # (i + 32)**2 = i**2 (mod 64)
_SQUARES_MOD_24 = frozenset(i * i % 24 for i in range(12))  # (i + 12)**2 = i**2 (mod 24)
# Row n mod 24: the residues of a mod 12 that can make a*a - n a square.
_FERMAT_RESIDUES = tuple(tuple(c for c in range(12) if (c * c - r) % 24 in _SQUARES_MOD_24) for r in range(24))


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
    Above it the least one comes from a walk over the axis values up to
    SMALL_SPAN when a gcd shows a factor there, else from n's prime factors;
    the largest one from the Fermat stage's window, else from n's prime
    factors.  None means n is 1 or prime.
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
    if descending:
        # Fermat's first hit is the largest divisor itself.  On a miss,
        # Miller-Rabin decides n, and a composite n goes on to the factors,
        # where Miller-Rabin does not run on it again and the Fermat stage
        # resumes past its window.
        a = _fermat(n, 0, FERMAT_WINDOW)
        if a is not None or _is_prime_mr(n):
            return a
        return _largest_divisor(axis_factors(n, composite=True), isqrt(n))
    if not (n % 5 and n % 7) or gcd(n, _SMALL_PRIMORIAL) > 1:  # a factor up to 301: the walk stops at it
        return _walk(n, range(5, SMALL_SPAN + 1, 6))
    factors = _split(n)  # Miller-Rabin in it decides whether n is prime, once
    return min(factors) if len(factors) > 1 else None


def axis_factors(n: int, composite: bool = False) -> list[int]:
    """Prime factors of n, ascending; n must be coprime to 6.

    Up to TABLE_CAP each factor is one table lookup.  Above it the walk
    stops at SMALL_SPAN, resuming after each factor it splits off at that
    factor's pair, and runs only while a gcd shows a factor up to there;
    Miller-Rabin, the Fermat stage and rho factor what is left.
    ``composite`` says that n is composite and that the Fermat stage's
    window has missed on it, so Miller-Rabin does not run on n again and
    the stage resumes past the window.
    """
    factors: list[int] = []
    low, small = 5, _SMALL_PRIMORIAL
    while n > TABLE_CAP:
        if n % 5 and n % 7:
            small = gcd(n, small)  # a cofactor's small primes are among n's, so the next gcd is short
            if small == 1:
                return factors + sorted(_split(n, composite))
        p = _walk(n, range(low, SMALL_SPAN + 1, 6))
        factors.append(p)
        n //= p
        low = _pair_start(p)
        composite = False
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
        _axis_primes.extend(_PRIMES_5_TO_37)
        _axis_primes.extend(p for p in range(41, WALK_LIMIT + 1, 2) if p % 3 and gcd(p, _PRODUCT_5_TO_37) == 1)
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


def _walk(n: int, lows: range) -> int | None:
    """Least divisor of n in the pairs (d, d + 2), d in lows; None when none holds one."""
    for d in lows:
        if n % d == 0:
            return d
        if n % (d + 2) == 0:
            return d + 2
    return None


def _split(n: int, composite: bool = False) -> list[int]:
    """Prime factors of n > 1, unordered; n has none up to SMALL_SPAN.

    So n is prime when isqrt(n) <= SMALL_SPAN, and Miller-Rabin is needed
    only above that.  A composite n is split by the Fermat stage when its
    largest divisor <= sqrt(n) lies within _reach(n) values of a, else by
    rho; with ``composite``, n is known composite and the stage's window
    has missed, so the stage resumes past it.  The two halves of a square
    are one number, factored once.
    """
    if composite:  # the window [0, FERMAT_WINDOW) has missed: resume past it, if the reach goes further
        reach = _reach(n)
        d = (reach > FERMAT_WINDOW and _fermat(n, FERMAT_WINDOW, reach)) or _rho(n)
    elif isqrt(n) <= SMALL_SPAN or _is_prime_mr(n):
        return [n]
    else:
        d = _fermat(n, 0, _reach(n)) or _rho(n)
    factors = _split(d)
    return factors + (factors if d * d == n else _split(n // d))


def _reach(n: int) -> int:
    """Values of a past ceil(sqrt(n)) that the Fermat stage tries on an n
    known to be composite; the sweep behind it is at FERMAT_WINDOW."""
    return max(FERMAT_WINDOW, min(1000, 2 * isqrt(isqrt(n))))


def _fermat(n: int, start: int = 0, stop: int = FERMAT_WINDOW) -> int | None:
    """The first divisor <= sqrt(n) of an odd n that Fermat's method meets at
    a = ceil(sqrt(n)) + t, start <= t < stop; None when it meets none there.
    When no smaller a meets one, as for start = 0, it is n's largest divisor
    <= sqrt(n).

    a*a - n = b*b makes a*a - n a square mod 24, and a*a mod 24 depends on
    a mod 12 alone, so a runs over the residues mod 12 that n mod 24 admits:
    one for n = 11, 23 (mod 24), two for n = 5, 7, 17, 19 and four for
    n = 1, 13.  Each residue's run stops below the least hit so far, and
    a*a - n goes to isqrt only when it is a square mod 64.  The hit of a
    prime n is a = (n + 1) / 2, past any reach for every n above TABLE_CAP;
    a composite n's first hit is its largest divisor <= sqrt(n), above 1.
    """
    r = isqrt(n)
    low = r + (r * r < n)  # ceil(sqrt(n))
    hit, divisor = low + stop, None
    low += start
    for c in _FERMAT_RESIDUES[n % 24]:
        for a in range(low + (c - low) % 12, hit, 12):
            x = a * a - n
            if (x & 63) in _SQUARES_MOD_64:
                b = isqrt(x)
                if b * b == x:
                    hit, divisor = a, a - b
                    break
    return divisor


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
