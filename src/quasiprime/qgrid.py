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
n with none goes to one order, the same for both strategies.  A bounded
Fermat stage runs first: a runs up from ceil(sqrt(n)), bitmask rows pick
out the a whose a*a - n is a square modulo 64, 45, 77 and 13, and the
first a with a*a - n a square gives n's largest divisor <= sqrt(n).  On a
miss, deterministic Miller-Rabin on the fewest bases proven for n's size,
one hashed base below 2**32 (Forisek & Jancina, ITAT 2015) and 3 to 7
above, decides n, and a composite is split by the Fermat stage past its
window, to a reach sized to n, else by Pollard-Brent rho (Brent, BIT
1980).  The balanced pair, the one nearest the reflection line, is read
off the prime factors.  Miller-Rabin runs at most once on n, and the
Fermat stage tries no value of a twice.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd, isqrt, prod

from .errors import NotOnPrimeModuliError, ResourceLimitError, require_int, require_limit
from .numerics import digital_root

__all__ = ["GridCoordinate", "QuasiPrimeTag", "axis_index", "axis_value", "contains",
           "diagonal_dr", "grid_value", "quasiprime_tag", "region"]

MAX_VALUE = 2**63 - 1  # the input cap of every entry point that takes an n
REGION_CELL_CAP = 10**4
# n with isqrt(n) <= AXIS_PRIME_MAX read the table.  Above it, a gcd with
# _AXIS_PRIMORIAL and a lookup give n's least factor when the table names it;
# an n with no prime factor up to AXIS_PRIME_MAX goes to the Fermat stage's window,
# Miller-Rabin, the rest of the stage's reach and rho.  A table byte holds the
# pair index k <= 255 of a least factor 6k-1 or 6k+1, so AXIS_PRIME_MAX is the
# largest axis prime with k <= 255, 1531 = 6 * 255 + 1 (no axis prime lies in
# (1531, 1543)).  The byte, not the cost, sets it.  Per call on CPython 3.11.7
# (2-core VM, CPU time, best of 7 over 60 n of each class, both strategies,
# is_prime, factor_on_grid and full_factorize; semiprimes p*q with p in the
# 10 % below sqrt(n)):
#
#   class       n in (TABLE_CAP/2, TABLE_CAP]    n in (TABLE_CAP, 4 TABLE_CAP]
#   random      1.1-3.2 us (table)               2.7-5.3 us (gcd, lookup, MR, rho)
#   prime       0.7 us                           5.8-6.3 us
#   semiprime   1.0-1.4 us                       2.7-3.6 us
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
# Miller-Rabin bases, each set proven for every n below its bound that has
# no prime factor <= 47.  Below 2**32 one base does it, chosen by a hash of n
# from 256 (Forisek & Jancina, ITAT 2015); stored as 16-bit big-endian
# values, since a bytes literal compiles ~16x faster than a tuple of ints.
# Above 2**32, the shortest known sets of 3, 4, 5, 6 and 7 bases (the 7 are
# Sinclair's) from the records at miller-rabin.appspot.com, each checked
# against Feitsma & Galway's list of base-2 strong pseudoprimes below 2**64.
# Both are the tables of sympy 1.14's isprime.
_MR_BASES_32 = bytes.fromhex(
    "3ce707e200a61d051f803ead2907112f079d050f0ad80e2402300c38145c0a6108fc07e5122c05bf24780fb2095e4fee"
    "28251f5c08a5184b026c0eb312f413940c710535185314b20432095713f91b95032304f50f2301a602ef0244127927ff"
    "02ea0b87022c089e0ec201e105f20d9401e109b70cc2160101e80d2d19290d1000113b0105d2103a07f4075a071501d3"
    "0ceb36da18e3029203ed038702e1075f1d1707600b2006f81d870d4803b7369110d000b100294da30c2633a52216023b"
    "1b831b1f04af0160192300a504910cf303d200e90bbb0a020bb2295b272e0949076e14ea115f06130107699308eb0131"
    "029d07780259182a01ad078a3a1906f8067d020c0df900ec093818020b22d95506d91052211200de0a130ab707ef08b2"
    "08e401760854032d5cec064a1146142706bd0e0d0d263800024300a5055f272231482658055b0218074b2a700359089e"
    "169c01b21f9544d202d70e37063b1350085107ed20032098185823df1fbe074e0ce01d1f22f361b9021d4aab01700236"
    "162a019b020a0403201708021990274102660306091d0bbf89811262048006f9040406040e9f01ed117a09d968dd20a2"
    "036049e31559098f002a119f067c00a604e1187309f9013001101c760049199a03830b00144d34121b8e0b020c7f032b"
    "039a015e1d5a11640d790a67126401a2065504930d8f00582c51019c061700c2")
_MR_BASE_SETS = (
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851, (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977, (2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437,
                          1263739024124850375)),
    (2**64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)
_RHO_BATCH = 128  # rho steps whose differences share one gcd
# The Fermat stage tries a = ceil(sqrt(n)), ... for FERMAT_WINDOW values of a.
# A divisor d <= s = sqrt(n) is met at a = (d + n / d) / 2, which falls as d
# rises, so the first a with a*a - n = b*b a square gives the largest divisor,
# a - b (Lehman, Math. Comp. 1974; McKee, Math. Comp. 1999).  For d = s - t,
# a - s = t*t / (2 (s - t)).  The stage replaced a walk down from s over
# 300 values: a divisor there, t < 300, is met at a - s < 300**2 / (2 (1532 -
# 300)) < 36.6 just above TABLE_CAP, and closer as s grows, so a window of 37
# values of a covers the walk's whole range at every n above the cap (over
# every n in (TABLE_CAP, TABLE_CAP + 2e5], the farthest such a is 36 past
# ceil(sqrt(n))).  A window W reaches t = sqrt(2 d W), about sqrt(2 W) n**(1/4).
# The share of products p*q, p uniform in the 10 % below sqrt(n), that the
# stage splits (300 n), and the cost of a miss on p*q with p ~ n**(1/3)
# (CPython 3.11.7, 2-core VM, best of 9 over 60 n):
#
#   W              40    60   100   150   200   300   500  1000
#   1e7   split  100 %  100   100   100   100   100   100   100 %
#         miss   1.4   1.4   1.7   1.6   1.7   1.6   2.0   3.2 us
#   1e10  split   25 %   30    38    48    53    68    89   100 %
#         miss   1.4   1.5   1.7   1.5   1.6   1.8   2.0   3.3 us
#   1e13  split    7 %    7     8     9    10    13    16    22 %
#         miss   1.4   1.5   1.6   1.8   2.0   2.2   2.5   2.9 us
#   1e18  split    1 %    1     1     1     1     1     2     2 %
#         miss   1.5   1.5   1.5   1.7   1.7   2.1   2.5   3.8 us
#
# A split saves a rho, 30 us, 270 us, 1.4 ms and 31 ms on those products at
# the four sizes.  A miss comes before Miller-Rabin on n, one modular
# exponentiation of 4-5 us at 32 bits, or before a rho, 13, 68, 165 and
# 1060 us on the p ~ n**(1/3) products.  The window of 100 was set when a
# miss scanned a by residues mod 12 and cost 2.7-3.6 us at W = 40, 4.4-6.7
# at 100 and 33-51 at 1000 (measured alongside the rows above); it kept a
# miss under half the cheapest rho and near one Miller-Rabin test of n.
#
# Once Miller-Rabin has shown n composite, a miss no longer delays a prime's
# verdict, only rho, so the stage goes on to _reach(n) = max(100, min(1000,
# 2 n**(1/4))) values of a.  Rho on a pair near sqrt(n) takes ~n**(1/4) steps,
# so the reach grows with rho's cost, up to a cap.  Mean us per _split(n),
# rules interleaved per n, best of 5 per n, 60 n in [N, 1.5 N] per cell,
# measured as above; "window" is the 100 values of a alone:
#
#   N                          1e7   1e8   1e9  1e10  1e12  1e14  1e18
#   p in the 10 % below sqrt(n)
#     window                   7.7   8.3  43.4   185   641  1760  16.6 ms
#     1.5 n**(1/4), cap 1000   8.4   9.1  13.2  60.7   437  1555  16.4
#     2 n**(1/4), cap 500      8.4   9.0  13.1  69.2   604  1607  15.8
#     2 n**(1/4), cap 1000     8.3   8.9  13.0  23.0   436  1540  16.1
#     2 n**(1/4), cap 2000     8.4   9.0  13.0  23.0   235  1531  16.4
#     3 n**(1/4), cap 1000     8.4   9.0  13.2  23.2   434  1589  16.3
#   p ~ n**(1/3)
#     window                  12.6  22.9  33.6  57.2  94.5   209  1199
#     2 n**(1/4), cap 1000    12.8  23.5  33.8  59.9  95.7   212  1208
#     2 n**(1/4), cap 2000    13.0  23.4  34.1  58.3  97.6   213  1215
#   p ~ n**0.4
#     window                  18.8  26.7  65.8   122   217   626  4027
#     2 n**(1/4), cap 1000    19.2  26.8  67.2   122   218   617  3983
#
# 2 n**(1/4) up to 1000 splits every pair of the first row up to 1e10 (the
# window alone: 71 % at 1e9, 35 % at 1e10), 38 % at 1e12 and 20 % at 1e14.
# On the p ~ n**(1/3) and n**0.4 products it costs -1 to +5 %, within the
# run-to-run spread (rho alone moved up to 40 % between runs at 1e18): a miss
# over 1000 values of a takes ~3-4 us.  The rule was chosen when such a miss
# took ~44 us and cost those products +4 to +23 %, and a cap of 2000 up to
# +40 % (the mod-12 scan, same n, measured alongside); with this scan a cap
# of 2000 costs them nothing measurable and takes the near-square products
# at 1e12 from 436 to 235 us.  The near-square products at 1e7 and
# 1e8 hit inside the window; the ~0.6 us they lose is the call of _reach and
# the longer span's mask.
FERMAT_WINDOW = 100
_REACH_CAP = 1000  # the most values of a that _reach gives, so the longest span of a call
# A square is a square mod every m, so a*a - n = b*b needs a*a - n to be a
# square mod m for each of these moduli; 0.85 % of the a pass all four.
# _fermat_rows[i][n % m] has bit j set when j*j - n is a square mod m, for m
# = _FERMAT_MODULI[i], repeated with period m over _REACH_CAP + m bits or more,
# so shifted right by a % m its bit t answers for a + t.  Built on the first
# call, ~1 ms in a fresh process (median of 25, 0.6 ms at best) and ~33 KB;
# moduli (576, 35, 143) pass 0.85 % too, but take ~6 ms and ~150 KB to build.
_FERMAT_MODULI = (64, 45, 77, 13)  # in the order _fermat unpacks their rows
_fermat_rows: list[tuple[int, ...]] = []


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
    """Cell of n for an axis divisor a <= sqrt(n) of n that the grid search has proved.

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
    TABLE_CAP the table gives the least prime factor p.  Above it the least
    one is the least prime of n's gcd with _AXIS_PRIMORIAL when that exceeds
    1, else it comes from n's prime factors.  The largest one is p when n is
    the product of two primes, else it comes from n's prime factors.  None
    means n is 1 or prime.
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
        if not descending or axis_divisor(n // p) is None:  # n // p is prime: p is the largest one too
            return p
    elif not descending:
        if not (n % 5 and n % 7):
            return 7 if n % 5 else 5
        small = gcd(n, _AXIS_PRIMORIAL)
        if small > 1:
            return _least_prime(small)
        factors = _split(n)  # the Fermat stage's window or Miller-Rabin in it decides whether n is prime, once
        return min(factors) if len(factors) > 1 else None
    factors = axis_factors(n)
    if len(factors) < 3:  # prime, or the product of two primes
        return factors[0] if len(factors) == 2 else None
    return _largest_divisor(factors, isqrt(n))


def axis_factors(n: int) -> list[int]:
    """Prime factors of n, ascending; n must be coprime to 6.

    Up to TABLE_CAP each factor is one table lookup.  Above it each one up
    to AXIS_PRIME_MAX is the least prime of a gcd with _AXIS_PRIMORIAL, and the
    Fermat stage, Miller-Rabin and rho factor what has none.
    """
    factors: list[int] = []
    small = _AXIS_PRIMORIAL
    while n > TABLE_CAP:
        if not (n % 5 and n % 7):
            p = 7 if n % 5 else 5
        else:
            small = gcd(n, small)  # a cofactor's small primes are among n's, so the next gcd is short
            if small == 1:
                return factors + sorted(_split(n))
            p = _least_prime(small)
        factors.append(p)
        n //= p
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


def _split(n: int) -> list[int]:
    """Prime factors of n > 1, unordered; n has none up to AXIS_PRIME_MAX.

    So n is prime when n <= TABLE_CAP.  Above that the Fermat
    stage's window runs first, since a prime never hits it and a hit splits
    n at its largest divisor <= sqrt(n).  On a miss Miller-Rabin decides n,
    and a composite is split by the stage on the rest of _reach(n) values
    of a, else by rho.  The two halves of a square are one number,
    factored once.
    """
    if n <= TABLE_CAP:
        return [n]
    d = _fermat(n)
    if d is None:
        if _is_prime_mr(n):
            return [n]
        reach = _reach(n)
        d = (reach > FERMAT_WINDOW and _fermat(n, FERMAT_WINDOW, reach)) or _rho(n)
    factors = _split(d)
    return factors + (factors if d * d == n else _split(n // d))


def _reach(n: int) -> int:
    """Values of a past ceil(sqrt(n)) that the Fermat stage tries on an n
    known to be composite; the sweep behind it is at FERMAT_WINDOW."""
    return max(FERMAT_WINDOW, min(_REACH_CAP, 2 * isqrt(isqrt(n))))


def _fermat(n: int, start: int = 0, stop: int = FERMAT_WINDOW) -> int | None:
    """The first divisor <= sqrt(n) of an odd n that Fermat's method meets at
    a = ceil(sqrt(n)) + t, start <= t < stop <= _REACH_CAP; None when it meets
    none there.  When no smaller a meets one, as for start = 0, it is n's
    largest divisor <= sqrt(n).

    One AND of a shifted row per modulus in _FERMAT_MODULI leaves a bit for
    each a in the span whose a*a - n is a square modulo all of them, and
    those a go to isqrt in ascending order, so the first square is the
    first hit.  The hit of a prime n is a = (n + 1) / 2, at t = (n + 1) / 2
    - ceil(sqrt(n)) > 10**6 for every n > TABLE_CAP, the least that _split
    gives it: past any reach.  A composite n's first hit is its largest
    divisor <= sqrt(n), above 1.
    """
    r64, r45, r77, r13 = _fermat_rows or _build_fermat_rows()
    r = isqrt(n)
    a = r + (r * r < n) + start  # ceil(sqrt(n)) + start
    candidates = ((1 << stop - start) - 1 & r64[n % 64] >> a % 64 & r45[n % 45] >> a % 45
                  & r77[n % 77] >> a % 77 & r13[n % 13] >> a % 13)
    a -= 1
    while candidates:
        skip = (candidates & -candidates).bit_length()  # the lowest candidate's offset, plus 1
        a += skip
        candidates >>= skip
        x = a * a - n
        b = isqrt(x)
        if b * b == x:
            return a - b
    return None


def _build_fermat_rows() -> list[tuple[int, ...]]:
    """Build the Fermat stage's rows, store them and return them."""
    built = []
    for m in _FERMAT_MODULI:
        squares = [j * j % m for j in range(m)]
        rows = [0] * m
        for q in set(squares):
            for j, s in enumerate(squares):
                rows[s - q] |= 1 << j  # row (j*j - q) mod m: a negative index counts from the end
        repeat = ((1 << m * (_REACH_CAP // m + 2)) - 1) // ((1 << m) - 1)  # a 1 every m bits
        built.append(tuple(map(repeat.__mul__, rows)))
    _fermat_rows[:] = built
    return _fermat_rows


def _is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin for n below 2**64 with no prime factor <= 47.

    The bases are proven only for such n, which is the caller's contract:
    _split asks it of n > TABLE_CAP coprime to 6 and to _AXIS_PRIMORIAL.
    n passes a base a when a**d == 1 or a**(d * 2**i) == -1 (mod n) for some
    i < s, where n - 1 = d * 2**s with d odd.  Below 2**32 one base, read off
    a hash of n, decides n; above it, the set for n's size.  A base is taken
    mod n and skipped when that leaves it below 2.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < 1 << 32:
        h = ((n >> 16) ^ n) * 0x45D9F3B
        h = ((h >> 16) ^ h) * 0x45D9F3B
        h = ((h >> 16) ^ h) & 255
        bases = (_MR_BASES_32[2 * h] << 8 | _MR_BASES_32[2 * h + 1],)
    else:
        for bound, bases in _MR_BASE_SETS:
            if n < bound:
                break
    for a in bases:
        a %= n
        if a < 2:
            continue
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
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
    require_limit(count, "count", 1, REGION_CELL_CAP)
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
