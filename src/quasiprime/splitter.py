"""The splitter: one order that factors an n above the table cap with no
axis prime up to AXIS_PRIME_MAX as a factor, the same for both strategies.

A bounded Fermat stage runs first: a runs up from ceil(sqrt(n)), bitmask
rows pick out the a whose a*a - n is a square modulo 64, 45, 77 and 13,
and the first a with a*a - n a square gives n's largest divisor <=
sqrt(n).  On a miss, deterministic Miller-Rabin on the fewest bases proven
for n's size, one hashed base below 2**32 (Forisek & Jancina, ITAT 2015)
and 3 to 7 above, decides n, and a composite is split by the Fermat stage
past its window, to a reach sized to n, else by Pollard-Brent rho (Brent,
BIT 1980).  Miller-Rabin runs at most once on n, and the Fermat stage
tries no value of a twice.

Only qgrid imports it, on the first n that needs it, so a process whose n
all lie below the cap, or have a factor the table names, never compiles it.
"""

from __future__ import annotations

from math import gcd, isqrt

from .qgrid import TABLE_CAP

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
# 1060 us on the p ~ n**(1/3) products.  Folding the window into the reach,
# one _fermat(n, 0, _reach(n)) before Miller-Rabin, gives the same factors
# but makes a prime pay the whole reach: with _split swapped in one process
# (CPython 3.11.7, 2-core VM, CPU time, order alternated, best of 5 per op),
# perfbench's scalar ops, seeds 1-3, read ops/s -1.4 to -1.8 % and p99 +4 to
# +5 %; per _split, primes at 1e10-1e14 +4 to +7 %, and p in the 10 % below
# sqrt(n) -49 % at 1e10 but flat at 1e12 and 1e14.  So the window stays.
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
# over 1000 values of a takes ~3-4 us.  A cap of 2000 costs them nothing
# measurable either, and takes the near-square products at 1e12 from 436 to
# 235 us.  The near-square products at 1e7 and 1e8 hit inside the window;
# the ~0.6 us they lose is the call of _reach and the longer span's mask.
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
    _split asks it of n > TABLE_CAP coprime to 6 and to qgrid._AXIS_PRIMORIAL.
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
