"""The kernels above the table cap, Miller-Rabin and the Fermat stage,
against references that share none of their tables, and rho's retry.

sympy's isprime, without gmpy, uses the very base tables of
splitter._is_prime_mr below 2**64, so a comparison with it would prove nothing
about them.  The references here are the Miller-Rabin test on the first k
prime bases, read off the least strong pseudoprimes psi_k, the in-repo sieve
and Fermat's method tried at every a.
"""

import random
import sys
from math import gcd, isqrt, prod

import pytest

from quasiprime import oracle, pipeline, qgrid, splitter

# psi_4, psi_5, psi_6, psi_7 and psi_9: each passes Miller-Rabin on every one
# of the first 4, 5, 6, 7 and 9 prime bases, and is composite
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051]
PRIMES_5_TO_47 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
PRODUCT_2_TO_47 = 6 * prod(PRIMES_5_TO_47)

# (a, psi_k): the k-th prime base and the least composite that passes the
# first k of them (Jaeschke, Math. Comp. 1993; Jiang & Deng, Math. Comp.
# 2014; Sorenson & Webster, Math. Comp. 2017).  psi_12 > 3.18e23 > MAX_VALUE.
PSI_ROUNDS = (
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


def reference_is_prime_mr(n):
    """Deterministic Miller-Rabin for odd n > 37 on the first k prime bases.

    A composite below psi_k fails one of the first k bases, so the rounds
    stop once n < psi_k.
    """
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in PSI_ROUNDS:
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


def reference_fermat(n, start=0, stop=splitter.FERMAT_WINDOW):
    """splitter._fermat by trying every a = ceil(sqrt(n)) + t, start <= t < stop, in turn."""
    r = isqrt(n)
    low = r + (r * r < n)
    for a in range(low + start, low + stop):
        b = isqrt(a * a - n)
        if b * b == a * a - n:
            return a - b
    return None


def free_of_47(n):
    """n has no prime factor <= 47."""
    return gcd(n, PRODUCT_2_TO_47) == 1


def chernick_carmichaels(limit):
    """The Carmichael numbers (6k+1)(12k+1)(18k+1) <= limit whose three factors are prime (Chernick 1939)."""
    table = oracle.sieve(18 * int(round((limit / 1296) ** (1 / 3))) + 19)
    out = []
    k = 1
    while (6 * k + 1) * (12 * k + 1) * (18 * k + 1) <= limit:
        if all(table.is_prime(f) for f in (6 * k + 1, 12 * k + 1, 18 * k + 1)):
            out.append((6 * k + 1) * (12 * k + 1) * (18 * k + 1))
        k += 1
    return out


# Where the next, longer base set takes over: 2**32 and each set's bound below 2**64.
BOUNDS = [2**32, *(bound for bound, _ in splitter._MR_BASE_SETS[:-1])]


def near(bound, count, seed):
    """count seeded random n free of 47 within 10**6 of bound, and at most MAX_VALUE."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(bound - 10**6, min(bound + 10**6, qgrid.MAX_VALUE + 1))
        if free_of_47(n):
            out.append(n)
    return out


class TestMillerRabin:
    def test_agrees_with_the_reference_just_above_the_cap(self):
        for n in range(qgrid.TABLE_CAP + 1, qgrid.TABLE_CAP + 2 * 10**5 + 1):
            if free_of_47(n):
                assert splitter._is_prime_mr(n) == reference_is_prime_mr(n), n

    @pytest.mark.parametrize("bound", [*BOUNDS, qgrid.MAX_VALUE], ids=[*map(str, BOUNDS), "MAX_VALUE"])
    def test_agrees_with_the_reference_around_each_bound(self, bound):
        ns = near(bound, 2000, bound)
        verdicts = [splitter._is_prime_mr(n) for n in ns]
        assert verdicts == [reference_is_prime_mr(n) for n in ns]
        assert any(verdicts)  # the primes among them are tested on every base of their set

    def test_agrees_with_the_sieve_up_to_4e6(self):
        limit = 4 * 10**6
        table = oracle.sieve(limit)
        for n in range(301**2, limit + 1):  # from well below the least n that _split tests, TABLE_CAP + 1
            if free_of_47(n):
                assert splitter._is_prime_mr(n) == table.is_prime(n), n

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_refuses_the_strong_pseudoprimes(self, n):
        assert not reference_is_prime_mr(n) and not splitter._is_prime_mr(n)

    def test_refuses_the_carmichael_numbers_above_the_cap(self):
        carmichaels = [n for n in chernick_carmichaels(qgrid.MAX_VALUE) if n > qgrid.TABLE_CAP]
        assert len(carmichaels) > 100 and carmichaels[0] == 56052361  # 211 * 421 * 631
        for n in carmichaels:
            assert not reference_is_prime_mr(n) and not splitter._is_prime_mr(n), n

    def test_skips_a_base_that_is_1_mod_n(self):
        # 141889084524735, a base of the 4-base set, is 1 mod this prime, so
        # the other three decide it.
        n = 1649873075869
        assert splitter._MR_BASE_SETS[0][0] <= n < splitter._MR_BASE_SETS[1][0]
        assert 141889084524735 in splitter._MR_BASE_SETS[1][1] and 141889084524735 % n == 1
        assert reference_is_prime_mr(n) and splitter._is_prime_mr(n)
        assert pipeline.is_prime(n).is_prime

    def test_refuses_every_n_with_a_factor_up_to_47(self):
        # the base tables are proven only for n with no such factor, which _split never
        # asks about; Miller-Rabin's own rounds still refuse these
        for q in PRIMES_5_TO_47:
            for m in (10**6 + 3, 10**9 + 7, 2**31 - 1, 4294967291, 3037000493, (10**6 + 3) * (10**6 + 33)):
                assert not splitter._is_prime_mr(q * m), (q, m)


def near_square_products(count, seed):
    """(n, t): count seeded products d*e, d odd above the table's root, whose
    Fermat pair lies at a = ceil(sqrt(n)) + t, t spread over [0, _REACH_CAP]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randrange(isqrt(qgrid.TABLE_CAP) + 1, 3 * 10**9) | 1
        target = rng.randrange(splitter._REACH_CAP + 8)
        lo, hi = 0, d  # e = d + 2*k: the offset rises with k
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if offset(d, d + 2 * mid) <= target else (lo, mid)
        n = d * (d + 2 * lo)
        if n <= qgrid.MAX_VALUE:
            out.append((n, offset(d, d + 2 * lo)))
    return out


def offset(d, e):
    """Values of a past ceil(sqrt(d*e)) at which Fermat's method meets the pair (d, e)."""
    n = d * e
    r = isqrt(n)
    return (d + e) // 2 - (r + (r * r < n))


class TestFermat:
    def test_agrees_with_every_a_tried_in_turn(self):
        rng = random.Random(16)
        cases = near_square_products(400, 1)
        cases += [(rng.randrange(qgrid.TABLE_CAP, qgrid.MAX_VALUE) | 1, 0) for _ in range(400)]
        for n, t in cases:
            # a span that ends at the pair or just past it, and the window and reach spans
            for start, stop in ((0, t), (0, t + 1), (t, t + 1), (0, splitter.FERMAT_WINDOW),
                                (splitter.FERMAT_WINDOW, splitter._REACH_CAP), (0, splitter._REACH_CAP)):
                if stop <= splitter._REACH_CAP:
                    assert splitter._fermat(n, start, stop) == reference_fermat(n, start, stop), (n, start, stop)

    def test_a_prime_misses_every_reach(self):
        # _split runs the window before Miller-Rabin on every n above TABLE_CAP, so a prime
        # must miss it: its only hit, a = (p + 1) / 2, lies 45,000 or more past ceil(sqrt(p)) from 301**2 on
        low = 301**2
        table = oracle.sieve(low + 2 * 10**5)
        primes = [p for p in range(low + 1, low + 2 * 10**5 + 1) if table.is_prime(p)]
        assert primes and offset(1, primes[0]) >= 45000
        for p in primes:
            assert splitter._fermat(p, 0, splitter._REACH_CAP) is None, p

    def test_rows_cover_the_reach_at_every_shift(self):
        # row[n % m] >> (a % m) must keep _REACH_CAP bits for every a % m
        splitter._fermat(qgrid.TABLE_CAP + 2)
        for m, rows in zip(splitter._FERMAT_MODULI, splitter._fermat_rows, strict=True):
            squares = {i * i % m for i in range(m)}
            span = range(splitter._REACH_CAP + m)
            assert len(rows) == m
            for r, row in enumerate(rows):
                assert row & (1 << len(span)) - 1 == sum(1 << j for j in span if (j * j - r) % m in squares), (m, r)


def rho_constants(call, n):
    """call(n), and the constant c of x -> x*x + c with which each call of
    splitter._rho returned, read off its frame."""
    constants = []

    def on_call(frame, event, arg):
        return on_event if frame.f_code is splitter._rho.__code__ else None

    def on_event(frame, event, arg):
        if event == "return":
            constants.append(frame.f_locals["c"])
        return on_event

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = call(n)
    finally:
        sys.settrace(previous)
    return result, constants


class TestRho:
    # Each n is p * q above the cap, with p above the axis primes and the pair
    # past the Fermat stage's reach, so rho splits it.  With c = 1 the cycles
    # mod p and mod q close at one step, gcd jumps from 1 to n, and rho
    # retries with c = 2.
    @pytest.mark.parametrize("n, p, q", [(16314163, 2689, 6067), (21237401, 2657, 7993), (29365513, 3541, 8293)])
    def test_retries_with_the_next_constant(self, n, p, q):
        assert n == p * q > qgrid.TABLE_CAP and p > qgrid.AXIS_PRIME_MAX
        assert splitter._fermat(n, 0, splitter._reach(n)) is None
        assert rho_constants(splitter._rho, n) in [(p, [2]), (q, [2])]
        assert rho_constants(pipeline.full_factorize, n) == ([p, q], [2])
