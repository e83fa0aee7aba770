"""The verdicts above the table cap, against sympy as an independent oracle.

Up to 10**7 the in-repo sieve is the ground truth; beyond it these tests
compare with sympy, which the package itself never imports.
"""

from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiprime import qgrid
from quasiprime.errors import NoFactorsError
from quasiprime.pipeline import SearchStrategy, factor_on_grid, full_factorize, is_prime
from test_kernels import STRONG_PSEUDOPRIMES

sympy = pytest.importorskip("sympy")

ASC = SearchStrategy.ASCENDING_SCAN
BAL = SearchStrategy.BALANCED_FIRST

LARGEST_PRIME = 2**63 - 25


def check(n):
    """Verdict, witnesses and factorization of n against sympy."""
    factors = sorted(sympy.factorint(n, multiple=True))
    prime = sympy.isprime(n)
    assert full_factorize(n) == factors, n
    for strategy in (ASC, BAL):
        assert is_prime(n, strategy).is_prime == prime, (n, strategy)
    if n % 2 == 0 or n % 3 == 0:
        return
    below_root = [d for d in sympy.divisors(n) if 1 < d <= isqrt(n)]
    if prime:
        for strategy in (ASC, BAL):
            assert is_prime(n, strategy).witness is None
            with pytest.raises(NoFactorsError):
                factor_on_grid(n, strategy)
        return
    asc, bal = factor_on_grid(n, ASC), factor_on_grid(n, BAL)
    assert asc.product == bal.product == n
    assert asc.a == factors[0]
    assert bal.a == max(below_root)
    assert is_prime(n, ASC).witness.axis_values == (asc.a, asc.b)
    assert is_prime(n, BAL).witness.axis_values == (bal.a, bal.b)


# n of a random bit length from 2 to 63, so every size is drawn alike
sized = st.integers(min_value=2, max_value=63).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))


@given(sized)
@settings(max_examples=300, deadline=None)
def test_random_n_of_every_bit_length(n):
    check(n)


@given(sized.map(lambda n: 6 * (n // 6) + 5))
@settings(max_examples=300, deadline=None)
def test_random_n_on_the_axis(n):
    if n <= qgrid.MAX_VALUE:
        check(n)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_composite(n):
    assert not sympy.isprime(n)
    check(n)


def test_largest_prime_below_the_cap():
    assert sympy.isprime(LARGEST_PRIME) and LARGEST_PRIME + 24 == qgrid.MAX_VALUE
    check(LARGEST_PRIME)


def primes_around(bound):
    """Two primes on each side of ``bound``."""
    below = sympy.prevprime(bound + 1)
    above = sympy.nextprime(bound)
    return [sympy.prevprime(below), below, above, sympy.nextprime(above)]


@pytest.mark.parametrize(
    "bound",
    [300, qgrid.AXIS_PRIME_MAX, isqrt(qgrid.MAX_VALUE)],  # 300: where the walk above the cap used to stop
    ids=["SMALL_SPAN", "AXIS_PRIME_MAX", "isqrt(MAX_VALUE)"],
)
def test_powers_and_products_around_each_bound(bound):
    primes = primes_around(bound)
    cases = {p**k for p in primes for k in (2, 3)}
    cases |= {p * q for p in primes for q in primes if p < q}
    for n in sorted(cases):
        if n <= qgrid.MAX_VALUE:
            check(n)


def test_least_factor_around_the_small_span():
    # above the crossover a walk up to 300 used to find a least factor below
    # it, and rho one just above it; the gcd with the axis primorial finds both
    for p in primes_around(300):
        for q in (p, sympy.nextprime(p), sympy.nextprime(10**6), sympy.prevprime(qgrid.MAX_VALUE // p)):
            for n in (p * q, p * p * q):
                if n <= qgrid.MAX_VALUE:
                    check(n)


# the axis primes the table names above the old walk's last one, 293, or a product of two or three of them
table_primes = st.lists(st.sampled_from(list(sympy.primerange(294, qgrid.AXIS_PRIME_MAX + 1))), min_size=1, max_size=3)


@given(table_primes.map(prod).flatmap(lambda p: st.tuples(st.just(p), st.integers(1, qgrid.MAX_VALUE // p))))
@settings(max_examples=200, deadline=None)
def test_least_factors_the_table_names_above_the_cap(pm):
    # one gcd with the axis primorial and a lookup of its least prime stand
    # in for the Fermat stage, Miller-Rabin and rho on every such n; m and
    # the largest 6k+1 <= m, so that the product lies on the axis too
    p, m = pm
    for n in {p * m, p * (m - (m - 1) % 6)}:
        if n > qgrid.TABLE_CAP:
            check(n)


def fermat_offset(p, q):
    """Values of a past ceil(sqrt(p*q)) at which Fermat's method meets the pair (p, q)."""
    n = p * q
    r = isqrt(n)
    return (p + q) // 2 - (r + (r * r < n))


# p from just above the table's root to the top of the domain's
root_primes = st.integers(isqrt(qgrid.TABLE_CAP) + 2, isqrt(qgrid.MAX_VALUE)).map(sympy.prevprime)


@given(root_primes, st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_near_square_products(p, k):
    q = p
    for _ in range(k):
        q = sympy.nextprime(q)
    if p * q > qgrid.MAX_VALUE:
        p, q = sympy.prevprime(p), p
    assert qgrid._fermat(p * q) == p
    check(p * q)


@given(root_primes)
@settings(max_examples=100, deadline=None)
def test_prime_squares(p):
    assert qgrid._fermat(p * p) == p
    check(p * p)


@given(st.integers(5, 10**4).map(sympy.nextprime), st.integers(5, 10**5).map(sympy.nextprime))
@settings(max_examples=100, deadline=None)
def test_three_primes_whose_balanced_divisor_is_composite(p, q):
    # r just above p*q puts p*q, a composite, nearest sqrt(n) from below
    r = sympy.nextprime(p * q)
    n = p * q * r
    if n <= qgrid.TABLE_CAP or n > qgrid.MAX_VALUE:
        return
    assert qgrid._fermat(n) == p * q
    check(n)


def window_edge(p, width=lambda n: qgrid.FERMAT_WINDOW):
    """The largest prime q whose pair with p lies inside the Fermat window, and the least outside it.

    ``width(n)`` is the number of values of a the window holds for n = p*q.
    """
    lo, hi = p, p + 2
    while fermat_offset(p, hi) < width(p * hi):
        lo, hi = hi, 2 * hi - p
    while hi - lo > 1:  # the offset rises with q, far faster than the width: the least q at the window's end
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fermat_offset(p, mid) < width(p * mid) else (lo, mid)
    return sympy.prevprime(hi), sympy.nextprime(hi - 1)


@pytest.mark.parametrize("size", [10**4, 10**6, 10**8, 3 * 10**9 - 10**6])
def test_products_at_the_edge_of_the_window(size):
    p = sympy.prevprime(size)
    inside, outside = window_edge(p)
    assert fermat_offset(p, inside) < qgrid.FERMAT_WINDOW <= fermat_offset(p, outside)
    assert qgrid._fermat(p * inside) == p
    assert qgrid._fermat(p * outside) is None
    # Once Miller-Rabin shows it composite, the reach meets it past the window.
    assert qgrid._fermat(p * outside, qgrid.FERMAT_WINDOW, qgrid._reach(p * outside)) == p
    for n in (p * inside, p * outside):
        check(n)


@pytest.mark.parametrize("size", [10**4, 10**5, 10**6])
def test_products_at_the_edge_of_the_reach(size):
    # On an n known to be composite the stage goes on past the window, to
    # _reach(n) values of a, before rho.
    p = sympy.prevprime(size)
    inside, outside = window_edge(p, qgrid._reach)
    assert qgrid.FERMAT_WINDOW <= fermat_offset(p, inside) < qgrid._reach(p * inside)
    assert fermat_offset(p, outside) >= qgrid._reach(p * outside)
    assert qgrid._fermat(p * inside) is None
    assert qgrid._fermat(p * inside, 0, qgrid._reach(p * inside)) == p
    assert qgrid._fermat(p * inside, qgrid.FERMAT_WINDOW, qgrid._reach(p * inside)) == p
    assert qgrid._fermat(p * outside, 0, qgrid._reach(p * outside)) is None  # left to rho
    for n in (p * inside, p * outside):
        check(n)


def test_the_axis_primorial_is_the_product_of_the_primes_the_table_names():
    # a gcd with it is the product of n's distinct primes from 5 to AXIS_PRIME_MAX
    assert qgrid._AXIS_PRIMORIAL == prod(sympy.primerange(5, qgrid.AXIS_PRIME_MAX + 1))


def test_the_stage_covers_the_walk_it_replaced():
    # The walk down from sqrt(n) found any divisor d > isqrt(n) - span.
    # Just above TABLE_CAP those lie farthest from ceil(sqrt(n)) in a.
    span = 300
    farthest, deepest = 0, 0
    root = isqrt(qgrid.TABLE_CAP)
    for d in range(root - span, root + 1):
        m = qgrid.TABLE_CAP // d + 1
        for n in (d * m for m in range(m, m + 12) if d * m % 6 in (1, 5)):
            r = isqrt(n)
            if d > r - span:
                largest = max(x for x in range(d, r + 1) if n % x == 0)
                assert qgrid._fermat(n) == largest, n
                farthest = max(farthest, fermat_offset(largest, n // largest))
                deepest = max(deepest, r - largest)
                if r - largest > span - 8:  # in the walk's last pair
                    check(n)
    assert deepest == span - 1
    assert farthest == 36 < qgrid.FERMAT_WINDOW
