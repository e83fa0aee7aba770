"""The verdicts above the walk's crossover, against sympy as an independent oracle.

Up to 10**7 the in-repo sieve is the ground truth; beyond it these tests
compare with sympy, which the package itself never imports.
"""

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiprime import qgrid
from quasiprime.errors import NoFactorsError
from quasiprime.pipeline import SearchStrategy, factor_on_grid, full_factorize, is_prime

sympy = pytest.importorskip("sympy")

ASC = SearchStrategy.ASCENDING_SCAN
BAL = SearchStrategy.BALANCED_FIRST

# psi_4, psi_5, psi_6, psi_7 and psi_9: each passes Miller-Rabin on every one
# of the first 4, 5, 6, 7 and 9 prime bases, and is composite
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051]
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
    [qgrid.SMALL_SPAN, qgrid.WALK_LIMIT, isqrt(qgrid.MAX_VALUE)],
    ids=["SMALL_SPAN", "WALK_LIMIT", "isqrt(MAX_VALUE)"],
)
def test_powers_and_products_around_each_bound(bound):
    primes = primes_around(bound)
    cases = {p**k for p in primes for k in (2, 3)}
    cases |= {p * q for p in primes for q in primes if p < q}
    for n in sorted(cases):
        if n <= qgrid.MAX_VALUE:
            check(n)


def test_least_factor_around_the_small_span():
    # above the crossover the upward walk stops at SMALL_SPAN: a least factor
    # below it is the walk's to find, one just above it rho's
    for p in primes_around(qgrid.SMALL_SPAN):
        for q in (p, sympy.nextprime(p), sympy.nextprime(10**6), sympy.prevprime(qgrid.MAX_VALUE // p)):
            for n in (p * q, p * p * q):
                if n <= qgrid.MAX_VALUE:
                    check(n)
