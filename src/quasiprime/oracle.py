"""Independent ground truth: classical sieve and trial division.

Everything here is deliberately boring.  The staged pipeline is validated
against this module, so nothing in it may depend on the wheel, grid, or
digital-root machinery: it shares only the exception types and the int
and size guards of errors, which refuse a float or bool in every public
check.
verify_range asks the pipeline once per n and compares its answers with
the sieve a block of n at a time, as bytes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from itertools import compress
from math import isqrt

from .errors import require_int, require_limit

SIEVE_LIMIT_CAP = 10**8
VERIFY_LIMIT_CAP = 10**7
# verify_range's n per compared block.  Over 25 passes of verify_range(5 * 10**4)
# with the factor check off (CPython 3.11.7, 2-core VM), the per-n loop took
# 40.3 ms at best and 51.9 ms in the median; blocks of 512 to 16384 n took
# 33.6-36.6 and 43.3-47.1 ms, flat within the spread.  4096 holds a block's
# verdict kinds in a 32 KB list, where a whole range at the cap would take 80 MB.
_VERIFY_BLOCK = 4096


class PrimeTable:
    """Exact primality table up to ``limit``, odd-only storage.

    Immutable once built; safe to share read-only across workers.
    """

    def __init__(self, limit: int, odd_bits: bytearray):
        self.limit = limit
        self._odd = odd_bits

    def is_prime(self, n: int) -> bool:
        if type(n) is not int:
            require_int(n, "n")
        if n > self.limit:
            raise ValueError(f"{n} exceeds table limit {self.limit}")
        if n < 2:
            return False
        if n == 2:
            return True
        if n % 2 == 0:
            return False
        return bool(self._odd[n >> 1])

    def primes(self) -> list[int]:
        """All primes <= limit, ascending."""
        return [2] + list(compress(range(1, self.limit + 1, 2), self._odd))

    def count(self) -> int:
        return 1 + self._odd.count(1)


def sieve(limit: int) -> PrimeTable:
    """Sieve of Eratosthenes over the odd numbers up to ``limit``."""
    require_limit(limit, "sieve limit", 2, SIEVE_LIMIT_CAP)
    odd = bytearray([1]) * ((limit + 1) // 2)  # index i <-> n = 2i+1, up to limit
    odd[0] = 0  # 1 is not prime
    for p in range(3, isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            s = (p * p) >> 1
            odd[s::p] = bytes(len(range(s, len(odd), p)))
    return PrimeTable(limit, odd)


def trial_is_prime(n: int) -> bool:
    """Plain trial-division primality check, the benchmark baseline."""
    if type(n) is not int:  # is_prime pays the same check, so bench compares like with like
        require_int(n, "n")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def trial_factor(n: int) -> list[int]:
    """Sorted prime multiset of n by trial division."""
    if type(n) is not int:
        require_int(n, "n")
    if n < 2:
        raise ValueError("factorization needs n >= 2")
    factors: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    d = 5
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 2 if d % 6 == 5 else 4
    if n > 1:
        factors.append(n)
    return factors


class MismatchReport(
    namedtuple("MismatchReport", "limit strategy factor_stride mismatches factor_mismatches")
):
    """Outcome of checking the pipeline against the sieve on [2, limit].

    Each report starts with lists of its own when none are given.
    """

    __slots__ = ()

    def __new__(
        cls,
        limit: int,
        strategy: str,
        factor_stride: int,
        mismatches: list[tuple[int, str, str]] | None = None,
        factor_mismatches: list[tuple[int, list[int], list[int]]] | None = None,
    ):
        return tuple.__new__(cls, (
            limit,
            strategy,
            factor_stride,
            [] if mismatches is None else mismatches,
            [] if factor_mismatches is None else factor_mismatches,
        ))

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.factor_mismatches

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "mismatches": [list(m) for m in self.mismatches],
            "factor_mismatches": [[n, list(a), list(b)] for n, a, b in self.factor_mismatches],
            "ok": self.ok,
        }


def verify_range(
    limit: int,
    strategy=None,
    factor_stride: int = 101,
    classify: Callable | None = None,
    factorize: Callable[[int], Iterable[int]] | None = None,
) -> MismatchReport:
    """Compare the staged pipeline against the sieve for every n in [2, limit].

    ``classify`` and ``factorize`` default to the production pipeline; tests
    inject corrupted versions to confirm mismatches are actually caught.
    ``classify`` is called exactly once per n, in ascending order.  The n go
    in blocks of _VERIFY_BLOCK: a block's prime claims are one ``bytes``,
    compared at once with the sieve's, and only a block that differs is
    walked n by n to list its mismatches, ascending.  Every
    ``factor_stride``-th n is also factorized both ways; a stride of 0 turns
    that check off.
    """
    from . import pipeline  # deferred: the oracle must not depend on it at import time

    require_limit(limit, "verify limit", 2, VERIFY_LIMIT_CAP)
    require_limit(factor_stride, "factor stride", 0)
    if strategy is None:
        strategy = pipeline.SearchStrategy.ASCENDING_SCAN
    else:
        pipeline.require_strategy(strategy)
    if classify is None:
        classify = pipeline.is_prime
    if factorize is None:
        factorize = pipeline.full_factorize

    table = sieve(limit)
    report = MismatchReport(limit=limit, strategy=str(strategy.value), factor_stride=factor_stride)
    prime_kinds = (pipeline.VerdictKind.PRIME, pipeline.VerdictKind.PRIME_SPECIAL_SMALL)
    claims_prime = {kind: kind in prime_kinds for kind in pipeline.VerdictKind}.__getitem__
    odd = table._odd  # read in place: every n here is within the limit
    for lo in range(2, limit + 1, _VERIFY_BLOCK):  # lo is even, so odd n sit at odd offsets
        hi = min(lo + _VERIFY_BLOCK, limit + 1)
        kinds = [classify(n, strategy).kind for n in range(lo, hi)]
        claims = bytes(map(claims_prime, kinds))
        truth = bytearray(hi - lo)  # among even n only 2 is prime
        truth[1::2] = odd[lo >> 1:hi >> 1]
        if lo == 2:
            truth[0] = 1
        if claims != truth:
            report.mismatches.extend(
                (n, kind.value, "prime" if t else "composite")
                for n, kind, c, t in zip(range(lo, hi), kinds, claims, truth)
                if c != t
            )
    if factor_stride > 0:
        for n in range(2, limit + 1, factor_stride):
            got = sorted(factorize(n))
            want = trial_factor(n)
            if got != want:
                report.factor_mismatches.append((n, got, want))
    return report
