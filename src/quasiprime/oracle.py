"""Independent ground truth: classical sieve and trial division.

Everything here is deliberately boring.  The staged pipeline is validated
against this module, so nothing in it may depend on the wheel, grid, or
digital-root machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import isqrt
from typing import Callable, Iterable

from .errors import ResourceLimitError

SIEVE_LIMIT_CAP = 10**8
VERIFY_LIMIT_CAP = 10**7


class PrimeTable:
    """Exact primality table up to ``limit``, odd-only storage.

    Immutable once built; safe to share read-only across workers.
    """

    def __init__(self, limit: int, odd_bits: bytearray):
        self.limit = limit
        self._odd = odd_bits

    def is_prime(self, n: int) -> bool:
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
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    if limit > SIEVE_LIMIT_CAP:
        raise ResourceLimitError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    odd = bytearray([1]) * ((limit + 1) // 2)  # index i <-> n = 2i+1, up to limit
    odd[0] = 0  # 1 is not prime
    for p in range(3, isqrt(limit) + 1, 2):
        if odd[p >> 1]:
            s = (p * p) >> 1
            odd[s::p] = bytes(len(range(s, len(odd), p)))
    return PrimeTable(limit, odd)


def trial_is_prime(n: int) -> bool:
    """Plain trial-division primality check, the benchmark baseline."""
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


@dataclass
class MismatchReport:
    """Outcome of checking the pipeline against the sieve on [2, limit]."""

    limit: int
    strategy: str
    factor_stride: int
    mismatches: list[tuple[int, str, str]] = field(default_factory=list)
    factor_mismatches: list[tuple[int, list[int], list[int]]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.factor_mismatches

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "strategy": self.strategy,
            "factor_stride": self.factor_stride,
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
    Every ``factor_stride``-th n is also factorized both ways; a stride of
    0 turns that check off.
    """
    from . import pipeline  # deferred: the oracle must not depend on it at import time

    if limit > VERIFY_LIMIT_CAP:
        raise ResourceLimitError(f"verify limit {limit} exceeds cap {VERIFY_LIMIT_CAP}")
    if limit < 2:
        raise ValueError("verify limit must be at least 2")
    if factor_stride < 0:
        raise ValueError(f"factor stride must be >= 0, got {factor_stride}")
    if strategy is None:
        strategy = pipeline.SearchStrategy.ASCENDING_SCAN
    elif not isinstance(strategy, pipeline.SearchStrategy):
        raise TypeError(f"expected a SearchStrategy, got {type(strategy).__name__}")
    if classify is None:
        classify = pipeline.is_prime
    if factorize is None:
        factorize = pipeline.full_factorize

    table = sieve(limit)
    report = MismatchReport(limit=limit, strategy=str(strategy.value), factor_stride=factor_stride)
    prime_kinds = (pipeline.VerdictKind.PRIME, pipeline.VerdictKind.PRIME_SPECIAL_SMALL)
    odd = table._odd  # read in place: every n here is within the limit
    for n in range(2, limit + 1):
        verdict = classify(n, strategy)
        claims_prime = verdict.kind in prime_kinds
        truth = odd[n >> 1] == 1 if n & 1 else n == 2
        if claims_prime != truth:
            report.mismatches.append(
                (n, verdict.kind.value, "prime" if truth else "composite")
            )
    if factor_stride > 0:
        for n in range(2, limit + 1, factor_stride):
            got = sorted(factorize(n))
            want = trial_factor(n)
            if got != want:
                report.factor_mismatches.append((n, got, want))
    return report
