"""The benchmark harness behind `qprime bench`: the staged pipeline against
trial division.  Only the bench command imports it, so no other command
compiles it.
"""

from __future__ import annotations

import time
from collections import namedtuple

from . import oracle, pipeline
from .errors import ConsistencyError, require_limit

BENCH_LIMIT_CAP = 10**7


class BenchReport(
    namedtuple(
        "BenchReport",
        "limit pipeline_seconds trial_division_seconds primes_found survivors fraction "
        "per_stage_rejections notes",
    )
):
    """Timing comparison of the staged pipeline against naive trial division.

    Both timings are informational; no speedup figure is asserted anywhere.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            **self._asdict(),
            "per_stage_rejections": pipeline.rejections_by_name(self.per_stage_rejections),
        }


def bench(limit: int) -> BenchReport:
    """Time staged primality and trial division over [2, limit]."""
    require_limit(limit, "bench limit", 100, BENCH_LIMIT_CAP)

    is_prime = pipeline.is_prime
    t0 = time.perf_counter()
    pipeline_count = sum(1 for n in range(2, limit + 1) if is_prime(n).is_prime)
    pipeline_seconds = time.perf_counter() - t0

    trial = oracle.trial_is_prime
    t0 = time.perf_counter()
    trial_count = sum(1 for n in range(2, limit + 1) if trial(n))
    trial_seconds = time.perf_counter() - t0

    if pipeline_count != trial_count:
        raise ConsistencyError(
            f"pipeline found {pipeline_count} primes, trial division {trial_count}"
        )
    density = pipeline.survivor_density(limit)
    return BenchReport(
        limit=limit,
        pipeline_seconds=pipeline_seconds,
        trial_division_seconds=trial_seconds,
        primes_found=pipeline_count,
        survivors=density.survivors,
        fraction=float(density.fraction),
        per_stage_rejections=dict(density.per_stage_rejections),
        notes="wall-clock timings on this machine only; no speedup is asserted",
    )
