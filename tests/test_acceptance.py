"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight sweeps
(criteria 1 and 8) stay under a minute on commodity hardware.
"""

import json
import time
from bisect import bisect_left, bisect_right
from math import gcd

import pytest

from quasiprime import oracle, pipeline, qgrid, shell
from quasiprime.numerics import digital_root, fibonacci_dr_cycle, modulus_of
from quasiprime.pipeline import SearchStrategy, VerdictKind

ASC = SearchStrategy.ASCENDING_SCAN
BAL = SearchStrategy.BALANCED_FIRST

# reference multiplication table, rows/columns 5..31 on the 6k±1 axis
GRID_10X10 = [
    [25, 35, 55, 65, 85, 95, 115, 125, 145, 155],
    [35, 49, 77, 91, 119, 133, 161, 175, 203, 217],
    [55, 77, 121, 143, 187, 209, 253, 275, 319, 341],
    [65, 91, 143, 169, 221, 247, 299, 325, 377, 403],
    [85, 119, 187, 221, 289, 323, 391, 425, 493, 527],
    [95, 133, 209, 247, 323, 361, 437, 475, 551, 589],
    [115, 161, 253, 299, 391, 437, 529, 575, 667, 713],
    [125, 175, 275, 325, 425, 475, 575, 625, 725, 775],
    [145, 203, 319, 377, 493, 551, 667, 725, 841, 899],
    [155, 217, 341, 403, 527, 589, 713, 775, 899, 961],
]

FIB_ROOT_CYCLE = [1, 1, 2, 3, 5, 8, 4, 3, 7, 1, 8, 9, 8, 8, 7, 6, 4, 1, 5, 6, 2, 8, 1, 9]


def test_c01_oracle_equivalence_to_one_million():
    """is_prime agrees with the sieve on [2, 10^6]; zero mismatches, < 60 s."""
    t0 = time.perf_counter()
    report = oracle.verify_range(10**6, strategy=ASC, factor_stride=101)
    elapsed = time.perf_counter() - t0
    assert report.mismatches == []
    assert report.factor_mismatches == []
    assert elapsed < 60.0
    print(f"\n[C1] oracle equivalence on [2, 1e6]: 0 mismatches in {elapsed:.1f}s  PASS")


def test_c02_prime_squares_land_on_modulus_one(table_1e5):
    assert 5 * 5 == 24 + 1
    assert 19 * 19 == 24 * 15 + 1
    assert 43 * 43 == 24 * 77 + 1
    checked = 0
    for p in table_1e5.primes():
        if p >= 5:
            assert (p * p) % 24 == 1, p
            assert modulus_of(p * p, 24) == 1, p
            checked += 1
    print(f"\n[C2] p² ≡ 1 (mod 24) for all {checked} primes in [5, 1e5]  PASS")


def test_c03_no_prime_has_root_3_6_9(table_1e6):
    for p in table_1e6.primes():
        if p > 3:
            assert digital_root(p) not in (3, 6, 9), p
    for n in range(1, 10**5 + 1):
        if digital_root(n) in (3, 6, 9):
            assert n % 3 == 0, n
    print("\n[C3] digital roots: primes avoid {3,6,9}; those roots imply 3 | n  PASS")


def test_c04_fibonacci_root_cycle():
    cycle = fibonacci_dr_cycle()
    assert cycle == FIB_ROOT_CYCLE
    assert len(cycle) == 24
    for i in range(12):
        assert digital_root(cycle[i] + cycle[i + 12]) == 9
    print("\n[C4] Fibonacci root cycle: 24 entries, 12 diametric pairs sum to 9  PASS")


def test_c05_grid_fidelity_and_symmetry():
    assert qgrid.region(1, 10, 1, 10) == GRID_10X10
    for i in range(1, 201):
        for j in range(i, 201):
            assert qgrid.grid_value(i, j) == qgrid.grid_value(j, i)
    print("\n[C5] 10×10 grid matches cell-for-cell; symmetric through (200, 200)  PASS")


def test_c06_diagonal_root_cycle():
    roots = qgrid.diagonal_dr(60)
    assert roots == roots[:6] * 10
    word = [1, 7, 4, 4, 7, 1]
    assert roots[:6] in [word[r:] + word[:r] for r in range(6)]
    print("\n[C6] diagonal roots period-6, rotation of 174471  PASS")


def test_c07_survivor_density():
    report = pipeline.survivor_density(10**6)
    assert abs(float(report.fraction) - 4 / 15) <= 1e-3
    assert report.survivors + sum(report.per_stage_rejections.values()) == 10**6
    print(f"\n[C7] survivor fraction {float(report.fraction):.6f} within 1e-3 of 4/15  PASS")


def test_c08_factorization_sweeps(table_1e6):
    primes = table_1e6.primes()
    small = [p for p in primes if 5 <= p <= 1000]
    count = 0
    t0 = time.perf_counter()
    for p in small:
        for q in primes[bisect_left(primes, p) : bisect_right(primes, 10**6 // p)]:
            want = (p, q)
            got_a = pipeline.factor_on_grid(p * q, ASC)
            got_b = pipeline.factor_on_grid(p * q, BAL)
            assert (got_a.a, got_a.b) == (got_b.a, got_b.b) == want, (p, q)
            count += 1
    semi_elapsed = time.perf_counter() - t0
    for n in range(2, 10**5 + 1):
        assert pipeline.full_factorize(n) == oracle.trial_factor(n), n
    print(
        f"\n[C8] {count} semiprimes ≤ 1e6 factored identically by both strategies "
        f"({semi_elapsed:.1f}s); full_factorize matches trial division to 1e5  PASS"
    )


def test_c09_pruning_soundness(table_1e5):
    checked = violations = 0
    for n in range(25, 10**5 + 1):
        if gcd(n, 6) != 1 or table_1e5.is_prime(n):
            continue
        pair = pipeline.factor_on_grid(n, ASC)
        if n % 10 in (1, 3, 7, 9):
            digits = tuple(sorted((pair.a % 10, pair.b % 10)))
            if digits not in pipeline.last_digit_pairs(n % 10):
                violations += 1
        roots = tuple(sorted((digital_root(pair.a), digital_root(pair.b))))
        if roots not in pipeline.dr_pairs(digital_root(n)):
            violations += 1
        checked += 1
    assert violations == 0
    print(f"\n[C9] pair-table pruning: 0 violations over {checked} composites ≤ 1e5  PASS")


def test_c10_wheel_render_golden(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (out_a, out_b):
        code = shell.main(["wheel", "--sides", "24", "--limit", "1008",
                           "--out", str(out), "--json"])
        assert code == 0
    meta = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert meta["rings"] == 42
    svg = out_a.read_bytes()
    assert svg == out_b.read_bytes()
    assert svg.decode().count('class="ring"') == 42
    render = shell.build_wheel_render(24, 1008)
    for p in render.primes:
        if p > 3:
            assert modulus_of(p, 24) in render.highlighted
    print("\n[C10] 24-wheel to 1008: 42 rings, byte-identical runs, primes on spokes  PASS")


def test_c11_bench_harness():
    report = shell.bench(10**5)
    assert report.pipeline_seconds > 0
    assert report.trial_division_seconds > 0
    assert report.survivors + sum(report.per_stage_rejections.values()) == 10**5
    density = pipeline.survivor_density(10**5)
    assert report.survivors == density.survivors
    payload = report.to_json_dict()
    assert "speedup" not in payload  # timings reported, never a ratio claim
    print(
        f"\n[C11] bench at 1e5: pipeline {report.pipeline_seconds:.2f}s vs trial "
        f"{report.trial_division_seconds:.2f}s (informational only)  PASS"
    )
