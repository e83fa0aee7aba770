from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiprime import oracle, pipeline
from quasiprime.bench import BENCH_LIMIT_CAP, bench
from quasiprime.errors import NoFactorsError, NotQuasiPrimeError, ResourceLimitError
from quasiprime.numerics import WheelConfig, digital_root, dr_mul, modulus_of, prime_moduli
from quasiprime.pipeline import (
    _STAGE_AT,
    FILTER_STAGES,
    FactorPair,
    SearchStrategy,
    Stage,
    VerdictKind,
    dr_pairs,
    factor_on_grid,
    full_factorize,
    is_prime,
    last_digit_pairs,
    prefilter,
    survivor_density,
)
from quasiprime.qgrid import (
    REGION_CELL_CAP,
    GridCoordinate,
    axis_index,
    axis_value,
    contains,
    diagonal_dr,
    grid_value,
    region,
)
from quasiprime.wheel import WHEEL_LIMIT_CAP, build_wheel_render

ASC = SearchStrategy.ASCENDING_SCAN
BAL = SearchStrategy.BALANCED_FIRST


class TestPrefilter:
    def test_examples(self):
        assert prefilter(35).stage is Stage.LAST_DIGIT
        assert prefilter(21).stage is Stage.DIGITAL_ROOT_369
        assert prefilter(91).passed

    def test_stage_order_is_fixed(self):
        # 15 fails both last-digit and digital-root; last digit is checked first
        assert prefilter(15).stage is Stage.LAST_DIGIT
        # 6 fails oddness and digital-root; oddness is checked first
        assert prefilter(6).stage is Stage.NOT_ODD
        assert prefilter(33).stage is Stage.DIGITAL_ROOT_369

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            prefilter(1)
        with pytest.raises(ValueError):
            prefilter(0)

    @given(st.integers(min_value=2, max_value=10**9))
    def test_pass_means_coprime_to_thirty(self, n):
        v = prefilter(n)
        if v.passed:
            assert gcd(n, 6) == 1 and n % 5 != 0
        else:
            assert gcd(n, 30) > 1

    def test_modulus_stage_is_subsumed(self):
        # oddness plus the root test already force a 6k±1 residue mod 24
        for n in range(2, 10**4):
            assert prefilter(n).stage is not Stage.NOT_PRIME_MODULUS

    def test_root_rejections_are_multiples_of_three(self):
        for n in range(2, 10**4):
            if prefilter(n).stage is Stage.DIGITAL_ROOT_369:
                assert n % 3 == 0


def first_failing_stage(n):
    """The prefilter from its stage definitions, one stage after another."""
    if n % 2 == 0:
        return Stage.NOT_ODD
    if n % 10 not in (1, 3, 7, 9):
        return Stage.LAST_DIGIT
    if digital_root(n) in (3, 6, 9):
        return Stage.DIGITAL_ROOT_369
    if modulus_of(n, 24) not in prime_moduli(24):
        return Stage.NOT_PRIME_MODULUS
    return None


def check_rejection_witness(n, strategy):
    """A rejected n has witness 2, 3 or its grid cell; 5 alone is prime."""
    stage = first_failing_stage(n)
    v = is_prime(n, strategy)
    if stage is None:
        assert v.deciding_stage is Stage.GRID_SEARCH
        return
    if n == 5:
        assert v.kind is VerdictKind.PRIME
        return
    assert v.kind is VerdictKind.COMPOSITE and v.deciding_stage is stage
    if stage is Stage.NOT_ODD:
        assert v.witness == 2
    elif n % 3 == 0:
        assert v.witness == 3
    else:
        assert stage is Stage.LAST_DIGIT and n % 5 == 0
        a, b = v.witness.axis_values
        assert a * b == n


class TestStageTable:
    def test_three_periods_match_the_stage_definitions(self):
        # three periods of all four stages, 360 = lcm(2, 10, 9, 24), so the
        # 24-wheel stage, which the 30 rows leave out, is checked too
        for n in range(1, 3 * 360 + 1):
            assert _STAGE_AT[n % 30][0] is first_failing_stage(n), n
            if n >= 2:
                assert prefilter(n).stage is first_failing_stage(n), n

    @given(st.integers(min_value=2, max_value=2**63 - 1))
    def test_any_input_matches_the_stage_definitions(self, n):
        assert prefilter(n).stage is first_failing_stage(n)

    @pytest.mark.parametrize("strategy", [ASC, BAL])
    def test_rejection_witnesses_over_three_periods(self, strategy):
        for n in range(4, 3 * 360 + 1):
            check_rejection_witness(n, strategy)

    @given(st.integers(min_value=4, max_value=2**63 - 1))
    def test_rejection_witness_of_any_input(self, n):
        check_rejection_witness(n, ASC)

    def test_modulus_stage_is_in_no_row(self):
        assert len(_STAGE_AT) == 30
        assert all(stage is not Stage.NOT_PRIME_MODULUS for stage, _ in _STAGE_AT)


class TestIsPrime:
    def test_grid_witness(self):
        v = is_prime(91)
        assert v.kind is VerdictKind.COMPOSITE
        assert v.witness.axis_values == (7, 13)
        assert v.deciding_stage is Stage.GRID_SEARCH

    def test_prime_square_witness_comes_from_the_grid(self):
        v = is_prime(25)
        assert v.kind is VerdictKind.COMPOSITE
        assert isinstance(v.witness, GridCoordinate)
        assert (v.witness.i, v.witness.j) == (1, 1)
        assert v.deciding_stage is Stage.LAST_DIGIT

    def test_prime(self):
        assert is_prime(97).kind is VerdictKind.PRIME

    def test_two_and_three_are_special(self):
        assert is_prime(2).kind is VerdictKind.PRIME_SPECIAL_SMALL
        assert is_prime(3).kind is VerdictKind.PRIME_SPECIAL_SMALL

    def test_five_is_prime_despite_its_last_digit(self):
        v = is_prime(5)
        assert v.kind is VerdictKind.PRIME
        assert v.deciding_stage is Stage.GRID_SEARCH

    def test_below_two_is_invalid(self):
        assert is_prime(1).kind is VerdictKind.INVALID
        assert is_prime(0).kind is VerdictKind.INVALID

    def test_small_factor_witnesses(self):
        assert is_prime(4).witness == 2
        assert is_prime(9).witness == 3
        assert is_prime(15).witness == 3
        assert is_prime(35).witness.axis_values == (5, 7)

    def test_witness_divides_n(self):
        for n in range(2, 3000):
            v = is_prime(n)
            if v.kind is VerdictKind.COMPOSITE:
                if isinstance(v.witness, GridCoordinate):
                    a, b = v.witness.axis_values
                    assert a * b == n
                else:
                    assert n % v.witness == 0 and 1 < v.witness < n

    @pytest.mark.parametrize("strategy", [ASC, BAL])
    def test_matches_sieve(self, strategy, table_1e5):
        for n in range(2, 20001):
            assert is_prime(n, strategy).is_prime == table_1e5.is_prime(n), n

    def test_rejects_beyond_cap(self):
        with pytest.raises(ValueError):
            is_prime(2**63)

    def test_json_shape(self):
        d = is_prime(91).to_json_dict()
        assert list(d) == ["n", "verdict", "witness", "stage", "strategy"]
        assert d == {
            "n": 91,
            "verdict": "composite",
            "witness": [7, 13],
            "stage": "GridSearch",
            "strategy": "asc",
        }
        assert is_prime(97).to_json_dict()["witness"] is None
        assert is_prime(6).to_json_dict()["witness"] == 2
        assert is_prime(1).to_json_dict()["verdict"] == "invalid"

    def test_verdicts_are_immutable_and_hashable(self):
        v, f = is_prime(91), prefilter(91)
        assert (v.n, v.kind, v.deciding_stage, v.strategy) == (91, VerdictKind.COMPOSITE, Stage.GRID_SEARCH, ASC)
        assert (f.passed, f.stage) == (True, None)
        for record, name in ((v, "n"), (v, "witness"), (f, "passed"), (f, "stage")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert hash(v) == hash(is_prime(91)) and v == is_prime(91) and v != is_prime(91, BAL)
        assert hash(f) == hash(prefilter(91)) and f != prefilter(35)


def brute_digit_pairs(d):
    return {
        tuple(sorted((x, y)))
        for x in (1, 3, 7, 9)
        for y in (1, 3, 7, 9)
        if (x * y) % 10 == d
    }


def brute_root_pairs(r):
    units = (1, 2, 4, 5, 7, 8)
    return {
        tuple(sorted((x, y)))
        for x in units
        for y in units
        if 1 + (x * y - 1) % 9 == r
    }


class TestPairTables:
    def test_last_digit_one_includes_nine_nine(self):
        assert last_digit_pairs(1) == {(1, 1), (3, 7), (9, 9)}

    def test_last_digit_three(self):
        assert last_digit_pairs(3) == {(1, 3), (7, 9)}

    def test_last_digit_nine(self):
        assert last_digit_pairs(9) == {(1, 9), (3, 3), (7, 7)}

    @pytest.mark.parametrize("d", [1, 3, 7, 9])
    def test_last_digit_against_enumeration(self, d):
        assert last_digit_pairs(d) == brute_digit_pairs(d)

    @pytest.mark.parametrize("bad", [0, 2, 4, 5, 6, 8])
    def test_last_digit_domain(self, bad):
        with pytest.raises(ValueError):
            last_digit_pairs(bad)

    def test_root_pairs_examples(self):
        assert dr_pairs(1) == {(1, 1), (2, 5), (4, 7), (8, 8)}
        assert dr_pairs(4) == {(1, 4), (2, 2), (5, 8), (7, 7)}
        assert dr_pairs(7) == {(1, 7), (4, 4), (2, 8), (5, 5)}

    @pytest.mark.parametrize("r", [1, 2, 4, 5, 7, 8])
    def test_root_pairs_against_enumeration(self, r):
        assert dr_pairs(r) == brute_root_pairs(r)

    @pytest.mark.parametrize("bad", [3, 6, 9, 0, 10])
    def test_root_pairs_domain(self, bad):
        with pytest.raises(ValueError):
            dr_pairs(bad)


def verify_with_stride(limit, factor_stride):
    return oracle.verify_range(limit, factor_stride=factor_stride)


def table_is_prime(n):
    return oracle.sieve(100).is_prime(n)


@pytest.mark.parametrize(
    "fn, args",
    [
        pytest.param(fn, (bad,), id=f"{bad}-{fn.__name__}")
        for bad in (49.0, True, "49", None)
        for fn in (is_prime, factor_on_grid, full_factorize, prefilter, contains)
    ]
    + [
        pytest.param(axis_value, (5.0,), id="axis_value"),
        pytest.param(axis_index, (25.0,), id="axis_index"),
        pytest.param(grid_value, (True, 2), id="grid_value"),
        pytest.param(GridCoordinate, (1.0, 1, 25), id="GridCoordinate"),
        pytest.param(GridCoordinate, (1, 1, 25.0), id="GridCoordinate-value"),
        pytest.param(digital_root, (9.0,), id="digital_root"),
        pytest.param(digital_root, (True,), id="digital_root-bool"),
        pytest.param(dr_mul, (2, 3.0), id="dr_mul"),
        pytest.param(modulus_of, (25.0, 24), id="modulus_of"),
        pytest.param(modulus_of, (25, 24.0), id="modulus_of-sides"),
        pytest.param(prime_moduli, (True,), id="prime_moduli-bool"),
        pytest.param(WheelConfig, (24.0, 2), id="WheelConfig"),
        pytest.param(WheelConfig, (24, 2.0), id="WheelConfig-rings"),
        pytest.param(FactorPair, (5.0, 7), id="FactorPair"),
        pytest.param(FactorPair, (5, 7.0), id="FactorPair-b"),
        pytest.param(diagonal_dr, (6.0,), id="diagonal_dr"),
        pytest.param(diagonal_dr, (True,), id="diagonal_dr-bool"),
        pytest.param(last_digit_pairs, (1.0,), id="last_digit_pairs"),
        pytest.param(last_digit_pairs, (True,), id="last_digit_pairs-bool"),
        pytest.param(dr_pairs, (1.0,), id="dr_pairs"),
        pytest.param(dr_pairs, (True,), id="dr_pairs-bool"),
        pytest.param(oracle.sieve, (50.0,), id="sieve"),
        pytest.param(oracle.sieve, (True,), id="sieve-bool"),
        pytest.param(oracle.verify_range, (100.0,), id="verify_range"),
        pytest.param(oracle.verify_range, (True,), id="verify_range-bool"),
        pytest.param(verify_with_stride, (100, 5.0), id="verify_range-factor_stride"),
        pytest.param(verify_with_stride, (100, True), id="verify_range-factor_stride-bool"),
        pytest.param(region, (1.0, 1, 1, 1), id="region"),
        pytest.param(region, (True, True, 1, 1), id="region-bool"),
        pytest.param(oracle.trial_is_prime, (7.5,), id="trial_is_prime"),
        pytest.param(oracle.trial_is_prime, (True,), id="trial_is_prime-bool"),
        pytest.param(oracle.trial_factor, (12.0,), id="trial_factor"),
        pytest.param(oracle.trial_factor, (True,), id="trial_factor-bool"),
        pytest.param(table_is_prime, (7.0,), id="PrimeTable.is_prime"),
        pytest.param(table_is_prime, (True,), id="PrimeTable.is_prime-bool"),
        pytest.param(bench, (100.0,), id="bench"),
        pytest.param(bench, (True,), id="bench-bool"),
        pytest.param(build_wheel_render, (24, 100.0), id="build_wheel_render"),
        pytest.param(build_wheel_render, (24, True), id="build_wheel_render-bool"),
    ],
)
def test_non_int_input_is_a_type_error(fn, args):
    bad = next(a for a in args if type(a) is not int)
    with pytest.raises(TypeError, match=f"must be an int, got {type(bad).__name__}$"):
        fn(*args)


@pytest.mark.parametrize(
    "call, what, least, cap",
    [
        pytest.param(oracle.sieve, "sieve limit", 2, oracle.SIEVE_LIMIT_CAP, id="sieve"),
        pytest.param(oracle.verify_range, "verify limit", 2, oracle.VERIFY_LIMIT_CAP, id="verify_range"),
        pytest.param(lambda s: verify_with_stride(100, s), "factor stride", 0, None,
                     id="verify_range-factor_stride"),
        pytest.param(lambda limit: build_wheel_render(24, limit), "wheel limit", 1, WHEEL_LIMIT_CAP,
                     id="build_wheel_render"),
        pytest.param(bench, "bench limit", 100, BENCH_LIMIT_CAP, id="bench"),
        pytest.param(survivor_density, "density limit", 100, None, id="survivor_density"),
        pytest.param(diagonal_dr, "count", 1, REGION_CELL_CAP, id="diagonal_dr"),
        pytest.param(lambda rings: WheelConfig(24, rings), "rings", 1, None, id="WheelConfig-rings"),
    ],
)
def test_every_size_argument_is_refused_alike(call, what, least, cap):
    with pytest.raises(TypeError) as refused:
        call(float(least))
    assert str(refused.value) == f"{what} must be an int, got float"
    with pytest.raises(ValueError) as refused:
        call(least - 1)
    assert type(refused.value) is ValueError
    assert str(refused.value) == f"{what} must be at least {least}, got {least - 1}"
    if cap is not None:
        with pytest.raises(ResourceLimitError) as refused:
            call(cap + 1)
        assert str(refused.value) == f"{what} {cap + 1} exceeds cap {cap}"


@pytest.mark.parametrize(
    "call", [lambda: bench(True), lambda: build_wheel_render(24, True)], ids=["bench", "build_wheel_render"]
)
def test_a_bool_limit_is_refused_before_any_work(monkeypatch, call):
    def no_work(*args):
        raise AssertionError("work started before the limit was checked")

    monkeypatch.setattr(oracle, "sieve", no_work)
    monkeypatch.setattr(pipeline, "is_prime", no_work)
    with pytest.raises(TypeError, match="limit must be an int, got bool"):
        call()


@pytest.mark.parametrize(
    "fn", [is_prime, factor_on_grid, oracle.verify_range], ids=lambda fn: fn.__name__
)
@pytest.mark.parametrize("bad", ["balanced", "asc", 1], ids=["balanced-str", "asc-str", "int"])
def test_strategy_other_than_a_member_is_a_type_error(fn, bad):
    # "balanced" == BALANCED_FIRST, yet it is not the member, so it is refused, not run as asc
    with pytest.raises(TypeError, match=type(bad).__name__):
        fn(175, bad)


@pytest.mark.parametrize(
    "fn", [is_prime, factor_on_grid, oracle.verify_range], ids=lambda fn: fn.__name__
)
def test_strategy_refusal_reads_the_same_everywhere(fn):
    with pytest.raises(TypeError) as refused:
        fn(175, "balanced")
    assert str(refused.value) == "expected a SearchStrategy, got str"


@pytest.mark.parametrize(
    "fn", [is_prime, factor_on_grid, full_factorize, prefilter, contains], ids=lambda fn: fn.__name__
)
@pytest.mark.parametrize("big", [2**63, 10**30], ids=["2**63", "10**30"])
def test_input_above_the_cap_is_a_value_error(fn, big):
    with pytest.raises(ValueError, match="exceeds the 64-bit"):
        fn(big)


@pytest.mark.parametrize(
    "fn", [is_prime, factor_on_grid, full_factorize, prefilter, contains], ids=lambda fn: fn.__name__
)
@pytest.mark.parametrize("big", [2**63, 10**30], ids=["2**63", "10**30"])
def test_every_entry_point_refuses_the_cap_alike(fn, big):
    with pytest.raises(ResourceLimitError) as refused:
        fn(big)
    assert str(refused.value) == f"{big} exceeds the 64-bit cap"


@pytest.mark.parametrize(
    "call",
    [lambda n: factor_on_grid(n, ASC), lambda n: factor_on_grid(n, BAL), full_factorize],
    ids=["factor_on_grid-asc", "factor_on_grid-balanced", "full_factorize"],
)
@pytest.mark.parametrize(
    "n, error, message",
    [
        (True, TypeError, "n must be an int, got bool"),
        (7.0, TypeError, "n must be an int, got float"),
        (2**63, ResourceLimitError, "9223372036854775808 exceeds the 64-bit cap"),
    ],
    ids=["bool", "float", "2**63"],
)
def test_factoring_refuses_n_with_the_guards_messages(call, n, error, message):
    with pytest.raises(error) as refused:
        call(n)
    assert type(refused.value) is error and str(refused.value) == message


@pytest.mark.parametrize("n", [True, 7.0, 2**63], ids=["bool", "float", "2**63"])
def test_factor_on_grid_refuses_the_strategy_before_n(n):
    # is_prime refuses n first, factor_on_grid the strategy first
    with pytest.raises(TypeError) as refused:
        factor_on_grid(n, "balanced")
    assert str(refused.value) == "expected a SearchStrategy, got str"


class Int(int):
    """An int subclass, which the int guard accepts as its value."""


@pytest.mark.parametrize(
    "call, expected",
    [(lambda n: factor_on_grid(n, ASC), (5, 35)), (lambda n: factor_on_grid(n, BAL), (7, 25)),
     (full_factorize, [5, 5, 7]), (lambda n: is_prime(n, BAL).witness, GridCoordinate(2, 8, 175))],
    ids=["factor_on_grid-asc", "factor_on_grid-balanced", "full_factorize", "is_prime-balanced"],
)
def test_an_int_subclass_within_the_cap_passes_the_guards(call, expected):
    assert call(Int(175)) == expected


def divisor_pairs(n):
    """All (a, b), a <= b, a*b = n with both sides on the 6k±1 axis."""
    pairs = []
    d = 5
    while d * d <= n:
        if n % d == 0:
            pairs.append((d, n // d))
        d += 2 if d % 6 == 5 else 4
    return pairs


class TestFactorOnGrid:
    def test_semiprime(self):
        assert factor_on_grid(143) == FactorPair(11, 13)

    def test_multiple_of_five(self):
        assert factor_on_grid(55) == FactorPair(5, 11)

    def test_prime_power_by_strategy(self):
        assert factor_on_grid(625, ASC) == FactorPair(5, 125)
        assert factor_on_grid(625, BAL) == FactorPair(25, 25)

    def test_strategies_differ_off_the_diagonal(self):
        assert factor_on_grid(175, ASC) == FactorPair(5, 35)
        assert factor_on_grid(175, BAL) == FactorPair(7, 25)

    def test_prime_has_no_pair(self):
        with pytest.raises(NoFactorsError):
            factor_on_grid(97)
        with pytest.raises(NoFactorsError):
            factor_on_grid(5)

    @pytest.mark.parametrize("bad", [15, 14, 27, 33, 2000])
    def test_rejects_numbers_with_factor_2_or_3(self, bad):
        with pytest.raises(NotQuasiPrimeError):
            factor_on_grid(bad)

    def test_rejects_below_two_and_beyond_cap(self):
        with pytest.raises(ValueError):
            factor_on_grid(1)
        with pytest.raises(ValueError):
            factor_on_grid(2**63)

    def test_pair_validation(self):
        with pytest.raises(ValueError):
            FactorPair(7, 5)
        with pytest.raises(ValueError):
            FactorPair(5, 9)

    def test_ascending_finds_least_prime_factor(self):
        for n in range(25, 20000):
            if gcd(n, 6) != 1:
                continue
            pairs = divisor_pairs(n)
            if not pairs:
                continue
            got = factor_on_grid(n, ASC)
            assert got.a == min(oracle.trial_factor(n))
            assert got.a * got.b == n

    def test_balanced_minimizes_gap(self):
        for n in range(25, 20000):
            if gcd(n, 6) != 1:
                continue
            pairs = divisor_pairs(n)
            if not pairs:
                continue
            got = factor_on_grid(n, BAL)
            assert got.a * got.b == n
            best = min(b - a for a, b in pairs)
            assert got.b - got.a == best

    @staticmethod
    def check_against_trial_factor(n):
        """Asc gives the least prime factor, balanced the largest divisor <= sqrt(n)."""
        factors = oracle.trial_factor(n)
        divisors = {1}
        for p in factors:
            divisors |= {d * p for d in divisors}
        below_root = [d for d in divisors if 1 < d and d * d <= n]
        if not below_root:
            for strategy in (ASC, BAL):
                with pytest.raises(NoFactorsError):
                    factor_on_grid(n, strategy)
            return
        assert factor_on_grid(n, ASC) == FactorPair(factors[0], n // factors[0])
        best = max(below_root)
        assert factor_on_grid(n, BAL) == FactorPair(best, n // best)

    @given(st.integers(min_value=2 * 10**4 // 6 + 1, max_value=10**10 // 6), st.sampled_from((-1, 1)))
    def test_both_strategies_beyond_the_brute_force_window(self, k, side):
        self.check_against_trial_factor(6 * k + side)

    def test_both_ends_of_the_downward_walk(self):
        # squares put the answer at isqrt(n); twin-style products (6k-1)(6k+1)
        # straddle sqrt(n) with both sides in one axis pair
        primes = [p for p in range(5, 1000) if oracle.trial_is_prime(p)]
        cases = [25, 35, 49, 169, 221]
        cases += [p * p for p in primes]
        cases += [p * (p + 2) for p in primes if p % 6 == 5]
        for n in cases:
            self.check_against_trial_factor(n)

    @given(st.integers(min_value=2, max_value=10**4), st.integers(min_value=2, max_value=10**4))
    @settings(max_examples=200)
    def test_strategies_agree_on_semiprimes(self, x, y):
        primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 997, 1009]
        p, q = primes[x % len(primes)], primes[y % len(primes)]
        n = p * q
        expected = FactorPair(min(p, q), max(p, q))
        assert factor_on_grid(n, ASC) == expected
        assert factor_on_grid(n, BAL) == expected


class TestFullFactorize:
    def test_mixed_composite(self):
        assert full_factorize(360) == [2, 2, 2, 3, 3, 5]

    def test_quasi_prime(self):
        assert full_factorize(245) == [5, 7, 7]

    def test_semiprime(self):
        assert full_factorize(2491) == [47, 53]

    def test_prime_input(self):
        assert full_factorize(9973) == [9973]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            full_factorize(1)
        with pytest.raises(ValueError):
            full_factorize(2**63)

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300)
    def test_matches_trial_division(self, n):
        assert full_factorize(n) == oracle.trial_factor(n)

    def test_resumed_walk_keeps_every_factor(self):
        # each walk resumes at the pair of the last factor found: a repeated
        # factor, and a 6k-1 factor after a 6k+1 one, must still be found
        primes = [p for p in range(5, 200) if oracle.trial_is_prime(p)]
        cases = [2000003 * 2000029 * 2000039, 5**27, 7**22]
        cases += [p * p * q for p in primes for q in primes if p < q]
        cases += [p * q * q for p in primes for q in primes if p < q]
        for n in cases:
            assert full_factorize(n) == oracle.trial_factor(n), n


class TestSurvivorDensity:
    def test_counts_coprimes_to_thirty(self):
        report = survivor_density(100)
        expected = sum(1 for n in range(1, 101) if gcd(n, 30) == 1)
        assert report.survivors == expected
        assert report.fraction == Fraction(expected, 100)

    def test_partition(self):
        report = survivor_density(4321)
        assert report.survivors + sum(report.per_stage_rejections.values()) == 4321

    def test_not_odd_counts_evens(self):
        report = survivor_density(1001)
        assert report.per_stage_rejections[Stage.NOT_ODD] == 500

    def test_modulus_stage_never_fires(self):
        report = survivor_density(10**4)
        assert report.per_stage_rejections[Stage.NOT_PRIME_MODULUS] == 0

    def test_fraction_approaches_4_15(self):
        report = survivor_density(10**4)
        assert abs(float(report.fraction) - 4 / 15) < 1e-3

    def test_rejects_small_limits(self):
        with pytest.raises(ValueError):
            survivor_density(99)

    @pytest.mark.parametrize("limit", [100, 359, 360, 361, 719, 720, 721, 4321, 10**5])
    def test_closed_form_matches_a_count(self, limit):
        counts = {stage: 0 for stage in (None, *FILTER_STAGES)}
        for n in range(1, limit + 1):
            counts[first_failing_stage(n)] += 1
        report = survivor_density(limit)
        assert report.survivors == counts.pop(None)
        assert report.per_stage_rejections == counts
        assert report.fraction == Fraction(report.survivors, limit)

    def test_closed_form_beyond_any_count(self):
        # 96 of every 360 consecutive integers are coprime to 30
        report = survivor_density(360 * 10**12)
        assert report.survivors == 96 * 10**12
        assert report.per_stage_rejections == {
            Stage.NOT_ODD: 180 * 10**12,
            Stage.LAST_DIGIT: 36 * 10**12,
            Stage.DIGITAL_ROOT_369: 48 * 10**12,
            Stage.NOT_PRIME_MODULUS: 0,
        }

    def test_every_remainder_matches_a_running_count(self):
        # 100..819 meets each remainder mod 360 at least twice
        counts = {stage: 0 for stage in (None, *FILTER_STAGES)}
        for n in range(1, 820):
            counts[first_failing_stage(n)] += 1
            if n >= 100:
                report = survivor_density(n)
                assert report.survivors == counts[None], n
                assert report.per_stage_rejections == {s: counts[s] for s in FILTER_STAGES}, n

    def test_a_report_reads_no_stage_row(self, monkeypatch):
        reads = []

        class CountingRows(tuple):
            def __getitem__(self, r):
                reads.append(r)
                return tuple.__getitem__(self, r)

        monkeypatch.setattr(pipeline, "_STAGE_AT", CountingRows(_STAGE_AT))
        first = survivor_density(10**5)
        assert survivor_density(10**5 + 7) != first
        assert survivor_density(10**5) == first
        assert reads == []
        assert len(pipeline._COUNTS_TO) == 31

    @given(st.integers(min_value=100, max_value=2**63 - 1))
    def test_counts_match_inclusion_exclusion(self, limit):
        def multiples(d):
            return limit // d

        report = survivor_density(limit)
        assert report.survivors == (
            limit - multiples(2) - multiples(3) - multiples(5)
            + multiples(6) + multiples(10) + multiples(15) - multiples(30)
        )
        assert report.per_stage_rejections == {
            Stage.NOT_ODD: multiples(2),
            Stage.LAST_DIGIT: multiples(5) - multiples(10),
            Stage.DIGITAL_ROOT_369: multiples(3) - multiples(6) - multiples(15) + multiples(30),
            Stage.NOT_PRIME_MODULUS: 0,
        }

    def test_json_shape(self):
        d = survivor_density(100).to_json_dict()
        assert set(d) == {"limit", "survivors", "fraction", "per_stage_rejections"}
        assert set(d["per_stage_rejections"]) == {s.value for s in FILTER_STAGES}


class TestPruningSoundness:
    def test_true_pairs_satisfy_both_tables(self):
        for n in range(25, 10**4):
            if gcd(n, 6) != 1 or not divisor_pairs(n):
                continue
            pair = factor_on_grid(n, ASC)
            if n % 5 != 0:
                digits = tuple(sorted((pair.a % 10, pair.b % 10)))
                assert digits in last_digit_pairs(n % 10)
            roots = tuple(sorted((digital_root(pair.a), digital_root(pair.b))))
            assert roots in dr_pairs(digital_root(n))
