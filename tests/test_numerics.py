import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasiprime.numerics import (
    TripletClass,
    WheelConfig,
    admissible_moduli,
    digital_root,
    dr_add,
    dr_mul,
    fibonacci_dr_cycle,
    modulus_of,
    prime_moduli,
    triplet_class,
)

from conftest import iterated_digit_sum

FIB_ROOT_CYCLE = [1, 1, 2, 3, 5, 8, 4, 3, 7, 1, 8, 9, 8, 8, 7, 6, 4, 1, 5, 6, 2, 8, 1, 9]


class TestDigitalRoot:
    def test_worked_example(self):
        assert digital_root(137) == 2  # 1+3+7 = 11 -> 2

    def test_single_digit_fixpoints(self):
        for d in range(1, 10):
            assert digital_root(d) == d

    def test_one_summing_step(self):
        assert digital_root(24) == 6

    @pytest.mark.parametrize("bad", [0, -1, -137])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            digital_root(bad)

    @given(st.integers(min_value=1, max_value=10**15))
    def test_matches_digit_sum_and_mod9(self, n):
        assert digital_root(n) == iterated_digit_sum(n) == 1 + (n - 1) % 9

    def test_exhaustive_small(self):
        for n in range(1, 2000):
            assert digital_root(n) == iterated_digit_sum(n)


class TestTripletClass:
    def test_group_members(self):
        assert triplet_class(6) is TripletClass.T369
        assert triplet_class(1) is TripletClass.T147
        assert triplet_class(137) is TripletClass.T258

    @given(st.integers(min_value=1, max_value=10**9))
    def test_class_follows_root(self, n):
        assert digital_root(n) in triplet_class(n).value


class TestRootArithmetic:
    def test_add_examples(self):
        assert dr_add(4, 5) == 9
        assert dr_add(137, 1) == 3
        assert dr_add(999999, 1) == 1

    def test_mul_examples(self):
        assert dr_mul(3, 3) == 9
        assert dr_mul(7, 13) == 1
        assert dr_mul(5, 5) == 7

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    def test_add_rule(self, a, b):
        assert dr_add(a, b) == digital_root(a + b)

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    def test_mul_rule(self, a, b):
        assert dr_mul(a, b) == digital_root(a * b)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            dr_add(0, 3)
        with pytest.raises(ValueError):
            dr_mul(3, -1)


class TestFibonacciCycle:
    def test_cycle_values(self):
        assert fibonacci_dr_cycle() == FIB_ROOT_CYCLE

    def test_against_bigint_fibonacci(self):
        # independent route: real Fibonacci numbers, digit-summed
        a, b = 1, 1
        expected = []
        for _ in range(24):
            expected.append(iterated_digit_sum(a))
            a, b = b, a + b
        assert fibonacci_dr_cycle() == expected

    def test_period_is_24(self):
        assert len(fibonacci_dr_cycle()) == 24

    def test_diametric_pairs_sum_to_nine(self):
        cycle = fibonacci_dr_cycle()
        for i in range(12):
            assert digital_root(cycle[i] + cycle[i + 12]) == 9


class TestWheelPlacement:
    def test_prime_square_lands_on_one(self):
        assert modulus_of(25, 24) == 1

    def test_boundary_convention(self):
        assert modulus_of(24, 24) == 24
        assert modulus_of(25, 24) == 1
        assert modulus_of(7, 6) == 1

    @given(st.integers(min_value=1, max_value=10**12), st.sampled_from([6, 12, 24, 30, 96]))
    def test_formula(self, n, sides):
        assert modulus_of(n, sides) == (n - 1) % sides + 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            modulus_of(0, 24)
        with pytest.raises(ValueError):
            modulus_of(10, 7)
        with pytest.raises(ValueError):
            modulus_of(10, 0)


class TestPrimeModuli:
    def test_six(self):
        assert prime_moduli(6) == {1, 5}

    def test_twelve(self):
        assert prime_moduli(12) == {1, 5, 7, 11}

    def test_twentyfour(self):
        assert prime_moduli(24) == {1, 5, 7, 11, 13, 17, 19, 23}

    def test_thirty_is_a_forked_pentagon(self):
        spokes = prime_moduli(30)
        assert len(spokes) == 10
        assert {5, 25} <= spokes

    def test_admissible_matches_at_24(self):
        assert admissible_moduli(24) == prime_moduli(24)

    def test_admissible_is_proper_subset_at_30(self):
        assert admissible_moduli(30) == prime_moduli(30) - {5, 25}

    @pytest.mark.parametrize("bad", [0, -6, 7, 10])
    def test_rejects_non_multiples_of_six(self, bad):
        with pytest.raises(ValueError):
            prime_moduli(bad)

    def test_primes_sit_on_prime_moduli(self, table_1e5):
        primes = [p for p in table_1e5.primes() if p >= 5]
        for sides in (6, 12, 24, 30):
            spokes = prime_moduli(sides)
            assert all(modulus_of(p, sides) in spokes for p in primes)


class TestWheelConfig:
    def test_holds_geometry(self):
        w = WheelConfig(sides=24, rings=42)
        assert w.limit == 1008
        assert w.prime_moduli == prime_moduli(24)
        assert w.admissible_moduli == admissible_moduli(24)
        assert w.modulus_of(1008) == 24

    def test_validation(self):
        with pytest.raises(ValueError):
            WheelConfig(sides=10, rings=2)
        with pytest.raises(ValueError):
            WheelConfig(sides=24, rings=0)


class TestSquareAndRootLaws:
    def test_prime_squares_mod_24(self, table_1e5):
        for p in table_1e5.primes():
            if p >= 5:
                assert (p**2) % 24 == 1

    def test_no_prime_root_in_369(self, table_1e5):
        for p in table_1e5.primes():
            if p > 3:
                assert digital_root(p) not in (3, 6, 9)

    def test_root_369_means_divisible_by_three(self):
        for n in range(1, 10**4 + 1):
            if digital_root(n) in (3, 6, 9):
                assert n % 3 == 0
            else:
                assert n % 3 != 0
