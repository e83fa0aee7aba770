import random
from array import array
from collections import Counter
from math import gcd, isqrt, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasiprime import oracle, qgrid, splitter
from quasiprime.errors import NoFactorsError, NotOnPrimeModuliError, ResourceLimitError
from quasiprime.pipeline import SearchStrategy, factor_on_grid, full_factorize, is_prime
from quasiprime.qgrid import (
    MAX_VALUE,
    REGION_CELL_CAP,
    GridCoordinate,
    QuasiPrimeTag,
    axis_index,
    axis_value,
    contains,
    diagonal_dr,
    grid_value,
    quasiprime_tag,
    region,
)
from test_kernels import free_of_47


# Axis index of the largest axis value whose square is within the 64-bit cap.
CAP_K = axis_index(3037000499)


def axis_by_enumeration(count):
    """Independent axis oracle: ascending v >= 5 with v ≡ ±1 (mod 6)."""
    out = []
    v = 5
    while len(out) < count:
        if v % 6 in (1, 5):
            out.append(v)
        v += 1
    return out


class TestAxis:
    def test_first_values(self):
        assert [axis_value(k) for k in range(1, 11)] == [5, 7, 11, 13, 17, 19, 23, 25, 29, 31]

    def test_known_indices(self):
        assert axis_value(1) == 5
        assert axis_value(8) == 25
        assert axis_value(16) == 49

    def test_matches_enumeration(self):
        assert [axis_value(k) for k in range(1, 201)] == axis_by_enumeration(200)

    def test_index_examples(self):
        assert axis_index(5) == 1
        assert axis_index(25) == 8
        assert axis_index(6) is None
        assert axis_index(4) is None
        assert axis_index(1) is None

    @given(st.integers(min_value=1, max_value=10**9))
    def test_roundtrip(self, k):
        assert axis_index(axis_value(k)) == k

    @given(st.integers(min_value=1, max_value=10**7))
    def test_index_only_on_axis(self, v):
        k = axis_index(v)
        if v >= 5 and v % 6 in (1, 5):
            assert k is not None and axis_value(k) == v
        else:
            assert k is None

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            axis_value(0)

    def test_caps_at_64_bits(self):
        with pytest.raises(ResourceLimitError):
            axis_value(2**62)


class TestGridValue:
    def test_corner(self):
        assert grid_value(1, 1) == 25

    def test_known_cells(self):
        assert grid_value(2, 4) == 91
        assert grid_value(3, 2) == grid_value(2, 3) == 77

    @given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    def test_symmetry(self, i, j):
        assert grid_value(i, j) == grid_value(j, i)

    @given(st.integers(min_value=1, max_value=10**4), st.integers(min_value=1, max_value=10**4))
    def test_closure_on_moduli(self, i, j):
        assert grid_value(i, j) % 6 in (1, 5)

    def test_caps_products(self):
        with pytest.raises(ResourceLimitError):
            grid_value(2**35, 2**35)


class TestCoordinate:
    def test_validates_value(self):
        with pytest.raises(ValueError):
            GridCoordinate(2, 4, 92)
        with pytest.raises(ValueError):
            GridCoordinate(4, 2, 91)

    def test_axis_values(self):
        assert GridCoordinate(2, 4, 91).axis_values == (7, 13)


class TestContains:
    def test_grid_member(self):
        c = contains(91)
        assert (c.i, c.j) == (2, 4)
        assert c.axis_values == (7, 13)

    def test_prime_is_absent(self):
        assert contains(23) is None

    def test_known_quasiprime(self):
        c = contains(175)
        assert c.axis_values == (5, 35)
        assert (c.i, c.j) == (1, axis_index(35))

    def test_smallest_divisor_is_canonical(self):
        for n in (91, 175, 385, 1001, 25 * 49):
            c = contains(n)
            assert c.axis_values[0] == min(oracle.trial_factor(n))

    @pytest.mark.parametrize("bad", [4, 6, 9, 15, 2, 3, 1])
    def test_rejects_off_moduli(self, bad):
        with pytest.raises(NotOnPrimeModuliError):
            contains(bad)

    def test_matches_sieve_exhaustively(self, table_1e5):
        for n in range(5, 20001):
            if n % 6 not in (1, 5):
                continue
            coord = contains(n)
            if table_1e5.is_prime(n):
                assert coord is None, n
            else:
                assert coord is not None, n
                a, b = coord.axis_values
                assert a * b == n

    def test_caps_at_64_bits(self):
        with pytest.raises(ResourceLimitError):
            contains(2**63)

    def test_unchecked_cell_equals_the_checked_one(self):
        # the grid search's witness cell skips the constructor's checks; it must
        # still be the cell GridCoordinate builds and accepts
        for n in range(25, 6000):
            if n % 6 not in (1, 5):
                continue
            for a in range(5, isqrt(n) + 1):
                if n % a == 0 and a % 6 in (1, 5):
                    cell = qgrid._cell(a, n)
                    checked = GridCoordinate(axis_index(a), axis_index(n // a), n)
                    assert type(cell) is GridCoordinate
                    assert cell == checked and hash(cell) == hash(checked), (a, n)


class TestTag:
    def test_prime_square(self):
        assert quasiprime_tag(contains(25)) is QuasiPrimeTag.PRIME_SQUARE

    def test_quasi_prime(self):
        assert quasiprime_tag(contains(35)) is QuasiPrimeTag.QUASI_PRIME

    def test_square_of_composite_axis_value(self):
        assert quasiprime_tag(GridCoordinate(8, 8, 625)) is QuasiPrimeTag.QUASI_PRIME

    def test_against_trial_division(self, table_1e5):
        for k in range(1, 30):
            c = GridCoordinate(k, k, axis_value(k) ** 2)
            expect_square = table_1e5.is_prime(axis_value(k))
            got = quasiprime_tag(c) is QuasiPrimeTag.PRIME_SQUARE
            assert got == expect_square


class TestDiagonal:
    def test_first_six_roots(self):
        assert diagonal_dr(6) == [7, 4, 4, 7, 1, 1]

    def test_period_six(self):
        roots = diagonal_dr(60)
        assert roots == roots[:6] * 10

    def test_rotation_of_known_word(self):
        word = [1, 7, 4, 4, 7, 1]
        rotations = [word[r:] + word[:r] for r in range(6)]
        assert diagonal_dr(6) in rotations

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            diagonal_dr(0)

    def test_count_capped_like_a_region(self):
        assert len(diagonal_dr(REGION_CELL_CAP)) == REGION_CELL_CAP
        with pytest.raises(ResourceLimitError):
            diagonal_dr(REGION_CELL_CAP + 1)


class TestRegion:
    def test_top_left_block(self):
        assert region(1, 2, 1, 2) == [[25, 35], [35, 49]]

    def test_first_row(self):
        assert region(1, 1, 1, 10) == [[25, 35, 55, 65, 85, 95, 115, 125, 145, 155]]

    def test_single_cell(self):
        assert region(3, 3, 3, 3) == [[121]]

    def test_extent_cap(self):
        with pytest.raises(ResourceLimitError):
            region(1, 101, 1, 100)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            region(2, 1, 1, 1)
        with pytest.raises(ValueError):
            region(0, 1, 1, 1)

    def test_values_match_grid_value(self):
        table = region(3, 7, 2, 9)
        for di, row in enumerate(table):
            for dj, v in enumerate(row):
                assert v == grid_value(3 + di, 2 + dj)

    def test_cap_at_the_boundary_cell(self):
        # (K, K) is the last diagonal cell within the 64-bit cap; (K, K + 1) is past it.
        assert axis_value(CAP_K) ** 2 <= MAX_VALUE < axis_value(CAP_K) * axis_value(CAP_K + 1)
        assert region(CAP_K - 1, CAP_K, CAP_K - 1, CAP_K) == [
            [grid_value(i, j) for j in (CAP_K - 1, CAP_K)] for i in (CAP_K - 1, CAP_K)
        ]
        assert region(CAP_K - 1, CAP_K - 1, CAP_K + 1, CAP_K + 1) == [[grid_value(CAP_K - 1, CAP_K + 1)]]

    @pytest.mark.parametrize(
        "bounds",
        [
            (CAP_K, CAP_K, CAP_K, CAP_K + 1),
            (CAP_K + 1, CAP_K + 1, CAP_K - 1, CAP_K),
            (CAP_K - 1, CAP_K, CAP_K - 1, CAP_K + 1),
            (1_100_000_000, 1_100_000_000, 1_100_000_000, 1_100_000_000),
        ],
    )
    def test_cap_past_the_boundary_cell(self, bounds):
        with pytest.raises(ResourceLimitError):
            grid_value(bounds[1], bounds[3])
        with pytest.raises(ResourceLimitError, match="exceeds the 64-bit cap"):
            region(*bounds)


@pytest.fixture
def scans(monkeypatch):
    """For each gcd above TABLE_CAP whose least prime is asked, how many axis
    primes the scan tried, in call order."""
    counts = []
    least_prime = qgrid._least_prime

    def counted(g):
        p = least_prime(g)
        if g > qgrid.TABLE_CAP:
            counts.append(qgrid._AXIS_PRIMES.index(p) + 1)
        return p

    monkeypatch.setattr(qgrid, "_least_prime", counted)
    return counts


@pytest.fixture
def fermats(monkeypatch):
    """(n, range(start, stop), result) of each Fermat stage call, in call order:
    the t of a = ceil(sqrt(n)) + t it tries, and the divisor it met or None."""
    calls = []
    fermat = splitter._fermat

    def counted(n, start=0, stop=splitter.FERMAT_WINDOW):
        calls.append((n, range(start, stop), fermat(n, start, stop)))
        return calls[-1][2]

    monkeypatch.setattr(splitter, "_fermat", counted)
    return calls


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of Miller-Rabin ("mr"), the Fermat stage ("fermat") and rho ("rho"), counted by (stage, n).

    Every n that reaches Miller-Rabin has no prime factor <= 47, which its
    base tables need.  Every n that reaches _split, which runs all three,
    has no prime factor the table can name.
    """
    counts = Counter()
    split = splitter._split

    def checked_split(n):
        assert gcd(n, qgrid._AXIS_PRIMORIAL) == 1, n
        return split(n)

    monkeypatch.setattr(splitter, "_split", checked_split)
    for stage, name in (("mr", "_is_prime_mr"), ("fermat", "_fermat"), ("rho", "_rho")):
        def counted(n, *args, stage=stage, run=getattr(splitter, name)):
            counts[stage, n] += 1
            result = run(n, *args)
            if stage == "mr":
                assert free_of_47(n), n
            return result

        monkeypatch.setattr(splitter, name, counted)
    return counts


@pytest.fixture
def pow_calls(monkeypatch):
    """Arguments of each call of pow in splitter, one per Miller-Rabin base tried, in call order."""
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(splitter, "pow", counted, raising=False)
    return calls


def assert_fermat_within_the_window(fermats, n, factors=()):
    """The Fermat stage ran on n, then on each of the factors it split off, and a hit on n lies within its window."""
    assert [m for m, _, _ in fermats] == [n, *factors]
    d = fermats[0][2]
    if d is not None:
        r = isqrt(n)
        ceil_root = r + (r * r < n)
        assert 0 <= (d + n // d) // 2 - ceil_root < splitter.FERMAT_WINDOW


def factor_or_none(n, strategy):
    """factor_on_grid, with None for a prime n."""
    try:
        return factor_on_grid(n, strategy)
    except NoFactorsError:
        return None


ASC, BAL = SearchStrategy.ASCENDING_SCAN, SearchStrategy.BALANCED_FIRST
GRID_CALLS = {
    "is_prime-asc": lambda n: is_prime(n, ASC),
    "is_prime-balanced": lambda n: is_prime(n, BAL),
    "factor_on_grid-asc": lambda n: factor_or_none(n, ASC),
    "factor_on_grid-balanced": lambda n: factor_or_none(n, BAL),
    "full_factorize": full_factorize,
}

# The calls that read the slot of each cofactor of n below the cap, not n's alone.
COFACTOR_CALLS = {name: GRID_CALLS[name] for name in ("is_prime-balanced", "factor_on_grid-balanced", "full_factorize")}


class TestStageWork:
    """Deterministic work counts, not wall clock, pin each path's cost."""

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    @pytest.mark.parametrize(
        "n, factors",
        [(2**63 - 25, []), (3037000453 * 3037000493, [3037000453, 3037000493])],
        ids=["largest-prime", "largest-balanced-semiprime"],
    )
    def test_large_n_scans_no_axis_prime(self, scans, fermats, call, n, factors):
        call(n)
        # n has no factor up to AXIS_PRIME_MAX, which one gcd shows: no axis prime is scanned
        assert scans == []
        # the Fermat stage splits n, or leaves it to Miller-Rabin, on every path
        assert_fermat_within_the_window(fermats, n, factors)

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    @pytest.mark.usefixtures("fresh_table")
    def test_prime_at_the_cap_builds_one_block(self, scans, call):
        limit = qgrid.AXIS_PRIME_MAX
        n = max(p for p in range(limit * limit, (limit + 1) ** 2) if oracle.trial_is_prime(p))
        call(n)
        # every pair whose 6k-1 is at most AXIS_PRIME_MAX is sieved into the table,
        # so no axis prime is scanned, and a first call builds the one block holding n
        assert scans == []
        assert n <= qgrid.TABLE_CAP and built_blocks() == [n // 3 // qgrid.BLOCK_SLOTS]

    @pytest.mark.parametrize("call", COFACTOR_CALLS.values(), ids=COFACTOR_CALLS.keys())
    @pytest.mark.parametrize(
        "n, factors, blocks",
        [(5 * 400009, [5, 400009], [8, 40]), (5 * 5 * 90001, [5, 5, 90001], [1, 9, 45]),
         (5 * 7 * 7 * 11 * 13 * 17, [5, 7, 7, 11, 13, 17], [0, 2, 12])],
        ids=["semiprime", "three-blocks", "six-factors"],
    )
    @pytest.mark.usefixtures("fresh_table")
    def test_below_the_cap_builds_the_blocks_of_the_cofactors_alone(self, call, n, factors, blocks):
        # balanced reads the slot of n and of n // p, and on to the last factor
        # when n // p is composite; full_factorize reads the same slots
        assert prod(factors) == n
        cofactors = [n // prod(factors[:i]) for i in range(len(factors))]
        assert sorted({m // 3 // qgrid.BLOCK_SLOTS for m in cofactors}) == blocks
        call(n)
        assert built_blocks() == blocks

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    @pytest.mark.parametrize("n", [5 * 7 * 7 * 11 * 13 * 17], ids=["composite-below-the-cap"])
    def test_up_to_the_cap_scans_no_axis_prime(self, scans, call, n):
        # the table answers every path there, the balanced divisor set included
        call(n)
        assert scans == []

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    def test_prime_past_the_cap_runs_the_window_once(self, scans, fermats, call):
        limit = qgrid.AXIS_PRIME_MAX + 1
        n = min(p for p in range(limit * limit, (limit + 1) ** 2) if oracle.trial_is_prime(p))
        call(n)
        assert scans == []
        assert_fermat_within_the_window(fermats, n)

    @pytest.mark.parametrize(
        "n, least, tests",
        [(1009 * (10**9 + 7), 1009, 0), (1000003 * 1000033, 1000003, 0), (10**9 + 7, None, 1)],
        ids=["small-times-large", "balanced", "prime"],
    )
    def test_ascending_runs_miller_rabin_once_on_n(self, monkeypatch, n, least, tests):
        # When the gcd with the axis primorial names no factor, _split alone
        # decides whether n is prime, and not at all when the Fermat stage's
        # window splits n first; the rest of its Miller-Rabin calls are on the
        # factors it splits off.
        tested = []
        mr = splitter._is_prime_mr

        def counted(m):
            tested.append(m)
            return mr(m)

        monkeypatch.setattr(splitter, "_is_prime_mr", counted)
        verdict = is_prime(n, SearchStrategy.ASCENDING_SCAN)
        assert (verdict.witness.axis_values[0] if least else verdict.witness) == least
        assert tested.count(n) == tests

    @pytest.mark.parametrize(
        "n, largest, mr, fermat",
        [(1009 * (10**9 + 7), 1009, 0, 0), (1000003 * 1000033, 1000003, 0, 1), (10**9 + 7, None, 1, 1)],
        ids=["small-times-large", "balanced", "prime"],
    )
    def test_balanced_runs_miller_rabin_and_fermat_once_on_n(self, stage_calls, fermats, n, largest, mr,
                                                             fermat):
        # A factor the table names settles n with neither stage; else a Fermat
        # hit in the window does, and on a miss Miller-Rabin decides it, and a
        # composite goes on to the rest of the Fermat stage's reach and rho,
        # with Miller-Rabin not run again and no a tried twice.
        verdict = is_prime(n, SearchStrategy.BALANCED_FIRST)
        assert (verdict.witness.axis_values[0] if largest else verdict.witness) == largest
        assert stage_calls["fermat", n] == fermat
        assert stage_calls["mr", n] == mr
        spans = [t for m, t, _ in fermats if m == n]
        assert all(a.stop <= b.start for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    @pytest.mark.parametrize(
        "factors, scanned",
        [([1009, 10**9 + 7], []), ([1531, 4294967291], []), ([1009, 1013, 1019, 10**9 + 7], [167])],
        ids=["1009", "1531", "gcd-above-the-cap"],
    )
    def test_a_factor_the_table_names_needs_no_stage_on_n(self, stage_calls, scans, call, factors, scanned):
        # One gcd with the axis primorial holds n's primes up to AXIS_PRIME_MAX.
        # Up to TABLE_CAP the table names its least; 1009 * 1013 * 1019 lies
        # above it, so a scan of the axis primes meets 1009, the 167th.
        # Neither the Fermat stage, Miller-Rabin nor rho runs on n; asc stops
        # there, and the other paths test the last factor, a prime, alone.
        n, prime = prod(factors), factors[-1]
        assert n > qgrid.TABLE_CAP
        call(n)
        assert scans == scanned
        asc = call in (GRID_CALLS["is_prime-asc"], GRID_CALLS["factor_on_grid-asc"])
        assert stage_calls == ({} if asc else {("fermat", prime): 1, ("mr", prime): 1})
        assert qgrid.axis_divisor(n) == factors[0] and full_factorize(n) == factors

    def test_the_scan_names_the_least_of_three_to_six_axis_primes(self):
        # A gcd above TABLE_CAP holds three axis primes or more, coprime to 35
        # once the remainders for 5 and 7 have run: seeded draws of 3 to 6 of
        # them, and the three largest, whose least is the scan's last but two
        primes = qgrid._AXIS_PRIMES[2:]
        rng = random.Random(21)
        draws = [primes[-3:]]
        while len(draws) < 300:
            chosen = rng.sample(primes, rng.randint(3, 6))
            if prod(chosen) > qgrid.TABLE_CAP:
                draws.append(chosen)
        for chosen in draws:
            g = prod(chosen)
            assert qgrid._least_prime(g) == min(chosen), chosen
            for m in (1, 6, 35, min(chosen), 1543, 10**6 + 3):  # 1543: the least prime above AXIS_PRIME_MAX
                if g * m <= MAX_VALUE:
                    assert full_factorize(g * m) == oracle.trial_factor(g * m), (chosen, m)

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    def test_exact_work_at_the_top_of_the_domain(self, stage_calls, call):
        prime, p, q = 2**63 - 25, 3037000453, 3037000493
        # every path runs one order: the window misses on a prime, and Miller-Rabin decides it
        call(prime)
        assert stage_calls == {("fermat", prime): 1, ("mr", prime): 1}
        stage_calls.clear()
        # the semiprime's pair is Fermat's first a, ceil(sqrt(n)): the window
        # splits it before Miller-Rabin, and each factor takes a miss and a test
        call(p * q)
        assert stage_calls == {("fermat", p * q): 1, ("fermat", p): 1, ("fermat", q): 1, ("mr", p): 1, ("mr", q): 1}

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    def test_a_pair_within_the_reach_needs_no_rho(self, stage_calls, call):
        # p 8 % below sqrt(n) near 1e10 lies past the Fermat stage's window,
        # but within its reach on a known composite
        p = 91997  # prime
        q = 108707  # the least prime above 1e10 // p
        call(p * q)
        assert not any(stage == "rho" for stage, _ in stage_calls)

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    def test_the_stage_tries_at_most_the_reach_on_n(self, fermats, call):
        n = 1009 * (10**9 + 7)
        call(n)
        assert sum(len(t) for m, t, _ in fermats if m == n) <= splitter._reach(n)

    @pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
    @pytest.mark.parametrize(
        "n, bases",
        [(2347031, 1), (4294967291, 1), (10**10 + 19, 3), (2**63 - 25, 7)],
        ids=["first-prime-above-the-cap", "largest-prime-below-2**32", "prime-near-1e10", "largest-prime"],
    )
    def test_a_prime_costs_one_pow_per_base_of_its_set(self, pow_calls, call, n, bases):
        # one hashed base below 2**32, then sets of 3 up to 7 bases by size
        assert n > 10**11 or oracle.trial_is_prime(n)  # 2**63 - 25 is checked in test_large_n.py
        call(n)
        assert len(pow_calls) == bases
        assert all(m == n for _, _, m in pow_calls)

    def test_a_square_is_factored_once(self, stage_calls):
        p = 3037000453
        assert full_factorize(p * p) == [p, p]
        # the window splits p*p at a = p, and the two halves are one number, factored once
        assert stage_calls == {("fermat", p * p): 1, ("fermat", p): 1, ("mr", p): 1}


@pytest.fixture
def fresh_table(monkeypatch):
    """The least-axis-factor table with no block built, as at import, and restored after the test."""
    monkeypatch.setattr(qgrid, "_blocks", [None] * len(qgrid._blocks))


def built_blocks():
    """Indices of the table's blocks built so far."""
    return [b for b, block in enumerate(qgrid._blocks) if block is not None]


def grid_answers(n):
    """(least axis divisor, largest axis divisor <= sqrt(n), prime factors) from qgrid."""
    return qgrid.axis_divisor(n), qgrid.axis_divisor(n, descending=True), full_factorize(n)


def reference_answers(n):
    """The same triple by trial division; n is coprime to 6, so every divisor is on the axis."""
    factors = oracle.trial_factor(n)
    divisors = [d for d in range(5, isqrt(n) + 1) if n % d == 0]
    return (divisors[0] if divisors else None), (divisors[-1] if divisors else None), factors


def least_prime_factors(limit):
    """Least prime factor of each n <= limit, 0 when n < 2 or n is prime.

    Plain Eratosthenes over all integers, no wheel: each prime p <= sqrt(limit)
    writes itself to p*p, p*p + p, ..., in descending order of p, so the
    least prime factor is written last.
    """
    root = isqrt(limit)
    composite = bytearray(root + 1)
    primes = []
    for p in range(2, root + 1):
        if not composite[p]:
            primes.append(p)
            composite[p * p :: p] = b"\1" * len(range(p * p, root + 1, p))
    lpf = array("H", bytes(2 * (limit + 1)))
    for p in reversed(primes):
        lpf[p * p :: p] = array("H", [p]) * len(range(p * p, limit + 1, p))
    return lpf


def largest_divisors_to_root(limit):
    """Largest divisor d of each n <= limit with 1 < d <= sqrt(n), 0 when there is none.

    Plain marking, no factorization: each d <= sqrt(limit) writes itself to
    d*d, d*d + d, ..., the n with n // d >= d, in ascending order of d, so
    the largest is written last.
    """
    largest = array("H", bytes(2 * (limit + 1)))
    for d in range(2, isqrt(limit) + 1):
        largest[d * d :: d] = array("H", [d]) * len(range(d * d, limit + 1, d))
    return largest


def axis_prime_products(limit):
    """p*p, p*q and q*q for the two largest axis primes q < p <= limit."""
    p, q = [v for v in range(limit, 4, -1) if v % 6 in (1, 5) and oracle.trial_is_prime(v)][:2]
    return [p * p, q * p, q * q]


# n at the first slot of each block but the first: near() of each also holds
# the last slots of the block below it.  Then the cap's slot, the last one.
BLOCK_BOUNDS = [3 * b * qgrid.BLOCK_SLOTS for b in range(1, len(qgrid._blocks))]
BLOCK_BOUNDS += [qgrid.TABLE_CAP, qgrid.TABLE_CAP + 1]
# Where a single table grown by powers of two used to stop, and its cap at
# AXIS_PRIME_MAX = 800: inside blocks now.
FORMER_BOUNDS = [2**k + e for k in range(10, 20) for e in (0, 1)] + [641600, 641601]
AXIS_PRIME_PRODUCTS = axis_prime_products(qgrid.AXIS_PRIME_MAX) + axis_prime_products(800)
BOUNDS = BLOCK_BOUNDS + FORMER_BOUNDS + AXIS_PRIME_PRODUCTS


def near(bound):
    """The n coprime to 6 within 6 of bound: the last ones below it and the first above."""
    return [n for n in range(bound - 6, bound + 7) if n % 6 in (1, 5)]


@pytest.mark.usefixtures("fresh_table")
class TestLeastFactorTable:
    def test_least_factor_matches_trial_division_up_to_the_cap(self):
        lpf = least_prime_factors(qgrid.TABLE_CAP)
        # the reference agrees with trial division at both ends of its range
        for n in [*range(2, 5000), *range(qgrid.TABLE_CAP - 5000, qgrid.TABLE_CAP + 1)]:
            factors = oracle.trial_factor(n)
            assert lpf[n] == (factors[0] if len(factors) > 1 else 0), n
        for n in range(5, qgrid.TABLE_CAP + 1):
            if n % 6 in (1, 5):
                assert qgrid.axis_divisor(n) == (lpf[n] or None), n

    def test_factors_and_balanced_divisor_match_the_reference_up_to_the_cap(self):
        # Every n the table answers, against the plain sieves: its prime factors,
        # one lookup each, and its largest divisor <= sqrt(n), which balanced
        # reads off n's slot and the slot of n // p.
        lpf = least_prime_factors(qgrid.TABLE_CAP)
        root_divisor = largest_divisors_to_root(qgrid.TABLE_CAP)
        for n in range(5, qgrid.TABLE_CAP + 1):
            if n % 6 not in (1, 5):
                continue
            factors, m = [], n
            while lpf[m]:
                factors.append(lpf[m])
                m //= lpf[m]
            assert qgrid.axis_factors(n) == factors + [m], n
            assert qgrid.axis_divisor(n, descending=True) == (root_divisor[n] or None), n

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_answers_at_a_bound(self, monkeypatch, bound):
        assert full_factorize(bound) == oracle.trial_factor(bound)
        for n in near(bound):
            monkeypatch.setattr(qgrid, "_blocks", [None] * len(qgrid._blocks))  # built by this n alone
            assert grid_answers(n) == reference_answers(n), n
        for n in near(bound):  # built by the n below it first
            assert grid_answers(n) == reference_answers(n), n

    def test_call_order_does_not_change_the_answers(self, monkeypatch):
        ns = [n for bound in BOUNDS for n in near(bound)]
        ascending = {n: grid_answers(n) for n in ns}
        built_up = qgrid._blocks
        monkeypatch.setattr(qgrid, "_blocks", [None] * len(built_up))
        descending = {n: grid_answers(n) for n in reversed(ns)}
        assert descending == ascending
        assert qgrid._blocks == built_up  # the same blocks built, byte for byte

    def test_growth_stays_within_the_cap(self):
        last = len(qgrid._blocks) - 1
        below, above = min(near(qgrid.TABLE_CAP + 1)), max(near(qgrid.TABLE_CAP))
        assert below <= qgrid.TABLE_CAP < above
        qgrid.axis_divisor(91)
        assert built_blocks() == [0]
        qgrid.axis_divisor(below)
        assert built_blocks() == [0, last]
        # the last block ends at the cap's slot
        assert last * qgrid.BLOCK_SLOTS + len(qgrid._blocks[last]) == qgrid.TABLE_CAP // 3 + 1
        qgrid.axis_divisor(above)  # above the cap: no table
        assert built_blocks() == [0, last]

    def test_the_least_divisor_above_the_cap_loads_the_splitter(self, monkeypatch):
        # In a fresh process the first n above the cap with no small factor
        # loads the splitter into its empty slot; here the slot is emptied.
        monkeypatch.setattr(qgrid, "_splitter", None)
        assert is_prime(1000000007, SearchStrategy.ASCENDING_SCAN).is_prime
        assert qgrid._splitter is splitter

    def test_the_prime_list_holds_exactly_the_axis_primes(self):
        sympy = pytest.importorskip("sympy")
        # no composite axis value below 41, such as 25 or 35, slips in
        assert qgrid._AXIS_PRIMES == tuple(sympy.primerange(5, qgrid.AXIS_PRIME_MAX + 1))

    def test_pair_indices_fit_a_byte(self):
        for b in range(len(qgrid._blocks)):
            qgrid.axis_divisor(3 * b * qgrid.BLOCK_SLOTS + 1)  # the n of the block's first slot
        assert built_blocks() == list(range(len(qgrid._blocks)))
        assert sum(map(len, qgrid._blocks)) == qgrid.TABLE_CAP // 3 + 1
        # the largest pair written is AXIS_PRIME_MAX's, the last a byte holds
        assert max(map(max, qgrid._blocks)) == (qgrid.AXIS_PRIME_MAX + 1) // 6 == 255


def test_max_value_is_64_bit_cap():
    assert MAX_VALUE == 2**63 - 1
