import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiprime import oracle, pipeline
from quasiprime.errors import ResourceLimitError
from quasiprime.pipeline import PrimalityVerdict, SearchStrategy, VerdictKind


class TestSieve:
    def test_textbook_primes(self):
        table = oracle.sieve(30)
        assert table.primes() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_prime_count_to_100(self):
        assert oracle.sieve(100).count() == 25

    def test_one_is_not_prime(self):
        assert not oracle.sieve(10).is_prime(1)

    def test_queries_above_limit_fail(self):
        with pytest.raises(ValueError):
            oracle.sieve(10).is_prime(11)

    def test_limit_bounds(self):
        with pytest.raises(ValueError):
            oracle.sieve(1)
        with pytest.raises(ResourceLimitError):
            oracle.sieve(10**8 + 1)

    def test_agrees_with_trial_division(self):
        table = oracle.sieve(10**4)
        for n in range(2, 10**4 + 1):
            assert table.is_prime(n) == oracle.trial_is_prime(n), n

    def test_count_matches_primes_length(self):
        table = oracle.sieve(12345)
        assert table.count() == len(table.primes())


class TestTrialFactor:
    def test_semiprime(self):
        assert oracle.trial_factor(91) == [7, 13]

    def test_prime(self):
        assert oracle.trial_factor(97) == [97]

    def test_full_wheel_limit(self):
        assert oracle.trial_factor(1008) == [2, 2, 2, 2, 3, 3, 7]

    def test_rejects_below_two(self):
        with pytest.raises(ValueError):
            oracle.trial_factor(1)

    @given(st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=300)
    def test_product_reconstructs_input(self, n):
        factors = oracle.trial_factor(n)
        prod = 1
        for p in factors:
            prod *= p
        assert prod == n
        assert factors == sorted(factors)

    def test_all_elements_prime(self, table_1e5):
        for n in range(2, 2000):
            assert all(table_1e5.is_prime(p) for p in oracle.trial_factor(n))


def _fake_classifier_skipping_grid(n, strategy):
    """Corrupted pipeline: declares every filter survivor prime without
    consulting the grid, so squares like 49 leak through."""
    verdict = pipeline.is_prime(n, strategy)
    if verdict.kind is VerdictKind.COMPOSITE and verdict.deciding_stage is pipeline.Stage.GRID_SEARCH:
        return PrimalityVerdict(n, VerdictKind.PRIME, None, pipeline.Stage.GRID_SEARCH, strategy)
    return verdict


def _fake_factorizer_dropping_last(n):
    factors = pipeline.full_factorize(n)
    return factors[:-1] if len(factors) > 1 else factors


class TestVerifyRange:
    def test_clean_at_10k(self):
        report = oracle.verify_range(10**4, factor_stride=97)
        assert report.ok
        assert report.mismatches == []
        assert report.factor_mismatches == []

    def test_clean_with_balanced_strategy(self):
        assert oracle.verify_range(2000, strategy=SearchStrategy.BALANCED_FIRST).ok

    def test_detects_corrupted_classifier(self):
        report = oracle.verify_range(200, classify=_fake_classifier_skipping_grid)
        assert not report.ok
        bad = [n for n, _, _ in report.mismatches]
        assert 49 in bad and 91 in bad

    def test_detects_corrupted_factorizer(self):
        report = oracle.verify_range(500, factor_stride=1, factorize=_fake_factorizer_dropping_last)
        assert not report.ok
        assert report.factor_mismatches

    def test_stride_zero_disables_factor_checks(self):
        report = oracle.verify_range(300, factor_stride=0)
        assert report.factor_mismatches == []
        assert report.ok

    def test_negative_stride_is_rejected(self):
        # a negative stride would turn the factor check off without a word
        with pytest.raises(ValueError, match="stride"):
            oracle.verify_range(1000, factor_stride=-3)

    def test_deterministic(self):
        a = oracle.verify_range(1500, factor_stride=53)
        b = oracle.verify_range(1500, factor_stride=53)
        assert a.to_json_dict() == b.to_json_dict()

    def test_limit_bounds(self):
        with pytest.raises(ResourceLimitError):
            oracle.verify_range(10**7 + 1)
        with pytest.raises(ValueError):
            oracle.verify_range(1)

    def test_json_shape(self):
        d = oracle.verify_range(200).to_json_dict()
        assert set(d) == {
            "limit",
            "strategy",
            "factor_stride",
            "mismatches",
            "factor_mismatches",
            "ok",
        }
        assert d["ok"] is True


BLOCK = oracle._VERIFY_BLOCK
SECOND_BOUNDARY = 1 + 2 * BLOCK  # the last n of the second block, since blocks start at n = 2


def _lying_classifier(lies):
    """The pipeline, with the verdict flipped between prime and composite at each n in lies."""

    def classify(n, strategy):
        verdict = pipeline.is_prime(n, strategy)
        if n not in lies:
            return verdict
        kind = VerdictKind.COMPOSITE if verdict.is_prime else VerdictKind.PRIME
        return PrimalityVerdict(n, kind, None, verdict.deciding_stage, strategy)

    return classify


class TestVerifyRangeBlocks:
    @pytest.mark.parametrize("limit", [SECOND_BOUNDARY - 1, SECOND_BOUNDARY, SECOND_BOUNDARY + 1])
    def test_mismatches_at_the_block_edges(self, limit):
        # n = 2 and 3, the last n of the first block and the first of the second, and the limit
        lies = {2, 3, 1 + BLOCK, 2 + BLOCK, limit}
        classify = _lying_classifier(lies)
        table = oracle.sieve(limit)
        want = []
        for n in range(2, limit + 1):  # the plain per-n comparison
            verdict = classify(n, SearchStrategy.ASCENDING_SCAN)
            truth = table.is_prime(n)
            if verdict.is_prime != truth:
                want.append((n, verdict.kind.value, "prime" if truth else "composite"))
        assert [n for n, _, _ in want] == sorted(lies)
        report = oracle.verify_range(limit, factor_stride=0, classify=classify)
        assert report.mismatches == want

    def test_classify_is_called_once_per_n_in_ascending_order(self):
        limit = SECOND_BOUNDARY + 1
        seen = []

        def counting(n, strategy):
            seen.append(n)
            return pipeline.is_prime(n, strategy)

        assert oracle.verify_range(limit, factor_stride=0, classify=counting).ok
        assert seen == list(range(2, limit + 1))  # limit - 1 calls, ascending

    @pytest.mark.parametrize(
        "kwargs", [{"limit": 100.0}, {"limit": True}, {"limit": 100, "factor_stride": 5.0}],
        ids=["float-limit", "bool-limit", "float-stride"],
    )
    def test_a_bad_type_is_refused_before_any_work(self, monkeypatch, kwargs):
        def no_work(*args):
            raise AssertionError("work started before the arguments were checked")

        monkeypatch.setattr(oracle, "sieve", no_work)
        with pytest.raises(TypeError, match="must be an int"):
            oracle.verify_range(**kwargs, classify=no_work, factorize=no_work)
