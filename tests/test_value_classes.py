"""The value classes keep their construction, repr, equality and checks.

All are named tuples.  The four frozen ones (grid cell, factor pair, wheel
config, wheel render) are immutable and hashable; the three reports are
read-only records with a field-order repr and field-wise equality, and
unhashable, since each holds a dict or a list.  The verdicts that
is_prime builds without the constructor equal the constructor's.
"""

from fractions import Fraction

import pytest

from quasiprime.numerics import WheelConfig
from quasiprime.oracle import MismatchReport
from quasiprime.pipeline import (
    DensityReport,
    FactorPair,
    PrimalityVerdict,
    SearchStrategy,
    Stage,
    VerdictKind,
    is_prime,
)
from quasiprime.qgrid import GridCoordinate, axis_index
from quasiprime.shell import BenchReport, WheelRender

FROZEN = [
    pytest.param(
        GridCoordinate, {"i": 2, "j": 4, "value": 91},
        "GridCoordinate(i=2, j=4, value=91)", id="GridCoordinate",
    ),
    pytest.param(FactorPair, {"a": 7, "b": 13}, "FactorPair(a=7, b=13)", id="FactorPair"),
    pytest.param(WheelConfig, {"sides": 24, "rings": 2}, "WheelConfig(sides=24, rings=2)", id="WheelConfig"),
    pytest.param(
        WheelRender,
        {"sides": 6, "limit": 6, "highlighted": frozenset({1, 5}), "primes": frozenset({2, 3, 5})},
        "WheelRender(sides=6, limit=6, highlighted=frozenset({1, 5}), primes=frozenset({2, 3, 5}))",
        id="WheelRender",
    ),
]


class TestFrozen:
    @pytest.mark.parametrize("cls, fields, text", FROZEN)
    def test_repr_and_keyword_construction(self, cls, fields, text):
        by_keyword = cls(**fields)
        assert repr(by_keyword) == text
        assert by_keyword == cls(*fields.values())
        assert [getattr(by_keyword, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields, text", FROZEN)
    def test_equal_instances_hash_alike(self, cls, fields, text):
        a, b = cls(**fields), cls(**fields)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("cls, fields, text", FROZEN)
    def test_attributes_cannot_be_assigned(self, cls, fields, text):
        obj = cls(**fields)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        assert [getattr(obj, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields, text", FROZEN)
    def test_attributes_cannot_be_added(self, cls, fields, text):
        # An unknown name is refused like a field, with AttributeError rather than TypeError.
        with pytest.raises(AttributeError):
            cls(**fields).extra = 1

    @pytest.mark.parametrize(
        "cls, args, message",
        [
            (GridCoordinate, (2, 1, 91), r"need 1 <= i <= j, got \(2, 1\)"),
            (GridCoordinate, (0, 1, 35), r"need 1 <= i <= j, got \(0, 1\)"),
            (GridCoordinate, (2, 4, 90), r"value 90 does not match cell \(2, 4\)"),
            (FactorPair, (7, 5), r"need 5 <= a <= b, got \(7, 5\)"),
            (FactorPair, (1, 5), r"need 5 <= a <= b, got \(1, 5\)"),
            (FactorPair, (5, 9), r"factor pair \(5, 9\) is off the 6k±1 moduli"),
            (WheelConfig, (10, 2), "wheel sides must be a positive multiple of 6, got 10"),
            (WheelConfig, (24, 0), "rings must be positive, got 0"),
        ],
    )
    def test_validation_errors(self, cls, args, message):
        with pytest.raises(ValueError, match=message):
            cls(*args)

    def test_derived_values(self):
        assert GridCoordinate(2, 4, 91).axis_values == (7, 13)
        assert FactorPair(7, 13).product == 91
        assert WheelConfig(24, 2).limit == 48
        assert WheelRender(24, 49, frozenset(), frozenset()).rings == 3


P, Q = 3037000453, 3037000493  # the largest balanced semiprime P * Q within the 64-bit cap
# Each of is_prime's paths, by n: (kind, witness, deciding stage), the same
# under both strategies.
VERDICT_PATHS = {
    "invalid": (1, VerdictKind.INVALID, None, None),
    "special-small": (3, VerdictKind.PRIME_SPECIAL_SMALL, None, None),
    "prefilter-witness-2": (1000, VerdictKind.COMPOSITE, 2, Stage.NOT_ODD),
    "prefilter-witness-3": (21, VerdictKind.COMPOSITE, 3, Stage.DIGITAL_ROOT_369),
    "grid-prime": (97, VerdictKind.PRIME, None, Stage.GRID_SEARCH),
    "grid-composite": (91, VerdictKind.COMPOSITE, GridCoordinate(2, 4, 91), Stage.GRID_SEARCH),
    "grid-composite-after-last-digit": (35, VerdictKind.COMPOSITE, GridCoordinate(1, 2, 35), Stage.LAST_DIGIT),
    "above-the-cap-prime": (2**63 - 25, VerdictKind.PRIME, None, Stage.GRID_SEARCH),
    "above-the-cap-composite": (
        P * Q, VerdictKind.COMPOSITE, GridCoordinate(axis_index(P), axis_index(Q), P * Q), Stage.GRID_SEARCH,
    ),
}


class TestVerdicts:
    @pytest.mark.parametrize("strategy", list(SearchStrategy), ids=[s.value for s in SearchStrategy])
    @pytest.mark.parametrize("n, kind, witness, stage", VERDICT_PATHS.values(), ids=VERDICT_PATHS.keys())
    def test_is_prime_builds_the_constructors_verdict(self, n, kind, witness, stage, strategy):
        # is_prime skips the constructor; what it returns must not tell
        got = is_prime(n, strategy)
        want = PrimalityVerdict(n=n, kind=kind, witness=witness, deciding_stage=stage, strategy=strategy)
        assert type(got) is PrimalityVerdict
        assert got == want and repr(got) == repr(want) and hash(got) == hash(want)
        assert got.to_json_dict() == want.to_json_dict()
        assert got.is_prime is want.is_prime


DENSITY = {
    "limit": 100,
    "survivors": 27,
    "fraction": Fraction(27, 100),
    "per_stage_rejections": {Stage.NOT_ODD: 50},
}
BENCH = {
    "limit": 100,
    "pipeline_seconds": 0.5,
    "trial_division_seconds": 0.25,
    "primes_found": 25,
    "survivors": 27,
    "fraction": 0.27,
    "per_stage_rejections": {Stage.NOT_ODD: 50},
    "notes": "n",
}
MISMATCH = {
    "limit": 10,
    "strategy": "asc",
    "factor_stride": 3,
    "mismatches": [(9, "prime", "composite")],
    "factor_mismatches": [],
}
REPORTS = [
    pytest.param(
        DensityReport, DENSITY,
        "DensityReport(limit=100, survivors=27, fraction=Fraction(27, 100), "
        "per_stage_rejections={<Stage.NOT_ODD: 'NotOdd'>: 50})",
        id="DensityReport",
    ),
    pytest.param(
        BenchReport, BENCH,
        "BenchReport(limit=100, pipeline_seconds=0.5, trial_division_seconds=0.25, primes_found=25, "
        "survivors=27, fraction=0.27, per_stage_rejections={<Stage.NOT_ODD: 'NotOdd'>: 50}, notes='n')",
        id="BenchReport",
    ),
    pytest.param(
        MismatchReport, MISMATCH,
        "MismatchReport(limit=10, strategy='asc', factor_stride=3, "
        "mismatches=[(9, 'prime', 'composite')], factor_mismatches=[])",
        id="MismatchReport",
    ),
]


class TestReports:
    @pytest.mark.parametrize("cls, fields, text", REPORTS)
    def test_repr_and_keyword_construction(self, cls, fields, text):
        by_keyword = cls(**fields)
        assert repr(by_keyword) == text
        assert by_keyword == cls(*fields.values())
        assert [getattr(by_keyword, name) for name in fields] == list(fields.values())

    @pytest.mark.parametrize("cls, fields, text", REPORTS)
    def test_equality_is_field_by_field(self, cls, fields, text):
        report = cls(**fields)
        assert report == cls(**fields)
        for name in fields:
            assert report != report._replace(**{name: None}), name

    @pytest.mark.parametrize("cls, fields, text", REPORTS)
    def test_read_only_and_unhashable(self, cls, fields, text):
        report = cls(**fields)
        with pytest.raises(AttributeError):
            report.limit = 7
        assert report.limit == fields["limit"]
        with pytest.raises(TypeError):
            hash(report)

    def test_mismatch_lists_default_empty_and_fresh(self):
        a = MismatchReport(limit=10, strategy="asc", factor_stride=3)
        b = MismatchReport(10, "asc", 3)
        assert repr(a) == (
            "MismatchReport(limit=10, strategy='asc', factor_stride=3, mismatches=[], factor_mismatches=[])"
        )
        assert a == b
        a.mismatches.append((9, "prime", "composite"))
        a.factor_mismatches.append((4, [2], [2, 2]))
        assert b.mismatches == [] and b.factor_mismatches == []
        assert a.mismatches is not b.mismatches
        assert a.factor_mismatches is not b.factor_mismatches
        assert not a.ok and b.ok
