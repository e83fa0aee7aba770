import json

import pytest

from quasiprime import pipeline, shell
from quasiprime.errors import ConsistencyError, ResourceLimitError
from quasiprime.pipeline import PrimalityVerdict, SearchStrategy, VerdictKind
from quasiprime.shell import WheelRender, bench, build_wheel_render, emit_wheel_svg, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPrimeCommand:
    def test_composite_json(self, capsys):
        code, out, _ = run(capsys, "prime", "91", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "n": 91,
            "verdict": "composite",
            "witness": [7, 13],
            "stage": "GridSearch",
            "strategy": "asc",
        }

    def test_prime_text(self, capsys):
        code, out, _ = run(capsys, "prime", "97")
        assert code == 0
        assert "97 is prime" in out

    def test_balanced_strategy_flag(self, capsys):
        code, out, _ = run(capsys, "prime", "625", "--strategy", "balanced", "--json")
        assert code == 0
        assert json.loads(out)["witness"] == [25, 25]

    def test_quiet_exit_codes(self, capsys):
        assert run(capsys, "prime", "97", "--quiet")[0] == 0
        assert run(capsys, "prime", "91", "--quiet")[0] == 1
        assert run(capsys, "prime", "1", "--quiet")[0] == 2

    def test_quiet_prints_nothing(self, capsys):
        _, out, err = run(capsys, "prime", "91", "--quiet")
        assert out == "" and err == ""


class TestFactorCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "factor", "360", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["factors"] == [2, 2, 2, 3, 3, 5]
        assert payload["outside_wheel"] == [2, 2, 2, 3, 3]

    def test_text(self, capsys):
        code, out, _ = run(capsys, "factor", "245")
        assert code == 0
        assert "5 × 7^2" in out

    def test_invalid_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "factor", "1")
        assert code == 2
        assert "error" in err


class TestQgridCommand:
    def test_json_row_major(self, capsys):
        code, out, _ = run(capsys, "qgrid", "--rows", "1..2", "--cols", "1..3", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [[25, 35, 55], [35, 49, 77]]
        assert payload["row_axis"] == [5, 7]
        assert payload["col_axis"] == [5, 7, 11]

    def test_text_alignment(self, capsys):
        code, out, _ = run(capsys, "qgrid", "--rows", "1..2", "--cols", "1..2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["5", "7"]
        assert lines[2].split() == ["5", "|25", "35"] or "25" in lines[2]

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "qgrid", "--rows", "x..y", "--cols", "1..2")
        assert code == 2

    def test_oversized_region_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "qgrid", "--rows", "1..200", "--cols", "1..200")
        assert code == 2


class TestWheelCommand:
    def test_writes_svg_with_metadata(self, capsys, tmp_path):
        out_file = tmp_path / "wheel.svg"
        code, out, _ = run(capsys, "wheel", "--sides", "24", "--limit", "48",
                           "--out", str(out_file), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rings"] == 2
        assert payload["highlighted_moduli"] == [1, 5, 7, 11, 13, 17, 19, 23]
        svg = out_file.read_text()
        assert svg.count('class="ring"') == 2
        assert svg.startswith("<?xml")

    def test_golden_bytes_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(capsys, "wheel", "--limit", "120", "--out", str(a))[0] == 0
        assert run(capsys, "wheel", "--limit", "120", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_limit_cap_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "wheel", "--limit", "20000", "--out", str(tmp_path / "w.svg"))
        assert code == 2

    def test_bad_sides_is_usage_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "wheel", "--sides", "7", "--limit", "48",
                         "--out", str(tmp_path / "w.svg"))
        assert code == 2

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "w.svg"
        code, _, err = run(capsys, "wheel", "--limit", "48", "--out", str(target))
        assert code == 2
        assert str(target) in err
        assert "internal error" not in err

    def test_pipeline_sieve_disagreement_aborts(self, capsys, tmp_path, monkeypatch):
        def lying(n, strategy=SearchStrategy.ASCENDING_SCAN):
            if n == 49:
                return PrimalityVerdict(49, VerdictKind.PRIME, None, None, strategy)
            return pipeline.is_prime(n, strategy)

        monkeypatch.setattr(shell.pipeline, "is_prime", lying)
        code, _, err = run(capsys, "wheel", "--limit", "60", "--out", str(tmp_path / "w.svg"))
        assert code == 3
        assert "internal error" in err


class TestWheelRendering:
    def test_render_is_deterministic(self):
        render = build_wheel_render(24, 100)
        assert emit_wheel_svg(render) == emit_wheel_svg(render)

    def test_ring_count_rounds_up(self):
        assert build_wheel_render(24, 49).rings == 3
        assert build_wheel_render(24, 48).rings == 2

    def test_six_wheel_primes_sit_on_spokes_1_and_5(self):
        render = build_wheel_render(6, 48)
        assert render.highlighted == {1, 5}
        for p in render.primes:
            if p > 3:
                assert (p - 1) % 6 + 1 in render.highlighted

    def test_two_and_three_marked_off_pattern(self):
        svg = emit_wheel_svg(build_wheel_render(24, 48))
        assert svg.count('class="offpattern"') == 2
        assert 'class="prime"' in svg

    def test_emitter_refuses_prime_off_the_spokes(self):
        # hand-built render claiming 10 is prime: 10 sits on spoke 10, off-pattern
        render = WheelRender(24, 24, frozenset({1, 5, 7, 11, 13, 17, 19, 23}), frozenset({10}))
        with pytest.raises(ConsistencyError):
            emit_wheel_svg(render)


class TestBench:
    def test_report_structure(self):
        report = bench(1000)
        assert report.pipeline_seconds > 0
        assert report.trial_division_seconds > 0
        assert report.primes_found == 168
        assert report.survivors + sum(report.per_stage_rejections.values()) == 1000
        assert "no speedup" in report.notes

    def test_matches_density(self):
        report = bench(500)
        density = pipeline.survivor_density(500)
        assert report.survivors == density.survivors
        assert report.fraction == float(density.fraction)

    def test_limit_bounds(self):
        with pytest.raises(ValueError):
            bench(99)
        with pytest.raises(ResourceLimitError):
            bench(10**7 + 1)

    def test_cli_json(self, capsys):
        code, out, _ = run(capsys, "bench", "--limit", "300", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "limit",
            "pipeline_seconds",
            "trial_division_seconds",
            "primes_found",
            "survivors",
            "fraction",
            "per_stage_rejections",
            "notes",
        }


class TestVerifyCommand:
    def test_clean_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--limit", "2000", "--json")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--limit", "500")
        assert code == 0
        assert "0 primality mismatches" in out

    def test_negative_factor_stride_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--limit", "1000", "--factor-stride", "-3", "--json")
        assert code == 2
        assert out == ""
        assert "factor stride" in err


class TestDensityCommand:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "density", "--limit", "1000", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["survivors"] == 266
        assert abs(payload["fraction"] - 0.266) < 1e-9

    def test_text(self, capsys):
        code, out, _ = run(capsys, "density", "--limit", "150")
        assert code == 0
        assert "survivors" in out


class TestUsageAndCaps:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    def test_missing_required_argument(self, capsys):
        assert run(capsys, "density")[0] == 2

    def test_env_cap_rejects_large_limits(self, capsys, monkeypatch):
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "1000")
        code, _, err = run(capsys, "density", "--limit", "5000")
        assert code == 2
        assert "QP_MAX_LIMIT" in err

    def test_env_cap_allows_small_limits(self, capsys, monkeypatch):
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "1000")
        assert run(capsys, "density", "--limit", "900")[0] == 0

    def test_bad_env_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "soon")
        assert run(capsys, "density", "--limit", "900")[0] == 2


class TestRegionFormatting:
    def test_header_and_rows(self):
        text = shell.format_region_text(1, 2, 1, 2, [[25, 35], [35, 49]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["5", "7"]
        assert lines[2].endswith("25 35")
        assert lines[3].endswith("35 49")
