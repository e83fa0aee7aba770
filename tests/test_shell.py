import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasiprime import oracle, pipeline, shell, wheel
from quasiprime.errors import ConsistencyError, ResourceLimitError
from quasiprime.pipeline import PrimalityVerdict, SearchStrategy, VerdictKind
from quasiprime.shell import WheelRender, bench, build_wheel_render, emit_wheel_svg, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def call(*argv):
    """main() in process, without a pytest fixture, so hypothesis can drive it."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


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


# n of a random bit length from 2 to 63, so every size is drawn alike
sized = st.integers(min_value=2, max_value=63).flatmap(lambda b: st.integers(2 ** (b - 1), 2**b - 1))


# Few examples: rho takes up to ~25 ms on a 63-bit balanced semiprime.
@given(sized)
@example(2)
@example(3037000453 * 3037000493)
@example(2**63 - 1)
@settings(max_examples=40, deadline=None)
def test_cli_round_trip(n):
    verdict = pipeline.is_prime(n)
    code, out = call("prime", str(n), "--json")
    assert code == 0
    assert json.loads(out) == verdict.to_json_dict()
    code, out = call("factor", str(n), "--json")
    factors = json.loads(out)["factors"]
    assert code == 0
    assert math.prod(factors) == n
    assert verdict.is_prime == (factors == [n])
    assert call("prime", str(n), "--quiet") == (0 if verdict.is_prime else 1, "")


# Text with all that json.dumps escapes: quotes, backslashes, control
# characters, non-ASCII and astral characters, and lone surrogates.
json_text = st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028'))
# Leaves of every type the payloads hold, plus what the writer leaves to
# json.dumps: non-finite floats, str Enums, and keys that are
# not strings.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64) | st.floats() | json_text
    | st.sampled_from([SearchStrategy.ASCENDING_SCAN, VerdictKind.PRIME]),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.dictionaries(json_text | st.integers() | st.none(), inner),
    max_leaves=20,
)


@given(json_values)
@example({"n": 91, "witness": [7, 13], "stage": "GridSearch", "fraction": 0.266, "ok": True})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324, 2**64, -(2**64)])
@example({'"': "\\", "é": "\U0001d11e", "\x7f": (), "": {}})
def test_json_writes_what_json_dumps_writes(value):
    assert shell._json(value) == json.dumps(value)


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


@pytest.mark.parametrize("command", ["prime", "factor"])
def test_input_above_the_cap_is_a_usage_error(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, command, "9223372036854775808")
    assert code == 2 and out == ""
    assert err == (
        "error: 9223372036854775808 exceeds the 64-bit cap\n"
        "usage: qprime [-h] {prime,factor,qgrid,wheel,verify,bench,density} ...\n"
    )


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

    @pytest.mark.parametrize(
        "rows, cols, code",
        [
            ("1012333498..1012333499", "1012333498..1012333499", 0),
            ("1012333499", "1012333499..1012333500", 2),
            ("1100000000..1100000001", "1100000000..1100000001", 2),
        ],
        ids=["boundary", "past", "far-past"],
    )
    def test_cells_above_the_64_bit_cap_are_usage_errors(self, capsys, rows, cols, code):
        got, out, err = run(capsys, "qgrid", "--rows", rows, "--cols", cols, "--json")
        assert got == code
        if code:
            assert out == "" and "exceeds the 64-bit cap" in err
        else:
            assert max(map(max, json.loads(out)["values"])) == 3037000499**2


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
        honest = pipeline.is_prime  # the stub must not call the name it replaces

        def lying(n, strategy=SearchStrategy.ASCENDING_SCAN):
            if n == 49:
                return PrimalityVerdict(49, VerdictKind.PRIME, None, None, strategy)
            return honest(n, strategy)

        monkeypatch.setattr(shell.pipeline, "is_prime", lying)
        code, _, err = run(capsys, "wheel", "--limit", "60", "--out", str(tmp_path / "w.svg"))
        assert code == 3
        assert err == "internal error: pipeline and sieve disagree at 49\n"

    def test_a_prime_off_the_prime_moduli_aborts(self, capsys, tmp_path, monkeypatch):
        # Fault injection: for sides a multiple of 6 every prime above 3 sits on a
        # prime modulus, so only a wrong modulus_of reaches the check.
        monkeypatch.setattr(wheel, "modulus_of", lambda n, sides: 0)
        code, out, err = run(capsys, "wheel", "--limit", "48", "--out", str(tmp_path / "w.svg"))
        assert (code, out) == (3, "")
        assert err == "internal error: prime 5 landed off the prime moduli\n"
        assert not (tmp_path / "w.svg").exists()


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

    def test_disagreement_names_the_first_n(self, monkeypatch):
        honest = pipeline.is_prime

        def lying(n, strategy=SearchStrategy.ASCENDING_SCAN):
            if n in (49, 77):
                return PrimalityVerdict(n, VerdictKind.PRIME, None, None, strategy)
            return honest(n, strategy)

        monkeypatch.setattr(shell.pipeline, "is_prime", lying)
        with pytest.raises(ConsistencyError, match="pipeline and sieve disagree at 49$"):
            build_wheel_render(24, 100)

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

    def test_counts_that_differ_abort(self, capsys, monkeypatch):
        # Fault injection: a trial division that finds no prime.
        monkeypatch.setattr(oracle, "trial_is_prime", lambda n: False)
        with pytest.raises(ConsistencyError, match="^pipeline found 25 primes, trial division 0$"):
            bench(100)
        code, out, err = run(capsys, "bench", "--limit", "100", "--json")
        assert (code, out) == (3, "")
        assert err == "internal error: pipeline found 25 primes, trial division 0\n"

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

    def test_env_cap_rejects_large_limits(self, capsys, monkeypatch, tmp_path):
        # Every command with a --limit obeys the cap, before it does any work.
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "1000")
        svg = tmp_path / "w.svg"
        for argv in (["wheel", "--out", str(svg)], ["verify"], ["bench"], ["density"]):
            code, out, err = run(capsys, *argv, "--limit", "5000")
            assert code == 2, argv
            assert out == ""
            assert "error: limit 5000 exceeds QP_MAX_LIMIT=1000" in err
        assert not svg.exists()

    def test_env_cap_raises_the_cap_error(self, monkeypatch):
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "1000")
        with pytest.raises(ResourceLimitError, match=r"^limit 5000 exceeds QP_MAX_LIMIT=1000$"):
            shell._check_env_cap(5000)
        shell._check_env_cap(1000)
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "soon")
        with pytest.raises(ValueError, match=r"^QP_MAX_LIMIT must be an integer, got 'soon'$") as caught:
            shell._check_env_cap(5000)
        assert type(caught.value) is ValueError

    def test_any_other_failure_is_an_internal_error(self, capsys, monkeypatch):
        def boom(n, strategy):
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "is_prime", boom)
        assert run(capsys, "prime", "97") == (3, "", "internal error: boom\n")

    def test_env_cap_allows_small_limits(self, capsys, monkeypatch):
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "1000")
        assert run(capsys, "density", "--limit", "900")[0] == 0

    def test_bad_env_cap_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(shell.MAX_LIMIT_ENV, "soon")
        assert run(capsys, "density", "--limit", "900")[0] == 2

    # A stdout whose reader has gone, as in `qprime ... | head -1`, in a fresh
    # process: the write fails with EPIPE, at once when stdout is unbuffered,
    # else at the flush.  That is exit 141 (128 + SIGPIPE), with nothing on
    # stderr and no traceback at exit.
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv", [["prime", "97"], ["factor", "360", "--json"], ["density", "--limit", "1000"]],
        ids=["prime", "factor", "density"],
    )
    def test_a_closed_stdout_exits_141_quietly(self, argv, unbuffered):
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "quasiprime", *argv], stdout=write, stderr=subprocess.PIPE, env=env
            )
        finally:
            os.close(write)
        assert (result.returncode, result.stderr) == (141, b"")

    # What each help text must name: its options, positionals, choices and
    # metavars, written out here rather than read off the parser.
    HELP = {
        (): ["prime", "factor", "qgrid", "wheel", "verify", "bench", "density"],
        ("prime",): ["\n  n\n", "--strategy", "{asc,balanced}", "--quiet", "--json"],
        ("factor",): ["\n  n\n", "--json"],
        ("qgrid",): ["--rows A..B", "--cols C..D", "--json"],
        ("wheel",): ["--sides SIDES", "--limit LIMIT", "--out FILE.svg", "--json"],
        ("verify",): ["--limit LIMIT", "--strategy", "{asc,balanced}",
                      "--factor-stride FACTOR_STRIDE", "--json"],
        ("bench",): ["--limit LIMIT", "--json"],
        ("density",): ["--limit LIMIT", "--json"],
    }

    @pytest.mark.parametrize("command", list(HELP), ids=lambda c: " ".join(c) or "qprime")
    def test_help_names_every_option(self, capsys, command):
        code, out, err = run(capsys, *command, "--help")
        assert code == 0
        assert err == ""
        assert out.startswith(" ".join(("usage: qprime", *command)) + " [-h]")
        assert "-h, --help" in out
        for name in self.HELP[command]:
            assert name in out, name

    # main, which reads a plain argv itself and otherwise builds only the
    # subparser of the first command argv names, against argparse alone with
    # all seven subparsers built, each run in a fresh process at COLUMNS=80.
    # They are compared with each other, not with a stored text, since
    # argparse's wording differs between Python versions.
    PARSER_PROBE = """
import sys
from quasiprime import shell
if sys.argv[1] == "whole":
    build = shell.build_parser
    shell.build_parser = lambda *commands: build(*shell.COMMANDS)
    shell._read = lambda argv: None
sys.exit(shell.main(sys.argv[2:]))
"""
    # argv, and the exit code that both parsers give it
    USAGE = {
        **{" ".join((*command, "--help")): 0 for command in HELP},
        "": 2,
        "frob": 2,
        "prime": 2,
        "prime 5 6": 2,
        "prime x": 2,
        "factor 5 --bogus": 2,
        "verify --limit 1000 --strategy up": 2,
        "--json prime 5": 2,
        "-h prime": 0,
        "frob --help": 2,
        "--json": 2,
    }

    @pytest.mark.parametrize("argv", list(USAGE), ids=lambda argv: argv or "qprime")
    def test_help_and_usage_match_the_whole_parser(self, argv):
        env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
        lazy, whole = (
            subprocess.run([sys.executable, "-c", self.PARSER_PROBE, parser, *argv.split()],
                           env=env, capture_output=True, text=True)
            for parser in ("lazy", "whole")
        )
        assert (lazy.returncode, lazy.stdout, lazy.stderr) == (whole.returncode, whole.stdout, whole.stderr)
        assert lazy.returncode == self.USAGE[argv]
        assert (lazy.stderr if lazy.returncode else lazy.stdout).startswith("usage: qprime")



# Each command's options, each with a value it accepts (None for a flag), and
# how many N it takes, written out here rather than read off the parser.
DECLARED = {
    "prime": ({"--strategy": "balanced", "--quiet": None, "--json": None}, 1),
    "factor": ({"--json": None}, 1),
    "qgrid": ({"--rows": "1..3", "--cols": "97", "--json": None}, 0),
    "wheel": ({"--sides": "97", "--limit": "97", "--out": "x", "--json": None}, 0),
    "verify": ({"--limit": "97", "--strategy": "asc", "--factor-stride": "97", "--json": None}, 0),
    "bench": ({"--limit": "97", "--json": None}, 0),
    "density": ({"--limit": "97", "--json": None}, 0),
}
# Values that pass or fail each type and choice, and words that only argparse reads.
VALUES = ["97", "-5", "x", "1..3", "3..x", "asc", "balanced", "up"]
DECLINED = ["--js", "--strategy=asc", "--", "-h"]


@st.composite
def command_lines(draw, commands=tuple(DECLARED)):
    """A command's argv: each option absent, once or twice, with a value it
    accepts or any of VALUES, one N too few or too many now and then, in any
    order, and now and then a declined word."""
    command = draw(st.sampled_from(commands))
    options, n_count = DECLARED[command]
    units = []
    for option, accepted in options.items():
        for _ in range(draw(st.integers(0, 2))):
            value = [] if accepted is None else [draw(st.just(accepted) | st.sampled_from(VALUES))]
            units.append([option, *value])
    for _ in range(draw(st.sampled_from([n_count] * 4 + [max(n_count - 1, 0), n_count + 1]))):
        units.append([draw(st.just("97") | st.sampled_from(VALUES))])
    words = [word for unit in draw(st.permutations(units)) for word in unit]
    if draw(st.integers(0, 3)) == 0:
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(DECLINED)))
    return [command, *words]


# Where the reader reads an argv, it reads what argparse reads.
@given(command_lines())
@example(["prime", "97", "--strategy", "balanced", "--json"])
@example(["factor", "--json", "97"])
@example(["qgrid", "--cols", "97", "--rows", "1..3", "--rows", "97"])
@example(["wheel", "--out", "x", "--limit", "97", "--sides", "97"])
@example(["wheel", "--out", "--js", "--limit", "97"])
@example(["verify", "--factor-stride", "97", "--limit", "97", "--strategy", "balanced"])
@example(["bench", "--limit", "97"])
@example(["density", "--json", "--limit", "97", "--json"])
@settings(max_examples=400, deadline=None)
def test_the_reader_reads_what_argparse_reads(argv):
    read = shell._read(argv)
    if read is not None:
        try:
            parsed = shell.build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which the reader read")
        assert vars(read) == vars(parsed)


def test_the_reader_refuses_an_action_it_cannot_mirror():
    with pytest.raises(TypeError, match=r"^the reader has no action 'count'$"):
        shell._Reader().add_argument("--verbose", action="count")


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# prime and factor answer alike with the reader and with argparse alone: the
# same exit code, stdout and stderr.
@given(command_lines(("prime", "factor")))
@example(["prime", "--strategy", "up", "97"])
@example(["factor", "-5"])
@example(["prime", "97", "--js"])
@example(["factor", "9223372036854775808"])
@settings(max_examples=200, deadline=None)
def test_main_answers_alike_with_and_without_the_reader(argv):
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with_reader = run_main(argv)
        with mock.patch.object(shell, "_read", return_value=None):
            assert run_main(argv) == with_reader

class TestRegionFormatting:
    def test_header_and_rows(self):
        text = shell.format_region_text([5, 7], [5, 7], [[25, 35], [35, 49]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["5", "7"]
        assert lines[2].endswith("25 35")
        assert lines[3].endswith("35 49")
