"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

import run

sys.path.insert(0, str(run.SRC))
import quasiprime  # noqa: E402
import quasiprime.shell  # noqa: E402

EXACT = ("pipeline.rejected.", "pipeline.decided_by.", "pipeline.prefilter_pass_ratio")


def bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), *args],
        capture_output=True, text=True, cwd=run.ROOT, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_is_correct(workload):
    code, result = bench("--workload", workload, "--seed", "7", "--seconds", "2", "--trace", "0")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {
        "setup_s", "cli_ms_p50", "cli_ms_p90", "scalar_us_p50", "scalar_ms_p99", "scalar_ops_per_s",
        "balanced_us_p50", "balanced_ms_p90", "verify_n_per_s", "density_n_per_s", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_exact_counts_repeat_across_runs():
    runs = [bench("--workload", "cli", "--seed", str(seed), "--seconds", "2", "--trace", "1") for seed in (1, 1, 2)]
    exact = [{k: v["value"] for k, v in r["metrics"].items() if k.startswith(EXACT)} for _, r in runs]
    assert all(code == 0 for code, _ in runs)
    assert len(exact[0]) == 4 + 6 + 1
    assert exact[0] == exact[1] == exact[2]
    assert exact[0]["pipeline.rejected.NotPrimeModulus"] == 0
    assert exact[0]["pipeline.prefilter_pass_ratio"] == pytest.approx(4 / 15, abs=1e-4)


def _program(**overrides):
    return SimpleNamespace(**{**vars(quasiprime), **overrides})


def _says_prime_above_grid(n, strategy=None):
    """Every n that reaches the grid stage is called prime, like a classifier skipping the grid."""
    verdict = quasiprime.is_prime(n, strategy or quasiprime.SearchStrategy.ASCENDING_SCAN)
    if verdict.deciding_stage is quasiprime.Stage.GRID_SEARCH:
        return quasiprime.PrimalityVerdict(n, quasiprime.VerdictKind.PRIME, None, verdict.deciding_stage, verdict.strategy)
    return verdict


def _drops_last_factor(n):
    factors = quasiprime.full_factorize(n)
    return factors[:-1] if len(factors) > 1 else factors


def _injected_run(capsys, program) -> tuple[int, dict]:
    code = run.main(["--workload", "cli", "--seed", "3", "--seconds", "1"], qp=program)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_classifier_fails_the_run(capsys):
    program = _program(
        is_prime=_says_prime_above_grid,
        verify_range=partial(quasiprime.verify_range, classify=_says_prime_above_grid),
    )
    code, result = _injected_run(capsys, program)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_wrong_factorizer_fails_the_run(capsys):
    program = _program(
        full_factorize=_drops_last_factor,
        verify_range=partial(quasiprime.verify_range, factorize=_drops_last_factor),
    )
    code, result = _injected_run(capsys, program)
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_outside_a_checkout_exits_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "tracing.py", "yardstick.py", "reference.py"):
        (tmp_path / "perfbench" / name).write_text(Path(run.__file__).with_name(name).read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
