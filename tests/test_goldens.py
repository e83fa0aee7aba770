"""Every subcommand's JSON on small fixed inputs matches its golden, byte for byte.

Each golden in tests/goldens/ holds the stdout of one run.  bench's two
timings change from run to run, so they are taken out before the
comparison.  wheel writes its SVG to a relative path, so its payload names
the same file on every run, and the SVG's bytes match wheel-48.svg.
"""

import json
from pathlib import Path

import pytest

from quasiprime.shell import main

GOLDENS = Path(__file__).resolve().parent / "goldens"

RUNS = {
    **{
        f"prime-{n}-{strategy}": ["prime", str(n), "--strategy", strategy]
        for n in (91, 97, 2, 1)
        for strategy in ("asc", "balanced")
    },
    "factor-360": ["factor", "360"],
    "factor-9223372036854775783": ["factor", str(2**63 - 25)],
    "qgrid": ["qgrid", "--rows", "1..3", "--cols", "1..4"],
    "wheel": ["wheel", "--limit", "48", "--out", "wheel.svg"],
    "verify": ["verify", "--limit", "1000"],
    "bench": ["bench", "--limit", "100"],
    "density": ["density", "--limit", "1000"],
}

TIMINGS = ("pipeline_seconds", "trial_division_seconds")


@pytest.mark.parametrize("name", list(RUNS))
def test_json_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*RUNS[name], "--json"]) == 0
    out = capsys.readouterr().out
    if name == "bench":
        payload = json.loads(out)
        for key in TIMINGS:
            assert payload.pop(key) >= 0
        out = json.dumps(payload) + "\n"
    assert out == (GOLDENS / f"{name}.json").read_text(encoding="utf-8")
    if name == "wheel":
        assert (tmp_path / "wheel.svg").read_bytes() == (GOLDENS / "wheel-48.svg").read_bytes()
