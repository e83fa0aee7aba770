"""CLI and report rendering for the `qprime` subcommands.

Subcommands: prime, factor, qgrid, wheel, verify, bench, density.  Every
command renders text by default and JSON under --json.  Exit codes:
0 success (quiet prime mode: 0 = prime, 1 = composite), 2 usage error,
3 internal error, 141 (128 + SIGPIPE) when stdout's reader has gone, as in
`qprime ... | head -1`.  Verify exits 1 when mismatches exist.

Each qprime process compiles what it imports, so a command loads only what
it runs: the wheel emitter and the bench harness are modules of their own,
which only `wheel` and `bench` load (shell serves their names on first
access); the sieve oracle loads for wheel, verify and bench; json for --json.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import pipeline, qgrid
from .errors import ConsistencyError
from .pipeline import SearchStrategy, VerdictKind

MAX_LIMIT_ENV = "QP_MAX_LIMIT"

# Names that moved to the modules of the two commands that use them, served
# on first access (PEP 562), so that importing shell compiles neither.
_MOVED = {
    **dict.fromkeys(("WheelRender", "build_wheel_render", "emit_wheel_svg", "WHEEL_LIMIT_CAP"), "wheel"),
    **dict.fromkeys(("BenchReport", "bench", "BENCH_LIMIT_CAP"), "bench"),
}


def __getattr__(name: str):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MOVED[name]}", __package__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MOVED})


# --------------------------------------------------------------------------
# text rendering helpers


def format_region_text(i_lo: int, i_hi: int, j_lo: int, j_hi: int, values: list[list[int]]) -> str:
    row_axis = [qgrid.axis_value(i) for i in range(i_lo, i_hi + 1)]
    col_axis = [qgrid.axis_value(j) for j in range(j_lo, j_hi + 1)]
    width = max(len(str(v)) for row in values for v in row)
    width = max(width, max(len(str(v)) for v in row_axis + col_axis))
    head = " " * (width + 2) + " ".join(str(c).rjust(width) for c in col_axis)
    lines = [head, " " * (width + 2) + "-" * (len(head) - width - 2)]
    for label, row in zip(row_axis, values):
        lines.append(
            str(label).rjust(width) + " |" + " ".join(str(v).rjust(width) for v in row)
        )
    return "\n".join(lines)


def _format_verdict_text(v: pipeline.PrimalityVerdict) -> str:
    if v.kind is VerdictKind.INVALID:
        return f"{v.n} is neither prime nor composite"
    if v.kind is VerdictKind.PRIME_SPECIAL_SMALL:
        return f"{v.n} is prime (2 and 3 sit outside the wheel pattern)"
    if v.kind is VerdictKind.PRIME:
        return f"{v.n} is prime (decided by {v.deciding_stage.value})"
    if isinstance(v.witness, qgrid.GridCoordinate):
        a, b = v.witness.axis_values
        proof = f"{a} × {b}"
    else:
        proof = f"divisible by {v.witness}"
    return f"{v.n} is composite: {proof} (decided by {v.deciding_stage.value})"


def _format_factors_text(n: int, factors: list[int]) -> str:
    runs: list[str] = []
    for p in sorted(set(factors)):
        k = factors.count(p)
        runs.append(f"{p}^{k}" if k > 1 else str(p))
    off = [p for p in factors if p in (2, 3)]
    tail = f"  (factors {off} lie off the quasi-prime wheel)" if off else ""
    return f"{n} = " + " × ".join(runs) + tail


# --------------------------------------------------------------------------
# CLI


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' (or a bare 'A') into an inclusive pair."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    return a, b


def _check_env_cap(limit: int) -> None:
    raw = os.environ.get(MAX_LIMIT_ENV)
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_LIMIT_ENV} must be an integer, got {raw!r}")
    if limit > cap:
        raise ValueError(f"limit {limit} exceeds {MAX_LIMIT_ENV}={cap}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprime",
        description="Wheel, digital-root and quasi-prime-grid primality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, run):
        """Give a subcommand its --json flag and the handler that runs it."""
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.set_defaults(run=run)

    p = sub.add_parser("prime", help="staged primality verdict for N")
    p.add_argument("n", type=int)
    p.add_argument("--strategy", choices=[s.value for s in SearchStrategy], default="asc")
    p.add_argument("--quiet", action="store_true", help="no output; exit 0 prime, 1 composite")
    finish(p, _cmd_prime)

    p = sub.add_parser("factor", help="full prime factorization of N")
    p.add_argument("n", type=int)
    finish(p, _cmd_factor)

    p = sub.add_parser("qgrid", help="display a rectangular region of the grid")
    p.add_argument("--rows", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--cols", type=_parse_range, required=True, metavar="C..D")
    finish(p, _cmd_qgrid)

    p = sub.add_parser("wheel", help="render an s-sided wheel to SVG")
    p.add_argument("--sides", type=int, default=24)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE.svg")
    finish(p, _cmd_wheel)

    p = sub.add_parser("verify", help="check the pipeline against the sieve oracle")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--strategy", choices=[s.value for s in SearchStrategy], default="asc")
    p.add_argument("--factor-stride", type=int, default=101,
                   help="also cross-factorize every k-th n (0 disables)")
    finish(p, _cmd_verify)

    p = sub.add_parser("bench", help="time the pipeline against trial division")
    p.add_argument("--limit", type=int, required=True)
    finish(p, _cmd_bench)

    p = sub.add_parser("density", help="prefilter survivor fraction up to a limit")
    p.add_argument("--limit", type=int, required=True)
    finish(p, _cmd_density)

    return parser


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(payload, sort_keys=False))
    else:
        print(text)


def _cmd_prime(args) -> int:
    verdict = pipeline.is_prime(args.n, SearchStrategy(args.strategy))
    if args.quiet:
        if verdict.kind is VerdictKind.INVALID:
            return 2
        return 0 if verdict.is_prime else 1
    _emit(verdict.to_json_dict(), _format_verdict_text(verdict), args.json)
    return 0


def _cmd_factor(args) -> int:
    factors = pipeline.full_factorize(args.n)
    payload = {
        "n": args.n,
        "factors": factors,
        "outside_wheel": [p for p in factors if p in (2, 3)],
    }
    _emit(payload, _format_factors_text(args.n, factors), args.json)
    return 0


def _cmd_qgrid(args) -> int:
    (i_lo, i_hi), (j_lo, j_hi) = args.rows, args.cols
    values = qgrid.region(i_lo, i_hi, j_lo, j_hi)
    payload = {
        "rows": [i_lo, i_hi],
        "cols": [j_lo, j_hi],
        "row_axis": [qgrid.axis_value(i) for i in range(i_lo, i_hi + 1)],
        "col_axis": [qgrid.axis_value(j) for j in range(j_lo, j_hi + 1)],
        "values": values,
    }
    _emit(payload, format_region_text(i_lo, i_hi, j_lo, j_hi, values), args.json)
    return 0


def _cmd_wheel(args) -> int:
    from .wheel import build_wheel_render, emit_wheel_svg

    render = build_wheel_render(args.sides, args.limit)
    svg = emit_wheel_svg(render)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:  # a bad --out path is the caller's error, not ours
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    payload = {
        "sides": render.sides,
        "limit": render.limit,
        "rings": render.rings,
        "highlighted_moduli": sorted(render.highlighted),
        "out": args.out,
    }
    text = (
        f"wrote {args.out}: {render.sides}-wheel to {render.limit}, "
        f"{render.rings} rings, spokes {sorted(render.highlighted)} highlighted"
    )
    _emit(payload, text, args.json)
    return 0


def _cmd_verify(args) -> int:
    from . import oracle

    report = oracle.verify_range(
        args.limit,
        strategy=SearchStrategy(args.strategy),
        factor_stride=args.factor_stride,
    )
    text = (
        f"verified [2, {report.limit}] against the sieve: "
        f"{len(report.mismatches)} primality mismatches, "
        f"{len(report.factor_mismatches)} factorization mismatches"
    )
    _emit(report.to_json_dict(), text, args.json)
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    from .bench import bench

    report = bench(args.limit)
    rejections = pipeline.rejections_by_name(report.per_stage_rejections)
    text = (
        f"limit {report.limit}: staged pipeline {report.pipeline_seconds:.3f}s, "
        f"trial division {report.trial_division_seconds:.3f}s, "
        f"{report.primes_found} primes, survivor fraction {report.fraction:.4f}\n"
        f"rejections: "
        + ", ".join(f"{name}={count}" for name, count in rejections.items())
        + f"\nnote: {report.notes}"
    )
    _emit(report.to_json_dict(), text, args.json)
    return 0


def _cmd_density(args) -> int:
    report = pipeline.survivor_density(args.limit)
    rejections = pipeline.rejections_by_name(report.per_stage_rejections)
    text = (
        f"limit {report.limit}: {report.survivors} survivors, "
        f"fraction {float(report.fraction):.6f} (4/15 ≈ 0.266667)\n"
        f"rejections: "
        + ", ".join(f"{name}={count}" for name, count in rejections.items())
    )
    _emit(report.to_json_dict(), text, args.json)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        if hasattr(args, "limit"):  # wheel, verify, bench and density
            _check_env_cap(args.limit)
        code = args.run(args)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit stays quiet too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # domain and resource errors are usage errors
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
