"""CLI, report rendering, benchmark harness, and the SVG wheel emitter.

Subcommands: prime, factor, qgrid, wheel, verify, bench, density.  Every
command renders text by default and JSON under --json.  Exit codes:
0 success (quiet prime mode: 0 = prime, 1 = composite), 2 usage error,
3 internal error.  Verify exits 1 when mismatches exist.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import oracle, pipeline, qgrid
from .errors import ConsistencyError, ResourceLimitError
from .numerics import modulus_of, prime_moduli
from .pipeline import SearchStrategy, Stage, VerdictKind

WHEEL_LIMIT_CAP = 10**4
BENCH_LIMIT_CAP = 10**7
MAX_LIMIT_ENV = "QP_MAX_LIMIT"


# --------------------------------------------------------------------------
# wheel rendering


@dataclass(frozen=True)
class WheelRender:
    """Everything the SVG emitter needs: geometry plus verified primality."""

    sides: int
    limit: int
    highlighted: frozenset[int]
    primes: frozenset[int]

    @property
    def rings(self) -> int:
        return math.ceil(self.limit / self.sides)


def build_wheel_render(sides: int, limit: int) -> WheelRender:
    """Assemble a render, cross-checking the pipeline against the sieve.

    Aborts with ConsistencyError if the two ever disagree, or if any prime
    above 3 sits off the highlighted spokes.
    """
    highlighted = prime_moduli(sides)
    if limit < 1:
        raise ValueError(f"wheel limit must be positive, got {limit}")
    if limit > WHEEL_LIMIT_CAP:
        raise ResourceLimitError(f"wheel limit {limit} exceeds render cap {WHEEL_LIMIT_CAP}")
    table = oracle.sieve(max(limit, 2))
    primes = set()
    for n in range(2, limit + 1):
        sieve_says = table.is_prime(n)
        if pipeline.is_prime(n).is_prime != sieve_says:
            raise ConsistencyError(f"pipeline and sieve disagree at {n}")
        if sieve_says:
            if n > 3 and modulus_of(n, sides) not in highlighted:
                raise ConsistencyError(f"prime {n} landed off the prime moduli")
            primes.add(n)
    return WheelRender(sides, limit, highlighted, frozenset(primes))


def emit_wheel_svg(render: WheelRender) -> str:
    """Deterministic SVG: concentric numbered rings, primes marked,
    prime-moduli spokes highlighted.  Identical input gives identical bytes."""
    sides, limit = render.sides, render.limit
    rings = render.rings
    r0, step = 30.0, 16.0
    outer = r0 + rings * step
    margin = 14.0
    size = 2 * (outer + margin)
    cx = cy = size / 2

    def point(ring: int, spoke: int, radius_nudge: float = 0.0) -> tuple[float, float]:
        angle = math.radians(-90.0 + (spoke - 1) * 360.0 / sides)
        r = r0 + ring * step + radius_nudge
        return cx + r * math.cos(angle), cy + r * math.sin(angle)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size:.2f}" height="{size:.2f}" viewBox="0 0 {size:.2f} {size:.2f}">',
        f"<title>{sides}-wheel of 1..{limit}</title>",
        f'<rect width="{size:.2f}" height="{size:.2f}" fill="#ffffff"/>',
    ]
    out.append('<g fill="none">')
    for spoke in range(1, sides + 1):
        x1, y1 = point(0, spoke, -step / 2)
        x2, y2 = point(rings, spoke, step / 2)
        if spoke in render.highlighted:
            style = 'class="spoke highlighted" stroke="#e07a00" stroke-width="1.6"'
        else:
            style = 'class="spoke" stroke="#e6e6e6" stroke-width="0.8"'
        out.append(f'<line {style} x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}"/>')
    for ring in range(1, rings + 1):
        out.append(
            f'<circle class="ring" stroke="#d9d9d9" stroke-width="0.6" '
            f'cx="{cx:.2f}" cy="{cy:.2f}" r="{r0 + ring * step:.2f}"/>'
        )
    out.append("</g>")
    out.append('<g font-family="monospace" font-size="7.5" text-anchor="middle">')
    for n in range(1, limit + 1):
        ring = (n - 1) // sides + 1
        spoke = (n - 1) % sides + 1
        x, y = point(ring, spoke)
        marker = None
        if n in render.primes:
            if n > 3 and spoke not in render.highlighted:
                raise ConsistencyError(f"prime {n} would be drawn off the highlighted spokes")
            marker = "#1b9e77" if n > 3 else "#7570b3"  # 2 and 3 sit off the pattern
        if marker:
            cls = "prime" if n > 3 else "offpattern"
            out.append(f'<circle class="{cls}" fill="{marker}" cx="{x:.2f}" cy="{y:.2f}" r="6.4"/>')
            fill = "#ffffff"
        else:
            fill = "#444444"
        out.append(f'<text x="{x:.2f}" y="{y + 2.4:.2f}" fill="{fill}">{n}</text>')
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# benchmark harness


@dataclass
class BenchReport:
    """Timing comparison of the staged pipeline against naive trial division.

    Both timings are informational; no speedup figure is asserted anywhere.
    """

    limit: int
    pipeline_seconds: float
    trial_division_seconds: float
    primes_found: int
    survivors: int
    fraction: float
    per_stage_rejections: dict[Stage, int]
    notes: str

    def to_json_dict(self) -> dict:
        return {
            "limit": self.limit,
            "pipeline_seconds": self.pipeline_seconds,
            "trial_division_seconds": self.trial_division_seconds,
            "primes_found": self.primes_found,
            "survivors": self.survivors,
            "fraction": self.fraction,
            "per_stage_rejections": {
                s.value: self.per_stage_rejections[s] for s in pipeline.FILTER_STAGES
            },
            "notes": self.notes,
        }


def bench(limit: int, strategy: SearchStrategy = SearchStrategy.ASCENDING_SCAN) -> BenchReport:
    """Time staged primality and trial division over [2, limit]."""
    if limit > BENCH_LIMIT_CAP:
        raise ResourceLimitError(f"bench limit {limit} exceeds cap {BENCH_LIMIT_CAP}")
    if limit < 100:
        raise ValueError(f"bench needs limit >= 100, got {limit}")

    is_prime = pipeline.is_prime
    t0 = time.perf_counter()
    pipeline_count = sum(1 for n in range(2, limit + 1) if is_prime(n, strategy).is_prime)
    pipeline_seconds = time.perf_counter() - t0

    trial = oracle.trial_is_prime
    t0 = time.perf_counter()
    trial_count = sum(1 for n in range(2, limit + 1) if trial(n))
    trial_seconds = time.perf_counter() - t0

    if pipeline_count != trial_count:
        raise ConsistencyError(
            f"pipeline found {pipeline_count} primes, trial division {trial_count}"
        )
    density = pipeline.survivor_density(limit)
    return BenchReport(
        limit=limit,
        pipeline_seconds=pipeline_seconds,
        trial_division_seconds=trial_seconds,
        primes_found=pipeline_count,
        survivors=density.survivors,
        fraction=float(density.fraction),
        per_stage_rejections=dict(density.per_stage_rejections),
        notes="wall-clock timings on this machine only; no speedup is asserted",
    )


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


def _env_limit_cap() -> int | None:
    raw = os.environ.get(MAX_LIMIT_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_LIMIT_ENV} must be an integer, got {raw!r}")


def _check_env_cap(limit: int) -> None:
    cap = _env_limit_cap()
    if cap is not None and limit > cap:
        raise ValueError(f"limit {limit} exceeds {MAX_LIMIT_ENV}={cap}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprime",
        description="Wheel, digital-root and quasi-prime-grid primality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("prime", help="staged primality verdict for N")
    p.add_argument("n", type=int)
    p.add_argument("--strategy", choices=[s.value for s in SearchStrategy], default="asc")
    p.add_argument("--quiet", action="store_true", help="no output; exit 0 prime, 1 composite")
    add_json(p)

    p = sub.add_parser("factor", help="full prime factorization of N")
    p.add_argument("n", type=int)
    add_json(p)

    p = sub.add_parser("qgrid", help="display a rectangular region of the grid")
    p.add_argument("--rows", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--cols", type=_parse_range, required=True, metavar="C..D")
    add_json(p)

    p = sub.add_parser("wheel", help="render an s-sided wheel to SVG")
    p.add_argument("--sides", type=int, default=24)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE.svg")
    add_json(p)

    p = sub.add_parser("verify", help="check the pipeline against the sieve oracle")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--strategy", choices=[s.value for s in SearchStrategy], default="asc")
    p.add_argument("--factor-stride", type=int, default=101,
                   help="also cross-factorize every k-th n (0 disables)")
    add_json(p)

    p = sub.add_parser("bench", help="time the pipeline against trial division")
    p.add_argument("--limit", type=int, required=True)
    add_json(p)

    p = sub.add_parser("density", help="prefilter survivor fraction up to a limit")
    p.add_argument("--limit", type=int, required=True)
    add_json(p)

    return parser


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
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
    _check_env_cap(args.limit)
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
    _check_env_cap(args.limit)
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
    _check_env_cap(args.limit)
    report = bench(args.limit)
    text = (
        f"limit {report.limit}: staged pipeline {report.pipeline_seconds:.3f}s, "
        f"trial division {report.trial_division_seconds:.3f}s, "
        f"{report.primes_found} primes, survivor fraction {report.fraction:.4f}\n"
        f"rejections: "
        + ", ".join(f"{s.value}={report.per_stage_rejections[s]}" for s in pipeline.FILTER_STAGES)
        + f"\nnote: {report.notes}"
    )
    _emit(report.to_json_dict(), text, args.json)
    return 0


def _cmd_density(args) -> int:
    _check_env_cap(args.limit)
    report = pipeline.survivor_density(args.limit)
    text = (
        f"limit {report.limit}: {report.survivors} survivors, "
        f"fraction {float(report.fraction):.6f} (4/15 ≈ 0.266667)\n"
        f"rejections: "
        + ", ".join(f"{s.value}={report.per_stage_rejections[s]}" for s in pipeline.FILTER_STAGES)
    )
    _emit(report.to_json_dict(), text, args.json)
    return 0


_COMMANDS = {
    "prime": _cmd_prime,
    "factor": _cmd_factor,
    "qgrid": _cmd_qgrid,
    "wheel": _cmd_wheel,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
    "density": _cmd_density,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
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
