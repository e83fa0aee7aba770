"""The qgrid, verify and density commands of `qprime`: their arguments,
handlers and text.

Only these three commands load it, and bench for the rejection line, so
`prime` and `factor` compile none of it.
"""

from __future__ import annotations

from .pipeline import SearchStrategy
from .qgrid import axis_value


def format_region_text(row_axis: list[int], col_axis: list[int], values: list[list[int]]) -> str:
    width = max(len(str(v)) for row in values for v in row)
    width = max(width, max(len(str(v)) for v in row_axis + col_axis))
    head = " " * (width + 2) + " ".join(str(c).rjust(width) for c in col_axis)
    lines = [head, " " * (width + 2) + "-" * (len(head) - width - 2)]
    for label, row in zip(row_axis, values):
        lines.append(
            str(label).rjust(width) + " |" + " ".join(str(v).rjust(width) for v in row)
        )
    return "\n".join(lines)


def _format_rejections_text(counts: dict[str, int]) -> str:
    return "rejections: " + ", ".join(f"{name}={count}" for name, count in counts.items())


def _parse_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' (or a bare 'A') into an inclusive pair."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    return a, b


def declare_qgrid(p):
    p.add_argument("--rows", type=_parse_range, required=True, metavar="A..B")
    p.add_argument("--cols", type=_parse_range, required=True, metavar="C..D")
    return _cmd_qgrid


def declare_verify(p):
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--strategy", choices=[s.value for s in SearchStrategy], default="asc")
    p.add_argument("--factor-stride", type=int, default=101,
                   help="also cross-factorize every k-th n (0 disables)")
    return _cmd_verify


def declare_density(p):
    p.add_argument("--limit", type=int, required=True)
    return _cmd_density


def _cmd_qgrid(args) -> tuple:
    from .explore import region

    (i_lo, i_hi), (j_lo, j_hi) = args.rows, args.cols
    values = region(i_lo, i_hi, j_lo, j_hi)
    payload = {
        "rows": [i_lo, i_hi],
        "cols": [j_lo, j_hi],
        "row_axis": [axis_value(i) for i in range(i_lo, i_hi + 1)],
        "col_axis": [axis_value(j) for j in range(j_lo, j_hi + 1)],
        "values": values,
    }
    return 0, payload, format_region_text(payload["row_axis"], payload["col_axis"], values)


def _cmd_verify(args) -> tuple:
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
    return (0 if report.ok else 1), report.to_json_dict(), text


def _cmd_density(args) -> tuple:
    from .explore import survivor_density

    report = survivor_density(args.limit)
    payload = report.to_json_dict()
    text = (
        f"limit {report.limit}: {report.survivors} survivors, "
        f"fraction {payload['fraction']:.6f} (4/15 ≈ 0.266667)\n"
        f"{_format_rejections_text(payload['per_stage_rejections'])}"
    )
    return 0, payload, text
