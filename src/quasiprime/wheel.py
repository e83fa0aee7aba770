"""The SVG wheel emitter behind `qprime wheel`, checked against the sieve.

Only the wheel command imports it, so no other command compiles it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import oracle
from .errors import ConsistencyError, require_limit
from .numerics import modulus_of, prime_moduli

WHEEL_LIMIT_CAP = 10**4


class WheelRender(namedtuple("WheelRender", "sides limit highlighted primes")):
    """Everything the SVG emitter needs: geometry plus verified primality."""

    __slots__ = ()

    @property
    def rings(self) -> int:
        return math.ceil(self.limit / self.sides)


def build_wheel_render(sides: int, limit: int) -> WheelRender:
    """Assemble a render, cross-checking the pipeline against the sieve.

    Aborts with ConsistencyError if the two ever disagree, or if any prime
    above 3 sits off the highlighted spokes.
    """
    highlighted = prime_moduli(sides)
    require_limit(limit, "wheel limit", 1, WHEEL_LIMIT_CAP)
    report = oracle.verify_range(max(limit, 2), factor_stride=0)
    if report.mismatches:
        raise ConsistencyError(f"pipeline and sieve disagree at {report.mismatches[0][0]}")
    primes = [p for p in oracle.sieve(report.limit).primes() if p <= limit]
    for p in primes:
        if p > 3 and modulus_of(p, sides) not in highlighted:
            raise ConsistencyError(f"prime {p} landed off the prime moduli")
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
