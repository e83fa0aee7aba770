"""Expected answers for a benchmark run, computed independently with sympy.

Runs as its own process so that sympy never shares memory or time with the
process being measured.  Reads a JSON job on stdin and writes the answers
as JSON on stdout:

    job     {"numbers": [n, ...], "primepi": [x, ...], "coprime30": [x, ...], "axis": k}
    answers {"numbers": {"n": {"prime": bool, "factors": [...], "balanced": a | null}},
             "primepi": {"x": pi(x)}, "coprime30": {"x": count}, "axis": [first k axis values]}

``balanced`` is given for n coprime to 6: the largest divisor a of n with
1 < a <= sqrt(n), which makes (a, n / a) the divisor pair nearest sqrt(n).
"""

from __future__ import annotations

import json
import sys
from math import gcd

import sympy


def number_facts(n: int) -> dict:
    factors = sorted(p for p, e in sympy.factorint(n).items() for _ in range(e))
    facts = {"prime": bool(sympy.isprime(n)), "factors": factors, "balanced": None}
    if gcd(n, 6) == 1:
        facts["balanced"] = max((d for d in sympy.divisors(n) if 1 < d and d * d <= n), default=None)
    return facts


def coprime_to_30(x: int) -> int:
    """Count of 1 <= k <= x with gcd(k, 30) = 1."""
    full, rest = divmod(x, 30)
    return 8 * full + sum(1 for k in range(1, rest + 1) if gcd(k, 30) == 1)


def axis(count: int) -> list[int]:
    """The first ``count`` integers >= 5 that are coprime to 6, ascending."""
    values, v = [], 5
    while len(values) < count:
        if gcd(v, 6) == 1:
            values.append(v)
        v += 1
    return values


def main() -> int:
    job = json.load(sys.stdin)
    answers = {
        "numbers": {str(n): number_facts(n) for n in job["numbers"]},
        "primepi": {str(x): int(sympy.primepi(x)) for x in job["primepi"]},
        "coprime30": {str(x): coprime_to_30(x) for x in job["coprime30"]},
        "axis": axis(job["axis"]),
    }
    json.dump(answers, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
