#!/usr/bin/env bash
# The installed qprime script, one fresh process per check, then verify past
# the table cap against the sieve.  Run from the repository root, with
# `qprime` on PATH:
#
#     bash -eu ci/check_cli.sh
#
# -e stops at the first non-zero exit; where a check expects a non-zero exit
# the code is caught, since a bare || would pass an exit of 0.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Each command's subparser, handler and module load only when argv names it,
# so a fresh process per command is where one that fails to build or import
# shows.
qprime --help
for command in prime factor qgrid wheel verify bench density; do
    qprime "$command" --help
done

# The wheel emitter, the bench harness and the other commands' handlers are
# imported only by their own commands, and the splitter only by an n above the
# table cap with no axis prime up to 1531 as a factor: 10**9 + 7 is prime, and
# 1000036000099 = 1000003 * 1000033.  The JSON is written without json, so
# two lines are compared byte for byte.
qprime prime 97 --quiet
test "$(qprime prime 97 --json)" = '{"n": 97, "verdict": "prime", "witness": null, "stage": "GridSearch", "strategy": "asc"}'

# A plain argv is read without argparse; these go through argparse's path
# and answer as a plain one does: --opt=value, an abbreviation, and a value
# error, whose usage line is the top-level one.
qprime prime --strategy=balanced 91 --json | cmp - tests/goldens/prime-91-balanced.json
test "$(qprime prime --js 97)" = "$(qprime prime 97 --json)"
code=0; qprime prime 9223372036854775808 2>"$tmp/cap.err" || code=$?; test "$code" -eq 2
printf '%s\n' 'error: 9223372036854775808 exceeds the 64-bit cap' \
    'usage: qprime [-h] {prime,factor,qgrid,wheel,verify,bench,density} ...' | cmp - "$tmp/cap.err"
qprime factor 360 --json
qprime prime 1000000007 --quiet
test "$(qprime factor 1000036000099 --json)" = '{"n": 1000036000099, "factors": [1000003, 1000033], "outside_wheel": []}'
qprime qgrid --rows 1..3 --cols 1..4
qprime wheel --limit 48 --out "$tmp/w.svg"
qprime verify --limit 1000
qprime bench --limit 100
qprime density --limit 1000

# The grid and prefilter names that no verdict runs load from explore, which
# only the qgrid, density and bench commands import, so the answers of qgrid
# and density are compared with their goldens byte for byte too.
qprime qgrid --rows 1..3 --cols 1..4 --json | cmp - tests/goldens/qgrid.json
qprime density --limit 1000 --json | cmp - tests/goldens/density.json

# The wheel's SVG, written above, matches its golden byte for byte.
cmp "$tmp/w.svg" tests/goldens/wheel-48.svg

# Each range command refuses one size out of its bounds with exit 2, and
# density a limit above QP_MAX_LIMIT.
code=0; qprime density --limit 99 || code=$?; test "$code" -eq 2
code=0; qprime wheel --limit 0 --out "$tmp/w0.svg" || code=$?; test "$code" -eq 2
code=0; qprime verify --limit 1 || code=$?; test "$code" -eq 2
code=0; qprime bench --limit 10000001 || code=$?; test "$code" -eq 2
code=0; QP_MAX_LIMIT=500 qprime density --limit 1000 || code=$?; test "$code" -eq 2

# Density reports 10**18 in closed form, compared with its exact counts: 4/15
# survive, and the digital-root stage takes the odd multiples of 3 that end
# in 1, 3, 7 or 9.
expected='{"limit": 1000000000000000000, "survivors": 266666666666666666, "fraction": 0.26666666666666666, "per_stage_rejections": {"NotOdd": 500000000000000000, "LastDigit": 100000000000000000, "DigitalRoot369": 133333333333333334, "NotPrimeModulus": 0}}'
test "$(qprime density --limit 1000000000000000000 --json)" = "$expected"

# Every n past TABLE_CAP = 2,347,023 up to 1e7 meets an oracle that needs no
# sympy, under each strategy (~30-35 s each).  Both run one order there, so
# every step of it meets the sieve: the gcd with the axis primes up to 1531
# and the table lookup of its least prime, for every n with a least factor in
# (300, 1531] too; the scan of the axis primes for a gcd above the cap, which
# 191,934 of the 1,749,250 n coprime to 210 reach (11.0 %), checked exactly
# nowhere else; the Fermat stage's window, Miller-Rabin on one hashed base,
# and the stage's reach past the window from n = 51**4 ~ 6.8e6.  Larger n are
# checked against sympy in tests/test_large_n.py.
qprime verify --limit 10000000 --strategy asc
qprime verify --limit 10000000 --strategy balanced
