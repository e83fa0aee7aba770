"""CLI and report rendering for the `qprime` subcommands.

Subcommands: prime, factor, qgrid, wheel, verify, bench, density.  Every
command renders text by default and JSON under --json.  Exit codes:
0 success (quiet prime mode: 0 = prime, 1 = composite), 2 usage error,
3 internal error, 141 (128 + SIGPIPE) when stdout's reader has gone, as in
`qprime ... | head -1`.  Verify exits 1 when mismatches exist.

Each qprime process compiles what it imports, so a command loads only what
it runs.  Each command's arguments are declared once, by its
`declare_<command>`, and read two ways.  A plain argv (a command, then
options exactly as declared, each value and N passing its type and
choices, every required option present) is read by a small reader of the
same declarations, without argparse.  argparse parses any other argv (help,
an abbreviation, --opt=value, --, a value or N that starts with -, an
unknown word, a failing value, a missing N or option), so every help text,
usage line, error and exit code is its own.  Its parser registers all
seven commands by name and help line, which is all the top-level usage and
help print, and builds the arguments and handler of only the first command
that argv names (of none when it names none).  shell holds prime's and
factor's; each other command's live in the module that COMMANDS names,
loaded only with it: wheel's in `wheel`, bench's in `bench`, and qgrid's,
verify's and density's in `commands`.  shell serves the names that moved
on first access.  The sieve oracle loads for wheel, verify and bench;
numerics, the digital-root and wheel algebra, for wheel; explore, the
grid and prefilter names that no verdict runs, for qgrid, density and
bench; the splitter for the first n above the table cap with no axis
prime up to 1531 as a factor.

Each handler returns its answer, (exit code, payload, text), and writes
nothing; `main` alone writes it, the payload as JSON under --json and the
text otherwise, so no command's module imports shell.  A payload of None
(prime --quiet) is written as nothing.  The JSON is written here, byte for
byte as json.dumps, for None, bools, ints, finite floats, printable ASCII
strings with no quote or backslash, lists, tuples and dicts with such keys;
json loads only for any other value.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import pipeline
from .errors import ConsistencyError, ResourceLimitError, serve_moved
from .pipeline import SearchStrategy, VerdictKind

MAX_LIMIT_ENV = "QP_MAX_LIMIT"

# Each command's help line, and the module whose `declare_<command>` adds
# its arguments to its subparser and returns its handler.
COMMANDS = {
    "prime": ("staged primality verdict for N", __name__),
    "factor": ("full prime factorization of N", __name__),
    "qgrid": ("display a rectangular region of the grid", ".commands"),
    "wheel": ("render an s-sided wheel to SVG", ".wheel"),
    "verify": ("check the pipeline against the sieve oracle", ".commands"),
    "bench": ("time the pipeline against trial division", ".bench"),
    "density": ("prefilter survivor fraction up to a limit", ".commands"),
}

# Names that moved to the modules of the commands that use them, served on
# first access (PEP 562), so that importing shell compiles none of them.
_MOVED = {
    **dict.fromkeys(("WheelRender", "build_wheel_render", "emit_wheel_svg", "WHEEL_LIMIT_CAP"), "wheel"),
    **dict.fromkeys(("BenchReport", "bench", "BENCH_LIMIT_CAP"), "bench"),
    "format_region_text": "commands",
}
__getattr__, __dir__ = serve_moved(globals(), _MOVED)


# --------------------------------------------------------------------------
# text rendering helpers


def _format_verdict_text(payload: dict) -> str:
    n, kind, stage = payload["n"], payload["verdict"], payload["stage"]
    if kind == VerdictKind.INVALID:
        return f"{n} is neither prime nor composite"
    if kind == VerdictKind.PRIME_SPECIAL_SMALL:
        return f"{n} is prime (2 and 3 sit outside the wheel pattern)"
    if kind == VerdictKind.PRIME:
        return f"{n} is prime (decided by {stage})"
    witness = payload["witness"]  # 2, 3 or a cell's axis pair
    proof = " × ".join(map(str, witness)) if type(witness) is list else f"divisible by {witness}"
    return f"{n} is composite: {proof} (decided by {stage})"


def _format_factors_text(payload: dict) -> str:
    factors = payload["factors"]
    runs: list[str] = []
    for p in sorted(set(factors)):
        k = factors.count(p)
        runs.append(f"{p}^{k}" if k > 1 else str(p))
    off = payload["outside_wheel"]
    tail = f"  (factors {off} lie off the quasi-prime wheel)" if off else ""
    return f"{payload['n']} = " + " × ".join(runs) + tail


# --------------------------------------------------------------------------
# JSON

_INF = float("inf")


def _json(value) -> str:
    """json.dumps(value) with its defaults, written here for the types the
    payloads hold, so that a --json run need not import json: None, bools,
    exact ints, finite floats, strings of printable ASCII with no quote or
    backslash, lists, tuples and dicts with such strings as keys.  Any other
    value, such as a string that needs an escape or a non-finite float, is
    written by json.dumps itself."""
    kind = type(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return repr(value)
    if kind is float:
        if -_INF < value < _INF:
            return repr(value)
    elif kind is str:
        if _plain(value):
            return f'"{value}"'
    elif kind is list or kind is tuple:
        return "[" + ", ".join(map(_json, value)) + "]"
    elif kind is dict and all(type(key) is str and _plain(key) for key in value):
        return "{" + ", ".join(f'"{key}": {_json(item)}' for key, item in value.items()) + "}"
    import json

    return json.dumps(value)


def _plain(text: str) -> bool:
    """Whether json.dumps writes text as it is, between quotes."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


# --------------------------------------------------------------------------
# CLI


def _check_env_cap(limit: int) -> None:
    raw = os.environ.get(MAX_LIMIT_ENV)
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{MAX_LIMIT_ENV} must be an integer, got {raw!r}")
    if limit > cap:
        raise ResourceLimitError(f"limit {limit} exceeds {MAX_LIMIT_ENV}={cap}")


def build_parser(*commands: str):
    """The qprime argparse parser, with the arguments and handlers of
    `commands`.  Every other command is registered by name and help line
    only, and its module is not loaded."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="qprime",
        description="Wheel, digital-root and quasi-prime-grid primality toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name in commands:
            _declare(name, p)
    return parser


def _declare(command: str, p) -> None:
    """Add `command`'s arguments and handler to p, a subparser or a _Reader."""
    from importlib import import_module

    run = getattr(import_module(COMMANDS[command][1], __package__), f"declare_{command}")(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(run=run)


class _Reader:
    """One command's declarations, recorded as argparse's subparser takes
    them, and a parser for the argv in which every word is plain."""

    def __init__(self) -> None:
        self.options: dict[str, tuple] = {}  # option string -> (dest, type, choices, takes a value)
        self.positionals: list[tuple] = []  # (dest, type)
        self.defaults: dict[str, object] = {}
        self.required: set[str] = set()

    def add_argument(self, name, *, action=None, type=None, choices=None, default=None,
                     required=False, help=None, metavar=None):
        if action not in (None, "store_true"):
            raise TypeError(f"the reader has no action {action!r}")
        if not name.startswith("-"):
            self.positionals.append((name, type))
            self.defaults[name] = None
            return
        dest = name.lstrip("-").replace("-", "_")
        self.options[name] = (dest, type, choices, action is None)
        self.defaults[dest] = False if action else default
        if required:
            self.required.add(dest)

    def set_defaults(self, **defaults) -> None:
        self.defaults.update(defaults)

    def read(self, command: str, words: list[str]):
        """The namespace argparse would return for [command, *words], or
        None where argparse must parse them."""
        values: dict[str, object] = {}
        plain: list[str] = []
        words = iter(words)
        # A type refusing a word raises whatever it raises; argparse, parsing
        # the same word again, reports it (or raises it) in its own words.
        try:
            for word in words:
                if not word.startswith("-"):
                    plain.append(word)
                    continue
                if word not in self.options:
                    return None
                dest, kind, choices, takes_value = self.options[word]
                if not takes_value:
                    values[dest] = True
                    continue
                word = next(words, "-")
                if word.startswith("-"):
                    return None
                values[dest] = _value(kind, choices, word)
            if len(plain) != len(self.positionals) or not self.required <= values.keys():
                return None
            for (dest, kind), word in zip(self.positionals, plain):
                values[dest] = _value(kind, None, word)
        except Exception:
            return None
        return SimpleNamespace(command=command, **{**self.defaults, **values})


def _value(kind, choices, word: str):
    value = kind(word) if kind else word
    if choices is not None and value not in choices:
        raise ValueError(word)
    return value


def _read(argv: list[str]):
    """argv read without argparse when every word of it is plain, else None."""
    if not argv or argv[0] not in COMMANDS:
        return None
    reader = _Reader()
    _declare(argv[0], reader)
    return reader.read(argv[0], argv[1:])


def declare_prime(p):
    p.add_argument("n", type=int)
    p.add_argument("--strategy", choices=[s.value for s in SearchStrategy], default="asc")
    p.add_argument("--quiet", action="store_true", help="no output; exit 0 prime, 1 composite")
    return _cmd_prime


def declare_factor(p):
    p.add_argument("n", type=int)
    return _cmd_factor


def _cmd_prime(args) -> tuple:
    verdict = pipeline.is_prime(args.n, SearchStrategy(args.strategy))
    if args.quiet:
        if verdict.kind is VerdictKind.INVALID:
            return 2, None, None
        return (0 if verdict.is_prime else 1), None, None
    payload = verdict.to_json_dict()
    return 0, payload, _format_verdict_text(payload)


def _cmd_factor(args) -> tuple:
    factors = pipeline.full_factorize(args.n)
    payload = {
        "n": args.n,
        "factors": factors,
        "outside_wheel": [p for p in factors if p in (2, 3)],
    }
    return 0, payload, _format_factors_text(payload)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # argparse dispatches to the subparser of the first word that names a
        # command, if any, so that subparser is the only one it needs whole.
        parser = build_parser(*[word for word in argv if word in COMMANDS][:1])
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # argparse prints usage itself
            return int(exc.code or 0)
    try:
        if hasattr(args, "limit"):  # wheel, verify, bench and density
            _check_env_cap(args.limit)
        code, payload, text = args.run(args)
        if payload is not None:
            print(_json(payload) if args.json else text)
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
        build_parser().print_usage(sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
