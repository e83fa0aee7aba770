"""Importing the package loads nothing beyond the standard library, nothing
its commands do not use, and builds no table; it still exports every name.

The check counts modules rather than milliseconds, so a heavy runtime
dependency cannot creep back into `import quasiprime` unnoticed.
"""

import os
import pickle
import subprocess
import sys
from importlib import import_module
from types import SimpleNamespace
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules the interpreter loaded at start-up (site hooks included) are taken
# out by the difference, so only what the import itself adds is judged.
PROBE = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import quasiprime
added = {name.partition(".")[0] for name in sys.modules} - before
print(sorted(added - sys.stdlib_module_names - {"quasiprime"}))
"""


def test_import_adds_only_standard_library_modules():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


# The least-axis-factor table is built block by block on first touch, so the
# import builds none of it and a one-shot small call builds one block.
TABLE_PROBE = """
import quasiprime
from quasiprime import qgrid
print(sum(b is not None for b in qgrid._blocks))
quasiprime.is_prime(91)
print(*[i for i, b in enumerate(qgrid._blocks) if b is not None])
print(len(qgrid._blocks[0]), qgrid.BLOCK_SLOTS, qgrid.TABLE_CAP // 3 + 1)
"""


def test_import_builds_no_table_and_a_small_call_a_small_one():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", TABLE_PROBE], env=env, capture_output=True, text=True, check=True
    )
    at_import, built_by_91, sizes = result.stdout.splitlines()
    assert at_import == "0"
    assert built_by_91 == "0"  # the block that holds 91's slot, and no other
    block_len, block_slots, table_slots = map(int, sizes.split())
    assert block_len == block_slots and 8 * block_len < table_slots


# What a command does not use stays unloaded: the dataclass machinery (with
# inspect), fractions (with decimal), json, argparse (with gettext and
# locale), which a plain argv does not need, the sieve oracle, the wheel
# emitter, the bench harness, the other commands' handlers, the digital-root
# and wheel algebra, the grid and prefilter names that no verdict runs
# (explore), and the splitter, which only an n above the table cap with no
# factor it names needs.
UNUSED = (
    "dataclasses", "inspect", "fractions", "decimal", "json", "argparse", "gettext", "locale",
    "quasiprime.oracle", "quasiprime.wheel", "quasiprime.bench", "quasiprime.commands",
    "quasiprime.numerics", "quasiprime.explore", "quasiprime.splitter",
)

GUARD_PROBE = """
import runpy, sys
unused = set(sys.argv[1:])
before = set(sys.modules)
import quasiprime
print(sorted(unused & set(sys.modules) - before))
import quasiprime.shell
print(sorted(unused & set(sys.modules) - before))
sys.argv = ["qprime", "prime", "91", "--quiet"]
try:
    runpy.run_module("quasiprime", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, sorted(unused & set(sys.modules) - before))
quasiprime.is_prime(1009 * 1000000007)
print(sorted(unused & set(sys.modules) - before))
quasiprime.is_prime(1000000007)
print(sorted(unused & set(sys.modules) - before))
dir(quasiprime)
print(sorted(unused & set(sys.modules) - before))
print(quasiprime.oracle.sieve is quasiprime.sieve, sorted(unused & set(sys.modules) - before))
print(sorted(set(quasiprime.__all__) - set(vars(quasiprime))), sorted(unused & set(sys.modules) - before))
print(quasiprime.digital_root is quasiprime.numerics.digital_root, sorted(unused & set(sys.modules) - before))
print(sorted(set(quasiprime.__all__) - set(vars(quasiprime))))
"""


def test_import_and_a_quiet_verdict_load_nothing_they_do_not_use():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", GUARD_PROBE, *UNUSED], env=env, capture_output=True, text=True, check=True
    )
    (package, shell, quiet, table_factor, above_cap, listed, served, unbound, served_numerics,
     unbound_numerics) = result.stdout.splitlines()
    assert package == "[]"
    assert shell == "[]"
    assert quiet == "1 []"  # 91 = 7 × 13 is composite
    assert table_factor == "[]"  # above the cap, but its least factor is a table prime
    assert above_cap == "['quasiprime.splitter']"  # a prime above the cap
    assert listed == above_cap  # dir() lists the served names without loading their modules
    assert served == "True ['quasiprime.oracle', 'quasiprime.splitter']"  # loaded on first access only
    # the oracle's names bound in the package, as an eager import left them, and explore's, which vars()
    # loads, as the package bound them before explore split out; numerics' not yet
    assert unbound == (f"{sorted(import_module('quasiprime.numerics').__all__)} "
                       "['quasiprime.explore', 'quasiprime.oracle', 'quasiprime.splitter']")
    assert served_numerics == ("True ['quasiprime.explore', 'quasiprime.numerics', 'quasiprime.oracle', "
                               "'quasiprime.splitter']")
    assert unbound_numerics == "[]"  # all ten bound by the first


# Each command of a fresh qprime process loads the module that holds its
# handler only when it is that command, json only for a value that its own
# writer leaves to json.dumps (a --out path with a quote in it), and argparse
# only for an argv that its reader leaves to argparse: help, or a value that
# fails its type.  Help of the top level loads no command's module.
COMMAND_PROBE = """
import contextlib, io, runpy, sys
sys.argv = ["qprime", *sys.argv[1:]]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("quasiprime", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
watched = {"json", "argparse", "gettext", "locale", "quasiprime.commands", "quasiprime.wheel", "quasiprime.bench",
           "quasiprime.oracle", "quasiprime.numerics", "quasiprime.explore"}
print(code, sorted(watched & set(sys.modules)))
"""

ARGPARSE = ["argparse", "gettext", "locale"]

COMMANDS = [
    pytest.param(["prime", "97", "--json"], 0, [], id="prime"),
    pytest.param(["factor", "360", "--json"], 0, [], id="factor"),
    pytest.param(["qgrid", "--rows", "1..3", "--cols", "1..4", "--json"], 0,
                 ["quasiprime.commands", "quasiprime.explore"], id="qgrid"),
    pytest.param(["verify", "--limit", "1000", "--json"], 0, ["quasiprime.commands", "quasiprime.oracle"],
                 id="verify"),
    pytest.param(["density", "--limit", "1000", "--json"], 0, ["quasiprime.commands", "quasiprime.explore"],
                 id="density"),
    pytest.param(["wheel", "--limit", "48", "--out", "{tmp}/w.svg", "--json"], 0,
                 ["quasiprime.numerics", "quasiprime.oracle", "quasiprime.wheel"], id="wheel"),
    pytest.param(["bench", "--limit", "100", "--json"], 0,
                 ["quasiprime.bench", "quasiprime.commands", "quasiprime.explore", "quasiprime.oracle"], id="bench"),
    pytest.param(["wheel", "--limit", "48", "--out", '{tmp}/w"q.svg', "--json"], 0,
                 ["json", "quasiprime.numerics", "quasiprime.oracle", "quasiprime.wheel"], id="wheel-quoted-out"),
    pytest.param(["--help"], 0, ARGPARSE, id="help"),
    pytest.param(["qgrid", "--rows", "1..x", "--cols", "1..2"], 2, [*ARGPARSE, "quasiprime.commands"],
                 id="qgrid-bad-rows"),
]


@pytest.mark.parametrize("argv, code, loaded", COMMANDS)
def test_each_command_loads_only_its_own_module(tmp_path, argv, code, loaded):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    result = subprocess.run(
        [sys.executable, "-c", COMMAND_PROBE, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == f"{code} {sorted(loaded)}\n"


# The names that moved out of pipeline and qgrid into explore, each still
# served by its old home and by the package as the same object, and each
# module's __all__ as it was before the move.
EXPLORE = {
    "pipeline": ("DensityReport", "FactorPair", "FilterVerdict", "dr_pairs", "factor_on_grid", "last_digit_pairs",
                 "prefilter", "rejections_by_name", "survivor_density", "_COUNTS_TO", "_running_counts"),
    "qgrid": ("QuasiPrimeTag", "axis_index", "contains", "diagonal_dr", "grid_value", "quasiprime_tag", "region",
              "REGION_CELL_CAP"),
}
ALL = {
    "pipeline": ["DensityReport", "FactorPair", "FilterVerdict", "PrimalityVerdict", "SearchStrategy", "Stage",
                 "VerdictKind", "dr_pairs", "factor_on_grid", "full_factorize", "is_prime", "last_digit_pairs",
                 "prefilter", "survivor_density"],
    "qgrid": ["GridCoordinate", "QuasiPrimeTag", "axis_index", "axis_value", "contains", "diagonal_dr",
              "grid_value", "quasiprime_tag", "region"],
}
# Written before the move, by pickle.dumps(..., protocol=4), so each names
# its class's old home.
PICKLED = {
    "pipeline": (b"\x80\x04\x95.\x00\x00\x00\x00\x00\x00\x00\x8c\x13quasiprime.pipeline\x94\x8c\nFactorPair"
                 b"\x94\x93\x94K\x05K\x07\x86\x94\x81\x94.", ("FactorPair", (5, 7))),
    "qgrid": (b"\x80\x04\x959\x00\x00\x00\x00\x00\x00\x00\x8c\x10quasiprime.qgrid\x94\x8c\rQuasiPrimeTag"
              b"\x94\x93\x94\x8c\x0cprime-square\x94\x85\x94R\x94.", ("QuasiPrimeTag", ("prime-square",))),
}


@pytest.mark.parametrize("module", list(EXPLORE))
def test_old_homes_serve_the_names_that_moved_to_explore(module):
    import quasiprime
    from quasiprime import explore

    home = import_module(f"quasiprime.{module}")
    listed = dir(home)
    for name in EXPLORE[module]:
        assert getattr(home, name) is getattr(explore, name), name
        assert name in listed, name
        if name in home.__all__:
            assert getattr(quasiprime, name) is getattr(home, name), name
            assert name in dir(quasiprime), name
    assert home.__all__ == ALL[module]
    assert set(home.__all__) <= set(listed)
    star: dict = {}
    exec(f"from quasiprime.{module} import *", star)
    del star["__builtins__"]
    assert set(star) == set(ALL[module])
    data, (name, args) = PICKLED[module]
    assert pickle.loads(data) == getattr(home, name)(*args)
    with pytest.raises(AttributeError, match=f"'quasiprime.{module}' has no attribute 'no_such_name'"):
        home.no_such_name


# Each handler returns its answer and shell.main alone writes it, so no
# command's module imports shell.
SHELL_PROBE = """
import sys
from importlib import import_module
import quasiprime
import_module(sys.argv[1])
print("quasiprime.shell" in sys.modules)
"""


@pytest.mark.parametrize("module", ["commands", "wheel", "bench"])
def test_no_command_module_loads_shell(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", SHELL_PROBE, f"quasiprime.{module}"], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout == "False\n"


# The names that moved out of shell into the modules of the commands that use
# them, each still served by shell as the same object and listed by dir().
MOVED = {
    "wheel": ("WheelRender", "build_wheel_render", "emit_wheel_svg", "WHEEL_LIMIT_CAP"),
    "bench": ("BenchReport", "bench", "BENCH_LIMIT_CAP"),
    "commands": ("format_region_text",),
}


@pytest.mark.parametrize("module", list(MOVED))
def test_shell_serves_the_names_that_moved(module):
    from quasiprime import shell

    home = import_module(f"quasiprime.{module}")
    listed = dir(shell)
    for name in MOVED[module]:
        assert getattr(shell, name) is getattr(home, name), name
        assert name in listed, name
    assert "main" in listed
    with pytest.raises(AttributeError, match="'quasiprime.shell' has no attribute 'no_such_name'"):
        shell.no_such_name


# In a fresh process, a served name is unbound until its first access, which
# binds it in the serving module's vars() as the object its home holds.
BIND_PROBE = """
import sys
from importlib import import_module
module, name, home = sys.argv[1:]
namespace = vars(import_module(module))
unbound = name not in namespace
served = getattr(sys.modules[module], name)
print(unbound, namespace.get(name) is served is getattr(import_module(home), name))
"""


@pytest.mark.parametrize("module, name, home", [
    ("quasiprime", "sieve", "quasiprime.oracle"),
    ("quasiprime.qgrid", "region", "quasiprime.explore"),
    ("quasiprime.pipeline", "factor_on_grid", "quasiprime.explore"),
    ("quasiprime.shell", "bench", "quasiprime.bench"),
])
def test_first_access_binds_the_served_name(module, name, home):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", BIND_PROBE, module, name, home], env=env, capture_output=True, text=True,
        check=True,
    )
    assert result.stdout == "True True\n"


# The sieve oracle, loaded by the commands that check against it, and the
# splitter, loaded by the first n that needs it, add no top-level module to
# those the package loaded.  Without site (-S) the interpreter loads so little
# that an import of typing for annotations only, with re, os and warnings
# behind it, would show.
LAZY_MODULE_PROBE = """
import sys
from importlib import import_module
import quasiprime
before = {name.partition(".")[0] for name in sys.modules}
import_module(sys.argv[1])
print(sorted({name.partition(".")[0] for name in sys.modules} - before))
"""


def lazy_module_adds(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAZY_MODULE_PROBE, module], env=env, capture_output=True, text=True,
        check=True,
    )
    return result.stdout


def test_oracle_adds_no_top_level_module_to_the_package():
    assert lazy_module_adds("quasiprime.oracle") == "[]\n"


def test_splitter_adds_no_top_level_module_to_the_package():
    assert lazy_module_adds("quasiprime.splitter") == "[]\n"


# The names `quasiprime/__init__.py` exported when it imported the oracle eagerly.
EXPORTS = {
    "TripletClass", "WheelConfig", "admissible_moduli", "digital_root", "dr_add", "dr_mul",
    "fibonacci_dr_cycle", "modulus_of", "prime_moduli", "triplet_class",
    "GridCoordinate", "QuasiPrimeTag", "axis_index", "axis_value", "contains", "diagonal_dr",
    "grid_value", "quasiprime_tag", "region",
    "DensityReport", "FactorPair", "FilterVerdict", "PrimalityVerdict", "SearchStrategy", "Stage",
    "VerdictKind", "dr_pairs", "factor_on_grid", "full_factorize", "is_prime", "last_digit_pairs",
    "prefilter", "survivor_density",
    "MismatchReport", "PrimeTable", "sieve", "trial_factor", "trial_is_prime", "verify_range",
    "ConsistencyError", "NoFactorsError", "NotOnPrimeModuliError", "NotQuasiPrimeError",
    "ResourceLimitError",
}


def test_export_set_is_whole():
    import quasiprime
    from quasiprime import numerics, oracle, qgrid

    assert sorted(quasiprime.__all__) == sorted(EXPORTS)
    listed = dir(quasiprime)
    for name in EXPORTS:
        assert hasattr(quasiprime, name) and name in listed, name
    star: dict = {}
    exec("from quasiprime import *", star)
    del star["__builtins__"]
    assert set(star) == EXPORTS
    assert quasiprime.sieve is quasiprime.oracle.sieve is oracle.sieve
    assert quasiprime.MismatchReport is oracle.MismatchReport
    assert "oracle" in listed
    assert qgrid.require_int is numerics.require_int
    with pytest.raises(AttributeError, match="no_such_name"):
        quasiprime.no_such_name


# A copy of the package's namespace, as perfbench/test_perfbench.py builds the
# program it injects, serves every name that the package bound at import
# before explore split out: reading vars() binds explore's.
def test_a_copy_of_vars_serves_the_names_bound_before_explore_split_out():
    import quasiprime

    lazy = {name for name, home in quasiprime._LAZY.items() if home in ("oracle", "numerics")}
    copy = SimpleNamespace(**vars(quasiprime))
    for name in EXPORTS - lazy:
        assert getattr(copy, name) is getattr(quasiprime, name), name
    assert quasiprime.__dict__ is vars(quasiprime)


# Each module declares its own exports; the package serves the oracle's,
# numerics' and those that qgrid and pipeline serve from explore through one
# map, which lists them by name so that none of the three modules loads until
# one of its names is used.
MODULES = ("errors", "numerics", "qgrid", "pipeline")


@pytest.mark.parametrize("name", MODULES)
def test_each_module_declares_its_exports_once(name):
    module = import_module(f"quasiprime.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for export in module.__all__:
        getattr(module, export)  # binds a name that the module serves from explore
        assert export in vars(module), export


def test_package_exports_are_the_modules_lists_and_the_oracle_names():
    import quasiprime

    lazy = quasiprime._LAZY
    declared = [(name, export) for name in MODULES
                for export in import_module(f"quasiprime.{name}").__all__ if export not in lazy]
    declared += [(home, export) for export, home in lazy.items()]
    assert sorted(quasiprime.__all__) == sorted(export for _, export in declared)
    assert len(set(quasiprime.__all__)) == len(quasiprime.__all__)
    for name, export in declared:
        assert getattr(quasiprime, export) is getattr(import_module(f"quasiprime.{name}"), export), export
    # the map lists numerics' own exports, whole and in order
    assert [export for export, home in lazy.items() if home == "numerics"] == import_module(
        "quasiprime.numerics").__all__
