"""Importing the package loads nothing beyond the standard library and builds no table.

The check counts modules rather than milliseconds, so a heavy runtime
dependency cannot creep back into `import quasiprime` unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

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


# The least-axis-factor table is grown on first need, so neither the import
# nor a one-shot small call pays for the whole of it.
TABLE_PROBE = """
import quasiprime
from quasiprime import qgrid
print(len(qgrid._lpf))
quasiprime.is_prime(91)
print(len(qgrid._lpf))
"""


def test_import_builds_no_table_and_a_small_call_a_small_one():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", TABLE_PROBE], env=env, capture_output=True, text=True, check=True
    )
    at_import, after_91 = map(int, result.stdout.split())
    assert at_import == 0
    assert 0 < after_91 <= 342
