"""Guards the package's cold import: a one-figure CLI run pays it once
per process, so the modules it loads are part of every job's start-up
time."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dataclasses loads inspect, which loads ast, dis and tokenize; the
# output needs none of them.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

_ADDED = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cliffeph
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_cold_import_loads_no_dataclasses():
    # -I -S: a bare interpreter, so no site hook has loaded the modules first;
    # -B: no bytecode written into the source tree
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _ADDED, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "cliffeph.plotcli" in added
    assert added & HEAVY == set()
