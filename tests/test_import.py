"""Guards the package's cold import: a one-figure CLI run pays it once
per process, so the modules it loads are part of every job's start-up
time."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dataclasses loads inspect, which loads ast, dis and tokenize; the
# output needs none of them.  A worker sends its output as marshalled
# text, and a task that failed in it runs again in the parent, so no
# error crosses a process boundary and nothing needs pickle.
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "pickle"}

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


_FORWARD_REFS = """
import gc, sys
sys.path.insert(0, sys.argv[1])
import cliffeph, typing
print(sum(type(o) is typing.ForwardRef for o in gc.get_objects()))
"""


def test_cold_import_compiles_no_forward_ref():
    # under "from __future__ import annotations" typing.NamedTuple compiles
    # one ForwardRef per string annotation of each of its classes
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _FORWARD_REFS, SRC],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]


_FAILED_RUN = """
import os, sys
sys.path.insert(0, sys.argv[1])
from cliffeph import plotcli
plotcli._usable_cpus = lambda: 3
os.mkdir(os.path.join(sys.argv[2], "arrows-N-e.jsonl"))
status = plotcli.cli_main(["arrows", "--metric", "all", "--out", sys.argv[2]])
print(status, " ".join(sorted(set(sys.modules) & set(sys.argv[3:]))))
"""


def test_failed_multi_worker_run_loads_no_pickle(tmp_path):
    # task N-e runs in worker 1 of 3, where its write fails
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _FAILED_RUN, SRC,
                           str(tmp_path), *HEAVY], capture_output=True, text=True, timeout=60)
    *paths, last = proc.stdout.splitlines()
    assert paths == [os.path.join(tmp_path, "arrows-A-e.jsonl")]
    assert last.split() == ["2"]
    assert proc.stderr.startswith("cliffeph: error: cannot write ")


# argparse loads gettext, and its first message lookup loads locale
PARSING = {"argparse", "gettext", "locale"}

_CLI_RUN = """
import sys
sys.path.insert(0, sys.argv[1])
from cliffeph import plotcli
try:
    sys.exit(plotcli.cli_main(sys.argv[3:]))
finally:
    with open(sys.argv[2], "w") as fh:
        fh.write(" ".join(sys.modules))
"""


def _cli_run(tmp_path, argv):
    """(exit status, stdout, stderr, modules loaded) of a cold
    ``cli_main(argv)`` in a bare interpreter."""
    loaded = tmp_path / "modules"
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _CLI_RUN, SRC, str(loaded),
                           *argv], capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr, set(loaded.read_text().split())


def test_cold_runs_load_no_argument_parser(tmp_path):
    out = str(tmp_path / "out")
    for argv, status in [(["arrows", "--metric", "p", "--subgroup", "N", "--out", out], 0),
                         (["orbits", "--metric", "q"], 2), (["--help"], 0), ([], 2)]:
        code, stdout, stderr, loaded = _cli_run(tmp_path, argv)
        assert (code, loaded & PARSING) == (status, set()), (argv, stderr)


def test_help_names_every_command_and_flag(tmp_path):
    code, stdout, stderr, _ = _cli_run(tmp_path, ["--help"])
    assert (code, stderr) == (0, "")
    words = set(stdout.replace("[", " ").replace("]", " ").split())
    assert {"orbits", "transverses", "arrows", "future-past", "verify", "all"} <= words
    assert {"--metric", "--subgroup", "--out", "--format"} <= words


def test_no_arguments_exits_2_with_a_usage_line(tmp_path):
    code, stdout, stderr, _ = _cli_run(tmp_path, [])
    usage, error = stderr.splitlines()
    assert (code, stdout) == (2, "")
    assert usage.startswith("usage: cliffeph ") and error.startswith("cliffeph: error: ")
