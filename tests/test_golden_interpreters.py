"""Runs ``tests/golden_check.py`` under each CPython 3.10-3.13 found on
this host, so the golden bytes and the symbolic build's canonical forms
are checked on every Python the package admits, not only the one running
pytest; an order that depended on iterating a set of nodes, which hash by
identity, would show here.  A version with no working interpreter is
skipped with the reason."""

import glob
import os
import subprocess

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_check.py")


def _candidates(version):
    name = "python" + version
    on_path = [os.path.join(d, name) for d in os.environ.get("PATH", "").split(os.pathsep) if d]
    return on_path + sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/*/bin/" + name)))


def _interpreter(version):
    """First candidate that runs ``-c pass``.  Existing is not enough: a
    pyenv shim on PATH exits 127 for a version that is not selected."""
    for path in _candidates(version):
        if not os.access(path, os.X_OK) or os.path.isdir(path):
            continue
        try:
            if subprocess.run([path, "-c", "pass"], capture_output=True, timeout=60).returncode == 0:
                return path
        except (OSError, subprocess.TimeoutExpired):
            continue
    return None


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_all_matches_golden_manifest_under(version):
    python = _interpreter(version)
    if python is None:
        pytest.skip("no working python%s on PATH or under ~/.pyenv/versions" % version)
    # -I keeps the caller's PYTHONPATH and site-packages out, -B writes no bytecode
    proc = subprocess.run([python, "-I", "-B", SCRIPT], capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
