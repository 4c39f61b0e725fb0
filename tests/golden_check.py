"""Check ``cliffeph all`` against the benchmark's golden manifest.

Runs ``cli_main(["all", "--format", FMT, "--out", DIR])`` for JSONL and
for SVG, each into a temporary directory, and compares the exit status,
the printed paths, the directory listing, the sha256 of each of the 71
files and the digest of the verify report with ``bench/golden.json``,
which it only reads.  It also compares the printed canonical form of
every symbolic family, field, transverse and curvature with a pinned
digest, which catches a change in term order that leaves floats equal.
It uses only the standard library and the package
sources beside it, so any interpreter the package supports can run it
without an install:

    python3.12 tests/golden_check.py

Prints one line per mismatch and exits 1 if there is any, else 0.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cliffeph import MetricKind, build_families, cli_main, curvature, to_str, vector_fields  # noqa: E402
from cliffeph.ephgeom import _transverse  # noqa: E402

SYMBOLIC_BUILD_SHA256 = "42c0f4155ebd2a34d64b13d7f348b969748b722f06aafdb7241459cd0a5ce4dd"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _mismatches_for(fmt, golden):
    """Differences of ``cliffeph all --format fmt`` from the manifest."""
    with tempfile.TemporaryDirectory() as out:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli_main(["all", "--format", fmt, "--out", out])
        prefix = out + os.sep
        names, report = [], []
        for line in stdout.getvalue().splitlines(keepends=True):
            if line.startswith(prefix):
                names.append(line[len(prefix):].rstrip("\n"))
            else:
                report.append(line)
        found = [] if status == 0 else ["exit status %d" % status]
        # the manifest pins the printed order of the JSONL run only
        expected = [name[:-len("jsonl")] + fmt for name in golden["jobs"]["all --format jsonl"]]
        if names != expected:
            found.append("printed paths differ from the golden order")
        if sorted(os.listdir(out)) != sorted(names):
            found.append("output directory differs from the printed paths")
        found += [
            "%s differs" % name
            for name in names
            if name in golden["files"] and _sha256(os.path.join(out, name)) != golden["files"][name]
        ]
    if hashlib.sha256("".join(report).encode()).hexdigest() != golden["verify_report"]:
        found.append("verify report differs")
    return ["all --format %s: %s" % (fmt, line) for line in found]


def mismatches(formats=("jsonl", "svg")):
    """Human-readable differences from the golden manifest, or []."""
    with open(os.path.join(ROOT, "bench", "golden.json")) as fh:
        golden = json.load(fh)
    return [line for fmt in formats for line in _mismatches_for(fmt, golden)]


def symbolic_build_mismatches():
    """A line if the canonical forms of the symbolic build differ from the
    pinned digest, or []."""
    exprs = []
    for kind in MetricKind:
        fams = build_families(kind)
        for key in sorted(fams):
            exprs += [fams[key].u, fams[key].v]
        fields = vector_fields(kind)
        for key in sorted(fields):
            exprs += [fields[key].du, fields[key].dv, *_transverse(fams[key], key[0])]
        for slot in range(3):
            exprs += curvature(kind, slot)
    text = "".join(to_str(e) + "\n" for e in exprs)
    if hashlib.sha256(text.encode()).hexdigest() != SYMBOLIC_BUILD_SHA256:
        return ["symbolic build differs from its pinned digest"]
    return []


def main():
    found = mismatches() + symbolic_build_mismatches()
    version = "%d.%d.%d" % sys.version_info[:3]
    for line in found:
        print("python %s: %s" % (version, line))
    if not found:
        print("python %s: output matches bench/golden.json" % version)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
