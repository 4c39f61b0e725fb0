"""Pins the output of ``cliffeph all`` to the benchmark's golden manifest:
the sha256 of every JSONL and every SVG file, the printed path order and
the digest of the verify report, so numeric drift between versions fails
the suite.
Also pins the printed canonical form of every symbolic family, field and
curvature, which catches a change in term order that leaves floats equal."""

import hashlib
import json
import os

from cliffeph import MetricKind, build_families, cli_main, curvature, to_str, vector_fields

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "golden.json")


SYMBOLIC_BUILD_SHA256 = "42c0f4155ebd2a34d64b13d7f348b969748b722f06aafdb7241459cd0a5ce4dd"


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_all_jsonl_matches_golden_manifest(tmp_path, capsys):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    assert cli_main(["all", "--out", str(tmp_path)]) == 0
    prefix = str(tmp_path) + os.sep
    names, report = [], []
    for line in capsys.readouterr().out.splitlines(keepends=True):
        if line.startswith(prefix):
            names.append(line[len(prefix):].rstrip("\n"))
        else:
            report.append(line)
    assert names == golden["jobs"]["all --format jsonl"]
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    for name in names:
        assert _sha256(tmp_path / name) == golden["files"][name], name
    digest = hashlib.sha256("".join(report).encode()).hexdigest()
    assert digest == golden["verify_report"]


def test_all_svg_matches_golden_manifest(tmp_path, capsys):
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    svgs = {name: digest for name, digest in golden["files"].items() if name.endswith(".svg")}
    assert cli_main(["all", "--format", "svg", "--out", str(tmp_path)]) == 0
    prefix = str(tmp_path) + os.sep
    names = [line[len(prefix):] for line in capsys.readouterr().out.splitlines()
             if line.startswith(prefix)]
    assert sorted(names) == sorted(os.listdir(tmp_path)) == sorted(svgs)
    for name in names:
        assert _sha256(tmp_path / name) == svgs[name], name


def test_symbolic_build_matches_pinned_digest():
    exprs = []
    for kind in MetricKind:
        fams = build_families(kind)
        for key in sorted(fams):
            exprs += [fams[key].u, fams[key].v]
        fields = vector_fields(kind)
        for key in sorted(fields):
            f = fields[key]
            exprs += [f.du, f.dv, f.trans_u, f.trans_v]
        for slot in range(3):
            exprs += curvature(kind, slot)
    text = "".join(to_str(e) + "\n" for e in exprs)
    assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_BUILD_SHA256
