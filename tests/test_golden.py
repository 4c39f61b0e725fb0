"""Pins the output of ``cliffeph all`` in both formats to the benchmark's
golden manifest through ``golden_check.py``, so numeric drift between
versions fails the suite.
Also pins the printed canonical form of every symbolic family, field and
curvature, which catches a change in term order that leaves floats equal."""

import hashlib

import golden_check
from cliffeph import MetricKind, build_families, curvature, to_str, vector_fields
from cliffeph.ephgeom import _transverse

SYMBOLIC_BUILD_SHA256 = "42c0f4155ebd2a34d64b13d7f348b969748b722f06aafdb7241459cd0a5ce4dd"


def test_all_jsonl_matches_golden_manifest():
    assert golden_check.mismatches(["jsonl"]) == []


def test_all_svg_matches_golden_manifest():
    assert golden_check.mismatches(["svg"]) == []


def test_symbolic_build_matches_pinned_digest():
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
    assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_BUILD_SHA256
