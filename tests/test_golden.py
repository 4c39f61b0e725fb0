"""Pins the output of ``cliffeph all`` in both formats to the benchmark's
golden manifest, and the printed canonical form of every symbolic family,
field and curvature to its digest, through ``golden_check.py``, so
numeric drift or a change in term order between versions fails the
suite."""

import golden_check


def test_all_jsonl_matches_golden_manifest():
    assert golden_check.mismatches(["jsonl"]) == []


def test_all_svg_matches_golden_manifest():
    assert golden_check.mismatches(["svg"]) == []


def test_symbolic_build_matches_pinned_digest():
    assert golden_check.symbolic_build_mismatches() == []
