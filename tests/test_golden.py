"""Pins the output of ``cliffeph all`` to the benchmark's golden manifest:
the sha256 of every JSONL file, the printed path order and the digest of
the verify report, so numeric drift between versions fails the suite."""

import hashlib
import json
import os

from cliffeph import cli_main

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "golden.json")


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
