"""Tests of the benchmark itself: span arithmetic, expression sizes,
golden checks and transparent tracing.

Run with ``python3 -m pytest bench/tests``.
"""

import json
import os
import shutil
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import job  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CHEAP_JOB = run.Job(("orbits", "--metric", "p", "--format", "svg"), "p", True)


def _manifest():
    with open(run.MANIFEST) as fh:
        return json.load(fh)


def _run(job, trace, work):
    os.makedirs(work)
    return run.run_job(job, 0, trace, str(work))


def test_self_time_on_hand_built_span_tree():
    job = 7
    tree = [
        ("root", 0.0, 10.0, -1, job),
        ("a", 1.0, 4.0, 0, job),
        ("b", 5.0, 9.0, 0, job),
        ("a", 6.0, 7.0, 2, job),
        ("leaf", 2.0, 2.5, 1, job),
    ]
    got = spans.self_times(tree)
    assert set(got) == {"root", "a", "b", "leaf"}
    assert got["root"] == (1, 3.0)
    assert got["a"] == (2, 3.5)
    assert got["b"] == (1, 3.0)
    assert got["leaf"] == (1, 0.5)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        ("p", 0.0, 1.0, -1, 0),
        ("c", 0.25, 0.75, 0, 0),
        ("c", 0.5, 1.25, 0, 0),
    ]
    assert spans.self_times(tree)["p"] == (1, 0.25)


def test_tracer_parents_follow_the_call_stack():
    tracer = spans.Tracer(job=3)
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    assert all(s[4] == 3 and s[1] <= s[2] for s in tracer.spans)


def test_expression_sizes_count_shared_subtrees():
    sys.path.insert(0, run.SRC)
    from cliffeph.symexpr import cos, sin, symbol

    s = symbol("x") + 1
    e = sin(s) * cos(s)
    sizes = spans.ExprSizes()
    # Mul(sin(Add(1, x)), cos(Add(1, x))): the Add subtree is walked twice.
    assert sizes.tree(e) == 9
    assert sizes.dag(e) == 6
    assert spans.unique_nodes([e, s]) == 6


def test_speed_scale_is_the_mean_speed_of_the_chosen_samples():
    nominal = run.SAMPLE_NOMINAL_S
    samples = [
        (0.0, nominal, nominal * 2),        # nominal wall speed, half CPU speed
        (1.0, nominal / 2, nominal * 2),    # twice as fast
        (2.0, nominal * 4, nominal),        # a quarter as fast
    ]
    assert run.speed_scale(samples) == (1 + 2 + 0.25) / 3
    assert run.speed_scale(samples, column=2) == (0.5 + 0.5 + 1) / 3
    assert run.speed_scale(samples, until=1.5) == (1 + 2) / 2
    assert run.speed_scale([]) == 1.0


def test_job_reports_evenly_spaced_speed_samples(tmp_path):
    result = _run(CHEAP_JOB, False, tmp_path / "work")
    samples = result.report["samples"]
    starts = [s[0] for s in samples]
    assert len(samples) >= 2 and starts == sorted(starts)
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    assert min(gaps) > 0.5 * job.SAMPLE_EVERY_S
    assert all(s[1] > 0 and s[2] > 0 for s in samples)


def test_flipped_byte_in_copied_output_fails_the_job(tmp_path):
    manifest = _manifest()
    result = _run(CHEAP_JOB, False, tmp_path / "work")
    assert result.problems == []
    assert run.check_job(manifest, CHEAP_JOB, result.out_dir, result.stdout) == []

    copy = str(tmp_path / "copy")
    shutil.copytree(result.out_dir, copy)
    stdout = result.stdout.replace(result.out_dir, copy)
    assert run.check_job(manifest, CHEAP_JOB, copy, stdout) == []
    victim = os.path.join(copy, "orbit-K-p.svg")
    with open(victim, "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)
        fh.seek(100)
        fh.write(bytes([byte[0] ^ 1]))
    problems = run.check_job(manifest, CHEAP_JOB, copy, stdout)
    assert problems == ["orbit-K-p.svg differs from the manifest"]


def test_traced_job_writes_the_untraced_bytes(tmp_path):
    plain = _run(CHEAP_JOB, False, tmp_path / "plain")
    traced = _run(CHEAP_JOB, True, tmp_path / "traced")
    assert plain.problems == [] and traced.problems == []
    names = sorted(os.listdir(plain.out_dir))
    assert names == sorted(os.listdir(traced.out_dir)) and len(names) == 9
    for name in names:
        with open(os.path.join(plain.out_dir, name), "rb") as a, \
                open(os.path.join(traced.out_dir, name), "rb") as b:
            assert a.read() == b.read(), name
    assert plain.stdout.replace(plain.out_dir, "") == traced.stdout.replace(traced.out_dir, "")
    assert run.check_job(_manifest(), CHEAP_JOB, traced.out_dir, traced.stdout) == []
    assert "spans" not in plain.report
    counts = spans.self_times(traced.report["spans"])
    assert counts["ephgeom.sample_orbits"][0] == 3
    assert counts["plotcli.write_curves"][0] == 9
    assert traced.report["counters"]["ephgeom.records"] > 0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]
