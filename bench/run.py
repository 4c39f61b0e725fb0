#!/usr/bin/env python3
"""Cold-CLI benchmark for cliffeph.

    python3 bench/run.py --workload all-jsonl --seed 1 --seconds 36 --trace 0

Each job is one cold ``cliffeph`` command, started by ``bench/job.py`` in
a fresh single-threaded child process.  Load comes from one client in a
closed loop: the next job starts only after the previous one has exited.
A workload is a fixed set of jobs (one round); a run repeats rounds for
about ``--seconds`` and reports medians over rounds.
The host's speed drifts by a quarter within minutes, so every reported
time is scaled to a nominal speed by samples each job takes of it while
it runs (see ``speed_scale``).
The seed permutes the job order within each round; the program sees only
its command-line arguments.  Every output file, the printed paths and the
verify report are checked against ``golden.json``.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced rounds and reports
the per-layer metrics of the traced rounds plus the tracing overhead.

``python3 bench/run.py --write-golden`` recaptures ``golden.json`` from
the current program, for a change that declares new output bytes.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
MANIFEST = os.path.join(BENCH, "golden.json")
WORK = os.path.join(BENCH, ".work")
JOB_TIMEOUT_S = 120
# About the time of one ``job.reference_work`` sample on a shared 2-core
# Intel Xeon VM.  Reported times are in seconds at that speed.
SAMPLE_NOMINAL_S = 0.0013


@dataclass(frozen=True)
class Job:
    argv: tuple
    setup: str          # metric letters whose families the pipelines build
    fields: bool        # whether the pipelines also use the vector fields

    @property
    def key(self):
        return " ".join(self.argv)


# Why each workload was chosen, with its fixed input size, is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "all-jsonl": (Job(("all", "--format", "jsonl"), "eph", True),),
    "figures-svg": tuple(
        Job((cmd, "--metric", m, "--format", "svg"), m, True)
        for cmd in ("orbits", "transverses", "arrows")
        for m in "eph"
    ) + (Job(("future-past", "--format", "svg"), "h", True),),
    "verify": (Job(("verify", "--metric", "all"), "eph", False),),
}

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit, better, the end-to-end metric and workload it should move).
# A ".s" metric is the self time of that layer's spans.
PER_LAYER = (
    ("plotcli.import_s", "s", "lower", "setup_s on every workload"),
    ("symexpr.evalf.calls", "count", "lower", "wall_s/cpu_s on all-jsonl and figures-svg; none on verify"),
    ("symexpr.evalf.s", "s", "lower", "wall_s/cpu_s on all-jsonl and figures-svg; none on verify"),
    ("symexpr.evalf.tree_nodes", "count", "lower", "wall_s/cpu_s on all-jsonl and figures-svg; none on verify"),
    ("symexpr.evalf.dag_share", "ratio", "higher", "wall_s/cpu_s on all-jsonl and figures-svg; none on verify"),
    ("symexpr.lsolve.calls", "count", "lower", "wall_s on verify and all-jsonl; none on figures-svg"),
    ("symexpr.lsolve.s", "s", "lower", "wall_s on verify and all-jsonl; none on figures-svg"),
    ("symexpr.normal.calls", "count", "lower", "setup_s everywhere; wall_s most on figures-svg"),
    ("symexpr.normal.s", "s", "lower", "setup_s everywhere; wall_s most on figures-svg"),
    ("symexpr.diff.s", "s", "lower", "setup_s everywhere; wall_s most on figures-svg"),
    ("symexpr.subs.s", "s", "lower", "setup_s everywhere; wall_s most on figures-svg"),
    ("cliffalg.Multivector.mul.calls", "count", "lower", "setup_s; wall_s on figures-svg"),
    ("cliffalg.Multivector.mul.s", "s", "lower", "setup_s; wall_s on figures-svg"),
    ("cliffalg.clifford_inverse.s", "s", "lower", "setup_s; wall_s on figures-svg"),
    ("cliffalg.clifford_to_lst.s", "s", "lower", "setup_s; wall_s on figures-svg"),
    ("moebius.clifford_moebius_map.calls", "count", "lower", "setup_s; wall_s on figures-svg"),
    ("moebius.clifford_moebius_map.s", "s", "lower", "setup_s; wall_s on figures-svg"),
    ("moebius.mat_mul.s", "s", "lower", "setup_s; wall_s on figures-svg"),
    ("ephgeom.build_families.s", "s", "lower", "setup_s"),
    ("ephgeom.vector_fields.s", "s", "lower", "setup_s"),
    ("ephgeom.family_tree_nodes", "count", "lower", "setup_s and symexpr.evalf.s"),
    ("ephgeom.family_dag_nodes", "count", "lower", "setup_s and symexpr.evalf.s"),
    ("ephgeom.transverse_tree_nodes", "count", "lower", "setup_s and symexpr.evalf.s"),
    ("ephgeom.sample_orbits.s", "s", "lower", "wall_s on all-jsonl and figures-svg"),
    ("ephgeom.sample_transverses.s", "s", "lower", "wall_s on all-jsonl and figures-svg"),
    ("ephgeom.sample_arrows.s", "s", "lower", "wall_s on all-jsonl and figures-svg"),
    ("ephgeom.sample_future_past.s", "s", "lower", "wall_s on all-jsonl and figures-svg"),
    ("ephgeom.records", "count", "higher", "none: a change is a correctness signal"),
    ("ephgeom.accept_ratio", "ratio", "higher", "none: a change is a correctness signal"),
    ("ephgeom.verify_k_orbit.s", "s", "lower", "wall_s on verify"),
    ("ephgeom.verify_parabolic_vertices.s", "s", "lower", "wall_s on verify"),
    ("ephgeom.vertex_fits", "count", "higher", "wall_s on verify"),
    ("ephgeom.vertex_skipped", "count", "lower", "wall_s on verify"),
    ("plotcli.write_curves.calls", "count", "lower", "wall_s on figures-svg and all-jsonl"),
    ("plotcli.write_curves.s", "s", "lower", "wall_s on figures-svg and all-jsonl"),
    ("plotcli.bytes_written", "bytes", "lower", "wall_s on figures-svg and all-jsonl"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s of one round"),
)


@dataclass
class JobResult:
    job: Job
    wall_s: float
    cpu_s: float
    returncode: int
    stdout: str
    out_dir: str
    report: dict | None
    problems: list = field(default_factory=list)

    def scale(self, column=1, until=None):
        return speed_scale(self.report["samples"] if self.report else (), column, until)

    @property
    def setup_scale(self):
        return self.scale(until=self.report["start"] + self.report["setup_s"])


def speed_scale(samples, column=1, until=None):
    """The host's mean speed over a job's speed samples (``column`` 1 for
    wall, 2 for CPU seconds), as a multiple of the nominal speed, using
    the samples that started before ``until``.  A time measured over the
    same stretch, multiplied by this, is the time at the nominal speed.
    The samples are evenly spaced in time, so their mean speed is the mean
    over the stretch.  Without samples the scale is 1."""
    speeds = [SAMPLE_NOMINAL_S / s[column] for s in samples if until is None or s[0] < until]
    return sum(speeds) / len(speeds) if speeds else 1.0


def run_job(job, job_id, trace, work):
    """Run one job in a fresh child and return its timings and outputs;
    the outputs stay in ``out_dir`` until the caller removes them."""
    out_dir = os.path.join(work, "job-%d" % job_id)
    stem = os.path.join(work, "job-%d." % job_id)
    spec = {
        "src": SRC,
        "argv": list(job.argv) + ["--out", out_dir],
        "setup": job.setup,
        "fields": job.fields,
        "trace": trace,
        "job": job_id,
        "report": stem + "json",
    }
    cmd = [sys.executable, os.path.join(BENCH, "job.py"), json.dumps(spec)]
    with open(stem + "out", "wb") as out, open(stem + "err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stem + "out", encoding="utf-8") as fh:
        stdout = fh.read()
    report = None
    if os.path.exists(stem + "json"):
        with open(stem + "json") as fh:
            report = json.load(fh)
    result = JobResult(
        job, wall, usage.ru_utime + usage.ru_stime,
        proc.returncode, stdout, out_dir, report,
    )
    if proc.returncode != 0:
        with open(stem + "err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        result.problems.append("exit code %d %s" % (proc.returncode, tail))
    return result


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _split_stdout(stdout, out_dir):
    """Printed output paths (as basenames) and the remaining report text."""
    prefix = out_dir + os.sep
    names, report = [], []
    for line in stdout.splitlines(keepends=True):
        if line.startswith(prefix):
            names.append(line[len(prefix):].rstrip("\n"))
        else:
            report.append(line)
    return names, "".join(report)


def check_job(manifest, job, out_dir, stdout):
    """Differences between one job's outputs and the golden manifest."""
    problems = []
    expected = manifest["jobs"][job.key]
    names, report = _split_stdout(stdout, out_dir)
    if names != expected:
        problems.append("printed paths differ from the manifest")
    on_disk = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if on_disk != sorted(expected):
        problems.append("output files differ: %s" % sorted(set(on_disk) ^ set(expected)))
    for name in sorted(set(on_disk) & set(expected)):
        if _sha256(os.path.join(out_dir, name)) != manifest["files"][name]:
            problems.append("%s differs from the manifest" % name)
    want = manifest["verify_report"] if job.argv[0] in ("all", "verify") else None
    got = hashlib.sha256(report.encode()).hexdigest() if report else None
    if got != want:
        problems.append("verify report differs from the manifest")
    return problems


def _cleanup(result):
    shutil.rmtree(result.out_dir, ignore_errors=True)


def run_round(jobs, trace, work, manifest, next_id):
    results = []
    for i, job in enumerate(jobs):
        result = run_job(job, next_id + i, trace, work)
        result.problems += check_job(manifest, job, result.out_dir, result.stdout)
        _cleanup(result)
        results.append(result)
    return results


def _round_layers(results):
    """Per-layer values of one traced round, summed over its jobs."""
    totals = {}
    for r in results:
        if r.report is None:
            continue
        per_job = {"plotcli.import_s": r.report["import_s"] * r.setup_scale}
        per_job.update(r.report["counters"])
        scale = r.scale()
        for name, (calls, self_s) in spans.self_times(r.report["spans"]).items():
            per_job[name + ".calls"] = calls
            per_job[name + ".s"] = self_s * scale
        for k, v in per_job.items():
            totals[k] = totals.get(k, 0) + v
    tree = totals.get("symexpr.evalf.tree_nodes", 0)
    attempted = totals.get("ephgeom.attempted", 0)
    totals["symexpr.evalf.dag_share"] = (
        totals.get("symexpr.evalf.dag_nodes", 0) / tree if tree else 0.0
    )
    totals["ephgeom.accept_ratio"] = (
        totals.get("ephgeom.records", 0) / attempted if attempted else 0.0
    )
    return totals


def measure(workload, seed, seconds, trace, work, manifest):
    """Repeat rounds (untraced and traced pairs when tracing) while the
    time used plus half a median round is within ``seconds``, so that a
    run lasts about ``seconds``; return (rounds, traced flags)."""
    rng = random.Random(seed)
    modes = (False, True) if trace else (False,)
    rounds, traced, lengths = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for mode in modes:
            jobs = list(WORKLOADS[workload])
            rng.shuffle(jobs)
            rounds.append(run_round(jobs, mode, work, manifest, len(traced) * len(jobs)))
            traced.append(mode)
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(lengths) / 2 > seconds:
            return rounds, traced


def _median_round(rounds, key):
    return statistics.median(sum(key(r) for r in rnd) for rnd in rounds)


def end_to_end(rounds):
    """Medians over the rounds, at the nominal speed."""
    def med(key):
        return _median_round(rounds, key)

    return {
        "wall_s": med(lambda r: r.wall_s * r.scale()),
        "cpu_s": med(lambda r: r.cpu_s * r.scale(column=2)),
        "setup_s": med(lambda r: r.report["setup_s"] * r.setup_scale if r.report else 0.0),
        "peak_rss_mb": max(
            r.report["peak_rss_kib"] for rnd in rounds for r in rnd if r.report
        ) / 1024.0,
    }


def per_layer(rounds, traced):
    """Medians over the traced rounds, plus the tracing overhead."""
    def median_wall(mode):
        return _median_round(
            [rnd for rnd, t in zip(rounds, traced) if t == mode],
            lambda r: r.wall_s * r.scale(),
        )

    layers = [_round_layers(rnd) for rnd, t in zip(rounds, traced) if t]
    out = {
        name: statistics.median(layer.get(name, 0) for layer in layers)
        for name, _, _, _ in PER_LAYER
    }
    out["trace.overhead_s"] = median_wall(True) - median_wall(False)
    return out


def write_golden(work):
    """Run every workload once and record its outputs as the manifest."""
    manifest = {"jobs": {}, "files": {}, "verify_report": None}
    for jobs in WORKLOADS.values():
        for i, job in enumerate(jobs):
            r = run_job(job, i, False, work)
            if r.returncode != 0:
                raise SystemExit("job %r failed: %s" % (job.key, r.problems))
            names, report = _split_stdout(r.stdout, r.out_dir)
            manifest["jobs"][job.key] = names
            for name in names:
                manifest["files"][name] = _sha256(os.path.join(r.out_dir, name))
            if report:
                manifest["verify_report"] = hashlib.sha256(report.encode()).hexdigest()
            _cleanup(r)
    with open(MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running job
    # is killed and reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "cliffeph", "plotcli.py")):
        sys.exit("bench: no cliffeph sources under %s" % SRC)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not args.write_golden and not os.path.isfile(MANIFEST):
        sys.exit("bench: golden manifest %s is missing" % MANIFEST)

    # Compile once so that every job imports from the same bytecode cache.
    compileall.compile_dir(os.path.join(SRC, "cliffeph"), quiet=1)
    work = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        with open(MANIFEST) as fh:
            manifest = json.load(fh)
        rounds, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work, manifest
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = [r for rnd in rounds for r in rnd]
    if all(r.report is None for r in jobs):
        sys.exit("bench: no job got as far as running the CLI: %s" % jobs[0].problems)
    failed = [r for r in jobs if r.problems]
    for r in failed[:5]:
        print("FAILED %s: %s" % (r.job.key, "; ".join(r.problems)), file=sys.stderr)
    if args.trace:
        values = per_layer(rounds, traced)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        values = end_to_end(rounds)
        units = dict(END_TO_END)
    print("workload %s, seed %d: %d rounds, %d jobs, fail_rate %.4f"
          % (args.workload, args.seed, len(rounds), len(jobs), len(failed) / len(jobs)))
    print("  unscaled wall_s %.6f s; median speed scale %.4f" % (
        _median_round(rounds, lambda r: r.wall_s),
        statistics.median(r.scale() for r in jobs),
    ))
    for name, value in values.items():
        print("  %-40s %14.6f %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
