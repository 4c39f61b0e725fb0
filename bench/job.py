"""One cold cliffeph job, run in a fresh child process by ``run.py``.

Usage: ``python3 bench/job.py SPEC_JSON`` where the spec holds ``src``
(the directory holding the ``cliffeph`` package), ``argv`` (the CLI
arguments), ``setup`` (metric letters whose symbolic build the job's
pipelines use), ``fields`` (whether they also use the vector fields),
``trace``, ``job`` (the job id) and ``report`` (where to write timings).

The runner puts ``src`` on ``sys.path`` because the package is not
installed, times the import and the symbolic precompute, then calls
``cliffeph.plotcli.cli_main``.  ``build_families`` and ``vector_fields``
are ``lru_cache``d, so calling them first moves their cost into
``setup_s`` without changing the job's total work.  Launching through
``python -m cliffeph.plotcli`` instead would print a runpy warning,
because the package ``__init__`` already imports ``plotcli``.

The host's speed drifts by a quarter within minutes, so the job also
samples it: every ``SAMPLE_EVERY_S`` seconds a ``SIGALRM`` handler times
a fixed piece of pure-Python work.  ``run.py`` scales the job's times by
these samples (see ``run.speed_scale``).
"""

import json
import math
import resource
import signal
import sys
import time
from fractions import Fraction

SAMPLE_EVERY_S = 0.1
SAMPLE_N = 300


def reference_work():
    """A fixed piece of work of the program's kind: exact fractions,
    tuple-keyed dicts and float maths."""
    table = {}
    total = Fraction(0)
    x = 0.0
    for i in range(1, SAMPLE_N):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 11 + 1)
        x += math.sqrt(i * 0.5)
    return total, x


class SpeedSampler:
    """Times ``reference_work`` from a wall-clock timer signal, so the
    samples are spread evenly over the job's wall time.  Each sample is
    ``(start, wall seconds, CPU seconds)``."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        reference_work()
        self.samples.append((t0, time.perf_counter() - t0, time.process_time() - c0))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples


def peak_rss_kib():
    """High-water resident set size of this process image.

    ``ru_maxrss`` is not used: after the parent's vfork and exec it also
    holds the parent's peak, so it would measure ``run.py`` itself.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec):
    sampler = SpeedSampler()
    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from cliffeph import ephgeom, plotcli

    import_s = time.perf_counter() - t0
    probe = None
    if spec["trace"]:
        import spans

        probe = spans.JobProbe(spec["job"])
    kinds = {k.letter: k for k in ephgeom.MetricKind}
    for letter in spec["setup"]:
        ephgeom.build_families(kinds[letter])
        if spec["fields"]:
            ephgeom.vector_fields(kinds[letter])
    setup_s = time.perf_counter() - t0
    try:
        return plotcli.cli_main(spec["argv"])
    finally:
        samples = sampler.stop()
        sys.stdout.flush()
        report = {
            "import_s": import_s,
            "setup_s": setup_s,
            "peak_rss_kib": peak_rss_kib(),
            "start": t0,
            "samples": samples,
        }
        if probe is not None:
            report["counters"] = probe.report()
            report["spans"] = probe.tracer.spans
        with open(spec["report"], "w") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
