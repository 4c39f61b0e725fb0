"""Curve persistence (JSONL and SVG), output file naming and the
command-line driver for the geometry pipelines."""

from __future__ import annotations

import argparse
import contextlib
import io
import marshal
import math
import os
import sys
from itertools import chain, groupby
from operator import itemgetter
from typing import NamedTuple

from .ephgeom import (
    DEFAULT_TUNING,
    FUTURE_PAST_FRAMES,
    FUTURE_PAST_LIMIT,
    MetricKind,
    Subgroup,
    TransformType,
    build_families,
    sample_arrows,
    sample_future_past,
    sample_orbits,
    sample_transverses,
    vector_fields,
    verify_k_orbit,
    verify_parabolic_vertices,
)

# Pipeline -> (sampler, file stem per output key).  A key picks one record
# list out of the sampler's result; None takes the whole result.  The
# sampler is looked up by name when it runs, so rebinding the module
# attribute takes effect.  future-past runs once, the others once per
# (metric, subgroup).
PIPELINE_STEMS = {
    "orbits": ("sample_orbits", {
        TransformType.DIRECT: "orbit",
        TransformType.CAYLEY_POINT: "cayley",
        TransformType.CAYLEY1_POINT: "cayl-a",
    }),
    "transverses": ("sample_transverses", {
        TransformType.DIRECT: "orbit-t",
        TransformType.CAYLEY_POINT: "cayley-t",
        TransformType.CAYLEY1_POINT: "cayl-a-t",
    }),
    "arrows": ("sample_arrows", {None: "arrows"}),
    "future-past": (
        "sample_future_past",
        {j: "future-past-%02d" % j for j in range(FUTURE_PAST_FRAMES)},
    ),
}


def curve_filename(stem, sub, kind, fmt):
    return "%s-%c-%c.%s" % (stem, Subgroup(sub).letter, MetricKind(kind).letter, fmt)


class JobConfig(NamedTuple):
    kinds: list
    subs: list
    out_dir: str = "."
    fmt: str = "jsonl"


def _finite(*xs):
    """The numbers ``xs``, once each is checked to be finite."""
    if not all(map(math.isfinite, xs)):
        raise ValueError("cannot write non-finite number in %r" % (xs,))
    return xs


# One JSONL record: the keys in FIELDS order, floats to 9 significant digits.
_JSONL_LINE = (
    '{"curve_id": %d, "kind": "%s", "transform": "%s", "u": %.9g, "v": %.9g, '
    '"du": %.9g, "dv": %.9g, "color_grade": %.9g, "pen_width_hint": %.9g}\n'
)


_FLOATS = itemgetter(slice(3, None))  # the six floats after curve_id, kind and transform


def _jsonl_line(rec):
    _finite(*_FLOATS(rec))
    return _JSONL_LINE % rec


def _write_jsonl(records, fh):
    """One finiteness pass over every float, then plain formatting; if a
    value is not finite, ``_jsonl_line`` names the first record holding one."""
    if not isinstance(records, (list, tuple)):
        records = list(records)
    if all(map(math.isfinite, chain.from_iterable(map(_FLOATS, records)))):
        fh.writelines(map(_JSONL_LINE.__mod__, records))
    else:
        fh.writelines(map(_jsonl_line, records))


def _gray(grade):
    (grade,) = _finite(grade)
    level = 0.6 * min(max(grade, 0.0), 1.0)
    return "rgb(%d,%d,%d)" % ((round(255 * level),) * 3)


_ARROW_SCALE = 0.25
_HEAD_SCALE = 0.08


def _svg_arrow(rec, out):
    du, dv = rec.du, rec.dv
    r = math.hypot(du, dv)
    if r == 0:
        return
    tip_u = rec.u + _ARROW_SCALE * du
    tip_v = rec.v + _ARROW_SCALE * dv
    gray = _gray(rec.color_grade)
    out.append(
        '<line x1="%.9g" y1="%.9g" x2="%.9g" y2="%.9g" stroke="%s" stroke-width="%.9g"/>'
        % (*_finite(rec.u, rec.v, tip_u, tip_v), gray, *_finite(0.02 * rec.pen_width_hint))
    )
    # triangle head: tip plus two base corners set back along the shaft
    ux, uy = du / r, dv / r
    bx = tip_u - _HEAD_SCALE * ux
    by = tip_v - _HEAD_SCALE * uy
    px, py = -uy * _HEAD_SCALE / 2, ux * _HEAD_SCALE / 2
    out.append(
        '<polygon points="%.9g,%.9g %.9g,%.9g %.9g,%.9g" fill="%s"/>'
        % (*_finite(tip_u, tip_v, bx + px, by + py, bx - px, by - py), gray)
    )


def _write_svg(records, fh, limits):
    ulim, vlim = limits
    body = []
    for _, group in groupby(records, lambda rec: rec.curve_id):
        run = list(group)
        if run[0].kind == "arrow":
            for rec in run:
                _svg_arrow(rec, body)
            continue
        if len(run) < 2:
            continue
        coords = " L ".join("%.9g %.9g" % _finite(r.u, r.v) for r in run)
        body.append(
            '<path d="M %s" fill="none" stroke="%s" stroke-width="%.9g"/>'
            % (coords, _gray(run[0].color_grade), *_finite(0.02 * run[0].pen_width_hint))
        )
    box = _finite(-ulim, -vlim, 2 * ulim, 2 * vlim)
    fh.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    fh.write('<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.9g %.9g %.9g %.9g">\n' % box)
    fh.write(
        '<defs><clipPath id="frame"><rect x="%.9g" y="%.9g" width="%.9g" height="%.9g"/>'
        "</clipPath></defs>\n" % box
    )
    # flip the y axis so v grows upwards as in the plane
    fh.write('<g clip-path="url(#frame)" transform="scale(1,-1)">\n')
    for line in body:
        fh.write(line)
        fh.write("\n")
    fh.write("</g>\n</svg>\n")


def write_curves(records, path, fmt="jsonl", limits=None):
    """Write records to ``path`` as JSONL (one record per line, fixed key
    order, 9 significant digits) or as an SVG picture.  The file is
    written beside ``path`` and renamed onto it, so on any error ``path``
    keeps its old content and nothing else is left behind."""
    if fmt not in ("jsonl", "svg"):
        raise ValueError("unknown format %r" % (fmt,))
    if limits is None:
        limits = (DEFAULT_TUNING.ulim, DEFAULT_TUNING.vlim)
    part = os.fspath(path) + ".part"
    try:
        with open(part, "w", newline="\n") as fh:
            if fmt == "jsonl":
                _write_jsonl(records, fh)
            else:
                _write_svg(records, fh, limits)
        os.replace(part, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(part)
        if isinstance(err, OSError):
            raise OSError("cannot write %s: %s" % (path, err)) from err
        raise


# ---------------------------------------------------------------------------
# Pipelines


def run_pipeline(name, job, config):
    """Sample one job of pipeline ``name``, a (metric, subgroup) pair or ()
    for future-past, and write its files, yielding each path as soon as
    its file is written.  ``cli_main`` prints the paths in the command's
    task order once the tasks have run and any worker processes have
    joined."""
    sampler, stems = PIPELINE_STEMS[name]
    limits = (FUTURE_PAST_LIMIT, FUTURE_PAST_LIMIT) if name == "future-past" else None
    result = globals()[sampler](*job)
    for key, stem in stems.items():
        if job:
            fname = curve_filename(stem, job[1], job[0], config.fmt)
        else:
            fname = "%s.%s" % (stem, config.fmt)
        path = os.path.join(config.out_dir, fname)
        write_curves(result if key is None else result[key], path, config.fmt, limits)
        yield path


def run_verify(config, out):
    """Numeric checks of the K-orbit focal properties and, in the
    parabolic case, of the Cayley-image vertex law, reported to ``out``;
    returns True if everything is within tolerance."""
    ok = True
    for kind in config.kinds:
        for v0 in DEFAULT_TUNING.vpoints[kind]:
            if v0 == 0:
                continue
            rep = verify_k_orbit(kind, v0)
            status = "ok" if rep.ok else "FAIL"
            line = "%s K-orbit v0=%g: %s = %.6f, max residual %.3g" % (
                MetricKind(kind).name.lower(), v0, rep.label,
                rep.expected, rep.max_residual,
            )
            if kind == MetricKind.HYPERBOLIC:
                line += ", sign flips %d" % rep.sign_flips
            out.write("%s [%s]\n" % (line, status))
            ok = ok and rep.ok
        if kind == MetricKind.PARABOLIC:
            for sub in config.subs:
                if sub == Subgroup.K:
                    continue
                rep = verify_parabolic_vertices(sub)
                if sub == Subgroup.A:
                    out.write(
                        "parabolic vertex law %s: %d fits, max |check+1| %.3g [%s]\n"
                        % (Subgroup(sub).letter, len(rep.fits), rep.max_law_deviation,
                           "ok" if rep.ok else "FAIL")
                    )
                else:
                    out.write(
                        "parabolic parabola fits %s: %d fits, %d skipped\n"
                        % (Subgroup(sub).letter, len(rep.fits), rep.skipped)
                    )
                ok = ok and rep.ok
    return ok


def _usable_cpus():
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_stripe(tasks, config):
    """Run (pipeline, job) tasks in order, up to the first that fails;
    returns each one's stdout text, exit status and the exception that
    stopped it or None, for the caller to raise once the text before it is
    printed."""
    results = []
    for name, job in tasks:
        out, status, err = io.StringIO(), 0, None
        try:
            if name != "verify":
                out.writelines(path + "\n" for path in run_pipeline(name, job, config))
            elif not run_verify(config, out):
                status = 1
        except BaseException as exc:
            err = exc
        results.append((out.getvalue(), status, err))
        if status or err is not None:
            break
    return results


def _fork_stripe(tasks, config):
    """Fork a worker that runs ``_run_stripe(tasks, config)`` and sends its
    results down a pipe, marshalled, the error pickled.  Returns (pid,
    pipe); if the fork fails, pid is None and the pipe is empty."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            *done, (text, status, err) = _run_stripe(tasks, config)
            if err is not None:
                import pickle  # only a failed task pays for the import

                err = pickle.dumps(err)
            with open(write_fd, "wb") as pipe:
                marshal.dump(done + [(text, status, err)], pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _decoded(data):
    """The results a worker sent, or [] if it sent none whole."""
    try:
        *done, (text, status, err) = marshal.loads(data)
    except (EOFError, ValueError):
        return []
    if err is not None:
        import pickle

        err = pickle.loads(err)
    return done + [(text, status, err)]


def _run_tasks(tasks, config, workers):
    """Yield each task's (text, status, error) in task order.  Task i runs
    in worker i % workers, worker 0 being this process, which also runs
    each task that its worker did not report."""
    if workers > 1:  # built once here, so that no worker repeats the symbolic build
        for kind in config.kinds:
            if any(name != "arrows" for name, _ in tasks):  # arrows read only the fields
                build_families(kind)
            vector_fields(kind)
    started, sent = [], []
    try:
        for w in range(1, workers):
            started.append(_fork_stripe(tasks[w::workers], config))
        stripes = [_run_stripe(tasks[::workers], config)]
    finally:
        for pid, pipe in started:
            with pipe:
                sent.append(pipe.read())
            if pid:
                os.waitpid(pid, 0)
    stripes += map(_decoded, sent)
    for i, task in enumerate(tasks):
        stripe = stripes[i % workers]
        yield stripe[i // workers] if i // workers < len(stripe) else _run_stripe([task], config)[0]


_METRIC_FLAGS, _SUBGROUP_FLAGS = (
    dict({m.letter: [m] for m in enum}, all=list(enum)) for enum in (MetricKind, Subgroup))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cliffeph",
        description="Sample subgroup orbits of the EPH plane geometries "
        "and verify their focal properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("orbits", "transverses", "arrows", "future-past", "verify", "all"):
        p = sub.add_parser(name)
        # each command takes only the flags it reads; the rest keep these
        p.set_defaults(metric="all", subgroup="all", format="jsonl")
        if name != "future-past":
            p.add_argument("--metric", choices=sorted(_METRIC_FLAGS))
            p.add_argument("--subgroup", choices=sorted(_SUBGROUP_FLAGS))
        p.add_argument("--out", default=".", metavar="DIR")
        if name != "verify":
            p.add_argument("--format", choices=("jsonl", "svg"))
    return parser


def cli_main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "all":
        pipelines = ("orbits", "transverses", "arrows", "future-past", "verify")
    else:
        pipelines = (args.command,)
    config = JobConfig(
        kinds=_METRIC_FLAGS[args.metric],
        subs=_SUBGROUP_FLAGS[args.subgroup],
        out_dir=args.out,
        fmt=args.format,
    )
    # verify writes no file, so only the other commands touch --out
    try:
        if args.command != "verify":
            os.makedirs(config.out_dir, exist_ok=True)
    except OSError as err:
        print("cliffeph: error: cannot use --out %s: %s" % (config.out_dir, err.strerror),
              file=sys.stderr)
        return 2
    jobs = [(kind, sub) for kind in config.kinds for sub in config.subs]
    tasks = [(name, job) for name in pipelines
             for job in ([()] if name in ("future-past", "verify") else jobs)]
    # one worker per CPU, but no more than the command has metrics: a
    # single-metric command runs in this process alone
    workers = min(_usable_cpus(), len(config.kinds), len(tasks)) if hasattr(os, "fork") else 1
    status = 0
    try:
        for text, status, err in _run_tasks(tasks, config, workers):
            sys.stdout.write(text)
            if err is not None:
                raise err
            if status:
                break
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError as err:
        # As the SIGPIPE note in the Python docs does: point stdout at devnull,
        # so the interpreter's last flush of what is left cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("cliffeph: error: cannot write to stdout: %s" % err.strerror, file=sys.stderr)
        return 2
    except OSError as err:  # write_curves names the file it could not write
        print("cliffeph: error: %s" % err, file=sys.stderr)
        return 2
    return status


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
