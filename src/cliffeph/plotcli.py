"""Curve persistence (JSONL and SVG), output file naming and the
command-line driver for the geometry pipelines."""

import contextlib
import io
import marshal
import math
import os
import re
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
    future_past_streams,
    orbit_streams,
    sample_arrows,
    transverse_streams,
    vector_fields,
    verify_k_orbit,
    verify_parabolic_vertices,
)
# not called here: bound for the benchmark's tracer, which wraps them by name
from .ephgeom import sample_future_past, sample_orbits, sample_transverses

# Pipeline -> (stream generator, file stem per stream key).  The generator,
# looked up by name when it runs so that rebinding it takes effect, yields
# (key, records) per stream in turn.  future-past runs once, the others once
# per (metric, subgroup); a transverse stem is its orbit stem plus "-t".
_ORBIT_STEMS = {TransformType.DIRECT: "orbit", TransformType.CAYLEY_POINT: "cayley",
                TransformType.CAYLEY1_POINT: "cayl-a"}
PIPELINE_STEMS = {
    "orbits": ("orbit_streams", _ORBIT_STEMS),
    "transverses": ("transverse_streams", {t: s + "-t" for t, s in _ORBIT_STEMS.items()}),
    "arrows": ("arrow_streams", {None: "arrows"}),
    "future-past": (
        "future_past_streams",
        {j: "future-past-%02d" % j for j in range(FUTURE_PAST_FRAMES)},
    ),
}


def arrow_streams(kind, sub):
    yield None, sample_arrows(kind, sub)  # the one stream, by this module's sample_arrows


def curve_filename(stem, sub, kind, fmt):
    return "%s-%c-%c.%s" % (stem, Subgroup(sub).letter, MetricKind(kind).letter, fmt)


class JobConfig(NamedTuple):
    kinds: list
    subs: list
    out_dir: str = "."
    fmt: str = "jsonl"


def _finite(*xs):
    """The numbers ``xs``, once each is checked to be finite as a float."""
    try:
        finite = all(map(math.isfinite, xs))
    except OverflowError:  # an int beyond the float range
        finite = False
    except TypeError:
        raise TypeError("cannot write non-number in %r" % (xs,)) from None
    if not finite:
        raise ValueError("cannot write non-finite number in %r" % (xs,))
    return xs


_FORMATS = ("jsonl", "svg")
# One JSONL record: the keys in FIELDS order, floats to 9 significant digits.
_JSONL_LINE = (
    '{"curve_id": %d, "kind": "%s", "transform": "%s", "u": %.9g, "v": %.9g, '
    '"du": %.9g, "dv": %.9g, "color_grade": %.9g, "pen_width_hint": %.9g}\n'
)


_ID, _TEXTS = itemgetter(0), itemgetter(1, 2)  # curve_id; kind and transform
_FLOATS = itemgetter(slice(3, None))  # the six floats after curve_id, kind and transform
# text that "%s" writes as JSON: no quote, backslash or control character
_UNESCAPED = re.compile(r'[^"\\\x00-\x1f]*').fullmatch


def _plain(text):
    """Whether ``text`` is a str that "%s" writes as JSON and UTF-8
    encodes, which a lone surrogate does not.  The surrogate test is an
    encode: compiling a regex range above U+00FF takes 130 KB."""
    if not (isinstance(text, str) and _UNESCAPED(text)):
        return False
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


# the most digits Python writes an int with; 0, no limit, before 3.10.7
_max_int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _all_valid(records):
    """Whether every record has an int curve_id that Python can write in
    decimal, a plain kind and transform and finite floats, checked a
    field at a time."""
    try:
        pairs = set(map(_TEXTS, records))  # few distinct kinds and transforms
        finite = all(map(math.isfinite, chain.from_iterable(map(_FLOATS, records))))
        id_bits = max(map(int.bit_length, map(_ID, records)), default=0)  # TypeError if not an int
    except (TypeError, OverflowError):  # an unhashable text, a non-number or a huge int
        return False
    # an id of at most 3 * limit bits is below 8 ** limit; only a wider one is compared
    limit = _max_int_digits()
    return (finite and (not limit or id_bits <= 3 * limit
                        or max(map(abs, map(_ID, records))) < 10 ** limit)
            and all(map(_plain, chain.from_iterable(pairs))))


def _gray(grade):
    level = 0.6 * min(max(grade, 0.0), 1.0)
    return "rgb(%d,%d,%d)" % ((round(255 * level),) * 3)


_ARROW_SCALE = 0.25
_HEAD_SCALE = 0.08


def _svg_arrow(rec):
    du, dv = rec.du, rec.dv
    r = math.hypot(du, dv)
    if r == 0:
        return
    tip_u, tip_v = rec.u + _ARROW_SCALE * du, rec.v + _ARROW_SCALE * dv
    # triangle head: tip plus two base corners set back along the shaft
    ux, uy = du / r, dv / r
    bx = tip_u - _HEAD_SCALE * ux
    by = tip_v - _HEAD_SCALE * uy
    px, py = -uy * _HEAD_SCALE / 2, ux * _HEAD_SCALE / 2
    corners = ["%.9g,%.9g" % c for c in ((tip_u, tip_v), (bx + px, by + py), (bx - px, by - py))]
    # finite inputs can overflow the tip, or the length that aims the head;
    # far out, 9 digits can write the head's corners as one point
    if not all(map(math.isfinite, (tip_u, tip_v, r))) or len(set(corners)) < 3:
        raise ValueError("cannot draw %r: the arrow's tip or length overflows, or 9 digits "
                         "write its head with fewer than three corners" % (rec,))
    gray = _gray(rec.color_grade)
    yield (
        '<line x1="%.9g" y1="%.9g" x2="%.9g" y2="%.9g" stroke="%s" stroke-width="%.9g"/>\n'
        % (rec.u, rec.v, tip_u, tip_v, gray, 0.02 * rec.pen_width_hint)
    )
    yield '<polygon points="%s %s %s" fill="%s"/>\n' % (*corners, gray)


def _svg_lines(records, limits):
    """The SVG picture's lines; ``limits`` None is the default plot box."""
    ulim, vlim = (DEFAULT_TUNING.ulim, DEFAULT_TUNING.vlim) if limits is None else limits
    if any(isinstance(x, int) and x.bit_length() > 1024 for x in (ulim, vlim)):  # may have no repr
        raise ValueError("cannot draw a view box from limits beyond the float range")
    box = _finite(-ulim, -vlim, 2 * ulim, 2 * vlim)
    if not (ulim > 0 and vlim > 0):
        raise ValueError("cannot draw a view box from limits %r" % ((ulim, vlim),))
    yield '<?xml version="1.0" encoding="UTF-8"?>\n'
    yield '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.9g %.9g %.9g %.9g">\n' % box
    yield (
        '<defs><clipPath id="frame"><rect x="%.9g" y="%.9g" width="%.9g" height="%.9g"/>'
        "</clipPath></defs>\n" % box
    )
    # flip the y axis so v grows upwards as in the plane
    yield '<g clip-path="url(#frame)" transform="scale(1,-1)">\n'
    for _, group in groupby(records, itemgetter(0)):
        run = list(group)
        if run[0].kind == "arrow":
            for rec in run:
                yield from _svg_arrow(rec)
        elif len(run) > 1:
            coords = " L ".join("%.9g %.9g" % (r.u, r.v) for r in run)
            yield (
                '<path d="M %s" fill="none" stroke="%s" stroke-width="%.9g"/>\n'
                % (coords, _gray(run[0].color_grade), 0.02 * run[0].pen_width_hint)
            )
    yield "</g>\n</svg>\n"


def write_curves(records, path, fmt="jsonl", limits=None):
    """Write ``CurveRecord`` tuples to ``path`` as JSONL (one record per
    line, fixed key order, 9 significant digits) or as an SVG picture.
    Before any file is opened, an error names the first record that
    JSONL cannot hold as it is: ``ValueError`` for a nan, an inf or an
    int beyond the float range (by its six floats), a curve_id that is
    not an int, or a kind or transform that is not a string, needs an
    escape or holds a lone surrogate, which UTF-8 cannot encode, and
    ``TypeError`` for a non-number among its six floats.  A record
    holding an int with more digits than Python writes
    (``sys.get_int_max_str_digits()``) has no repr, so its
    ``ValueError`` names it by position, kind and transform.  SVG also
    refuses an arrow whose tip or length overflows or whose head 9
    digits write with fewer than three corners, and a view box from
    non-finite or non-positive limits.  The file is written beside
    ``path`` and renamed onto it, so on any error ``path`` keeps its old
    content and nothing else is left behind."""
    if fmt not in _FORMATS:
        raise ValueError("unknown format %r" % (fmt,))
    if not isinstance(records, (list, tuple)):
        records = list(records)
    if not _all_valid(records):
        for i, rec in enumerate(records):
            try:
                repr(rec)
            except ValueError:  # an int in it has more digits than Python writes
                kind, transform = ("%r" % x if isinstance(x, str) else "<%s>" % type(x).__name__
                                   for x in rec[1:3])
                raise ValueError(
                    "cannot write record %d (kind %s, transform %s): an int in it has more than "
                    "%d digits" % (i, kind, transform, _max_int_digits())) from None
            _finite(*_FLOATS(rec))
            if not _all_valid((rec,)):
                raise ValueError("cannot write %r: curve_id must be an int, kind and "
                                 "transform plain strings" % (rec,))
    lines = map(_JSONL_LINE.__mod__, records) if fmt == "jsonl" else _svg_lines(records, limits)
    part = os.fspath(path) + ".part"
    try:
        with open(part, "w", newline="\n") as fh:
            fh.writelines(lines)
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
    for future-past, and write its files, each before the next stream is
    sampled; yields each path as soon as its file is written."""
    generator, stems = PIPELINE_STEMS[name]
    limits = (FUTURE_PAST_LIMIT, FUTURE_PAST_LIMIT) if name == "future-past" else None
    with contextlib.closing(globals()[generator](*job)) as streams:
        for key, records in streams:
            path = os.path.join(config.out_dir, "%s.%s" % (stems[key], config.fmt) if not job
                                else curve_filename(stems[key], job[1], job[0], config.fmt))
            write_curves(records, path, config.fmt, limits)
            del records  # not held while the next stream is sampled
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


def _run_task(name, job, config, out):
    """Run one (pipeline, job) task, writing its stdout text to ``out`` as
    it goes; returns its exit status."""
    if name == "verify":
        return 0 if run_verify(config, out) else 1
    for path in run_pipeline(name, job, config):
        out.write(path + "\n")
    return 0


def _run_stripe(tasks, config):
    """The stdout text of each of ``tasks`` that finished cleanly, in
    order, up to the first that raises or exits non-zero.  The error is
    dropped: ``_run_tasks`` runs that task again in the parent, in print
    order, where it raises."""
    texts = []
    for name, job in tasks:
        out = io.StringIO()
        try:
            if _run_task(name, job, config, out):
                break
        except Exception:
            break
        texts.append(out.getvalue())
    return texts


def _fork_stripe(tasks, config):
    """Fork a worker that runs ``_run_stripe(tasks, config)`` and sends its
    texts down a pipe, marshalled.  Returns (pid, pipe); if the fork
    fails, pid is None and the pipe is empty."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            with open(write_fd, "wb") as pipe:
                marshal.dump(_run_stripe(tasks, config), pipe)
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _run_tasks(tasks, config, workers, out):
    """Write the stdout text of the (pipeline, job) tasks to ``out`` in
    task order; returns the exit status.  Task i runs in worker
    i % workers, worker 0 being this process.  Each task that its worker
    did not report, because it raised, exited non-zero, died or never
    forked, runs again here, where it raises or returns its status."""
    if workers > 1:  # built once here, so that no worker repeats the symbolic build
        for kind in config.kinds:
            if any(name != "arrows" for name, _ in tasks):  # arrows read only the fields
                build_families(kind)
            if any(name != "transverses" for name, _ in tasks):  # transverses read no field
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
    for data in sent:
        try:
            stripes.append(marshal.loads(data))
        except (EOFError, ValueError):  # the worker sent no whole list
            stripes.append([])
    for i, (name, job) in enumerate(tasks):
        stripe = stripes[i % workers]
        if i // workers < len(stripe):
            out.write(stripe[i // workers])
        elif status := _run_task(name, job, config, out):
            return status
    return 0


_METRIC_FLAGS, _SUBGROUP_FLAGS = (
    dict({m.letter: [m] for m in enum}, all=list(enum)) for enum in (MetricKind, Subgroup))
# Each flag's values (None: any directory) and default.  A command takes
# only the flags it reads: future-past always draws hyperbolic frames,
# and verify writes no file.
_FLAGS = {"--metric": (_METRIC_FLAGS, "all"), "--subgroup": (_SUBGROUP_FLAGS, "all"),
          "--out": (None, "."), "--format": (_FORMATS, "jsonl")}
_COMMAND_FLAGS = dict.fromkeys((*PIPELINE_STEMS, "verify", "all"), tuple(_FLAGS))
_COMMAND_FLAGS.update({"future-past": ("--out", "--format"),
                       "verify": ("--metric", "--subgroup", "--out")})


def _usage():
    return "usage: cliffeph [-h] {%s} %s" % (",".join(_COMMAND_FLAGS), " ".join(
        "[%s %s]" % (flag, "{%s}" % ",".join(sorted(values)) if values else "DIR")
        for flag, (values, _) in _FLAGS.items()))


def _refuse(message):
    sys.stderr.write("%s\ncliffeph: error: %s\n" % (_usage(), message))
    raise SystemExit(2)


def _read_option(token, flags):
    """How ``token`` reads among the long ``flags`` and -h: None for a
    value, else the flag (None if unknown) and the text attached to it
    (None if none).  A long flag may be cut to a prefix that is its
    alone.  A value starts with "-" only as a negative number or with a
    space in it."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, attached = token.partition("=")
    if token[1] == "-":
        matches = [flag for flag in flags if flag.startswith(name)]
        if len(matches) > 1:
            _refuse("ambiguous option %r could match %s" % (token, ", ".join(matches)))
        if matches:
            return matches[0], attached if eq else None
    elif token[1] == "h":  # "-hx" is -h with "x" attached; "-hh" and "-h=h" are -h twice
        attached = (attached if eq else None) if name == "-h" else token[2:]
        return "-h", None if attached and not attached.strip("h") else attached
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    return None, None


def _parse_args(argv):
    """The command and flag values of the command line ``argv``.  Before
    the command only -h and --help are flags; after it the command's own
    are too, the last value of each winning.  Help exits 0 and a refusal
    exits 2, whichever comes first, but unknown options, stray values
    and "--" with all after it are refused only at the end."""
    args, unknown, flags, i = None, [], ("--help",), 0
    while i < len(argv):
        token = argv[i]
        i += 1
        option = None if token == "--" else _read_option(token, flags)
        if option is None and args is None:  # the command
            if token not in _COMMAND_FLAGS:
                _refuse("invalid command %r (choose from %s)" % (token, ", ".join(_COMMAND_FLAGS)))
            args = dict({flag[2:]: default for flag, (_, default) in _FLAGS.items()}, command=token)
            flags = (*_COMMAND_FLAGS[token], "--help")
            rest = argv[i:]
            for later in rest[:rest.index("--")] if "--" in rest else rest:
                _read_option(later, flags)  # an ambiguous option is refused before any flag acts
        elif token == "--":
            unknown += argv[i - 1:]
            break
        elif option is None or option[0] is None:
            unknown.append(token)
        elif option[0] in ("-h", "--help"):
            if option[1] is not None:
                _refuse("%s takes no value: %r" % option)
            print(_usage(), "", "Sample subgroup orbits of the EPH plane geometries and verify "
                  "their focal properties.", "", "commands and the flags each takes:",
                  *("  %-12s %s" % (name, " ".join(takes))
                    for name, takes in _COMMAND_FLAGS.items()),
                  "defaults: " + " ".join("%s %s" % (flag, default)
                                          for flag, (_, default) in _FLAGS.items()), sep="\n")
            raise SystemExit(0)
        else:
            flag, value = option
            if value is None:  # the next token, which must read as a value
                if i == len(argv) or argv[i] == "--" or _read_option(argv[i], flags):
                    _refuse("%s expects a value" % flag)
                value = argv[i]
                i += 1
            values = _FLAGS[flag][0]
            if values is not None and value not in values:
                _refuse("invalid %s %r (choose from %s)" % (flag, value, ", ".join(sorted(values))))
            args[flag[2:]] = value
    if args is None:
        _refuse("a command is required")
    if unknown:
        _refuse("unrecognized arguments: %s" % " ".join(map(repr, unknown)))
    return args


def cli_main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    pipelines = (*PIPELINE_STEMS, "verify") if args["command"] == "all" else (args["command"],)
    config = JobConfig(
        kinds=_METRIC_FLAGS[args["metric"]],
        subs=_SUBGROUP_FLAGS[args["subgroup"]],
        out_dir=args["out"],
        fmt=args["format"],
    )
    # verify writes no file, so only the other commands touch --out
    try:
        if args["command"] != "verify":
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
    try:
        status = _run_tasks(tasks, config, workers, sys.stdout)
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
