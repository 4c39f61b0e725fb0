import collections
import contextlib
import io
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import xml.dom.minidom
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings, strategies as st

import cliffeph
from cliffeph import (
    CurveRecord, JobConfig, cli_main, curve_filename, ephgeom, plotcli, sample_future_past, symexpr,
    write_curves,
)
from cliffeph.curves import FIELDS
from cliffeph.ephgeom import MetricKind, Subgroup
from cliffeph.plotcli import _parse_args, run_verify
from conftest import reference_parser


def _rec(i=0, kind="orbit", u=0.5, v=1.5, **kw):
    base = dict(
        curve_id=i, kind=kind, transform="direct", u=u, v=v,
        du=1.0, dv=0.0, color_grade=0.3, pen_width_hint=1.5,
    )
    base.update(kw)
    return CurveRecord(**base)


class TestNaming:
    def test_orbit_filename(self):
        assert curve_filename("orbit", Subgroup.A, MetricKind.ELLIPTIC, "jsonl") == "orbit-A-e.jsonl"

    def test_transverse_filename(self):
        assert curve_filename("cayley-t", Subgroup.K, MetricKind.HYPERBOLIC, "svg") == "cayley-t-K-h.svg"


class TestJsonl:
    def test_key_order_and_parse(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_curves([_rec(), _rec(i=1, u=1.0 / 3)], path, "jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            parsed = json.loads(line)
            assert list(parsed) == list(FIELDS)
        assert '"u": 0.333333333' in lines[1]

    def test_empty_list_gives_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        write_curves([], path, "jsonl")
        assert path.read_text() == ""

    def test_deterministic_bytes(self, tmp_path):
        recs = [_rec(i=k, u=k / 7) for k in range(5)]
        p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
        write_curves(recs, p1, "jsonl")
        write_curves(recs, p2, "jsonl")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_curves([], tmp_path / "x.bin", "bin")
        assert os.listdir(tmp_path) == []


# 9 digits write this head's three corners as one point, 10000000.2,10000000.2
_FAR_ARROW = [_rec(kind="arrow", u=1e7, v=1e7, du=1, dv=1)]
_BAD_ORDERS = [(("nan", "none"), ValueError), (("none", "nan"), TypeError),
               (("quote", "none"), ValueError), (("none", "quote"), TypeError)]


class TestWriteSafety:
    @pytest.mark.parametrize("fmt", ["jsonl", "svg"])
    def test_failed_rewrite_keeps_old_file(self, tmp_path, fmt):
        path = tmp_path / ("a." + fmt)
        write_curves([_rec(), _rec(u=0.7)], path, fmt)
        old = path.read_bytes()
        with pytest.raises(TypeError):
            write_curves([_rec(), _rec(u=None)], path, fmt)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == [path.name]

    @pytest.mark.parametrize("fmt", ["jsonl", "svg"])
    @pytest.mark.parametrize("first,second", [
        *(pytest.param({}, {"v": bad}, id="%s" % bad) for bad in (math.nan, math.inf, -math.inf)),
        *(pytest.param({"color_grade": bad}, {"color_grade": bad}, id="grade-%s" % bad)
          for bad in (math.nan, math.inf, -math.inf)),
        # SVG draws a polyline from its points and its first record's grade and width
        *(pytest.param({}, {name: bad}, id="second-%s-%s" % (name, bad))
          for name in ("du", "dv", "color_grade", "pen_width_hint") for bad in (math.nan, math.inf)),
        # SVG draws no path for a lone point
        pytest.param(None, {"u": math.inf}, id="lone-u-inf"),
    ])
    def test_non_finite_number_raises_and_leaves_no_file(self, tmp_path, fmt, first, second):
        recs = [] if first is None else [_rec(**first)]
        with pytest.raises(ValueError):
            write_curves(recs + [_rec(**{"u": 0.7, **second})], tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_jsonl_error_names_the_first_bad_record(self, tmp_path, bad, fmt="jsonl"):
        recs = [_rec(i=k, u=k / 400) for k in range(400)]
        recs[299] = recs[299]._replace(dv=bad)
        recs[350] = recs[350]._replace(u=math.nan)
        floats = (299 / 400, 1.5, 1.0, bad, 0.3, 1.5)
        with pytest.raises(ValueError, match=re.escape(
                "cannot write non-finite number in %r" % (floats,))):
            write_curves(recs, tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_svg_error_names_the_first_bad_record(self, tmp_path, bad):
        self.test_jsonl_error_names_the_first_bad_record(tmp_path, bad, "svg")

    @pytest.mark.parametrize("fmt", ["jsonl", "svg"])
    @pytest.mark.parametrize("bad,error,what", [
        # an int beyond the float range raised an OverflowError that named no record
        pytest.param(2 ** 1024, ValueError, "non-finite number", id="huge-int"),
        # a non-number raised math.isfinite's TypeError, which named no record either
        pytest.param(None, TypeError, "non-number", id="none"),
        pytest.param("1", TypeError, "non-number", id="str"),
    ])
    def test_bad_float_field_error_names_its_record(self, tmp_path, fmt, bad, error, what):
        recs = [_rec(i=k, u=k / 10) for k in range(4)]
        recs[2] = recs[2]._replace(dv=bad)
        with pytest.raises(error, match=re.escape("cannot write %s in %r" % (what, recs[2][3:]))):
            write_curves(recs, tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("order,error", _BAD_ORDERS)
    def test_jsonl_first_bad_record_picks_the_error(self, tmp_path, order, error, fmt="jsonl"):
        bad = {"nan": _rec(v=math.nan), "none": _rec(v=None), "quote": _rec(kind='"')}
        with pytest.raises(error):
            write_curves([_rec(), *(bad[name] for name in order)], tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("order,error", _BAD_ORDERS)
    def test_svg_first_bad_record_picks_the_error(self, tmp_path, order, error):
        self.test_jsonl_first_bad_record_picks_the_error(tmp_path, order, error, "svg")

    def test_jsonl_generator_input_writes_the_list_bytes(self, tmp_path, fmt="jsonl", lines=10):
        recs = [_rec(i=k // 3, u=k / 7, v=-k / 9) for k in range(10)]
        write_curves(recs, tmp_path / ("list." + fmt), fmt)
        write_curves((r for r in recs), tmp_path / ("gen." + fmt), fmt)
        write_curves(tuple(recs), tmp_path / ("tuple." + fmt), fmt)
        data = (tmp_path / ("list." + fmt)).read_bytes()
        assert data.count(b"\n") == lines
        assert (tmp_path / ("gen." + fmt)).read_bytes() == data
        assert (tmp_path / ("tuple." + fmt)).read_bytes() == data

    def test_svg_generator_input_writes_the_list_bytes(self, tmp_path):
        # 4 header lines, a path for each of curves 0-2 (curve 3 is one point), 2 footer lines
        self.test_jsonl_generator_input_writes_the_list_bytes(tmp_path, "svg", 4 + 3 + 2)

    @pytest.mark.parametrize("recs,limits", [
        pytest.param([_rec(kind="arrow", u=1.7e308, du=1e308)], None, id="arrow-tip"),
        # a finite tip whose shaft length overflows: the head had no direction
        pytest.param([_rec(kind="arrow", u=0, v=0, du=1.7e308, dv=1.7e308)], None,
                     id="arrow-head"),
        # 9 digits wrote the head's three corners as one point
        pytest.param(_FAR_ARROW, None, id="arrow-far"),
        pytest.param([_rec(), _rec(u=0.7)], (math.inf, 25.0), id="view-box"),
        *(pytest.param([_rec(), _rec(u=0.7)], limits, id="view-box-%g-%g" % limits)
          for limits in ((-1, 25), (0, 25), (25, -1))),
        # no repr: Python's own "Exceeds the limit (4300 digits)" error named nothing
        pytest.param([_rec(), _rec(u=0.7)], (10 ** 4300, 1.0), id="view-box-4301-digits"),
    ])
    def test_svg_overflowing_tip_or_box_raises_and_leaves_no_file(self, tmp_path, recs, limits):
        with pytest.raises(ValueError, match="^cannot "):
            write_curves(recs, tmp_path / "a.svg", "svg", limits=limits)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["jsonl", "svg"])
    @pytest.mark.parametrize("field,bad", [
        # "%d" wrote 1.5 as 1, merging two curves
        pytest.param("curve_id", 1.5, id="id-float"),
        pytest.param("curve_id", None, id="id-none"),
        pytest.param("curve_id", "1", id="id-str"),
        # "%s" does not escape, so json.loads rejected the line
        pytest.param("kind", 'or"bit', id="kind-quote"),
        pytest.param("transform", "dir\\ect", id="transform-backslash"),
        pytest.param("kind", "or\nbit", id="kind-newline"),
        pytest.param("transform", "\x00", id="transform-nul"),
        pytest.param("kind", None, id="kind-none"),
        pytest.param("kind", ["orbit"], id="kind-unhashable"),
        pytest.param("transform", 0, id="transform-int"),
        # JSONL failed inside the write with an unnamed UnicodeEncodeError,
        # while SVG, which never prints kind, wrote the file
        pytest.param("kind", "or\udcffbit", id="kind-surrogate"),
        pytest.param("transform", "\ud800", id="transform-surrogate"),
    ])
    def test_record_jsonl_cannot_hold_raises_naming_it(self, tmp_path, fmt, field, bad):
        recs = [_rec(i=k // 2, u=k / 10) for k in range(6)]
        recs[3] = recs[3]._replace(**{field: bad})
        recs[4] = recs[4]._replace(u=math.nan, kind='"')
        with pytest.raises(ValueError, match=re.escape(repr(recs[3]))):
            write_curves(recs, tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["jsonl", "svg"])
    @pytest.mark.parametrize("field,bad,kind", [
        # JSONL failed inside the write with Python's own ValueError, which
        # named no record, while SVG, which never prints curve_id, wrote the file
        pytest.param("curve_id", 10 ** 4300, "'orbit'", id="id-4301-digits"),
        pytest.param("curve_id", -(10 ** 5000), "'orbit'", id="id-negative"),
        # the errors that name a record by its repr or its floats failed in repr
        pytest.param("kind", 10 ** 4300, "<int>", id="kind"),
        pytest.param("dv", 10 ** 4300, "'orbit'", id="float-field"),
    ])
    def test_int_too_long_to_print_raises_naming_its_position(self, tmp_path, fmt, field, bad, kind):
        recs = [_rec(i=k, u=k / 10) for k in range(5)]
        recs[3] = recs[3]._replace(**{field: bad})
        message = "cannot write record 3 (kind %s, transform 'direct'): an int in it has more " \
                  "than 4300 digits" % kind
        with pytest.raises(ValueError, match=re.escape(message)):
            write_curves(recs, tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["jsonl", "svg"])
    def test_id_of_4300_digits_is_written(self, tmp_path, fmt):
        recs = [_rec(i=-(10 ** 4300 - 1)), _rec(i=10 ** 4000, u=0.7)]
        write_curves(recs, tmp_path / ("a." + fmt), fmt)
        if fmt == "jsonl":
            lines = (tmp_path / "a.jsonl").read_text().splitlines()
            assert [json.loads(line)["curve_id"] for line in lines] == [r.curve_id for r in recs]

    def test_plain_strings_write_lines_json_reads_back(self, tmp_path):
        recs = [_rec(kind="orbit", transform="cayl-a \x7f '/'"), _rec(i=2 ** 70)]
        path = tmp_path / "a.jsonl"
        write_curves(recs, path, "jsonl")
        assert [CurveRecord(**json.loads(line)) for line in path.read_text().splitlines()] == recs

    def test_unwritable_path_wraps_os_error(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_curves([_rec()], tmp_path / "missing" / "a.jsonl", "jsonl")
        assert os.listdir(tmp_path) == []


# Records for the writer properties: ordinary curves and arrows, near the
# origin or far from it, then up to two fields replaced by any value below.
# Python writes ints of up to 4,300 digits by default: 10 ** 4300 has 4,301.
_ANY_INT = st.integers() | st.booleans() | st.sampled_from(
    [2 ** 64, -(2 ** 64), 2 ** 1024, -(2 ** 1024), 10 ** 4000, 10 ** 4300 - 1, -(10 ** 4300 - 1),
     10 ** 4300, -(10 ** 4300), 10 ** 5000])
_ANY_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\ud800",
                                     "\udcff", "a", "\u00e9"]) | st.characters(), max_size=4)
_ANY_FLOAT = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -1e-310, 1.7e308, -1.7e308, math.nan, math.inf, -math.inf])
_ANY_VALUE = _ANY_INT | _ANY_TEXT | _ANY_FLOAT | st.none()
_COORD = st.floats(-30, 30) | st.floats(-1e12, 1e12)
_CURVE_POINT = st.builds(
    CurveRecord, curve_id=st.integers(0, 3), kind=st.sampled_from(["orbit", "arrow"]),
    transform=st.just("direct"), u=_COORD, v=_COORD, du=st.floats(-3, 3) | st.integers(-3, 3),
    dv=st.floats(-3, 3) | st.integers(-3, 3), color_grade=st.floats(0, 1.2),
    pen_width_hint=st.sampled_from([0.5, 1.0, 1.5]))


@st.composite
def _records(draw):
    recs = draw(st.lists(_CURVE_POINT, max_size=6))
    for i, field, value in draw(st.lists(st.tuples(st.integers(0, 5), st.sampled_from(FIELDS),
                                                   _ANY_VALUE), max_size=2)):
        if recs:
            recs[i % len(recs)] = recs[i % len(recs)]._replace(**{field: value})
    return recs


def _write(recs, path, fmt):
    """The ValueError or TypeError that ``write_curves`` raised, or None
    when it wrote ``path``."""
    try:
        write_curves(recs, path, fmt)
    except (ValueError, TypeError) as err:
        return err
    return None


def _named(err, recs):
    """The records that ``err`` names: whole or by their six floats, or by
    position if an int in the record is too long for its repr."""
    named = []
    for i, rec in enumerate(recs):
        try:
            names = (repr(rec), repr(tuple(rec[3:])))
        except ValueError:
            names = ("cannot write record %d " % i,)
        if any(name in str(err) for name in names):
            named.append(rec)
    return named


def _curves(recs):
    return [list(run) for _, run in itertools.groupby(recs, operator.itemgetter(0))]


def _drawn_arrows(recs):
    """The records SVG draws as arrows: those of a curve whose first record
    is an arrow, each with a non-zero length."""
    return [r for run in _curves(recs) if run[0].kind == "arrow" for r in run
            if math.hypot(r.du, r.dv)]


class TestWriterProperties:
    @settings(max_examples=150, deadline=None)
    @given(_records())
    @example(_FAR_ARROW)
    def test_formats_refuse_alike_naming_a_record_or_write(self, recs):
        with tempfile.TemporaryDirectory() as tmp:
            errors = {fmt: _write(recs, os.path.join(tmp, "a." + fmt), fmt)
                      for fmt in ("jsonl", "svg")}
            assert sorted(os.listdir(tmp)) == ["a." + f for f, err in errors.items() if err is None]
        for err in errors.values():
            assert err is None or _named(err, recs)
        jsonl, svg = errors["jsonl"], errors["svg"]
        if jsonl is not None:
            assert (type(svg), str(svg)) == (type(jsonl), str(jsonl))
        elif svg is not None:
            # SVG alone refuses an arrow it cannot draw
            drawn = _drawn_arrows(recs)
            assert type(svg) is ValueError and all(r in drawn for r in _named(svg, recs))

    @settings(max_examples=150, deadline=None)
    @given(_records())
    @example(_FAR_ARROW)
    def test_written_files_read_back(self, recs):
        with tempfile.TemporaryDirectory() as tmp:
            jsonl, svg = os.path.join(tmp, "a.jsonl"), os.path.join(tmp, "a.svg")
            if _write(recs, jsonl, "jsonl") is not None:
                return  # refused; the property above checks how
            with open(jsonl, encoding="utf-8", newline="") as fh:
                lines = fh.read().split("\n")  # U+2028 and U+0085 are no line ends here
            assert lines.pop() == "" and len(lines) == len(recs)
            for line, rec in zip(lines, recs):
                parsed = json.loads(line)
                assert list(parsed) == list(FIELDS)
                assert [parsed[f] for f in FIELDS[:3]] == list(rec[:3])
                assert [parsed[f] for f in FIELDS[3:]] == [float("%.9g" % x) for x in rec[3:]]
            if _write(recs, svg, "svg") is not None:
                return
            root = ElementTree.parse(svg).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        paths = list(root.iter(ns + "path"))
        assert len(paths) == sum(run[0].kind != "arrow" and len(run) > 1 for run in _curves(recs))
        polygons = list(root.iter(ns + "polygon"))
        assert len(polygons) == len(_drawn_arrows(recs))
        for polygon in polygons:
            assert len(set(polygon.get("points").split())) == 3


class TestSvg:
    def test_wellformed_with_paths(self, tmp_path):
        recs = [_rec(i=0), _rec(i=0, u=0.7), _rec(i=1, u=0.1), _rec(i=1, u=0.2)]
        path = tmp_path / "a.svg"
        write_curves(recs, path, "svg")
        doc = xml.dom.minidom.parse(str(path))
        assert len(doc.getElementsByTagName("path")) == 2
        assert doc.getElementsByTagName("clipPath")

    def test_arrows_render_line_and_head(self, tmp_path):
        recs = [_rec(i=0, kind="arrow"), _rec(i=1, kind="arrow", u=0.9)]
        path = tmp_path / "ar.svg"
        write_curves(recs, path, "svg")
        doc = xml.dom.minidom.parse(str(path))
        assert len(doc.getElementsByTagName("line")) == 2
        assert len(doc.getElementsByTagName("polygon")) == 2


# command-line tokens: the real flag vocabulary, and junk as an OS hands it
# over, bytes with no NUL decoded by fsdecode.  No "/" in junk, so that an
# --out it names stays within one level of the run's working directory.
_COMMANDS = (*plotcli.PIPELINE_STEMS, "verify", "all")
_JUNK = st.binary(max_size=4).filter(lambda b: b"\0" not in b and b"/" not in b).map(os.fsdecode)
_OUT = st.one_of(st.sampled_from(("d", "d/e", "f", "f/g", "", ".", "..")), _JUNK)
_TOKEN = st.one_of(st.sampled_from((*_COMMANDS, "--metric", "--subgroup", "--out", "--format",
                                    "-h", "--metric=all", "--out=d", "e", "all", "K", "svg")),
                   _JUNK)
# a flag with a value it takes, or one or two tokens of any kind
_PAIR = st.one_of(st.tuples(st.just("--metric"), st.sampled_from(("e", "p", "h", "all"))),
                  st.tuples(st.just("--subgroup"), st.sampled_from(("A", "N", "K", "all"))),
                  st.tuples(st.just("--format"), st.sampled_from(("jsonl", "svg"))),
                  st.tuples(st.just("--out"), _OUT),
                  st.tuples(_TOKEN), st.tuples(_TOKEN, _TOKEN))

# Command lines for the parser oracle: the six commands; the four flags and
# --help, whole or cut to a prefix, alone, with a value after them or with
# "=value" attached; and values that are legal, start with "-" (words and
# negative numbers), are -h or "--", or are junk.
_FLAG = st.sampled_from(("--metric", "--subgroup", "--out", "--format", "--help")).flatmap(
    lambda flag: st.integers(3, len(flag)).map(lambda n: flag[:n]))
_VALUE = st.one_of(st.sampled_from(("e", "p", "h", "all", "A", "N", "K", "jsonl", "svg", "d", "",
                                    "-d", "-", "-x y", "--xyz=a b", "-1", "-.5", "-1.", "-1\n",
                                    "-h", "-hh", "-h=h", "-hx", "--", "--=x", "--bogus")),
                   _JUNK)
_ARG = st.one_of(st.sampled_from(_COMMANDS).map(lambda command: [command]),
                 _FLAG.map(lambda flag: [flag]),
                 st.tuples(_FLAG, _VALUE).map(list),
                 st.tuples(_FLAG, _VALUE).map(lambda pair: ["%s=%s" % pair]),
                 _VALUE.map(lambda value: [value]))
_ARGV = st.tuples(st.sampled_from(_COMMANDS).map(lambda command: [command]) | _ARG,
                  st.lists(_ARG, max_size=4)).map(lambda t: t[0] + [*itertools.chain(*t[1])])
# argparse drops an attached "--" (``--out=--``) and hands cli_main an empty
# list, which it failed on with a traceback.  _parse_args reads it as the
# text "--", so the reference gets a stand-in text there: no argv holds a NUL.
_DASHES = "\0dashes"
_REFERENCE = reference_parser()


def _decide(parse, argv):
    """(exit status or the flag values, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            decision = parse(argv)
        except SystemExit as exc:
            decision = exc.code
    return decision, out.getvalue(), err.getvalue()


def _reference_decision(argv):
    argv = [token[:-2] + _DASHES if token.partition("=")[2] == "--" else token for token in argv]
    decision = _decide(lambda a: vars(_REFERENCE.parse_args(a)), argv)[0]
    if isinstance(decision, dict):
        decision = {key: value.replace(_DASHES, "--") for key, value in decision.items()}
    return decision



class TestCli:
    def test_orbits_all_emits_27_files(self, tmp_path, capsys):
        code = cli_main(["orbits", "--metric", "all", "--subgroup", "all",
                         "--out", str(tmp_path)])
        assert code == 0
        files = sorted(os.listdir(tmp_path))
        assert len(files) == 27
        stems = {f.split("-")[0] for f in files}
        assert stems == {"orbit", "cayley", "cayl"}
        assert "orbit-A-e.jsonl" in files

    def test_future_past_emits_8_frames(self, tmp_path, capsys):
        code = cli_main(["future-past", "--out", str(tmp_path)])
        assert code == 0
        files = sorted(os.listdir(tmp_path))
        assert files == ["future-past-%02d.jsonl" % j for j in range(8)]

    def test_verify_passes(self, capsys):
        code = cli_main(["verify", "--metric", "e", "--subgroup", "K"])
        assert code == 0
        out = capsys.readouterr().out
        assert "distance to center" in out
        assert "FAIL" not in out

    def test_verify_failure_exits_1(self, monkeypatch, capsys):
        verify_k_orbit = plotcli.verify_k_orbit
        monkeypatch.setattr(plotcli, "verify_k_orbit",
                            lambda kind, v0: verify_k_orbit(kind, v0)._replace(max_residual=1e-3))
        assert cli_main(["verify", "--metric", "e"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert all(line.endswith("max residual 0.001 [FAIL]") for line in lines)

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["orbits", "--metric", "q"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["future-past", "--metric", "e"],
        ["future-past", "--subgroup", "K"],
        ["verify", "--format", "svg"],
    ])
    def test_flag_the_command_does_not_read_exits_2(self, tmp_path, argv):
        # future-past draws hyperbolic frames whatever --metric says, and
        # verify writes no file to format
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--out", str(tmp_path / "new")])
        assert exc.value.code == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["future-past", "--format", "svg", "--out", "d"],
        ["verify", "--metric", "all", "--out", "d"],
    ])
    def test_benchmark_command_lines_parse(self, argv):
        assert _parse_args(argv)["out"] == "d"

    def test_subcommands_in_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _parse_args(["--help"])
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("  ")]
        assert exc.value.code == 0
        assert listed == ["orbits", "transverses", "arrows", "future-past", "verify", "all"]

    def test_argv_may_be_any_iterable(self, capsys):
        # as argparse took it
        with pytest.raises(SystemExit) as exc:
            cli_main(iter(["orbits", "--help"]))
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: cliffeph ")

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep")
        code = cli_main(["arrows", "--metric", "p", "--subgroup", "N",
                         "--out", str(target)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cliffeph: error: ")
        assert target.read_text() == "keep"

    @pytest.mark.parametrize("blocked", ["A", "K"])
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, blocked):
        # an existing directory where one output file goes
        (tmp_path / ("arrows-%s-e.jsonl" % blocked)).mkdir()
        code = cli_main(["arrows", "--metric", "e", "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("cliffeph: error: cannot write ")
        assert "Traceback" not in captured.err
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]
        # the files written before it are listed, and exist
        before = "ANK"[:"ANK".index(blocked)]
        printed = captured.out.splitlines()
        assert printed == [str(tmp_path / ("arrows-%s-e.jsonl" % s)) for s in before]
        assert all(os.path.isfile(p) for p in printed)

    def test_verify_creates_no_out_dir(self, tmp_path, capsys):
        target = tmp_path / "new"
        code = cli_main(["verify", "--metric", "p", "--subgroup", "A",
                         "--out", str(target)])
        assert code == 0
        assert os.listdir(tmp_path) == []

    def test_python_m_cliffeph_runs_the_cli(self, capsys):
        src = os.path.dirname(os.path.dirname(cliffeph.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "cliffeph", "verify", "--metric", "p"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert cli_main(["verify", "--metric", "p"]) == 0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [
        ["verify", "--metric", "e"],
        ["orbits", "--metric", "e", "--subgroup", "A"],
    ])
    def test_closed_stdout_exits_2(self, tmp_path, argv, unbuffered):
        # the reader of stdout has gone before the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cliffeph.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        if argv[0] != "verify":
            argv = argv + ["--out", str(tmp_path)]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "cliffeph", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cliffeph: error: ")
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    @settings(max_examples=200, deadline=None)
    @given(_ARGV)
    @example(["orbits", "--met", "e"])
    @example(["verify", "--o", "d"])
    @example(["future-past", "--f", "svg"])
    @example(["orbits", "--out="])
    @example(["orbits", "--metric", "e", "--metric", "p"])
    @example(["orbits", "--out", "-d"])
    @example(["orbits", "--out", "-1"])
    @example(["orbits", "--out", "-x y"])
    @example(["orbits", "--"])
    @example(["orbits", "-h", "--metric", "q"])
    @example(["orbits", "--metric", "q", "-h"])
    @example(["--he"])
    @example(["--bogus", "orbits", "-h"])
    @example(["orbits", "-h", "--=x"])
    @example(["orbits", "-h=h"])
    @example(["orbits", "--out=--"])
    @example(["orbits", "--metric=--", "-h"])
    @example(["orbits", "-1\n"])  # an error line quotes what it names
    def test_parser_decides_as_argparse(self, argv):
        expected = _reference_decision(argv)
        decision, out, err = _decide(_parse_args, argv)
        assert decision == expected
        if decision == 0:
            assert out.startswith("usage: cliffeph ") and err == ""
        elif decision == 2:
            usage, error = err.splitlines()
            assert usage.startswith("usage: cliffeph ") and error.startswith("cliffeph: error: ")
            assert out == ""
        else:
            assert out == err == ""

    @settings(max_examples=150, deadline=2000)
    @given(command=st.sampled_from(_COMMANDS), out=_OUT, pairs=st.lists(_PAIR, max_size=3),
           verify_ok=st.booleans())
    def test_any_argv_exits_0_1_or_2_and_makes_out_only_for_files(
            self, tmp_path_factory, command, out, pairs, verify_ok):
        # with run_pipeline and run_verify stubbed, nothing is sampled
        argv = [command, "--out", out, *itertools.chain.from_iterable(pairs)]
        base = tmp_path_factory.mktemp("argv")  # what --out .. names
        cwd = base / "cwd"
        cwd.mkdir()
        (cwd / "f").write_text("a file")

        def run_pipeline(name, job, config):
            path = os.path.join(config.out_dir, "%s.%s" % (name, config.fmt))
            write_curves([], path, config.fmt)
            yield path

        def run_verify(config, report):
            report.write("report\n")
            return verify_ok

        output = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(output), \
                contextlib.redirect_stderr(output):
            mp.chdir(cwd)
            mp.setattr(plotcli, "_usable_cpus", lambda: 1)
            mp.setattr(plotcli, "run_pipeline", run_pipeline)
            mp.setattr(plotcli, "run_verify", run_verify)
            try:
                args = _parse_args(argv)
            except SystemExit:
                args = None
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)
        assert "Traceback" not in output.getvalue()
        assert not list(base.rglob("*.part"))
        made = {p.resolve() for p in base.rglob("*") if p.is_dir()} - {cwd.resolve()}
        if args is None or args["command"] == "verify":
            assert not made
        else:
            target = (cwd / args["out"]).resolve()
            assert all(target == d or target.is_relative_to(d) for d in made)
            assert target.is_dir() or code == 2

    def test_arrows_file_has_grid(self, tmp_path):
        code = cli_main(["arrows", "--metric", "p", "--subgroup", "N",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "arrows-N-p.jsonl").read_text().splitlines()
        assert len(lines) == 220


class TestStreaming:
    """A pipeline task writes each stream's file before it samples the
    next stream, so it holds one stream's records at a time."""

    BLOCKED_ARGV = ["transverses", "--metric", "e", "--subgroup", "A", "--out"]
    # the files of BLOCKED_ARGV, stream 0..2
    BLOCKED_NAMES = ["orbit-t-A-e.jsonl", "cayley-t-A-e.jsonl", "cayl-a-t-A-e.jsonl"]

    @pytest.mark.parametrize("argv,job", [
        (["orbits", "--metric", "h", "--subgroup", "N"], (MetricKind.HYPERBOLIC, Subgroup.N)),
        (["transverses", "--metric", "e", "--subgroup", "A"], (MetricKind.ELLIPTIC, Subgroup.A)),
        (["future-past"], ()),
    ])
    def test_each_stream_is_written_before_the_next_is_sampled(
            self, tmp_path, monkeypatch, capsys, argv, job):
        sample, listed = ephgeom._sample, []

        def listing_sample(*args):
            listed.append(sorted(os.listdir(tmp_path)))
            return sample(*args)

        monkeypatch.setattr(ephgeom, "_sample", listing_sample)
        assert cli_main(argv + ["--out", str(tmp_path)]) == 0
        names = [curve_filename(stem, job[1], job[0], "jsonl") if job else stem + ".jsonl"
                 for stem in plotcli.PIPELINE_STEMS[argv[0]][1].values()]
        # stream k is sampled once the files of streams 0..k-1, and no .part, are in place
        assert listed == [sorted(names[:k]) for k in range(len(names))]
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / name) for name in names]

    def test_task_peak_is_below_half_the_sampler_peak(self, tmp_path):
        # tracemalloc peaks above the traced size at each call's start; the
        # task holds one of the 8 future-past frames, the sampler all of them
        config = JobConfig(kinds=[], subs=[], out_dir=str(tmp_path))
        list(plotcli.run_pipeline("future-past", (), config))  # the symbolic build is cached

        def peak(call):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - start

        tracemalloc.start()
        try:
            sampler = peak(sample_future_past)
            task = peak(lambda: list(plotcli.run_pipeline("future-past", (), config)))
        finally:
            tracemalloc.stop()
        assert task < sampler / 2, (task, sampler)

    def test_failed_write_mid_task_keeps_the_streams_before_it(self, tmp_path, capsys):
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert cli_main(self.BLOCKED_ARGV + [str(clean)]) == 0
        capsys.readouterr()
        (out / self.BLOCKED_NAMES[1]).mkdir(parents=True)  # an existing directory where stream 1 goes
        assert cli_main(self.BLOCKED_ARGV + [str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cliffeph: error: cannot write ")
        assert captured.out.splitlines() == [str(out / self.BLOCKED_NAMES[0])]
        assert sorted(os.listdir(out)) == sorted(self.BLOCKED_NAMES[:2])  # no .part
        first = self.BLOCKED_NAMES[0]
        assert (out / first).read_bytes() == (clean / first).read_bytes()
        # stream 1's build filled the constructor memo; the closed stream
        # generator's finally emptied it
        assert [f.cache_info().currsize for f in (symexpr.add, symexpr.mul, symexpr.pow_)] == [
            0, 0, 0]

    def test_sampling_error_mid_task_keeps_the_streams_before_it(
            self, tmp_path, monkeypatch, capsys):
        sample = ephgeom._sample

        def sample_but_stream_1(kind_name, label, *args):
            if label == "cayley_point":
                raise ZeroDivisionError("no stream 1")
            return sample(kind_name, label, *args)

        monkeypatch.setattr(ephgeom, "_sample", sample_but_stream_1)
        with pytest.raises(ZeroDivisionError):
            cli_main(self.BLOCKED_ARGV + [str(tmp_path)])
        assert capsys.readouterr().out.splitlines() == [str(tmp_path / self.BLOCKED_NAMES[0])]
        assert os.listdir(tmp_path) == [self.BLOCKED_NAMES[0]]


def _no_children():
    """Whether this process has no child process left, exited or not."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWorkers:
    """A multi-metric command runs its tasks on worker processes, one per
    usable CPU; ``_usable_cpus`` is patched so that the host's count does
    not decide which path runs."""

    ARROWS = ["%s-%s" % (sub, kind) for kind in "eph" for sub in "ANK"]

    def test_workers_write_and_print_what_one_process_does(
            self, all_jsonl_run, tmp_path, monkeypatch, capsys):
        status, stdout, out = all_jsonl_run
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 1)
        assert cli_main(["all", "--format", "jsonl", "--out", str(tmp_path)]) == status == 0
        assert capsys.readouterr().out == stdout.replace(str(out), str(tmp_path))
        names = sorted(os.listdir(out))
        assert len(names) == 71 and sorted(os.listdir(tmp_path)) == names
        for name in names:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name

    # with three workers, task i runs in worker i % 3; worker 0 is the parent
    @pytest.mark.parametrize("command, blocked", [
        pytest.param("arrows", "arrows-N-p", id="N-p"),
        pytest.param("arrows", "arrows-K-e", id="K-e"),
        pytest.param("arrows", "arrows-A-p", id="A-p"),
        # task N-p runs in worker 1, and writes its orbit file before this one
        pytest.param("orbits", "cayley-N-p", id="orbits-cayley-N-p"),
    ])
    def test_failed_write_in_a_worker_exits_2(self, tmp_path, monkeypatch, capsys, command, blocked):
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 3)
        (tmp_path / (blocked + ".jsonl")).mkdir()
        assert cli_main([command, "--metric", "all", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cliffeph: error: cannot write ")
        names = ["%s-%s" % (stem, task) for task in self.ARROWS
                 for stem in plotcli.PIPELINE_STEMS[command][1].values()]
        before = names[:names.index(blocked)]
        assert captured.out.splitlines() == [str(tmp_path / (name + ".jsonl")) for name in before]
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]
        assert _no_children()

    def test_failed_verify_in_a_worker_exits_1_after_every_path(
            self, tmp_path, monkeypatch, capsys):
        # 11 tasks on three workers: verify, the last, runs in worker 1
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 3)
        verify_k_orbit = plotcli.verify_k_orbit
        monkeypatch.setattr(plotcli, "verify_k_orbit",
                            lambda kind, v0: verify_k_orbit(kind, v0)._replace(max_residual=1e-3))
        assert cli_main(["all", "--subgroup", "K", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        paths, report = lines[:29], lines[29:]
        assert sorted(paths) == sorted(str(tmp_path / name) for name in os.listdir(tmp_path))
        assert report and all("max residual 0.001" in line and line.endswith(" [FAIL]")
                              for line in report)
        assert _no_children()

    def _arrows(self, out, monkeypatch, capsys, cpus):
        """(exit status, stdout, {file name: bytes}) of ``arrows --metric
        all`` on ``cpus`` usable CPUs, ``out`` written as OUT in stdout."""
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: cpus)
        status = cli_main(["arrows", "--metric", "all", "--out", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        return status, stdout, {p.name: p.read_bytes() for p in out.iterdir()}

    @pytest.mark.parametrize("error", [ZeroDivisionError, cliffeph.FreeSymbolError])
    def test_worker_error_is_raised_with_its_type_and_message(
            self, tmp_path, monkeypatch, capsys, error):
        # task 5 runs in worker 1 of 2, and again here, where it raises too
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 2)
        sample_arrows = plotcli.sample_arrows

        def sample_arrows_but_p_k(kind, sub):
            if (kind, sub) == (MetricKind.PARABOLIC, Subgroup.K):
                raise error("no arrows for K-p")
            return sample_arrows(kind, sub)

        monkeypatch.setattr(plotcli, "sample_arrows", sample_arrows_but_p_k)
        with pytest.raises(error) as excinfo:
            cli_main(["arrows", "--metric", "all", "--out", str(tmp_path)])
        assert type(excinfo.value) is error
        assert str(excinfo.value) == "no arrows for K-p"
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / ("arrows-%s.jsonl" % t)) for t in self.ARROWS[:5]]
        assert _no_children()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_worker_only_error_runs_again_here_as_one_process_does(
            self, tmp_path, monkeypatch, capsys, cpus):
        one = self._arrows(tmp_path / "one", monkeypatch, capsys, 1)
        parent, sample_arrows = os.getpid(), plotcli.sample_arrows

        def sample_arrows_in_parent(kind, sub):
            if os.getpid() != parent:
                raise ZeroDivisionError("no arrows in a worker")
            return sample_arrows(kind, sub)

        monkeypatch.setattr(plotcli, "sample_arrows", sample_arrows_in_parent)
        assert self._arrows(tmp_path / "many", monkeypatch, capsys, cpus) == one
        assert one[0] == 0 and len(one[2]) == 9
        assert _no_children()

    def test_worker_that_dies_mid_stripe_leaves_its_tasks_to_this_process(
            self, tmp_path, monkeypatch, capsys):
        # worker 1 of 3 runs N-e, N-p and N-h, and dies in its second task
        one = self._arrows(tmp_path / "one", monkeypatch, capsys, 1)
        parent, sample_arrows = os.getpid(), plotcli.sample_arrows

        def sample_arrows_or_die(kind, sub):
            if os.getpid() != parent and (kind, sub) == (MetricKind.PARABOLIC, Subgroup.N):
                os._exit(0)
            return sample_arrows(kind, sub)

        monkeypatch.setattr(plotcli, "sample_arrows", sample_arrows_or_die)
        assert self._arrows(tmp_path / "many", monkeypatch, capsys, 3) == one
        assert _no_children()

    def test_failed_fork_runs_the_stripe_here(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 3)

        def fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", fork)
        assert cli_main(["arrows", "--metric", "all", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(tmp_path / ("arrows-%s.jsonl" % t)) for t in self.ARROWS]

    @pytest.mark.parametrize("argv", [
        ["orbits", "--metric", "e"],
        ["verify", "--metric", "all"],
    ])
    def test_single_metric_or_single_task_command_never_forks(self, tmp_path, monkeypatch, argv):
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 3)

        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        assert cli_main(argv + ["--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command, built", [
        # transverse tasks read only the families, arrow tasks only the fields
        ("transverses", {"build_families": 3, "vector_fields": 0}),
        ("arrows", {"build_families": 0, "vector_fields": 3}),
        ("all", {"build_families": 3, "vector_fields": 3}),
    ])
    def test_only_what_some_task_reads_is_built_before_the_fork(
            self, tmp_path, monkeypatch, command, built):
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(plotcli, "run_pipeline", lambda name, job, config: iter(()))
        monkeypatch.setattr(plotcli, "run_verify", lambda config, out: True)
        calls = collections.Counter()
        for name in built:
            monkeypatch.setattr(plotcli, name, lambda kind, name=name: calls.update([name]))
        assert cli_main([command, "--metric", "all", "--out", str(tmp_path)]) == 0
        assert {name: calls[name] for name in built} == built
        assert _no_children()

    def test_all_is_warnings_clean_in_dev_mode(self, tmp_path, fmt="jsonl"):
        # a worker's pipe left open is a ResourceWarning; from 3.12 a fork
        # with threads running is a DeprecationWarning
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cliffeph.__file__)))
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "cliffeph", "all",
             "--format", fmt, "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(proc.stdout.splitlines()) == 71 + 29

    def test_all_svg_is_warnings_clean_in_dev_mode(self, tmp_path):
        # the SVG lines stream from a generator into writelines
        self.test_all_is_warnings_clean_in_dev_mode(tmp_path, "svg")


class TestJobConfig:
    def test_run_verify_report_stream(self, tmp_path):
        import io

        config = JobConfig(kinds=[MetricKind.PARABOLIC], subs=[Subgroup.A])
        buf = io.StringIO()
        assert run_verify(config, out=buf)
        assert "vertex law A" in buf.getvalue()
