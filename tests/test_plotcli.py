import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import pytest

import cliffeph
from cliffeph import CurveRecord, JobConfig, cli_main, curve_filename, write_curves
from cliffeph.curves import FIELDS
from cliffeph.ephgeom import MetricKind, Subgroup
from cliffeph.plotcli import _build_parser, run_verify


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
    @pytest.mark.parametrize("name,bad", [
        pytest.param(name, bad, id=("%s" if name == "v" else "grade-%s") % bad)
        for name in ("v", "color_grade") for bad in (math.nan, math.inf, -math.inf)
    ])
    def test_non_finite_number_raises_and_leaves_no_file(self, tmp_path, fmt, name, bad):
        # a polyline is drawn in its first record's grade, so both records carry it
        first = {"color_grade": bad} if name == "color_grade" else {}
        with pytest.raises(ValueError):
            write_curves([_rec(**first), _rec(u=0.7, **{name: bad})], tmp_path / ("a." + fmt), fmt)
        assert os.listdir(tmp_path) == []

    def test_unwritable_path_wraps_os_error(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            write_curves([_rec()], tmp_path / "missing" / "a.jsonl", "jsonl")
        assert os.listdir(tmp_path) == []


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
        args = _build_parser().parse_args(argv)
        assert args.out == "d"

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

    def test_arrows_file_has_grid(self, tmp_path):
        code = cli_main(["arrows", "--metric", "p", "--subgroup", "N",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "arrows-N-p.jsonl").read_text().splitlines()
        assert len(lines) == 220


class TestJobConfig:
    def test_run_verify_report_stream(self, tmp_path):
        import io

        config = JobConfig(kinds=[MetricKind.PARABOLIC], subs=[Subgroup.A])
        buf = io.StringIO()
        assert run_verify(config, out=buf)
        assert "vertex law A" in buf.getvalue()
