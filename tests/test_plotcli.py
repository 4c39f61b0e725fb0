import json
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom

import pytest

import cliffeph
from cliffeph import CurveRecord, JobConfig, cli_main, curve_filename, plotcli, write_curves
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


_BAD_ORDERS = [(("nan", "none"), ValueError), (("none", "nan"), TypeError)]


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

    @pytest.mark.parametrize("order,error", _BAD_ORDERS)
    def test_jsonl_first_bad_record_picks_the_error(self, tmp_path, order, error, fmt="jsonl"):
        bad = {"nan": _rec(v=math.nan), "none": _rec(v=None)}
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
        pytest.param([_rec(), _rec(u=0.7)], (math.inf, 25.0), id="view-box"),
    ])
    def test_svg_overflowing_tip_or_box_raises_and_leaves_no_file(self, tmp_path, recs, limits):
        with pytest.raises(ValueError):
            write_curves(recs, tmp_path / "a.svg", "svg", limits=limits)
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

    def test_arrows_file_has_grid(self, tmp_path):
        code = cli_main(["arrows", "--metric", "p", "--subgroup", "N",
                         "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "arrows-N-p.jsonl").read_text().splitlines()
        assert len(lines) == 220


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
    @pytest.mark.parametrize("blocked", ["N-p", "K-e", "A-p"])
    def test_failed_write_in_a_worker_exits_2(self, tmp_path, monkeypatch, capsys, blocked):
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 3)
        (tmp_path / ("arrows-%s.jsonl" % blocked)).mkdir()
        assert cli_main(["arrows", "--metric", "all", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("cliffeph: error: cannot write ")
        before = self.ARROWS[:self.ARROWS.index(blocked)]
        assert captured.out.splitlines() == [str(tmp_path / ("arrows-%s.jsonl" % t)) for t in before]
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

    @pytest.mark.parametrize("error", [ZeroDivisionError, cliffeph.FreeSymbolError])
    def test_worker_error_is_raised_with_its_type_and_message(self, tmp_path, monkeypatch, error):
        monkeypatch.setattr(plotcli, "_usable_cpus", lambda: 2)
        parent, sample_arrows = os.getpid(), plotcli.sample_arrows

        def sample_arrows_in_parent(kind, sub):
            if os.getpid() != parent:
                raise error("no arrows in a worker")
            return sample_arrows(kind, sub)

        monkeypatch.setattr(plotcli, "sample_arrows", sample_arrows_in_parent)
        with pytest.raises(error) as excinfo:
            cli_main(["arrows", "--metric", "all", "--out", str(tmp_path)])
        assert type(excinfo.value) is error
        assert str(excinfo.value) == "no arrows in a worker"
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
