"""The benchmark in ``bench/`` drives the package by name: ``spans.py``
wraps the functions in its ``PATCHES`` table and ``job.py`` and the probe
hooks read a few more.  A rename in the package would only fail the
traced benchmark run, so these tests pin those names here."""

import importlib
import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path,attr,name", _load_spans().PATCHES)
def test_patched_name_resolves_to_a_callable(path, attr, name):
    module, _, cls = path.partition(".")
    owner = importlib.import_module("cliffeph." + module)
    if cls:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr)), name


def test_names_read_by_the_job_and_the_probe_exist():
    from cliffeph import ephgeom, plotcli

    assert callable(ephgeom.build_families)
    assert callable(ephgeom.vector_fields)
    assert callable(plotcli.cli_main)
    assert {k.letter for k in ephgeom.MetricKind} == {"e", "p", "h"}
    tables = ephgeom.DEFAULT_TUNING
    for sub in ephgeom.Subgroup:
        for kind in ephgeom.MetricKind:
            assert tables.vilimits[sub][kind] * (2 * tables.fsteps[sub][kind] + 1) > 0
    assert len(ephgeom.ARROW_GRID_COLS) * len(ephgeom.ARROW_GRID_ROWS) > 0
    nodes = range(-ephgeom.FUTURE_PAST_NODES // 2, ephgeom.FUTURE_PAST_NODES // 2 + 1)
    assert ephgeom.FUTURE_PAST_FRAMES * ephgeom.FUTURE_PAST_CURVES * len(nodes) > 0


def test_transverse_sampler_calls_normal_by_its_module_name(monkeypatch):
    # the probe's ephgeom.transverse_tree_nodes sums the normal() results
    # made inside sample_transverses, looked up as ephgeom.normal
    from cliffeph import ephgeom

    kind, sub = ephgeom.MetricKind.ELLIPTIC, ephgeom.Subgroup.A
    ephgeom.build_families(kind)
    ephgeom.vector_fields(kind)
    normal, calls = ephgeom.normal, []
    monkeypatch.setattr(ephgeom, "normal", lambda *args: calls.append(args) or normal(*args))
    ephgeom.sample_transverses(kind, sub)
    assert len(calls) > 0


def test_probe_hooks_read_the_result_shapes():
    # the probe's record, attempt and fit counters read each sampler's and
    # verifier's result; run its hooks as plain functions on real results
    from types import SimpleNamespace

    from cliffeph import ephgeom

    probe = SimpleNamespace(_ephgeom=ephgeom, _records=0, _attempted=0, _fits=0, _skipped=0)
    hooks = _load_spans().JobProbe
    args = (ephgeom.MetricKind.PARABOLIC, ephgeom.Subgroup.N)
    hooks._on_streams(probe, args, ephgeom.sample_orbits(*args))
    hooks._on_streams(probe, args, ephgeom.sample_transverses(*args))
    assert (probe._records, probe._attempted) == (2 * 626, 2 * 630)
    hooks._on_arrows(probe, args, ephgeom.sample_arrows(*args))
    hooks._on_future_past(probe, (), ephgeom.sample_future_past())
    assert (probe._records, probe._attempted) == (2 * 626 + 220 + 4342, 2 * 630 + 220 + 4920)
    for sub in (ephgeom.Subgroup.A, ephgeom.Subgroup.N):
        hooks._on_vertices(probe, (sub,), ephgeom.verify_parabolic_vertices(sub))
    assert (probe._fits, probe._skipped) == (1160 + 380, 0)
