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
