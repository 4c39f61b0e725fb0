"""The digits of what ``cliffeph all`` writes: each value in every JSONL
file is its true value rounded to 9 significant digits.  The true value is
the stream's expression at the sampled inputs to 50 digits
(``reference_decimal``), the float inputs converted exactly, so that only
the float evaluation is judged.  The inputs are those the samplers draw,
replayed through the compiled streams to find which points were kept."""

import json
import os
from decimal import Decimal

import pytest
from conftest import reference_decimal

from cliffeph import ephgeom, plotcli, symexpr
from cliffeph.ephgeom import MetricKind, Subgroup

# |written - true| may exceed half a unit in the 9th digit by this much
# relative to |true|: worst measured 1.2e-16 (cayley-t-N-h du, where the
# float is the tie 0.3662109375 and the true value one ulp below it)
RELATIVE_SLACK = Decimal("1e-12")
# below FLOOR only the written value is bounded, by FLOOR: float noise about
# an exact zero (worst measured written value 2.7e-13, cayl-a-K-h dv)
FLOOR = Decimal("1e-9")
FIELDS = ("u", "v", "du", "dv")


def _streams():
    """([(file name, call)] for every file that ``cliffeph all`` writes,
    {compiled function: (exprs, argument names)}).  A call is the (fn,
    direction, curves, accept) that the file's sampler passes to
    ``_sample``, which is stubbed, so that nothing is sampled; each
    pipeline's stream generator is drained to make every call."""
    calls, exprs_of = [], {}

    def compile_ex(exprs, args):
        fn = symexpr.compile_ex(exprs, args)
        exprs_of[fn] = tuple(exprs), tuple(map(symexpr._sym_name, args))
        return fn

    def sample(kind_name, label, fn, direction, curves, accept, pen):
        calls.append((fn, direction, curves, accept))
        return []

    names = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ephgeom, "compile_ex", compile_ex)
        mp.setattr(ephgeom, "_sample", sample)
        for name, (sampler, stems) in plotcli.PIPELINE_STEMS.items():
            jobs = [()] if name == "future-past" else [(k, s) for k in MetricKind for s in Subgroup]
            for job in jobs:
                list(getattr(plotcli, sampler)(*job))
                names += [plotcli.curve_filename(stem, job[1], job[0], "jsonl") if job
                          else stem + ".jsonl" for stem in stems.values()]
    assert len(names) == len(calls) == 71
    return list(zip(names, calls)), exprs_of


def _true_values(call, exprs_of):
    """The true (u, v, du, dv) of each point that the stream keeps, in
    the order of its records."""
    fn, direction, curves, accept = call
    kept = [(point, out) for _, points in curves for point in points
            for out in [fn(*point)] if accept(out[0], out[1])]
    values = reference_decimal(*exprs_of[fn], [point for point, _ in kept])
    if direction is ephgeom._transverse_direction:
        return [(u, v, *_decimal_direction(tu, tv, out)) for (u, v, tu, tv), (_, out)
                in zip(values, kept)]
    fields = reference_decimal(*exprs_of[direction], [out[:2] for _, out in kept])
    return [uv + field for uv, field in zip(values, fields)]


def _decimal_direction(tu, tv, out):
    """``ephgeom._transverse_direction`` of a finite direction, on the
    branch that the float outputs ``out`` took: at two points of
    cayl-a-t-N-h |tu| + |tv| is 100, the branch point, to 50 digits."""
    if abs(out[2]) + abs(out[3]) <= 100:
        return tu, tv
    r = (tu * tu + tv * tv).sqrt()
    return tu / r, tv / r


def _worst(written, true):
    """Over (written, true) pairs: the largest distance beyond half a unit
    in the 9th digit, relative to |true|, of a true value of at least
    FLOOR, and the largest |written| whose true value is below FLOOR."""
    excess = below = Decimal(0)
    for w, t in zip(written, true):
        if abs(t) < FLOOR:
            below = max(below, abs(w))
        else:
            half_unit = Decimal(5).scaleb(t.adjusted() - 9)
            excess = max(excess, (abs(w - t) - half_unit) / abs(t))
    return excess, below


@pytest.fixture(scope="module")
def worst(all_jsonl_run):
    """{(file name, field): ``_worst`` of that field's values}."""
    status, _, out = all_jsonl_run
    assert status == 0
    streams, exprs_of = _streams()
    result = {}
    for name, call in streams:
        with open(os.path.join(out, name)) as fh:
            written = [json.loads(line, parse_float=Decimal, parse_int=Decimal) for line in fh]
        true = _true_values(call, exprs_of)
        assert len(true) == len(written), name
        for i, field in enumerate(FIELDS):
            result[name, field] = _worst((w[field] for w in written), (t[i] for t in true))
    return result


def test_every_written_value_is_its_true_value_to_9_digits(worst):
    assert len(worst) == 71 * len(FIELDS)
    assert {key: excess for key, (excess, _) in worst.items() if excess > RELATIVE_SLACK} == {}
    assert {key: below for key, (_, below) in worst.items() if below >= FLOOR} == {}
