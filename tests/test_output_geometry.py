"""The geometry of what ``cliffeph all`` writes: in each metric the drawn
orbits and their Cayley images lie on cycles k(u^2 - sigma v^2) - 2lu
- 2nv + m = 0 of that metric's sigma (arXiv:math/0410399), and in the
orbit files the written field (du, dv) is tangent to them.  The digest in
``bench/golden.json`` says only that the bytes did not move; this says
that they are right."""

import json
import math
import os
from itertools import groupby
from operator import mul

import pytest

SIGMA = {"e": -1, "p": 0, "h": 1}
# The A-transverses of the parabolic and hyperbolic metrics start on the
# unit circle, which is a cycle only for sigma = -1: the check must fail them.
CONTROLS = {"%s-t-A-%s.jsonl" % (stem, m) for stem in ("orbit", "cayley", "cayl-a") for m in "ph"}
# smallest / largest singular value of a run: worst 5.4e-8 (cayl-a-A-h)
# on the other 48 files, 3.7e-2 to 5.1e-1 on the controls
RATIO_BOUND = 1e-6
# |cos| between the field and the cycle's normal: worst 5.6e-6 (cayley-A-h)
COS_BOUND = 1e-3
# The wrong-sigma control.  A line (k = 0) is a cycle of every sigma, so
# only runs whose fitted cycle is determined and curved must fail the
# ratio bound under both other sigma.  Determined: the second smallest
# ratio is above DETERMINED (at most 8.2e-6 where the points span a
# pencil of cycles, at least 4.3e-3 elsewhere).  Curved: the unit null
# vector's |k| is above K_FLOOR (at most 9.7e-10 on the lines, at least
# 1.7e-3 on the rest).  Worst wrong-sigma ratio 2.4e-6 (cayley-A-h curve
# 10, a flat arc), 2.4 times RATIO_BOUND, over 600 runs in 32 files.
DETERMINED = 1e-4
K_FLOOR = 1e-6
# a fixed point's run is one point, where the written field is float noise
FIELD_FLOOR = 1e-9


def _jacobi_svd(rows, sweeps=30):
    """Singular values and right singular vectors (``vecs[i]`` for value i)
    of a matrix with four columns, by one-sided Jacobi (Hestenes) rotations
    of its columns.  The eigenvalues of the Gram matrix would square the
    condition, which puts a ratio of 5e-8 at double rounding."""
    cols = [list(c) for c in zip(*rows)]
    vecs = [[float(i == j) for j in range(4)] for i in range(4)]
    for _ in range(sweeps):
        rotated = False
        for i in range(3):
            for j in range(i + 1, 4):
                a = sum(map(mul, cols[i], cols[i]))
                b = sum(map(mul, cols[j], cols[j]))
                c = sum(map(mul, cols[i], cols[j]))
                if abs(c) <= 1e-15 * math.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2 * c)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                cs = 1 / math.hypot(1.0, t)
                sn = cs * t
                for m in (cols, vecs):
                    x, y = m[i], m[j]
                    m[i] = [cs * p - sn * q for p, q in zip(x, y)]
                    m[j] = [sn * p + cs * q for p, q in zip(x, y)]
        if not rotated:
            break
    return [math.sqrt(sum(map(mul, c, c))) for c in cols], vecs


def _fit(run, sigma):
    """The singular value ratios, smallest first, of the rows (u^2 - sigma
    v^2, u, v, 1) of the run's points, and the unit null vector (k, -2l,
    -2n, m) of the smallest: the cycle that fits them best."""
    rows = []
    for r in run:
        row = (r["u"] ** 2 - sigma * r["v"] ** 2, r["u"], r["v"], 1.0)
        # rows, not columns: unit columns blow up the 1e-17 noise in v
        # of the curves along the u axis
        scale = max(map(abs, row))
        rows.append([x / scale for x in row])
    values, vecs = _jacobi_svd(rows)
    order = sorted(range(4), key=values.__getitem__)
    return [values[i] / values[order[-1]] for i in order], vecs[order[0]]


def _worst(path, sigma, tangency, wrong_sigmas):
    """Over the file's runs of 5 or more points: the worst ratio, the worst
    |cos| of the field against the fitted cycle's normal (0 unless
    ``tangency``), and for each determined, curved run the smaller ratio
    under ``wrong_sigmas``."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    worst_ratio = worst_cos = 0.0
    wrong = []
    for _, group in groupby(records, lambda r: r["curve_id"]):
        run = list(group)
        if len(run) < 5:
            continue
        ratios, (k, a, b, _) = _fit(run, sigma)
        worst_ratio = max(worst_ratio, ratios[0])
        if wrong_sigmas and ratios[1] > DETERMINED and abs(k) > K_FLOOR:
            wrong.append(min(_fit(run, s)[0][0] for s in wrong_sigmas))
        for r in run if tangency else ():
            field = math.hypot(r["du"], r["dv"])
            if field > FIELD_FLOOR:
                gu, gv = 2 * k * r["u"] + a, -2 * k * sigma * r["v"] + b
                cos = abs(gu * r["du"] + gv * r["dv"]) / (math.hypot(gu, gv) * field)
                worst_cos = max(worst_cos, cos)
    return worst_ratio, worst_cos, wrong


@pytest.fixture(scope="module")
def worst(all_jsonl_run):
    """{file name: _worst(...)} of the 54 orbit and transverse files."""
    status, _, out = all_jsonl_run
    assert status == 0
    names = sorted(n for n in os.listdir(out) if not n.startswith(("arrows", "future-past")))
    assert len(names) == 54
    result = {}
    for name in names:
        sigma = SIGMA[name[-len("e.jsonl")]]
        others = () if name in CONTROLS else tuple(set(SIGMA.values()) - {sigma})
        result[name] = _worst(os.path.join(out, name), sigma, "-t-" not in name, others)
    return result


def test_every_drawn_orbit_lies_on_a_cycle_of_its_metric(worst):
    assert {name for name, (ratio, _, _) in worst.items() if ratio > RATIO_BOUND} == CONTROLS
    assert max(cos for _, cos, _ in worst.values()) <= COS_BOUND


def test_curved_orbits_lie_on_no_cycle_of_another_metric(worst):
    wrong = [ratio for _, _, ratios in worst.values() for ratio in ratios]
    assert len(wrong) >= 500  # the control checks most curves, not a few
    assert min(wrong) > RATIO_BOUND
