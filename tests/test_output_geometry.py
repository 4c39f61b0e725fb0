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

SIGMA = {"e": -1, "p": 0, "h": 1}
# The A-transverses of the parabolic and hyperbolic metrics start on the
# unit circle, which is a cycle only for sigma = -1: the check must fail them.
CONTROLS = {"%s-t-A-%s.jsonl" % (stem, m) for stem in ("orbit", "cayley", "cayl-a") for m in "ph"}
# smallest / largest singular value of a run: worst 5.4e-8 (cayl-a-A-h)
# on the other 48 files, 3.7e-2 to 5.1e-1 on the controls
RATIO_BOUND = 1e-6
# |cos| between the field and the cycle's normal: worst 5.6e-6 (cayley-A-h)
COS_BOUND = 1e-3
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


def _worst(path, sigma, tangency):
    """The worst singular value ratio over the file's runs of 5 or more
    points, and the worst |cos| of the field against the fitted cycle's
    normal (0 unless ``tangency``)."""
    with open(path) as fh:
        records = [json.loads(line) for line in fh]
    worst_ratio = worst_cos = 0.0
    for _, group in groupby(records, lambda r: r["curve_id"]):
        run = list(group)
        if len(run) < 5:
            continue
        rows = []
        for r in run:
            row = (r["u"] ** 2 - sigma * r["v"] ** 2, r["u"], r["v"], 1.0)
            # rows, not columns: unit columns blow up the 1e-17 noise in v
            # of the curves along the u axis
            scale = max(map(abs, row))
            rows.append([x / scale for x in row])
        values, vecs = _jacobi_svd(rows)
        low = min(range(4), key=values.__getitem__)
        worst_ratio = max(worst_ratio, values[low] / max(values))
        k, a, b, _ = vecs[low]
        for r in run if tangency else ():
            field = math.hypot(r["du"], r["dv"])
            if field > FIELD_FLOOR:
                gu, gv = 2 * k * r["u"] + a, -2 * k * sigma * r["v"] + b
                cos = abs(gu * r["du"] + gv * r["dv"]) / (math.hypot(gu, gv) * field)
                worst_cos = max(worst_cos, cos)
    return worst_ratio, worst_cos


def test_every_drawn_orbit_lies_on_a_cycle_of_its_metric(all_jsonl_run):
    status, _, out = all_jsonl_run
    assert status == 0
    names = sorted(n for n in os.listdir(out) if not n.startswith(("arrows", "future-past")))
    assert len(names) == 54
    worst = {
        name: _worst(os.path.join(out, name), SIGMA[name[-len("e.jsonl")]], "-t-" not in name)
        for name in names
    }
    assert {name for name, (ratio, _) in worst.items() if ratio > RATIO_BOUND} == CONTROLS
    assert max(cos for _, cos in worst.values()) <= COS_BOUND
