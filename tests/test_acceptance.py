"""The ten acceptance checks, one test per criterion, each ending with an
explicit pass line on stdout."""

import math
import os
import subprocess
import sys

import pytest

from cliffeph import (
    CMat2,
    DEFAULT_TUNING,
    MetricKind,
    MetricSpec,
    Subgroup,
    TransformType,
    ZeroNormError,
    build_families,
    cli_main,
    clifford_bar,
    clifford_inverse,
    clifford_moebius_map,
    clifford_prime,
    clifford_star,
    clifford_to_lst,
    clifford_units,
    curvature,
    dirac_ONE,
    evalf,
    lst_to_clifford,
    mat_mul,
    metric_for,
    normal,
    rational,
    subgroup_exp,
    subs,
    symbols,
    vector_fields,
    verify_k_orbit,
    verify_parabolic_vertices,
)
from cliffeph.symexpr import ZERO

from conftest import (
    generator_matrices,
    make_rng,
    matmul,
    madd,
    operator_family,
    random_multivector,
    represent,
)

x, y, t = symbols("x y t")

EPH = (MetricKind.ELLIPTIC, MetricKind.PARABOLIC, MetricKind.HYPERBOLIC)


def _passed(n, text):
    print("criterion %2d PASS: %s" % (n, text))


def _random_vector(metric, rng):
    return [
        rational(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(metric.n)
    ]


def test_criterion_01_matrix_representation_oracle():
    sign_sets = [(-1,), (1,), (-1, -1), (-1, 1), (1, 1), (-1, -1, -1), (-1, 1, 1)]
    rng = make_rng(101)
    pairs = 0
    while pairs < 200:
        signs = sign_sets[pairs % len(sign_sets)]
        metric = MetricSpec.diag(*signs)
        gens = generator_matrices(signs)
        a = random_multivector(metric, rng)
        b = random_multivector(metric, rng)
        assert represent(a * b, gens) == matmul(represent(a, gens), represent(b, gens))
        assert represent(a + b, gens) == madd(represent(a, gens), represent(b, gens))
        assert represent(clifford_prime(a), gens) == represent(a, gens, negate=True)
        assert represent(clifford_star(a), gens) == represent(a, gens, reverse=True)
        assert represent(clifford_bar(a), gens) == represent(
            a, gens, reverse=True, negate=True
        )
        pairs += 1
    _passed(1, "mul/add/prime/star/bar match the Kronecker representation "
               "exactly on %d random pairs" % pairs)


def test_criterion_02_vector_roundtrip():
    metrics = [
        MetricSpec.diag(-1, -1),
        MetricSpec.diag(-1, 0),
        MetricSpec.diag(-1, 1),
        MetricSpec.diag(1, -1, 0, 2),
        MetricSpec.diag(1, -1, 0, -3),
    ]
    rng = make_rng(202)
    for metric in metrics:
        units = clifford_units(metric)
        for _ in range(100):
            v = _random_vector(metric, rng)
            assert clifford_to_lst(lst_to_clifford(v, units), units) == v
    _passed(2, "clifford_to_lst . lst_to_clifford is the identity on 100 "
               "random rational vectors for each of %d metrics" % len(metrics))


def test_criterion_03_involution_laws():
    rng = make_rng(303)
    for kind in EPH:
        metric = metric_for(kind)
        for _ in range(100):
            a = random_multivector(metric, rng)
            b = random_multivector(metric, rng)
            assert clifford_bar(a * b) == clifford_bar(b) * clifford_bar(a)
            assert clifford_star(a * b) == clifford_star(b) * clifford_star(a)
            assert clifford_prime(a * b) == clifford_prime(a) * clifford_prime(b)
    _passed(3, "bar/star anti-automorphism and prime automorphism laws hold "
               "exactly on 100 random pairs per metric")


def test_criterion_04_inverses():
    rng = make_rng(404)
    from cliffeph import CliffordError

    checked = 0
    while checked < 100:
        metric = metric_for(EPH[checked % 3])
        m = random_multivector(metric, rng)
        try:
            inv = clifford_inverse(m)
        except CliffordError:
            continue
        assert m * inv == dirac_ONE(metric)
        checked += 1
    _, e1 = clifford_units(metric_for(MetricKind.PARABOLIC))
    with pytest.raises(ZeroNormError):
        clifford_inverse(e1)
    _passed(4, "m * inverse(m) = ONE on 100 random invertible multivectors; "
               "nilpotent parabolic unit raises ZeroNorm")


def _numeric_exp(sub, tv, kind):
    metric = metric_for(kind)
    e0, _ = clifford_units(metric)
    one = dirac_ONE(metric)
    zero = one.scale(0)
    if sub == Subgroup.A:
        return CMat2(one.scale(math.exp(tv)), zero, zero, one.scale(math.exp(-tv)))
    if sub == Subgroup.N:
        return CMat2(one, e0.scale(tv), zero, one)
    return CMat2(
        one.scale(math.cos(tv)), e0.scale(math.sin(tv)),
        e0.scale(math.sin(tv)), one.scale(math.cos(tv)),
    )


def _random_matrix(kind, rng):
    # numeric entries keep the symbolic pipeline small: every float is an
    # exact Fraction, so the map components stay rational functions
    mat = CMat2.identity(metric_for(kind))
    for _ in range(3):
        sub = Subgroup(rng.randint(0, 2))
        mat = mat_mul(mat, _numeric_exp(sub, rng.uniform(-1.0, 1.0), kind))
    return mat


def test_criterion_05_moebius_homomorphism_and_projective_invariance():
    for kind in EPH:
        metric = metric_for(kind)
        rng = make_rng(505 + kind)
        done = 0
        while done < 50:
            m1 = _random_matrix(kind, rng)
            m2 = _random_matrix(kind, rng)
            u12, v12 = clifford_moebius_map(mat_mul(m1, m2), (x, y), metric)
            u1, v1 = clifford_moebius_map(m1, (x, y), metric)
            u2, v2 = clifford_moebius_map(m2, (x, y), metric)
            env = {"x": rng.uniform(-1.5, 1.5), "y": rng.uniform(0.3, 2.0)}
            mid = {"x": evalf(u2, env), "y": evalf(v2, env)}
            vals = (evalf(u12, env), evalf(v12, env))
            comp = (evalf(u1, mid), evalf(v1, mid))
            if not all(map(math.isfinite, vals + comp)):
                continue
            if max(map(abs, vals + comp)) > 1e6:
                continue
            for a, b in zip(vals, comp):
                assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
            done += 1
        # exact projective invariance under rational scaling
        lam = rational(7, 3)
        mat = _random_matrix(kind, make_rng(99 + kind))
        ua, va = clifford_moebius_map(mat, (x, y), metric)
        ub, vb = clifford_moebius_map(mat.scale(lam), (x, y), metric)
        assert normal(ua - ub) == ZERO
        assert normal(va - vb) == ZERO
    _passed(5, "map(M1*M2) = map(M1) . map(M2) within 1e-9 on 50 composites "
               "per metric; scaling by 7/3 changes nothing exactly")


def test_criterion_06_vector_field_gradient_check():
    h = 1e-5
    for kind in EPH:
        fields = vector_fields(kind)
        for sub in Subgroup:
            for slot in range(3):
                fu, fv = operator_family(kind, sub, slot)
                fd_field = fields[(sub, slot)]
                rng = make_rng(606 + 100 * kind + 10 * sub + slot)
                done = 0
                while done < 50:
                    px = rng.uniform(-2.0, 2.0)
                    py = rng.uniform(0.2, 2.2)
                    plus = {"x": px, "y": py, "t": h}
                    minus = {"x": px, "y": py, "t": -h}
                    up, vp = evalf(fu, plus), evalf(fv, plus)
                    um, vm = evalf(fu, minus), evalf(fv, minus)
                    sym_u = evalf(fd_field.du, {"x": px, "y": py})
                    sym_v = evalf(fd_field.dv, {"x": px, "y": py})
                    vals = (up, vp, um, vm, sym_u, sym_v)
                    if not all(map(math.isfinite, vals)):
                        continue
                    if max(map(abs, vals)) > 1e3:
                        continue
                    fd_u = (up - um) / (2 * h)
                    fd_v = (vp - vm) / (2 * h)
                    assert abs(fd_u - sym_u) <= 1e-6 * max(1.0, abs(sym_u))
                    assert abs(fd_v - sym_v) <= 1e-6 * max(1.0, abs(sym_v))
                    done += 1
    _passed(6, "all 9 (subgroup x transform) fields per metric match central "
               "finite differences at 50 points, rel err <= 1e-6")


def test_criterion_07_k_orbit_invariants():
    for kind in EPH:
        for v0 in DEFAULT_TUNING.vpoints[kind]:
            if v0 == 0:
                continue
            rep = verify_k_orbit(kind, v0)
            if kind == MetricKind.ELLIPTIC:
                assert rep.max_residual <= 1e-9, (v0, rep.max_residual)
            else:
                assert rep.max_residual <= 1e-6, (kind, v0, rep.max_residual)
            if kind == MetricKind.HYPERBOLIC:
                assert rep.sign_flips >= 1, (v0, rep.sign_flips)
    _passed(7, "circle / directrix / foci-difference invariants hold for "
               "every sweep origin, with sign flips in the hyperbolic case")


def test_criterion_08_parabolic_vertex_law():
    rep = verify_parabolic_vertices(Subgroup.A)
    assert rep.fits
    assert rep.max_law_deviation <= 1e-6, rep.max_law_deviation
    _passed(8, "vertex law v -+ u^2 = -1 holds within %.2g over %d fitted "
               "triples" % (rep.max_law_deviation, len(rep.fits)))


def _discrete_curvature(p1, p2, p3):
    ax, ay = p2[0] - p1[0], p2[1] - p1[1]
    bx, by = p3[0] - p2[0], p3[1] - p2[1]
    cx, cy = p3[0] - p1[0], p3[1] - p1[1]
    cross = ax * by - ay * bx
    denom = math.hypot(ax, ay) * math.hypot(bx, by) * math.hypot(cx, cy)
    return 2 * cross / denom


def test_criterion_09_curvature():
    h = 1e-3
    for kind in EPH:
        fam = build_families(kind)[(Subgroup.K, TransformType.DIRECT)]
        _, k_axis = curvature(kind, 0)
        for v0 in (0.5, 2.0, 3.0):
            sym = evalf(k_axis, {"y": v0})
            pts = [fam.at(0.0, v0, tv) for tv in (-h, 0.0, h)]
            disc = _discrete_curvature(*pts)
            # the (ddu*dv - du*ddv) convention is the negative of the
            # counterclockwise discrete curvature
            assert abs(disc + sym) <= 1e-4 * max(1.0, abs(sym)), (kind, v0)
            if kind == MetricKind.ELLIPTIC:
                radius = abs(v0 - 1 / v0) / 2
                assert abs(abs(sym) - 1 / radius) <= 1e-6 / radius
    _passed(9, "symbolic K-orbit curvature matches three-point discrete "
               "curvature (rel 1e-4) and the elliptic 1/radius law (rel 1e-6)")


def test_criterion_10_pipeline_determinism_and_shape(tmp_path):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    for d in (d1, d2):
        assert cli_main(["orbits", "--metric", "all", "--subgroup", "all",
                         "--out", str(d)]) == 0
        assert cli_main(["future-past", "--out", str(d)]) == 0
    files = sorted(os.listdir(d1))
    orbit_files = [f for f in files if not f.startswith("future-past")]
    frame_files = [f for f in files if f.startswith("future-past")]
    assert len(orbit_files) == 27
    stems = {f.rsplit("-", 2)[0] for f in orbit_files}
    assert stems == {"orbit", "cayley", "cayl-a"}
    assert frame_files == ["future-past-%02d.jsonl" % j for j in range(8)]
    for f in files:
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes()
    # frame 0 applies the identity map, so nodes must equal their seeds
    import json

    from cliffeph.ephgeom import FUTURE_PAST_LIMIT, _FUTURE_PAST_RADII

    seeds = set()
    for k in range(15):
        for l in range(-20, 21):
            u = _FUTURE_PAST_RADII[k] * math.cosh(l / 4.0)
            v = _FUTURE_PAST_RADII[k] * math.sinh(l / 4.0)
            if abs(u) <= FUTURE_PAST_LIMIT and abs(v) <= FUTURE_PAST_LIMIT:
                seeds.add(("%.6g" % u, "%.6g" % v))
    got = set()
    for line in (d1 / "future-past-00.jsonl").read_text().splitlines():
        rec = json.loads(line)
        got.add(("%.6g" % rec["u"], "%.6g" % rec["v"]))
    assert got == seeds
    _passed(10, "27 orbit files with the expected stems, 8 byte-stable "
                "future-past frames, frame 0 identical to its seeds")
