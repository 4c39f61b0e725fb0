import math

import pytest

from cliffeph import (
    CMat2,
    MetricMismatchError,
    MetricSpec,
    clifford_moebius_map,
    clifford_units,
    dirac_ONE,
    evalf,
    mat_mul,
    normal,
    rational,
    subs,
    symbol,
    symbols,
)
from cliffeph.symexpr import ZERO

from conftest import make_rng

ELLIPTIC = MetricSpec.diag(-1, -1)
PARABOLIC = MetricSpec.diag(-1, 0)
HYPERBOLIC = MetricSpec.diag(-1, 1)
METRICS = (ELLIPTIC, PARABOLIC, HYPERBOLIC)
# a symmetric form with e0 e1 + e1 e0 = 1, and a non-symmetric one
NON_ORTHOGONAL = (
    MetricSpec([[-1, rational(1, 2)], [rational(1, 2), 1]]),
    MetricSpec([[-1, 1], [0, 1]]),
)

x, y, t = symbols("x y t")


def _exp_n(metric, tval):
    e0, _ = clifford_units(metric)
    one = dirac_ONE(metric)
    return CMat2(one, e0.scale(tval), one.scale(0), one)


def _t_mat(metric):
    e0, _ = clifford_units(metric)
    one = dirac_ONE(metric)
    return CMat2(one, e0, e0, one)


class TestCMat2:
    def test_identity(self):
        m = CMat2.identity(ELLIPTIC)
        assert m * m == m

    def test_scalar_entries_are_wrapped(self):
        one = dirac_ONE(ELLIPTIC)
        m = CMat2(one, 2, 0, one)
        assert m.b == one.scale(2)

    def test_scalar_entries_alone_rejected(self):
        with pytest.raises(TypeError, match="at least one entry must be a multivector"):
            CMat2(0, 0, 0, 0)

    def test_entries_over_two_metrics_rejected(self):
        with pytest.raises(MetricMismatchError):
            CMat2(dirac_ONE(ELLIPTIC), 0, 0, dirac_ONE(HYPERBOLIC))

    def test_associative_product(self):
        a = _exp_n(ELLIPTIC, rational(1, 3))
        b = _t_mat(ELLIPTIC)
        c = _exp_n(ELLIPTIC, rational(-2))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


class TestMoebiusMap:
    @pytest.mark.parametrize("metric", METRICS + NON_ORTHOGONAL)
    def test_identity_map(self, metric):
        u, v = clifford_moebius_map(CMat2.identity(metric), (x, y), metric)
        assert u == x
        assert v == y

    @pytest.mark.parametrize("metric", METRICS)
    def test_translation_subgroup(self, metric):
        mat = _exp_n(metric, t)
        u, v = clifford_moebius_map(mat, (x, y), metric)
        assert normal(u - (x + t)) == ZERO
        assert normal(v - y) == ZERO

    def test_six_argument_form(self):
        one = dirac_ONE(ELLIPTIC)
        e0, _ = clifford_units(ELLIPTIC)
        u, v = clifford_moebius_map(one, e0.scale(t), one.scale(0), one, (x, y), ELLIPTIC)
        assert normal(u - (x + t)) == ZERO

    def test_elliptic_rotation_fixed_point(self):
        e0, _ = clifford_units(ELLIPTIC)
        one = dirac_ONE(ELLIPTIC)
        for tv in [k / 10 - 1 for k in range(21)]:
            c, s = math.cos(tv), math.sin(tv)
            mat = CMat2(one.scale(c), e0.scale(s), e0.scale(s), one.scale(c))
            u, v = clifford_moebius_map(mat, (x, y), ELLIPTIC)
            uf = evalf(u, {"x": 0.0, "y": 1.0})
            vf = evalf(v, {"x": 0.0, "y": 1.0})
            assert abs(uf) <= 1e-9 and abs(vf - 1.0) <= 1e-9

    @pytest.mark.parametrize("metric", METRICS)
    def test_composition_is_matrix_product(self, metric):
        rng = make_rng(37)
        for _ in range(15):
            t1 = rational(rng.randint(-5, 5), rng.randint(1, 4))
            t2 = rational(rng.randint(-5, 5), rng.randint(1, 4))
            m1 = mat_mul(_exp_n(metric, t1), _t_mat(metric))
            m2 = _exp_n(metric, t2)
            u12, v12 = clifford_moebius_map(mat_mul(m1, m2), (x, y), metric)
            u2, v2 = clifford_moebius_map(m2, (x, y), metric)
            u1, v1 = clifford_moebius_map(m1, (x, y), metric)
            uc = subs(u1, {x: u2, y: v2})
            vc = subs(v1, {x: u2, y: v2})
            px, py = 0.37, 1.21
            env = {"x": px, "y": py}
            for direct, composed in ((u12, uc), (v12, vc)):
                a = evalf(direct, env)
                b = evalf(composed, env)
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("metric", METRICS)
    def test_projective_invariance_exact(self, metric):
        lam = rational(7, 3)
        mat = mat_mul(_exp_n(metric, rational(1, 2)), _t_mat(metric))
        u1, v1 = clifford_moebius_map(mat, (x, y), metric)
        u2, v2 = clifford_moebius_map(mat.scale(lam), (x, y), metric)
        assert normal(u1 - u2) == ZERO
        assert normal(v1 - v2) == ZERO

    def test_metric_mismatch_rejected(self):
        from cliffeph import MetricMismatchError

        with pytest.raises(MetricMismatchError):
            clifford_moebius_map(CMat2.identity(ELLIPTIC), (x, y), HYPERBOLIC)

    @pytest.mark.parametrize("args, message", [
        ((CMat2.identity(ELLIPTIC), (x, y), ELLIPTIC, ELLIPTIC), "expected"),
        ((dirac_ONE(ELLIPTIC), (x, y), ELLIPTIC), "first argument must be a CMat2"),
        ((CMat2.identity(ELLIPTIC), (x, y), [[-1, 0], [0, -1]]), "last argument must be a MetricSpec"),
    ], ids=["four-arguments", "not-a-matrix", "not-a-metric"])
    def test_bad_arguments_rejected(self, args, message):
        with pytest.raises(TypeError, match=message):
            clifford_moebius_map(*args)

    def test_wrong_vector_length_rejected(self):
        z = symbol("z")
        with pytest.raises(ValueError):
            clifford_moebius_map(CMat2.identity(ELLIPTIC), (x, y, z), ELLIPTIC)
