import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cliffeph import (
    DEFAULT_TUNING,
    CMat2,
    JobConfig,
    MetricKind,
    Subgroup,
    TransformType,
    build_families,
    cayley_matrices,
    clifford_moebius_map,
    clifford_units,
    curvature,
    diff,
    dirac_ONE,
    evalf,
    mat_mul,
    metric_for,
    normal,
    rational,
    sample_arrows,
    sample_future_past,
    sample_orbits,
    sample_transverses,
    subgroup_exp,
    subs,
    symbol,
    symbols,
    vector_fields,
    verify_k_orbit,
    verify_parabolic_vertices,
)
from cliffeph import ephgeom, plotcli
from cliffeph.ephgeom import (
    VertexReport, _family, _fit_parabola, _future_past_family, _sample,
    _transverse, _vertex_check_family,
)
from cliffeph.plotcli import run_verify
from cliffeph.symexpr import (
    ZERO, SingularSystemError, add, as_fraction_value, clear_memo, lsolve, mul, pow_,
)

from conftest import operator_family

x, y, t = symbols("x y t")

KINDS = list(MetricKind)
SUBS = list(Subgroup)


class TestMetric:
    def test_sigma_values(self):
        assert [k.sigma for k in KINDS] == [-1, 0, 1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_metric_diag(self, kind):
        m = metric_for(kind)
        assert m.entries[0][0] == rational(-1)
        assert m.entries[1][1] == rational(kind.sigma)


class TestCayley:
    @pytest.mark.parametrize("kind,scale", [
        (MetricKind.ELLIPTIC, 2),
        (MetricKind.PARABOLIC, 1),
        (MetricKind.HYPERBOLIC, 2),
    ])
    def test_c_ci_product_is_scalar_identity(self, kind, scale):
        cay = cayley_matrices(kind)
        prod = mat_mul(cay.C, cay.CI)
        ident = CMatIdentity(kind).scale(scale)
        assert prod == ident

    @pytest.mark.parametrize("kind", KINDS)
    def test_c1_c1i_is_scalar_multiple_of_identity(self, kind):
        cay = cayley_matrices(kind)
        prod = mat_mul(cay.C1, cay.C1I)
        assert prod.b.is_zero() and prod.c.is_zero()
        assert prod.a == prod.d


def CMatIdentity(kind):
    from cliffeph import CMat2

    return CMat2.identity(metric_for(kind))


class TestExp:
    @pytest.mark.parametrize("sub", SUBS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_identity_at_zero(self, sub, kind):
        mat = subgroup_exp(sub, rational(0), kind)
        assert mat == CMatIdentity(kind)

    def test_k_quarter_turn(self):
        kind = MetricKind.ELLIPTIC
        mat = subgroup_exp(Subgroup.K, t, kind)
        num = mat.subs({t: rational(0)})
        assert num == CMatIdentity(kind)

    def test_a_one_parameter_law(self):
        kind = MetricKind.HYPERBOLIC
        m1 = subgroup_exp(Subgroup.A, rational(1, 3), kind)
        m2 = subgroup_exp(Subgroup.A, rational(1, 4), kind)
        m12 = subgroup_exp(Subgroup.A, rational(7, 12), kind)
        prod = mat_mul(m1, m2)
        for name in ("a", "b", "c", "d"):
            lhs = getattr(prod, name)
            rhs = getattr(m12, name)
            d = lhs - rhs
            assert all(
                abs(evalf(normal(c), {})) < 1e-12 for c in d.terms.values()
            )


class TestFamilies:
    @pytest.mark.parametrize("kind", KINDS)
    def test_n_direct_is_translation(self, kind):
        fam = build_families(kind)[(Subgroup.N, TransformType.DIRECT)]
        assert normal(fam.u - (x + t)) == ZERO
        assert normal(fam.v - y) == ZERO

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_direct_is_dilation(self, kind):
        fam = build_families(kind)[(Subgroup.A, TransformType.DIRECT)]
        for tv in (-0.7, 0.0, 0.9):
            s = math.exp(2 * tv)
            u, v = fam.fn()(0.3, 1.7, tv)
            assert u == pytest.approx(0.3 * s, rel=1e-12)
            assert v == pytest.approx(1.7 * s, rel=1e-12)

    def test_k_elliptic_fixed_point(self):
        fam = build_families(MetricKind.ELLIPTIC)[(Subgroup.K, TransformType.DIRECT)]
        for i in range(41):
            tv = -1.0 + i / 20.0
            u, v = fam.fn()(0.0, 1.0, tv)
            assert abs(u) <= 1e-9 and abs(v - 1.0) <= 1e-9

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_nine_families_built(self, kind):
        fams = build_families(kind)
        assert len(fams) == 9

    @pytest.mark.parametrize("kind", KINDS)
    def test_rebuilt_family_is_made_of_the_same_nodes(self, kind):
        first = build_families(kind)
        clear_memo()
        assert symbol("x") is ephgeom.X
        assert rational(0) is ZERO
        _family.cache_clear()
        for (sub, ttype), fam in first.items():
            again = _family(kind, sub, ttype)
            assert again is not fam
            assert again.u is fam.u and again.v is fam.v

    def test_family_failure_names_the_family(self, monkeypatch):
        cause = ZeroDivisionError("no inverse")

        def fail(*args):
            raise cause

        # clear the caches, so the family is built under the patch and no
        # entry made under it outlives the test
        for cached in (_family, build_families):
            cached.cache_clear()
        monkeypatch.setattr(ephgeom, "clifford_moebius_map", fail)
        try:
            with pytest.raises(RuntimeError, match=re.escape(
                    "family (N, CAYLEY_POINT, HYPERBOLIC) failed: no inverse")) as info:
                _family(MetricKind.HYPERBOLIC, Subgroup.N, TransformType.CAYLEY_POINT)
            assert info.value.__cause__ is cause
            # the matrices built before the failure leave no memo entry behind
            assert [f.cache_info().currsize for f in (add, mul, pow_)] == [0, 0, 0]
        finally:
            for cached in (_family, build_families):
                cached.cache_clear()

    @pytest.mark.parametrize("build", [
        pytest.param(build_families, id="build_families"),
        pytest.param(vector_fields, id="vector_fields"),
        pytest.param(lambda kind: curvature(kind, 1), id="curvature"),
        pytest.param(lambda kind: verify_k_orbit(kind, 2.0), id="verify_k_orbit"),
        pytest.param(lambda kind: sample_transverses(kind, Subgroup.A), id="sample_transverses"),
        pytest.param(lambda kind: _vertex_check_family(Subgroup.A, 1), id="vertex_check_family"),
        pytest.param(lambda kind: _future_past_family(), id="future_past_family"),
    ])
    def test_build_leaves_no_constructor_memo(self, build):
        for kind in KINDS:
            for cached in (_family, build_families, vector_fields, curvature,
                           _vertex_check_family, _future_past_family):
                cached.cache_clear()
            add(x, t), mul(x, t), pow_(x, 5)
            build(kind)
            assert [f.cache_info().currsize for f in (add, mul, pow_)] == [0, 0, 0], kind


class TestVectorFields:
    def test_a_direct_field(self):
        fields = vector_fields(MetricKind.ELLIPTIC)
        f = fields[(Subgroup.A, 0)]
        assert normal(f.du - rational(2) * x) == ZERO
        assert normal(f.dv - rational(2) * y) == ZERO

    def test_n_direct_field(self):
        fields = vector_fields(MetricKind.PARABOLIC)
        f = fields[(Subgroup.N, 0)]
        assert f.du == rational(1)
        assert f.dv == ZERO

    @pytest.mark.parametrize("kind", KINDS)
    def test_fields_build_no_family(self, kind):
        # the fields come from the generators, not from the families
        for cached in (_family, build_families, vector_fields):
            cached.cache_clear()
        vector_fields(kind)
        assert _family.cache_info().currsize == 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_transverse_is_jacobian_vector_product(self, kind):
        # the A-orbits are crossed along the rotation field (-y, x)
        fam = build_families(kind)[(Subgroup.A, TransformType.CAYLEY_POINT)]
        env = {"x": 0.4, "y": 1.3, "t": 0.3}
        tu = evalf(_transverse(fam, Subgroup.A)[0], env)
        ju = (
            evalf(diff(fam.u, x), env) * -env["y"]
            + evalf(diff(fam.u, y), env) * env["x"]
        )
        assert tu == pytest.approx(ju, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
class TestFieldsFromGenerators:
    """The fields and curvatures taken from the Lie-algebra generators are
    the very expressions the t-derivatives of the operator-conjugated
    families give."""

    def test_field_is_t_derivative_of_operator_family(self, kind):
        fields = vector_fields(kind)
        for sub in SUBS:
            for slot in range(3):
                u, v = operator_family(kind, sub, slot)
                f = fields[(sub, slot)]
                assert f.du == subs(diff(u, t), {t: 0}), (sub, slot)
                assert f.dv == subs(diff(v, t), {t: 0}), (sub, slot)

    def test_curvature_is_second_t_derivative_formula(self, kind):
        for slot in range(3):
            u, v = operator_family(kind, Subgroup.K, slot)
            du, dv = (subs(diff(c, t), {t: 0}) for c in (u, v))
            ddu, ddv = (subs(diff(c, t, 2), {t: 0}) for c in (u, v))
            k = normal((ddu * dv - du * ddv) * (du * du + dv * dv) ** Fraction(-3, 2))
            assert curvature(kind, slot) == (k, normal(subs(k, {x: 0}))), slot


class TestCurvature:
    def test_parabolic_axis_value(self):
        _, k_axis = curvature(MetricKind.PARABOLIC, 0)
        assert normal(k_axis + rational(2) * y) == ZERO

    def test_elliptic_matches_circle_radius(self):
        _, k_axis = curvature(MetricKind.ELLIPTIC, 0)
        for v0 in (0.5, 2.0, 3.0):
            radius = abs(v0 - 1 / v0) / 2
            assert abs(evalf(k_axis, {"y": v0})) == pytest.approx(
                1 / radius, rel=1e-9
            )


class TestSampling:
    def test_arrow_grid_is_220(self):
        for kind in KINDS:
            recs = sample_arrows(kind, Subgroup.K)
            assert len(recs) == 220
            assert all(r.color_grade == 0.6 for r in recs)

    def test_orbit_points_respect_limits(self):
        tab = DEFAULT_TUNING
        for kind in KINDS:
            streams = sample_orbits(kind, Subgroup.A)
            for ttype, recs in streams.items():
                cayley = ttype != TransformType.DIRECT
                for r in recs:
                    assert abs(r.u) <= tab.ulim and abs(r.v) <= tab.vlim
                    if kind == MetricKind.HYPERBOLIC and not cayley:
                        assert r.v >= 0
                    if kind == MetricKind.HYPERBOLIC and cayley:
                        assert -r.u ** 2 + r.v ** 2 - 1.001 <= 0

    def test_orbit_grades_follow_origin_index(self):
        streams = sample_orbits(MetricKind.ELLIPTIC, Subgroup.K)
        grades = {r.color_grade for r in streams[TransformType.DIRECT]}
        vil = DEFAULT_TUNING.vilimits[Subgroup.K][MetricKind.ELLIPTIC]
        assert grades <= {1.2 * vi / vil for vi in range(vil)}

    def test_transverse_records_have_unit_grade_and_thin_pen(self):
        streams = sample_transverses(MetricKind.PARABOLIC, Subgroup.N)
        for recs in streams.values():
            assert all(r.color_grade == 1.2 for r in recs)
            assert all(r.pen_width_hint == 0.5 for r in recs)

    def test_future_past_first_frame_is_identity(self):
        frames = sample_future_past()
        assert len(frames) == 8
        from cliffeph.ephgeom import (
            FUTURE_PAST_LIMIT,
            _FUTURE_PAST_RADII,
        )

        seeds = set()
        for k in range(15):
            for l in range(-20, 21):
                u = _FUTURE_PAST_RADII[k] * math.cosh(l / 4.0)
                v = _FUTURE_PAST_RADII[k] * math.sinh(l / 4.0)
                if abs(u) <= FUTURE_PAST_LIMIT and abs(v) <= FUTURE_PAST_LIMIT:
                    seeds.add((round(u, 9), round(v, 9)))
        frame0 = {(round(r.u, 9), round(r.v, 9)) for r in frames[0]}
        assert frame0 == seeds

    def test_future_past_pen_and_grades(self):
        frames = sample_future_past()
        for frame in frames:
            assert all(r.pen_width_hint == 1.0 for r in frame)
            assert {r.color_grade for r in frame} <= {0.0, 1.0}

    def test_sample_splits_polylines_and_passes_every_output_to_direction(self):
        seen = []

        def direction(*out):
            seen.append(out)
            return out[2], -out[2]

        # u = 5 is rejected; the second curve starts a new polyline although
        # the first one ended on an accepted point
        curves = [(0.25, [(0.0,), (1.0,), (5.0,), (2.0,)]), (0.5, [(3.0,), (4.0,)])]
        recs = _sample("toy", "direct", lambda s: (s, 2 * s, s + 1), direction, curves,
                       lambda u, v: u < 5, 1.5)
        assert recs == [
            (0, "toy", "direct", 0.0, 0.0, 1.0, -1.0, 0.25, 1.5),
            (0, "toy", "direct", 1.0, 2.0, 2.0, -2.0, 0.25, 1.5),
            (1, "toy", "direct", 2.0, 4.0, 3.0, -3.0, 0.25, 1.5),
            (2, "toy", "direct", 3.0, 6.0, 4.0, -4.0, 0.5, 1.5),
            (2, "toy", "direct", 4.0, 8.0, 5.0, -5.0, 0.5, 1.5),
        ]
        assert seen == [(s, 2 * s, s + 1) for s in (0.0, 1.0, 2.0, 3.0, 4.0)]

    @pytest.mark.parametrize("tu,tv,expected", [
        (math.nan, 0.0, (1.0, 0.0)),
        (0.0, math.nan, (1.0, 0.0)),
        (math.inf, 5.0, (1.0, 0.0)),
        (-math.inf, 5.0, (-1.0, 0.0)),
        (5.0, math.inf, (0.0, 1.0)),
        (5.0, -math.inf, (0.0, -1.0)),
        (60.0, -80.0, (0.6, -0.8)),  # |tu| + |tv| > 100 is normalized
        (30.0, 40.0, (30.0, 40.0)),
    ])
    def test_transverse_direction_of_extreme_values(self, tu, tv, expected):
        assert ephgeom._transverse_direction(0.0, 0.0, tu, tv) == expected

    def test_sampling_is_deterministic(self):
        a = sample_orbits(MetricKind.HYPERBOLIC, Subgroup.N)
        b = sample_orbits(MetricKind.HYPERBOLIC, Subgroup.N)
        assert a == b


class TestVerify:
    def test_k_orbit_all_kinds(self):
        for kind in KINDS:
            for v0 in DEFAULT_TUNING.vpoints[kind]:
                if v0 == 0:
                    continue
                rep = verify_k_orbit(kind, v0)
                assert rep.ok, (kind, v0, rep.max_residual)

    def test_elliptic_radius_value(self):
        rep = verify_k_orbit(MetricKind.ELLIPTIC, 2.0)
        assert rep.expected == pytest.approx(0.75)

    def test_nonpositive_origin_rejected(self):
        with pytest.raises(ValueError):
            verify_k_orbit(MetricKind.ELLIPTIC, 0.0)

    @pytest.mark.parametrize(
        "kind, v0",
        [(kind, v0) for kind in KINDS for v0 in (math.nan, math.inf)]
        + [(MetricKind.ELLIPTIC, 1e200), (MetricKind.HYPERBOLIC, 1e200)],
    )
    def test_orbit_without_finite_node_rejected(self, kind, v0):
        with pytest.raises(ValueError) as err:
            verify_k_orbit(kind, v0)
        assert "(0, %r)" % v0 in str(err.value)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("v0", [math.nan, math.inf, 1e-320])
    def test_origin_without_finite_reciprocal_rejected(self, kind, v0):
        # 1 / 1e-320 overflows to inf: the laws of all three metrics use 1 / v0
        with pytest.raises(ValueError) as err:
            verify_k_orbit(kind, v0)
        assert str(err.value) == (
            "origin (0, %r): the ordinate and its reciprocal must be finite" % v0)

    def test_vertex_law_subgroup_a(self):
        rep = verify_parabolic_vertices(Subgroup.A)
        assert rep.fits
        assert rep.max_law_deviation <= 1e-6

    def test_vertex_report_subgroup_n_has_fits_without_law(self):
        rep = verify_parabolic_vertices(Subgroup.N)
        assert rep.fits
        assert all(math.isnan(check) for check in rep.fits)

    def test_vertex_report_owns_the_law_tolerance(self, monkeypatch):
        miss = VertexReport(Subgroup.A, [-1 - 2e-6])
        assert not miss.ok
        assert VertexReport(Subgroup.A, [-1 + 5e-7]).ok
        assert VertexReport(Subgroup.N, [math.nan]).ok
        monkeypatch.setattr(plotcli, "verify_parabolic_vertices", lambda sub: miss)
        out = io.StringIO()
        config = JobConfig(kinds=[MetricKind.PARABOLIC], subs=[Subgroup.A])
        assert not run_verify(config, out=out)
        assert "parabolic vertex law A: 1 fits, max |check+1| 2e-06 [FAIL]\n" in out.getvalue()

    def test_subgroup_k_rejected(self):
        with pytest.raises(ValueError):
            verify_parabolic_vertices(Subgroup.K)

    @pytest.mark.parametrize("kind", KINDS)
    def test_k_orbit_family_is_the_direct_k_family(self, kind):
        assert _family(kind, Subgroup.K, TransformType.DIRECT) is build_families(kind)[
            (Subgroup.K, TransformType.DIRECT)
        ]

    def test_verify_builds_no_family_table(self, monkeypatch):
        def refuse(kind):
            raise AssertionError("verify must not build the family table")

        # clearing the table too keeps its entries the cached families
        ephgeom.build_families.cache_clear()
        monkeypatch.setattr(ephgeom, "build_families", refuse)
        _family.cache_clear()
        _vertex_check_family.cache_clear()
        config = JobConfig(kinds=list(MetricKind), subs=list(Subgroup))
        assert run_verify(config, out=io.StringIO())

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("v0", [Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 3)])
    def test_k_orbit_is_the_exact_cycle(self, kind, v0):
        # With the half-angle parametrization cos t = (1 - s^2)/(1 + s^2),
        # sin t = 2s/(1 + s^2) the K-orbit through (0, v0) is rational in s
        # and lies on the cycle u^2 - sigma v^2 - 2 n v + 1 = 0 exactly.
        (s,) = symbols("s")
        cos_t = (1 - s ** 2) / (1 + s ** 2)
        sin_t = 2 * s / (1 + s ** 2)
        metric = metric_for(kind)
        e0, _ = clifford_units(metric)
        one = dirac_ONE(metric)
        k_mat = CMat2(one.scale(cos_t), e0.scale(sin_t), e0.scale(sin_t), one.scale(cos_t))
        u, v = clifford_moebius_map(k_mat, (rational(0), rational(v0)), metric)
        sigma = kind.sigma
        n = (1 - sigma * v0 ** 2) / (2 * v0)
        family = _family(kind, Subgroup.K, TransformType.DIRECT)
        for sval in (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(-3, 4), Fraction(5)):
            pu = as_fraction_value(subs(u, {s: rational(sval)}))
            pv = as_fraction_value(subs(v, {s: rational(sval)}))
            assert pu ** 2 - sigma * pv ** 2 - 2 * n * pv + 1 == Fraction(0)
            wrong_n = n + Fraction(1, 7)
            assert pu ** 2 - sigma * pv ** 2 - 2 * wrong_n * pv + 1 != 0
            # the program's K family passes through the same point
            fu, fv = family.fn()(0.0, float(v0), 2 * math.atan(sval))
            assert (fu, fv) == pytest.approx((float(pu), float(pv)), rel=1e-9, abs=1e-12)


class TestRecordTypes:
    def test_vertex_reports_share_no_fits_list(self):
        first = verify_parabolic_vertices(Subgroup.A)
        second = verify_parabolic_vertices(Subgroup.A)
        assert first.fits == second.fits
        assert first.fits is not second.fits

    @pytest.mark.parametrize("make, name", [
        (lambda: verify_k_orbit(MetricKind.ELLIPTIC, 2.0), "max_residual"),
        (lambda: verify_parabolic_vertices(Subgroup.N), "skipped"),
        (lambda: JobConfig(kinds=[MetricKind.PARABOLIC], subs=[Subgroup.A]), "out_dir"),
    ], ids=["KOrbitReport", "VertexReport", "JobConfig"])
    def test_fields_are_read_only(self, make, name):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))

    def test_vertex_report_takes_its_fields_by_position(self):
        report = VertexReport(Subgroup.A, [-1.0])
        assert (report.subgroup, report.fits, report.skipped) == (Subgroup.A, [-1.0], 0)
        assert tuple(report) == (Subgroup.A, [-1.0], 0)



def _unit_circle(m):
    """The rational point (cos t, sin t) at the half-angle tan(t/2) = m."""
    return (1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)


class TestExactLaws:
    """The paper's laws checked with ``==`` on exact rational points of the
    orbits: the matrices have rational entries, so the Moebius map of a
    rational origin is rational."""

    ORIGINS = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
               (Fraction(-8, 17), Fraction(15, 17))]
    # exp(t) for A and t for N
    PARAMS = {
        Subgroup.A: [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5)],
        Subgroup.N: [Fraction(-2), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(5, 2)],
    }
    V0 = [Fraction(1, 2), Fraction(2), Fraction(3), Fraction(5, 3)]
    HALF_ANGLES = [Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(-3, 4), Fraction(5)]

    @staticmethod
    def _point(kind, mat, x0, y0):
        u, v = clifford_moebius_map(mat, (rational(x0), rational(y0)), metric_for(kind))
        return as_fraction_value(u), as_fraction_value(v)

    @pytest.mark.parametrize("image", [0, 1])
    @pytest.mark.parametrize("sub", [Subgroup.A, Subgroup.N])
    def test_vertex_check_images_are_unit_parabolas(self, sub, image):
        kind = MetricKind.PARABOLIC
        metric = metric_for(kind)
        e0, e1 = clifford_units(metric)
        one = dirac_ONE(metric)
        zero = one.scale(0)
        cayley = CMat2(one, -e1, -e1 if image == 0 else e1, one)
        law_sign = 1 if image == 0 else -1
        fn = _vertex_check_family(sub, image).fn()
        for x0, y0 in self.ORIGINS:
            pts = []
            for p in self.PARAMS[sub]:
                if sub == Subgroup.A:
                    mat, t_val = CMat2(one.scale(p), zero, zero, one.scale(1 / p)), math.log(p)
                else:
                    mat, t_val = CMat2(one, e0.scale(p), zero, one), float(p)
                pts.append(self._point(kind, mat_mul(cayley, mat), x0, y0))
                # the program's vertex-check family passes through the same point
                assert fn(float(x0), float(y0), t_val) == pytest.approx(
                    tuple(map(float, pts[-1])), rel=1e-9, abs=1e-12)
            for triple in zip(pts, pts[1:], pts[2:]):
                an, bn, cn, ad, d = _fit_parabola(*triple)
                assert Fraction(an * d, ad) == law_sign  # focal length 1/4
                if sub == Subgroup.A:
                    # the vertex as the verifier computes it, in Fractions
                    vert_u = Fraction(-bn, 2 * an * d)
                    vert_v = Fraction(4 * an * cn - bn * bn, 4 * an * ad * d)
                    assert vert_v + law_sign * vert_u ** 2 == -1

    @pytest.mark.parametrize("kind", KINDS)
    def test_k_orbit_focal_laws(self, kind):
        metric = metric_for(kind)
        e0, _ = clifford_units(metric)
        one = dirac_ONE(metric)
        for v0 in self.V0:
            # circle: center (0, cy), radius r; parabola: focus (0, fy),
            # directrix v = -d
            cy, r = (v0 + 1 / v0) / 2, (v0 - 1 / v0) / 2
            fy, d = v0 + 1 / (4 * v0), 1 / (4 * v0) - v0
            # hyperbola: foci (0, f) and (0, f - 2p) in Q(sqrt 2), with
            # p = q sqrt 2; the difference of the focal distances is 2q
            q, disc = (v0 * v0 + 1) / (2 * v0), _QSqrt2(abs(v0 * v0 - 1) / (2 * v0))
            p = _QSqrt2(0, q)
            f = p - disc if v0 < 1 else p + disc
            two_p2 = p * p + p * p
            for m in self.HALF_ANGLES:
                cos_t, sin_t = _unit_circle(m)
                k_mat = CMat2(one.scale(cos_t), e0.scale(sin_t), e0.scale(sin_t),
                              one.scale(cos_t))
                u, v = self._point(kind, k_mat, 0, v0)
                if kind == MetricKind.ELLIPTIC:
                    assert u ** 2 + (v - cy) ** 2 == r ** 2
                elif kind == MetricKind.PARABOLIC:
                    assert u ** 2 + (v - fy) ** 2 == (v + d) ** 2 and v + d >= 0
                else:
                    # squared focal distances A and B: |sqrt A - sqrt B| = p sqrt 2,
                    # squared twice
                    uq, vq = _QSqrt2(u), _QSqrt2(v)
                    dist_a = uq * uq + (vq - f) * (vq - f)
                    dist_b = uq * uq + (vq - f + p + p) * (vq - f + p + p)
                    four_ab = _QSqrt2(4) * dist_a * dist_b
                    side = dist_a + dist_b - two_p2
                    assert side * side == four_ab
                    off = side - _QSqrt2(Fraction(1, 1000))  # 2p^2 shifted by 1/1000
                    assert off * off != four_ab
            # the report's value is the law's constant
            expected = (abs(r), d, 2 * q)[kind]
            assert verify_k_orbit(kind, float(v0)).expected == pytest.approx(float(expected))

    # 7 parameters a subgroup: exp(t) for A, t for N and tan(t/2) for K
    CYCLE_PARAMS = {
        Subgroup.A: [Fraction(q) for q in ("1/3", "1/2", "2/3", "3/2", "2", "3", "5")],
        Subgroup.N: [Fraction(q) for q in ("-2", "-1/2", "-1/3", "1/3", "1", "3/2", "5/2")],
        Subgroup.K: [Fraction(q) for q in ("1/3", "1/2", "2", "-3/4", "5", "-2", "1/5")],
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_orbit_is_a_cycle_of_its_geometry(self, kind):
        # arXiv:math/0410399: the orbits and their Cayley images are cycles
        # k(u^2 - sigma v^2) - 2lu - 2nv + m = 0 of the metric's sigma
        metric = metric_for(kind)
        e0, _ = clifford_units(metric)
        one = dirac_ONE(metric)
        zero = one.scale(0)
        for sub in SUBS:
            mats = []
            for p in self.CYCLE_PARAMS[sub]:
                if sub == Subgroup.A:
                    mats.append((CMat2(one.scale(p), zero, zero, one.scale(1 / p)), math.log(p)))
                elif sub == Subgroup.N:
                    mats.append((CMat2(one, e0.scale(p), zero, one), float(p)))
                else:
                    c, s = _unit_circle(p)
                    mats.append((CMat2(one.scale(c), e0.scale(s), e0.scale(s), one.scale(c)),
                                 2 * math.atan(p)))
            for ttype in TransformType:
                fn = build_families(kind)[(sub, ttype)].fn()
                direct = ttype == TransformType.DIRECT
                images = [(mat if direct else mat_mul(ephgeom._cayley_pair(kind, ttype)[0], mat),
                           t_val) for mat, t_val in mats]
                # direct A and N orbits are lines, k = 0
                line = direct and sub != Subgroup.K
                for x0, y0 in self.ORIGINS:
                    pts = []
                    for mat, t_val in images:
                        pts.append(self._point(kind, mat, x0, y0))
                        # the program's family passes through the same point
                        assert fn(float(x0), float(y0), t_val) == pytest.approx(
                            tuple(map(float, pts[-1])), rel=1e-9, abs=1e-12)
                    rank, (k, minus_2l, _, _) = _cycle_through(pts, kind.sigma)
                    assert rank == 3
                    assert (k == 0) == line
                    if direct and sub == Subgroup.K:
                        # centred on the v-axis, as the focal laws have it
                        assert minus_2l == 0
                    # a wrong sigma fits no cycle through 7 points of a
                    # non-line orbit; a line is a cycle of every sigma
                    for wrong in {-1, 0, 1} - {kind.sigma}:
                        assert _cycle_through(pts, wrong)[0] == (3 if line else 4)


def _cycle_through(points, sigma):
    """Exact rank of the rows (u^2 - sigma v^2, u, v, 1) of the points and,
    at rank 3, the one cycle (k, -2l, -2n, m) through them, up to scale."""
    rows = [[u * u - sigma * v * v, u, v, Fraction(1)] for u, v in points]
    pivots = []
    for col in range(4):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [a / rows[r][col] for a in rows[r]]
        rows = [row if i == r else [a - row[col] * b for a, b in zip(row, rows[r])]
                for i, row in enumerate(rows)]
        pivots.append(col)
    if len(pivots) != 3:
        return len(pivots), None
    free = next(col for col in range(4) if col not in pivots)
    cycle = [Fraction(0)] * 4
    cycle[free] = Fraction(1)
    for r, col in enumerate(pivots):
        cycle[col] = -rows[r][free]
    return 3, tuple(cycle)


@dataclass(frozen=True)
class _QSqrt2:
    """x + y sqrt(2) with rational x and y, exactly; as sqrt(2) is
    irrational, two such numbers are equal when their (x, y) are."""

    x: Fraction
    y: Fraction = Fraction(0)

    def __add__(self, other):
        return _QSqrt2(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return _QSqrt2(self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        x, y = self.x * other.x + 2 * self.y * other.y, self.x * other.y + self.y * other.x
        return _QSqrt2(x, y)


def _lsolve_fit(points):
    """Reference fit: the symbolic solver on the 3x3 Vandermonde system."""
    a, b, c = symbols("a b c")
    eqs = [(a * rational(u) ** 2 + b * rational(u) + c, rational(v)) for u, v in points]
    try:
        sol = lsolve(eqs, [a, b, c])
    except SingularSystemError:
        return None
    return tuple(as_fraction_value(sol[name]) for name in "abc")


# a small pool of abscissae, so that coincident ones are drawn often
_points = st.tuples(
    st.sampled_from([Fraction(q) for q in ("-2", "-1/2", "0", "1/3", "1", "5/2")]),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
)


@settings(max_examples=150, deadline=None)
@given(st.tuples(_points, _points, _points))
@example(((Fraction(1), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(0), Fraction(0))))
@example(((Fraction(-1), Fraction(1)), (Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))))
@example(((Fraction(0), Fraction(0)), (Fraction(1), Fraction(1)), (Fraction(5, 2), Fraction(5, 2))))
def test_fit_parabola_matches_lsolve(points):
    fit = _fit_parabola(*points)
    expected = _lsolve_fit(points)
    if fit is None:
        # coincident abscissae, or collinear points
        assert expected is None or expected[0] == 0
        return
    an, bn, cn, ad, d = fit
    assert ad > 0
    a, b, c = Fraction(an * d, ad), Fraction(bn, ad), Fraction(cn, ad * d)
    assert (a, b, c) == expected
    assert all(a * u * u + b * u + c == v for u, v in points)


def _fraction_law_value(triple, law_sign):
    """Reference vertex law value v + sign u^2 of the parabola through
    three points, by the Fraction fit (Newton divided differences) that
    the integer fit replaced; None for a skipped fit."""
    (u0, v0), (u1, v1), (u2, v2) = ((Fraction(u), Fraction(v)) for u, v in triple)
    if u0 == u1 or u0 == u2 or u1 == u2:
        return None
    d01 = (v1 - v0) / (u1 - u0)
    a = ((v2 - v1) / (u2 - u1) - d01) / (u2 - u0)
    if a == 0:
        return None
    b = d01 - a * (u0 + u1)
    c = v0 - u0 * (d01 - a * u1)
    return float(c - b * b / (4 * a)) + law_sign * float(-b / (2 * a)) ** 2


def test_integer_fit_keeps_every_vertex_law_value_bit_for_bit():
    # float.hex tells every bit apart, -0.0 from 0.0 too
    kind = MetricKind.PARABOLIC
    fits = skipped = 0
    for sub in (Subgroup.A, Subgroup.N):
        params = ephgeom._node_parameters(sub, kind)
        curves = [(0.0, [(x0, y0, t) for t in params])
                  for x0, y0 in ephgeom._orbit_origins(sub, kind)]
        expected, skips = [], 0
        for image in range(2):
            fn = _vertex_check_family(sub, image).fn()
            for _, run in ephgeom._runs(fn, curves, ephgeom._is_finite):
                for triple in zip(run, run[1:], run[2:]):
                    value = _fraction_law_value(triple, 1 if image == 0 else -1)
                    if value is None:
                        skips += 1
                    else:
                        expected.append(value if sub == Subgroup.A else math.nan)
        report = verify_parabolic_vertices(sub)
        assert [c.hex() for c in report.fits] == [c.hex() for c in expected]
        assert report.skipped == skips
        fits, skipped = fits + len(report.fits), skipped + report.skipped
    assert (fits, skipped) == (1540, 0)


def _verify_triple(triple):
    """verify_parabolic_vertices(A) with one run, ``triple``, in both images."""
    with mock.patch.object(ephgeom, "_runs", lambda fn, curves, accept: [(0.0, triple)]):
        return verify_parabolic_vertices(Subgroup.A)


# a few fixed values, so that coincident abscissae and collinear points are
# drawn often, among finite floats of every exponent
_coords = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_coords, _coords), min_size=3, max_size=3))
@example([(1.0, 0.0), (1.0, 2.0), (0.0, 0.0)])      # coincident abscissae
@example([(-1.0, -1.0), (0.0, 0.0), (2.0, 2.0)])    # collinear
@example([(-1.0, -1.0), (-0.0, 0.0), (1.0, -1.0)])  # v = -u^2: vertex (0, 0), an < 0
@example([(2.0 ** -1074, 1.0), (1e300, 0.5), (-1e300, 3.0)])
@example([(0.0, 0.0), (1.0, 1e300), (2.0, 2e300 * (1 + 2 ** -52))])  # vertex beyond float range
def test_integer_fit_law_values_match_the_fraction_path(triple):
    report = _verify_triple(triple)
    try:
        expected = [_fraction_law_value(triple, law_sign) for law_sign in (1, -1)]
    except OverflowError:
        # the vertex is beyond the float range: the fit counts and fails the law
        assert report.fits == [math.inf, math.inf]
        assert report.skipped == 0
        assert not report.ok
        return
    if expected[0] is None:
        assert (report.fits, report.skipped) == ([], 2)
    else:
        assert [c.hex() for c in report.fits] == [c.hex() for c in expected]
        assert report.skipped == 0
