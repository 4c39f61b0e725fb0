import io
import math
from fractions import Fraction

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
    symbols,
    vector_fields,
    verify_k_orbit,
    verify_parabolic_vertices,
)
from cliffeph import ephgeom, plotcli
from cliffeph.ephgeom import (
    ParabolaFit, VertexReport, _family, _fit_parabola_exact, _future_past_family, _sample,
    _transverse, _vertex_check_family,
)
from cliffeph.plotcli import run_verify
from cliffeph.symexpr import ZERO, SingularSystemError, add, as_fraction_value, lsolve, mul, pow_

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

    def test_vertex_law_subgroup_a(self):
        rep = verify_parabolic_vertices(Subgroup.A)
        assert rep.fits
        assert rep.max_law_deviation <= 1e-6

    def test_vertex_report_subgroup_n_has_fits_without_law(self):
        rep = verify_parabolic_vertices(Subgroup.N)
        assert rep.fits
        assert all(math.isnan(f.check_value) for f in rep.fits)

    def test_vertex_report_owns_the_law_tolerance(self, monkeypatch):
        miss = VertexReport(Subgroup.A, [ParabolaFit(1.0, 0.25, -1 - 2e-6)])
        assert not miss.ok
        assert VertexReport(Subgroup.A, [ParabolaFit(1.0, 0.25, -1 + 5e-7)]).ok
        assert VertexReport(Subgroup.N, [ParabolaFit(1.0, 0.25, math.nan)]).ok
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

    def test_fit_focal_length(self):
        rep = verify_parabolic_vertices(Subgroup.A)
        unit = [f for f in rep.fits if abs(abs(f.a) - 1) < 1e-9]
        assert unit
        assert all(abs(abs(f.focal_length) - 0.25) < 1e-9 for f in unit)


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
def test_fit_parabola_matches_lsolve(points):
    fit = _fit_parabola_exact(*points)
    assert fit == _lsolve_fit(points)
    if fit is not None:
        a, b, c = fit
        assert all(a * u * u + b * u + c == v for u, v in points)
