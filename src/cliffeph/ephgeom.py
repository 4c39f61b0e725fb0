"""EPH plane geometry: the three two-dimensional metrics with e0^2 = -1
and e1^2 = sigma in {-1, 0, 1}, the one-parameter subgroups A, N, K of
SL(2,R) acting by Moebius transformations, their Cayley-transform images,
vector fields, curvature of K-orbits, curve sampling and the numeric
verification of the focal properties of the K-orbits."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache

from . import symexpr as sx
from .cliffalg import MetricSpec, clifford_to_lst, clifford_units, dirac_ONE, lst_to_clifford
from .curves import CurveRecord
from .moebius import CMat2, clifford_moebius_map, mat_mul
from .symexpr import cos, diff, evalf, exp, normal, sin, subs, symbol


class MetricKind(IntEnum):
    ELLIPTIC = 0
    PARABOLIC = 1
    HYPERBOLIC = 2

    @property
    def sigma(self):
        """Square of the second generator: kind - 1."""
        return int(self) - 1

    @property
    def letter(self):
        return "eph"[int(self)]


class Subgroup(IntEnum):
    A = 0
    N = 1
    K = 2

    @property
    def letter(self):
        return "ANK"[int(self)]


class TransformType(IntEnum):
    """Image of a family; field slot and output stream i use TransformType(i)."""

    DIRECT = 0
    CAYLEY_POINT = 1
    CAYLEY1_POINT = 2

    @property
    def label(self):
        return ("direct", "cayley_point", "cayley1_point")[int(self)]


@dataclass(frozen=True)
class TuningTables:
    """Per-(subgroup, metric) iteration constants for the samplers."""

    vilimits: tuple
    fsteps: tuple
    flimits: tuple
    vpoints: tuple
    ulim: float = 25.0
    vlim: float = 25.0


DEFAULT_TUNING = TuningTables(
    vilimits=((10, 20, 30), (10, 10, 19), (10, 10, 10)),
    fsteps=((15, 15, 20), (15, 10, 20), (12, 15, 15)),
    flimits=((2.0, 2.0, 4.0), (10.0, 4.0, 4.0), (0.5, 0.5, 0.5)),
    vpoints=(
        (0.0, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0, 2.0, 3.0, 5.0, 8.0, 16.0),
        (0.0, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0, 2.0, 3.0, 6.0, 10.0, 20.0),
        (0.0, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1.0, 2.0, 3.0, 5.0, 10.0, 100.0),
    ),
)

X = symbol("x")
Y = symbol("y")
T = symbol("t")
A_PARAM = symbol("a")


@lru_cache(maxsize=None)
def metric_for(kind):
    kind = MetricKind(kind)
    return MetricSpec.diag(-1, kind.sigma)


@dataclass(frozen=True)
class CayleySet:
    C: CMat2
    CI: CMat2
    C1: CMat2
    C1I: CMat2
    T: CMat2
    TI: CMat2


@lru_cache(maxsize=None)
def cayley_matrices(kind):
    kind = MetricKind(kind)
    metric = metric_for(kind)
    e0, e1 = clifford_units(metric)
    one = dirac_ONE(metric)
    t_mat = CMat2(one, e0, e0, one)
    ti_mat = CMat2(one, -e0, -e0, one)
    if kind is MetricKind.PARABOLIC:
        half = Fraction(1, 2)
        c = CMat2(one, e1.scale(-half), e1.scale(-half), one)
        ci = CMat2(one, e1.scale(half), e1.scale(half), one)
        c1 = CMat2(one, e1.scale(-half), e1.scale(half), one)
        c1i = CMat2(one, e1.scale(half), e1.scale(-half), one)
    else:
        sig = kind.sigma
        c = CMat2(one, -e1, e1.scale(sig), one)
        ci = CMat2(one, e1, e1.scale(-sig), one)
        c1 = mat_mul(c, t_mat)
        c1i = mat_mul(ti_mat, ci)
    return CayleySet(c, ci, c1, c1i, t_mat, ti_mat)


def subgroup_exp(sub, t, kind):
    """Exponential of the Lie-algebra generator of A, N or K at parameter t."""
    sub = Subgroup(sub)
    metric = metric_for(kind)
    e0, _ = clifford_units(metric)
    one = dirac_ONE(metric)
    zero = one.scale(0)
    t = sx._coerce(t)
    if sub is Subgroup.A:
        return CMat2(one.scale(exp(t)), zero, zero, one.scale(exp(-t)))
    if sub is Subgroup.N:
        return CMat2(one, e0.scale(t), zero, one)
    return CMat2(one.scale(cos(t)), e0.scale(sin(t)), e0.scale(sin(t)), one.scale(cos(t)))


@dataclass(frozen=True)
class MoebiusFamily:
    u: sx.Expr
    v: sx.Expr

    def at(self, x, y, t):
        env = {"x": x, "y": y, "t": t}
        return evalf(self.u, env), evalf(self.v, env)


def _cayley_pair(kind, ttype):
    """The Cayley matrix of a point image and its inverse up to a scalar."""
    cay = cayley_matrices(kind)
    return (cay.C, cay.CI) if ttype == TransformType.CAYLEY_POINT else (cay.C1, cay.C1I)


def _generator(kind, sub, ttype):
    """Lie-algebra generator X of the subgroup, the t = 0 derivative of
    ``subgroup_exp``; for a Cayley image L X R / lam, with L R = lam I."""
    metric = metric_for(kind)
    e0, _ = clifford_units(metric)
    one = dirac_ONE(metric)
    gen = (CMat2(one, 0, 0, -one), CMat2(0, e0, 0, 0), CMat2(0, e0, e0, 0))[sub]
    if ttype == TransformType.DIRECT:
        return gen
    left, right = _cayley_pair(kind, ttype)
    lam = mat_mul(left, right).a.coeff(())
    return mat_mul(mat_mul(left, gen), right).scale(sx.pow_(lam, -1))


@lru_cache(maxsize=None)
def _family(kind, sub, ttype):
    """The Moebius family of one subgroup; a Cayley image composes the
    exponential with the image's Cayley matrix."""
    kind, sub, ttype = MetricKind(kind), Subgroup(sub), TransformType(ttype)
    mat = subgroup_exp(sub, T, kind)
    if ttype != TransformType.DIRECT:
        mat = mat_mul(_cayley_pair(kind, ttype)[0], mat)
    try:
        u, v = clifford_moebius_map(mat, (X, Y), metric_for(kind))
    except Exception as err:
        raise RuntimeError(
            "family (%s, %s, %s) failed: %s" % (sub.name, ttype.name, kind.name, err)
        ) from err
    return MoebiusFamily(u, v)


@lru_cache(maxsize=None)
def build_families(kind):
    """All 9 (subgroup x transform type) Moebius families for one metric."""
    return {(sub, ttype): _family(kind, sub, ttype) for sub in Subgroup for ttype in TransformType}


@dataclass(frozen=True)
class FieldData:
    """Vector field, Jacobian and transverse direction for one slot 0..2."""

    du: sx.Expr
    dv: sx.Expr
    jacobian: tuple       # ((du/dx, du/dy), (dv/dx, dv/dy)) of the point family
    trans_u: sx.Expr      # jacobian applied to the subgroup's transverse seed
    trans_v: sx.Expr


@lru_cache(maxsize=None)
def vector_fields(kind):
    """Per slot, the infinitesimal action G.a w + G.b - w (G.c w + G.d) of
    the generator G at w = x e0 + y e1, and the Jacobian of the family."""
    kind = MetricKind(kind)
    fams = build_families(kind)
    units = clifford_units(metric_for(kind))
    w = lst_to_clifford([X, Y], units)
    out = {}
    for sub in Subgroup:
        # the rotation field (-y, x) crosses the A-orbits, the vertical
        # unit vector the N- and K-orbits
        s0, s1 = (-Y, X) if sub == Subgroup.A else (sx.ZERO, sx.ONE)
        for ttype in TransformType:
            g = _generator(kind, sub, ttype)
            du, dv = clifford_to_lst(g.a * w + g.b - w * (g.c * w + g.d), units)
            jfam = fams[(sub, ttype)]
            jac = (
                (diff(jfam.u, X), diff(jfam.u, Y)),
                (diff(jfam.v, X), diff(jfam.v, Y)),
            )
            tu = normal(jac[0][0] * s0 + jac[0][1] * s1)
            tv = normal(jac[1][0] * s0 + jac[1][1] * s1)
            out[(sub, int(ttype))] = FieldData(du, dv, jac, tu, tv)
    return out


@lru_cache(maxsize=None)
def curvature(kind, slot=0):
    """Signed curvature of the K field's flow lines in slot 0..2 (acceleration:
    the field differentiated along itself) and its value on the v-axis x = 0."""
    field = vector_fields(kind)[(Subgroup.K, slot)]
    du, dv = field.du, field.dv
    ddu = du * diff(du, X) + dv * diff(du, Y)
    ddv = du * diff(dv, X) + dv * diff(dv, Y)
    k = normal((ddu * dv - du * ddv) * (du * du + dv * dv) ** Fraction(-3, 2))
    k_axis = normal(subs(k, {X: 0}))
    return k, k_axis


# ---------------------------------------------------------------------------
# Numeric sampling


def _in_limits(u, v, kind, cayley):
    """Whether an orbit or transverse point is drawn: finite, inside the
    plot box and, for the hyperbolic metric, above the u axis (direct) or
    inside the unit hyperbola (Cayley images)."""
    if not (math.isfinite(u) and math.isfinite(v)):
        return False
    if abs(u) > DEFAULT_TUNING.ulim or abs(v) > DEFAULT_TUNING.vlim:
        return False
    if kind != MetricKind.HYPERBOLIC:
        return True
    if not cayley:
        return v >= 0
    return -(u * u) + v * v - 1.001 <= 0


def _sample(kind_name, streams, curves, accept, direction, pen):
    """The sampling loop of every figure: each env of each (grade, envs)
    curve goes through each stream's (label, u, v) map.  A point passing
    ``accept(stream, u, v)`` is emitted with ``direction(stream, env, u, v)``;
    any other point ends that stream's polyline, as does the end of a curve.
    Returns one record list per stream, polylines numbered from 0."""
    records = [[] for _ in streams]
    started = [0] * len(streams)
    for grade, envs in curves:
        drawing = [False] * len(streams)
        for env in envs:
            for i, (label, fu, fv) in enumerate(streams):
                u = evalf(fu, env)
                v = evalf(fv, env)
                if not accept(i, u, v):
                    drawing[i] = False
                    continue
                if not drawing[i]:
                    drawing[i] = True
                    started[i] += 1
                du, dv = direction(i, env, u, v)
                records[i].append(CurveRecord(
                    curve_id=started[i] - 1, kind=kind_name, transform=label,
                    u=u, v=v, du=du, dv=dv, color_grade=grade, pen_width_hint=pen,
                ))
    return records


def _orbit_origins(sub, kind):
    """Seed point of each curve of the (sub, kind) orbit family."""
    vil = DEFAULT_TUNING.vilimits[sub][kind]
    vpoints = DEFAULT_TUNING.vpoints[kind]
    origins = []
    for vi in range(vil):
        if sub == Subgroup.A:
            vval = 1.0 * vi / (vil - 1)
            if kind == MetricKind.HYPERBOLIC:
                vval *= 2
            origins.append((math.cos(math.pi * vval), math.sin(math.pi * vval)))
        elif sub == Subgroup.N and kind == MetricKind.HYPERBOLIC:
            # hyperbolic N needs a symmetric negative set of origins
            off = vi - vil // 2
            origins.append((0.0, (-1 if off < 0 else 1) * vpoints[abs(off)]))
        else:
            origins.append((0.0, vpoints[vi]))
    return origins


def _node_parameters(sub, kind):
    """Family parameter at each of the 2 * fsteps + 1 nodes of an orbit."""
    fst = DEFAULT_TUNING.fsteps[sub][kind]
    params = [DEFAULT_TUNING.flimits[sub][kind] * j / fst for j in range(-fst, fst + 1)]
    return [f * math.pi for f in params] if sub == Subgroup.K else params


def _field_at(field, u, v):
    env = {"x": u, "y": v}
    return evalf(field.du, env), evalf(field.dv, env)


def _transverse_direction(tu, tv):
    """Infinity maps to a unit axis direction; very large vectors are
    normalized; anything non-numeric falls back to the horizontal unit."""
    if math.isnan(tu) or math.isnan(tv):
        return 1.0, 0.0
    if tu == math.inf:
        return 1.0, 0.0
    if tu == -math.inf:
        return -1.0, 0.0
    if tv == math.inf:
        return 0.0, 1.0
    if tv == -math.inf:
        return 0.0, -1.0
    if abs(tu) + abs(tv) > 100:
        r = math.hypot(tu, tv)
        return tu / r, tv / r
    return tu, tv


def _sample_streams(kind, sub, kind_name, curves, direction, pen):
    """Run the sampling loop over the direct family and both Cayley-point
    images; returns {transform type: records}."""
    fams = build_families(kind)
    streams = [(t.label, fams[(sub, t)].u, fams[(sub, t)].v) for t in TransformType]

    def accept(i, u, v):
        return _in_limits(u, v, kind, i > 0)

    return dict(zip(TransformType, _sample(kind_name, streams, curves, accept, direction, pen)))


def sample_orbits(kind, sub):
    """Orbit polylines plus both Cayley-point images, keyed by stream 0..2:
    one curve per orbit origin, sweeping the family parameter."""
    kind = MetricKind(kind)
    sub = Subgroup(sub)
    fields = vector_fields(kind)
    origins = _orbit_origins(sub, kind)
    params = _node_parameters(sub, kind)
    curves = [
        (1.2 * vi / len(origins), [{"x": x0, "y": y0, "t": t} for t in params])
        for vi, (x0, y0) in enumerate(origins)
    ]
    return _sample_streams(
        kind, sub, "orbit", curves,
        lambda i, env, u, v: _field_at(fields[(sub, i)], u, v), 1.5,
    )


def sample_transverses(kind, sub):
    """Curves crossing the orbit family: the parameter is fixed per curve
    while the origin sweeps the orbit seeds."""
    kind = MetricKind(kind)
    sub = Subgroup(sub)
    fields = vector_fields(kind)
    origins = _orbit_origins(sub, kind)
    curves = [
        (1.2, [{"x": x0, "y": y0, "t": t} for x0, y0 in origins])
        for t in _node_parameters(sub, kind)
    ]

    def direction(i, env, u, v):
        f = fields[(sub, i)]
        return _transverse_direction(evalf(f.trans_u, env), evalf(f.trans_v, env))

    return _sample_streams(kind, sub, "transverse", curves, direction, 0.5)


ARROW_GRID_COLS = range(-10, 10)
ARROW_GRID_ROWS = range(0, 11)


def sample_arrows(kind, sub):
    """The direct vector field on a fixed grid, one record per grid node:
    each node is a one-point curve of the identity map."""
    field = vector_fields(MetricKind(kind))[(Subgroup(sub), 0)]
    curves = [
        (0.6, [{"x": k / 3.0, "y": j / 3.0}]) for k in ARROW_GRID_COLS for j in ARROW_GRID_ROWS
    ]
    [records] = _sample(
        "arrow", [(TransformType.DIRECT.label, X, Y)], curves, lambda i, u, v: True,
        lambda i, env, u, v: _field_at(field, u, v), 1.5,
    )
    return records


FUTURE_PAST_FRAMES = 8
FUTURE_PAST_CURVES = 15
FUTURE_PAST_NODES = 40
FUTURE_PAST_LIMIT = 8.5
_FUTURE_PAST_RADII = (
    1.0 / 5, 1.0 / 4, 1 / 3.5, 1.0 / 3, 1 / 2.5, 1.0 / 2, 1 / 1.5,
    1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0,
)
_FUTURE_PAST_EXP_SCALE = 1.3
_FUTURE_PAST_NODE_SCALE = 4.0


@lru_cache(maxsize=None)
def _future_past_family():
    metric = metric_for(MetricKind.HYPERBOLIC)
    _, e1 = clifford_units(metric)
    one = dirac_ONE(metric)
    mat = CMat2(one, e1.scale(-A_PARAM), e1.scale(A_PARAM), one)
    u, v = clifford_moebius_map(mat, (X, Y), metric)
    return u, v


def sample_future_past():
    """Eight frames of the map pushing the future light cone to the past;
    frame 0 is the identity."""
    fu, fv = _future_past_family()
    field = vector_fields(MetricKind.HYPERBOLIC)[(Subgroup.K, 0)]
    streams = [(TransformType.DIRECT.label, fu, fv)]
    lim = FUTURE_PAST_LIMIT
    nodes = range(-FUTURE_PAST_NODES // 2, FUTURE_PAST_NODES // 2 + 1)
    scale = _FUTURE_PAST_NODE_SCALE

    def accept(i, u, v):
        return abs(u) <= lim and abs(v) <= lim  # also rejects nan and inf

    frames = []
    for j in range(FUTURE_PAST_FRAMES):
        angl = math.exp(j / _FUTURE_PAST_EXP_SCALE - 3) if j > 0 else 0.0
        curves = []
        for k in range(FUTURE_PAST_CURVES):
            grade = float(k // FUTURE_PAST_FRAMES)  # C integer ratio
            r = _FUTURE_PAST_RADII[k]
            curves.append((grade, [
                {"a": angl, "x": r * math.cosh(l / scale), "y": r * math.sinh(l / scale)}
                for l in nodes
            ]))
        [records] = _sample(
            "future_past", streams, curves, accept,
            lambda i, env, u, v: _field_at(field, u, v), 1.0,
        )
        frames.append(records)
    return frames


# ---------------------------------------------------------------------------
# Numeric verification of the K-orbit focal properties


@dataclass
class KOrbitReport:
    kind: MetricKind
    v0: float
    expected: float
    max_residual: float
    sign_flips: int
    n_samples: int
    label: str

    @property
    def ok(self):
        return self.max_residual <= 1e-6 and (
            self.kind != MetricKind.HYPERBOLIC or self.sign_flips >= 1
        )


_K_CHECK_LABELS = (
    "distance to center",
    "directrix",
    "difference to foci",
)


def _k_orbit_nodes(kind, v0):
    fam = _family(kind, Subgroup.K, TransformType.DIRECT)
    nodes = []
    for tval in _node_parameters(Subgroup.K, kind)[1:-1]:  # sweep endpoints excluded
        u, v = fam.at(0.0, v0, tval)
        if math.isfinite(u) and math.isfinite(v):
            nodes.append((u, v))
    return nodes


def verify_k_orbit(kind, v0):
    """Check the closed-form focal property of the K-orbit through (0, v0):
    a circle, a parabola or a hyperbola depending on the metric."""
    kind = MetricKind(kind)
    if v0 <= 0:
        raise ValueError("origin ordinate must be positive")
    nodes = _k_orbit_nodes(kind, v0)
    flips = 0
    if kind == MetricKind.ELLIPTIC:
        cy = (v0 + 1 / v0) / 2
        radius = abs(v0 - 1 / v0) / 2
        residual = max(abs(math.hypot(u, v - cy) - radius) for u, v in nodes)
        expected = radius
    elif kind == MetricKind.PARABOLIC:
        fy = v0 + 1 / v0 / 4
        values = [math.hypot(u, v - fy) - v for u, v in nodes]
        expected = values[0]
        residual = max(values) - min(values)
    else:
        p = (v0 * v0 + 1) / v0 / math.sqrt(2)
        disc = math.sqrt(max(p * p / 2 - 1, 0.0))
        f = p - disc if v0 < 1 else p + disc
        values = [
            math.hypot(u, v - f) - math.hypot(u, v - f + 2 * p) for u, v in nodes
        ]
        # the foci are 2p apart; the constant difference of distances is the
        # transverse axis, which for this rectangular hyperbola is p*sqrt(2)
        expected = p * math.sqrt(2)
        residual = max(abs(abs(s) - expected) for s in values)
        flips = sum(
            1 for s0, s1 in zip(values, values[1:]) if s0 * s1 < 0
        )
    return KOrbitReport(
        kind=kind,
        v0=v0,
        expected=expected,
        max_residual=residual,
        sign_flips=flips,
        n_samples=len(nodes),
        label=_K_CHECK_LABELS[kind],
    )


# ---------------------------------------------------------------------------
# Parabolic-disk vertex law


@dataclass
class ParabolaFit:
    vi: int
    image: int            # 0 for the C image, 1 for the C1 image
    a: float
    b: float
    c: float
    vertex_u: float
    vertex_v: float
    focal_length: float
    check_value: float    # vertex law residue target -1 (subgroup A only)


@dataclass
class VertexReport:
    subgroup: Subgroup
    fits: list = field(default_factory=list)
    skipped: int = 0

    @property
    def max_law_deviation(self):
        checked = [f for f in self.fits if not math.isnan(f.check_value)]
        if not checked:
            return math.inf
        return max(abs(f.check_value + 1) for f in checked)


def _fit_parabola_exact(p0, p1, p2):
    """Exact (a, b, c) of v = a u^2 + b u + c through three rational
    points by Newton divided differences; None when two abscissae
    coincide."""
    (u0, v0), (u1, v1), (u2, v2) = p0, p1, p2
    if u0 == u1 or u0 == u2 or u1 == u2:
        return None
    d01 = (v1 - v0) / (u1 - u0)
    a = ((v2 - v1) / (u2 - u1) - d01) / (u2 - u0)
    b = d01 - a * (u0 + u1)
    return a, b, v0 - u0 * (d01 - a * u1)


@lru_cache(maxsize=None)
def _vertex_check_family(sub, image):
    # The vertex law v = +-u^2 - 1 holds for the unit-coefficient Cayley
    # point maps; the drawing matrices carry an extra 1/2 on e1 which
    # rescales the disk and would shift the law to v = +-u^2/2 - 1/2.
    kind = MetricKind.PARABOLIC
    metric = metric_for(kind)
    _, e1 = clifford_units(metric)
    one = dirac_ONE(metric)
    if image == 0:
        cay = CMat2(one, -e1, -e1, one)
    else:
        cay = CMat2(one, -e1, e1, one)
    mat = mat_mul(cay, subgroup_exp(sub, T, kind))
    u, v = clifford_moebius_map(mat, (X, Y), metric)
    return MoebiusFamily(u, v)


def verify_parabolic_vertices(sub):
    """Fit parabolas through consecutive Cayley-image triples of the
    parabolic orbits of subgroup A or N and, for A, check that the vertex
    lands on v = -u^2 - 1 (first Cayley image) or v = u^2 - 1 (second)."""
    sub = Subgroup(sub)
    if sub == Subgroup.K:
        raise ValueError("vertex law applies to subgroups A and N only")
    kind = MetricKind.PARABOLIC
    report = VertexReport(subgroup=sub)
    params = _node_parameters(sub, kind)
    for vi, (x0, y0) in enumerate(_orbit_origins(sub, kind)):
        for image in range(2):
            fam = _vertex_check_family(sub, image)
            pts = []
            for tval in params:
                u, v = fam.at(x0, y0, tval)
                finite = math.isfinite(u) and math.isfinite(v)
                pts.append((Fraction(u), Fraction(v)) if finite else None)
            for triple in zip(pts, pts[1:], pts[2:]):
                if None in triple:
                    continue
                fit = _fit_parabola_exact(*triple)
                if fit is None or fit[0] == 0:
                    report.skipped += 1
                    continue
                a, b, c = fit
                vert_u = -b / (2 * a)
                vert_v = c - b * b / (4 * a)
                # The two images open in opposite directions, so the
                # vertex laws v = -u^2 - 1 and v = u^2 - 1 mirror each
                # other; the law holds for subgroup A only.
                if sub == Subgroup.A:
                    law_sign = 1 if image == 0 else -1
                    check = float(vert_v) + law_sign * float(vert_u) ** 2
                else:
                    check = math.nan
                report.fits.append(
                    ParabolaFit(
                        vi=vi,
                        image=image,
                        a=float(a),
                        b=float(b),
                        c=float(c),
                        vertex_u=float(vert_u),
                        vertex_v=float(vert_v),
                        focal_length=float(Fraction(1, 4) / a),
                        check_value=check,
                    )
                )
    return report
