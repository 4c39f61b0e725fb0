"""EPH plane geometry: the three two-dimensional metrics with e0^2 = -1
and e1^2 = sigma in {-1, 0, 1}, the one-parameter subgroups A, N, K of
SL(2,R) acting by Moebius transformations, their Cayley-transform images,
vector fields, curvature of K-orbits, curve sampling and the numeric
verification of the focal properties of the K-orbits."""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

from . import symexpr as sx
from .cliffalg import MetricSpec, clifford_to_lst, clifford_units, dirac_ONE, lst_to_clifford
from .curves import CurveRecord
from .moebius import CMat2, clifford_moebius_map, mat_mul
# evalf stays bound here: the benchmark's tracer wraps ephgeom.evalf by name
from .symexpr import compile_ex, cos, diff, evalf, exp, normal, sin, subs, symbol


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


class TuningTables(NamedTuple):
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


@lru_cache(maxsize=None)
def metric_for(kind):
    kind = MetricKind(kind)
    return MetricSpec.diag(-1, kind.sigma)


@lru_cache(maxsize=None)
def _basis(kind):
    """(dirac_ONE, e0, e1) of the metric."""
    metric = metric_for(kind)
    return (dirac_ONE(metric), *clifford_units(metric))


class CayleySet(NamedTuple):
    C: CMat2
    CI: CMat2
    C1: CMat2
    C1I: CMat2


@lru_cache(maxsize=None)
def cayley_matrices(kind):
    kind = MetricKind(kind)
    one, e0, e1 = _basis(kind)
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
        # T = (1, e0; e0, 1) and TI = (1, -e0; -e0, 1) give T TI = 2, so C1 C1I = 2 C CI
        c1 = mat_mul(c, CMat2(one, e0, e0, one))
        c1i = mat_mul(CMat2(one, -e0, -e0, one), ci)
    return CayleySet(c, ci, c1, c1i)


def subgroup_exp(sub, t, kind):
    """Exponential of the Lie-algebra generator of A, N or K at parameter t."""
    sub = Subgroup(sub)
    one, e0, _ = _basis(kind)
    zero = one.scale(0)
    t = sx._coerce(t)
    if sub is Subgroup.A:
        return CMat2(one.scale(exp(t)), zero, zero, one.scale(exp(-t)))
    if sub is Subgroup.N:
        return CMat2(one, e0.scale(t), zero, one)
    return CMat2(one.scale(cos(t)), e0.scale(sin(t)), e0.scale(sin(t)), one.scale(cos(t)))


class MoebiusFamily(NamedTuple):
    u: sx.Expr
    v: sx.Expr

    def fn(self):
        """The family as a compiled function (x, y, t) -> (u, v) of floats."""
        return compile_ex((self.u, self.v), (X, Y, T))


def _moebius_family(kind, mat):
    """The family of images of x e0 + y e1 under the Moebius map of mat;
    the constructor memo is emptied after each family, also a failed one."""
    try:
        return MoebiusFamily(*clifford_moebius_map(mat, (X, Y), metric_for(kind)))
    finally:
        sx.clear_memo()


def _cayley_pair(kind, ttype):
    """The Cayley matrix of a point image and its inverse up to a scalar."""
    cay = cayley_matrices(kind)
    return (cay.C, cay.CI) if ttype == TransformType.CAYLEY_POINT else (cay.C1, cay.C1I)


def _generator(kind, sub, ttype):
    """Lie-algebra generator X of the subgroup, the t = 0 derivative of
    ``subgroup_exp``; for a Cayley image L X R / lam, with L R = lam I."""
    one, e0, _ = _basis(kind)
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
        return _moebius_family(kind, mat)
    except Exception as err:
        raise RuntimeError(
            "family (%s, %s, %s) failed: %s" % (sub.name, ttype.name, kind.name, err)
        ) from err


@lru_cache(maxsize=None)
def build_families(kind):
    """All 9 (subgroup x transform type) Moebius families for one metric."""
    return {(sub, ttype): _family(kind, sub, ttype) for sub in Subgroup for ttype in TransformType}


class FieldData(NamedTuple):
    """Vector field for one slot 0..2."""

    du: sx.Expr
    dv: sx.Expr

    def fn(self):
        """The field as a compiled function (x, y) -> (du, dv) of floats."""
        return compile_ex((self.du, self.dv), (X, Y))


@lru_cache(maxsize=None)
def vector_fields(kind):
    """Per slot, the infinitesimal action G.a w + G.b - w (G.c w + G.d) of
    the generator G at w = x e0 + y e1."""
    kind = MetricKind(kind)
    units = _basis(kind)[1:]
    w = lst_to_clifford([X, Y], units)
    out = {}
    for sub in Subgroup:
        for ttype in TransformType:
            g = _generator(kind, sub, ttype)
            out[(sub, ttype)] = FieldData(
                *clifford_to_lst(g.a * w + g.b - w * (g.c * w + g.d), units))
    sx.clear_memo()
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
    sx.clear_memo()
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


def _is_finite(u, v):
    return math.isfinite(u) and math.isfinite(v)


def _runs(fn, curves, accept):
    """The one evaluation loop: each point of each (grade, points) curve
    goes through ``fn(*point)``, giving (u, v, ...).  Yields (grade,
    outputs) for each maximal run of points passing ``accept(u, v)``; any
    other point ends a run, as does the end of a curve."""
    for grade, points in curves:
        run = []
        for point in points:
            out = fn(*point)
            if accept(out[0], out[1]):
                run.append(out)
            elif run:
                yield grade, run
                run = []
        if run:
            yield grade, run


def _sample(kind_name, label, fn, direction, curves, accept, pen):
    """The sampling loop of every figure: each run of ``_runs`` is one
    polyline, numbered from 0, and each of its outputs is emitted with
    ``direction(*output)``.  Returns the records."""
    return [
        CurveRecord(curve_id, kind_name, label, out[0], out[1], *direction(*out), grade, pen)
        for curve_id, (grade, run) in enumerate(_runs(fn, curves, accept))
        for out in run
    ]


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


def _transverse_direction(u, v, tu, tv):
    """(tu, tv) as a direction: infinity maps to a unit axis direction, very
    large vectors are normalized, anything non-numeric gives the horizontal unit."""
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


def _sample_streams(kind, kind_name, curves, stream, pen):
    """Run the sampling loop over the direct family and both Cayley-point
    images, ``stream(t)`` giving each one's (fn, direction); returns
    {transform type: records}."""
    return {
        t: _sample(kind_name, t.label, *stream(t), curves,
                   partial(_in_limits, kind=kind, cayley=t != TransformType.DIRECT), pen)
        for t in TransformType
    }


def sample_orbits(kind, sub):
    """Orbit polylines plus both Cayley-point images, keyed by stream 0..2:
    one curve per orbit origin, sweeping the family parameter."""
    kind = MetricKind(kind)
    sub = Subgroup(sub)
    origins = _orbit_origins(sub, kind)
    params = _node_parameters(sub, kind)
    curves = [
        (1.2 * vi / len(origins), [(x0, y0, t) for t in params])
        for vi, (x0, y0) in enumerate(origins)
    ]

    fams, fields = build_families(kind), vector_fields(kind)

    def stream(t):
        return fams[(sub, t)].fn(), fields[(sub, t)].fn()

    return _sample_streams(kind, "orbit", curves, stream, 1.5)


def _transverse(fam, sub):
    """The family differentiated along a seed field that crosses its orbits."""
    if sub == Subgroup.A:
        # the rotation field (-y, x) crosses the A-orbits
        return tuple(normal(-Y * diff(c, X) + X * diff(c, Y)) for c in (fam.u, fam.v))
    # the vertical unit vector crosses the N- and K-orbits
    return tuple(normal(diff(c, Y)) for c in (fam.u, fam.v))


def sample_transverses(kind, sub):
    """Curves crossing the orbit family: the parameter is fixed per curve
    while the origin sweeps the orbit seeds; each stream's transverse
    direction is built here, where it is read."""
    kind = MetricKind(kind)
    sub = Subgroup(sub)
    origins = _orbit_origins(sub, kind)
    curves = [
        (1.2, [(x0, y0, t) for x0, y0 in origins])
        for t in _node_parameters(sub, kind)
    ]

    fams = build_families(kind)

    def stream(t):
        fam = fams[(sub, t)]
        return compile_ex((fam.u, fam.v, *_transverse(fam, sub)), (X, Y, T)), _transverse_direction

    streams = _sample_streams(kind, "transverse", curves, stream, 0.5)
    sx.clear_memo()
    return streams


ARROW_GRID_COLS = range(-10, 10)
ARROW_GRID_ROWS = range(0, 11)


def sample_arrows(kind, sub):
    """The direct vector field on a fixed grid, one record per grid node:
    each node is a one-point curve of the identity map."""
    field = vector_fields(MetricKind(kind))[(Subgroup(sub), 0)]
    curves = [(0.6, [(k / 3.0, j / 3.0)]) for k in ARROW_GRID_COLS for j in ARROW_GRID_ROWS]
    return _sample(
        "arrow", TransformType.DIRECT.label, compile_ex((X, Y), (X, Y)), field.fn(),
        curves, lambda u, v: True, 1.5,
    )


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
    """The map (1, -t e1; t e1, 1) of the future-past frames, t the frame's parameter."""
    kind = MetricKind.HYPERBOLIC
    one, _, e1 = _basis(kind)
    return _moebius_family(kind, CMat2(one, e1.scale(-T), e1.scale(T), one))


def sample_future_past():
    """Eight frames of the map pushing the future light cone to the past;
    frame 0 is the identity."""
    field = vector_fields(MetricKind.HYPERBOLIC)[(Subgroup.K, 0)]
    fn, direction = _future_past_family().fn(), field.fn()
    lim = FUTURE_PAST_LIMIT
    nodes = range(-FUTURE_PAST_NODES // 2, FUTURE_PAST_NODES // 2 + 1)
    scale = _FUTURE_PAST_NODE_SCALE

    def accept(u, v):
        return abs(u) <= lim and abs(v) <= lim  # also rejects nan and inf

    frames = []
    for j in range(FUTURE_PAST_FRAMES):
        angl = math.exp(j / _FUTURE_PAST_EXP_SCALE - 3) if j > 0 else 0.0
        curves = []
        for k in range(FUTURE_PAST_CURVES):
            grade = float(k // FUTURE_PAST_FRAMES)  # C integer ratio
            r = _FUTURE_PAST_RADII[k]
            curves.append((grade, [
                (r * math.cosh(l / scale), r * math.sinh(l / scale), angl) for l in nodes
            ]))
        frames.append(_sample(
            "future_past", TransformType.DIRECT.label, fn, direction, curves, accept, 1.0))
    return frames


# ---------------------------------------------------------------------------
# Numeric verification of the K-orbit focal properties


class KOrbitReport(NamedTuple):
    kind: MetricKind
    expected: float
    max_residual: float
    sign_flips: int
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


def verify_k_orbit(kind, v0):
    """Check the closed-form focal property of the K-orbit through (0, v0):
    a circle, a parabola or a hyperbola depending on the metric."""
    kind = MetricKind(kind)
    if v0 <= 0:
        raise ValueError("origin ordinate must be positive")
    if not (math.isfinite(v0) and math.isfinite(1 / v0)):
        raise ValueError("origin (0, %r): the ordinate and its reciprocal must be finite" % (v0,))
    fn = _family(kind, Subgroup.K, TransformType.DIRECT).fn()
    params = _node_parameters(Subgroup.K, kind)[1:-1]  # sweep endpoints excluded
    curve = (0.0, [(0.0, float(v0), t) for t in params])
    nodes = [out for _, run in _runs(fn, [curve], _is_finite) for out in run]
    if not nodes:
        raise ValueError("no finite node on the K-orbit through (0, %r)" % (v0,))
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
    return KOrbitReport(kind, expected, residual, flips, _K_CHECK_LABELS[kind])


# ---------------------------------------------------------------------------
# Parabolic-disk vertex law


class VertexReport(NamedTuple):
    """Per fit, the vertex law value v + sign u^2, target -1 (NaN for N)."""

    subgroup: Subgroup
    fits: list
    skipped: int = 0

    @property
    def max_law_deviation(self):
        checked = [c for c in self.fits if not math.isnan(c)]
        if not checked:
            return math.inf
        return max(abs(c + 1) for c in checked)

    @property
    def ok(self):
        """The vertex law holds within 1e-6; subgroup N has no law to miss."""
        return self.subgroup != Subgroup.A or self.max_law_deviation <= 1e-6


def _fit_parabola(p0, p1, p2):
    """v = a u^2 + b u + c through three points exactly, as ints (an, bn, cn, ad, D):
    a = an D / ad, b = bn / ad and c = cn / (ad D), ad > 0, D the lcm of the
    denominators.  None when two abscissae coincide or the points are collinear."""
    ratios = [x.as_integer_ratio() for point in sorted((p0, p1, p2)) for x in point]
    d = math.lcm(*[den for _, den in ratios])
    u0, v0, u1, v1, u2, v2 = [num * (d // den) for num, den in ratios]
    an = (v2 - v1) * (u1 - u0) - (v1 - v0) * (u2 - u1)
    ad = (u2 - u1) * (u1 - u0) * (u2 - u0)
    if ad == 0 or an == 0:
        return None
    w = (v1 - v0) * (u2 - u1) * (u2 - u0)
    return an, w - an * (u0 + u1), v0 * ad - u0 * (w - an * u1), ad, d


@lru_cache(maxsize=None)
def _vertex_check_family(sub, image):
    # The vertex law v = +-u^2 - 1 holds for the unit-coefficient Cayley
    # point maps; the drawing matrices carry an extra 1/2 on e1 which
    # rescales the disk and would shift the law to v = +-u^2/2 - 1/2.
    kind = MetricKind.PARABOLIC
    one, _, e1 = _basis(kind)
    cay = CMat2(one, -e1, -e1 if image == 0 else e1, one)
    return _moebius_family(kind, mat_mul(cay, subgroup_exp(sub, T, kind)))


def verify_parabolic_vertices(sub):
    """Fit parabolas through consecutive Cayley-image triples of the
    parabolic orbits of subgroup A or N and, for A, check that the vertex
    lands on v = -u^2 - 1 (first Cayley image) or v = u^2 - 1 (second)."""
    sub = Subgroup(sub)
    if sub == Subgroup.K:
        raise ValueError("vertex law applies to subgroups A and N only")
    kind = MetricKind.PARABOLIC
    fits, skipped = [], 0
    params = _node_parameters(sub, kind)
    curves = [(0.0, [(x0, y0, t) for t in params]) for x0, y0 in _orbit_origins(sub, kind)]
    for image in range(2):
        for _, run in _runs(_vertex_check_family(sub, image).fn(), curves, _is_finite):
            for triple in zip(run, run[1:], run[2:]):
                fit = _fit_parabola(*triple)
                if fit is None:
                    skipped += 1
                    continue
                an, bn, cn, ad, d = fit
                # The two images open in opposite directions, so the
                # vertex laws v = -u^2 - 1 and v = u^2 - 1 mirror each
                # other; the law holds for subgroup A only.
                check = math.nan
                if sub == Subgroup.A:
                    # an / an keeps the divisors positive: 0 / -k is -0.0, not 0.0
                    law_sign = 1 if image == 0 else -1
                    try:
                        vert_u = -an * bn / (2 * an * an * d)
                        vert_v = an * (4 * an * cn - bn * bn) / (4 * an * an * ad * d)
                        check = vert_v + law_sign * vert_u ** 2
                    except OverflowError:  # a vertex beyond the float range fails the law
                        check = math.inf
                fits.append(check)
    return VertexReport(sub, fits, skipped)
