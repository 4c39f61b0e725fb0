"""2x2 matrices with Clifford-number entries and the fractional-linear
action v -> (a v + b)(c v + d)^-1 on vectors."""

from .cliffalg import (
    MetricMismatchError,
    MetricSpec,
    Multivector,
    ZeroNormError,
    clifford_inverse,
    clifford_to_lst,
    clifford_units,
    dirac_ONE,
    lst_to_clifford,
)


class CMat2:
    """Row-major 2x2 matrix of multivectors over a shared metric."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        entries = [a, b, c, d]
        metric = None
        for e in entries:
            if isinstance(e, Multivector):
                metric = e.metric
                break
        if metric is None:
            raise TypeError("at least one entry must be a multivector")
        wrapped = []
        for e in entries:
            if not isinstance(e, Multivector):
                e = dirac_ONE(metric).scale(e)
            elif e.metric != metric:
                raise MetricMismatchError("matrix entries use different metrics")
            wrapped.append(e)
        self.a, self.b, self.c, self.d = wrapped

    @property
    def metric(self):
        return self.a.metric

    @classmethod
    def identity(cls, metric):
        one = dirac_ONE(metric)
        return cls(one, one.scale(0), one.scale(0), one)

    def scale(self, k):
        return CMat2(self.a.scale(k), self.b.scale(k), self.c.scale(k), self.d.scale(k))

    def __mul__(self, other):
        if isinstance(other, CMat2):
            return mat_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def subs(self, binding):
        return CMat2(
            self.a.subs(binding),
            self.b.subs(binding),
            self.c.subs(binding),
            self.d.subs(binding),
        )

    def __eq__(self, other):
        return isinstance(other, CMat2) and (
            self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "CMat2[[%r, %r], [%r, %r]]" % (self.a, self.b, self.c, self.d)


def mat_mul(m1, m2):
    return CMat2(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def clifford_moebius_map(*args):
    """Apply v -> (a v + b)(c v + d)^-1.

    Call either as (M, v, metric) with a CMat2, or as (a, b, c, d, v, metric)
    with the four entries given separately.  ``v`` is a sequence of
    expressions; the result is the component list of the image vector.
    """
    if len(args) == 3:
        mat, v, metric = args
        if not isinstance(mat, CMat2):
            raise TypeError("first argument must be a CMat2")
    elif len(args) == 6:
        a, b, c, d, v, metric = args
        mat = CMat2(a, b, c, d)
    else:
        raise TypeError("expected (M, v, metric) or (a, b, c, d, v, metric)")
    if not isinstance(metric, MetricSpec):
        raise TypeError("last argument must be a MetricSpec")
    units = clifford_units(metric)
    vec = lst_to_clifford(v, units)
    num = mat.a * vec + mat.b
    den = mat.c * vec + mat.d
    res = num * clifford_inverse(den)
    return clifford_to_lst(res, units)
