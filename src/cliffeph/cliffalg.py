"""Generic Clifford algebra over an arbitrary (possibly non-symmetric,
possibly symbolic) metric.

Generators e_k satisfy e_i e_j + e_j e_i = B(i,j) + B(j,i).  Multivectors
are stored as maps from canonical blades (strictly increasing index
tuples) to coefficient expressions; the empty blade is the algebra unit.
Products reduce each generator word once per metric, in a cached blade
table; vectors are read back from units on distinct generators.
The public ``Multivector`` constructor checks every blade and coerces
every coefficient; products, sums and scalings made here, whose blades
are canonical and whose coefficients are expressions already, are built
by ``_built``, which only drops ZERO coefficients.
"""

from functools import lru_cache

from . import symexpr as sx
from .symexpr import ZERO, ONE, normal


class CliffordError(Exception):
    pass


class MetricMismatchError(CliffordError):
    pass


class NonScalarSquareError(CliffordError):
    pass


class NegativeNormSquareError(CliffordError):
    pass


class ZeroNormError(CliffordError):
    pass


class NotAVectorError(CliffordError):
    pass


class NotScalarError(CliffordError):
    pass


class MetricSpec:
    """n x n bilinear form."""

    __slots__ = ("n", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(sx._coerce(v) for v in row) for row in entries)
        n = len(rows)
        if not 1 <= n <= 16 or any(len(r) != n for r in rows):
            raise ValueError("metric must be a square matrix, 1..16 generators")
        self.n = n
        self.entries = rows

    @classmethod
    def diag(cls, *values):
        n = len(values)
        return cls(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def b(self, i, j):
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, MetricSpec) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "MetricSpec(%r)" % (self.entries,)


def _check_same_metric(a, b):
    if a.metric is not b.metric and a.metric != b.metric:
        raise MetricMismatchError("multivectors live over different metrics")


def _canonical_blade(blade, metric):
    """The blade as a tuple of generator indices; raises unless they are
    integers, strictly increasing and inside the metric's dimension."""
    blade = tuple(blade)
    if not all(isinstance(k, int) for k in blade):
        raise TypeError("blade %r has a non-integer index" % (blade,))
    if any(not 0 <= k < metric.n for k in blade):
        raise IndexError("blade %r outside dimension %d" % (blade, metric.n))
    if any(i >= j for i, j in zip(blade, blade[1:])):
        raise ValueError("blade %r is not strictly increasing" % (blade,))
    return blade


class Multivector:
    """Immutable association blade -> coefficient over one MetricSpec."""

    __slots__ = ("metric", "terms")

    def __init__(self, metric, terms):
        clean = {}
        for blade, coeff in terms.items():
            blade = _canonical_blade(blade, metric)
            coeff = sx._coerce(coeff)
            if coeff != ZERO:
                clean[blade] = coeff
        self.metric = metric
        self.terms = clean

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        other = self._wrap(other)
        _check_same_metric(self, other)
        out = dict(self.terms)
        for blade, c in other.terms.items():
            out[blade] = sx.add(out.get(blade, ZERO), c)
        return _built(self.metric, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        k = sx._coerce(k)
        return _built(self.metric, {b: sx.mul(k, c) for b, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            _check_same_metric(self, other)
            return _mv_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute; Multivector * Multivector never lands here
        return self.scale(other)

    def __truediv__(self, k):
        return self.scale(sx.pow_(sx._coerce(k), -1))

    def _wrap(self, x):
        if isinstance(x, Multivector):
            return x
        return Multivector(self.metric, {(): sx._coerce(x)})

    # -- inspection --------------------------------------------------------

    def coeff(self, blade):
        return self.terms.get(_canonical_blade(blade, self.metric), ZERO)

    def is_zero(self):
        return not self.terms

    def subs(self, binding):
        return Multivector(
            self.metric, {b: sx.subs(c, binding) for b, c in self.terms.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and self.metric == other.metric
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.metric, tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for blade in sorted(self.terms, key=lambda b: (len(b), b)):
            c = self.terms[blade]
            name = "".join("e%d" % k for k in blade) or "ONE"
            parts.append("(%s)*%s" % (sx.to_str(c), name))
        return " + ".join(parts)


def _built(metric, terms):
    """The Multivector of ``terms``, canonical blades to expressions,
    without the constructor's checks; only ZERO coefficients are dropped."""
    m = object.__new__(Multivector)
    m.metric = metric
    m.terms = {b: c for b, c in terms.items() if c is not ZERO}
    return m


def dirac_ONE(metric):
    return Multivector(metric, {(): ONE})


def clifford_unit(k, metric):
    return Multivector(metric, {(k,): ONE})


def clifford_units(metric):
    return tuple(clifford_unit(k, metric) for k in range(metric.n))


# ---------------------------------------------------------------------------
# Product canonicalization


def _mv_mul(a, b):
    acc = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            c = sx.mul(ca, cb)
            for blade, k in _blade_product(a.metric, ba + bb):
                kc = c if k is ONE else sx.mul(k, c)
                acc[blade] = sx.add(acc[blade], kc) if blade in acc else kc
    return _built(a.metric, acc)


@lru_cache(maxsize=None)
def _blade_product(metric, word):
    """The generator word as ((blade, coefficient), ...) over the metric,
    no coefficient zero: e_j e_i -> -e_i e_j + (B(i,j)+B(j,i)) for adjacent
    j > i and e_i e_i -> B(i,i), each step reducing (length, inversions)."""
    out = {}
    stack = [(ONE, word)]
    while stack:
        c, w = stack.pop()
        pos = next((k for k in range(len(w) - 1) if w[k] >= w[k + 1]), None)
        if pos is None:
            out[w] = sx.add(out[w], c) if w in out else c
            continue
        i, j, rest = w[pos], w[pos + 1], w[:pos] + w[pos + 2 :]
        if i == j:
            stack.append((sx.mul(c, metric.b(i, i)), rest))
        else:
            stack.append((sx.mul(sx.rational(-1), c), w[:pos] + (j, i) + w[pos + 2 :]))
            stack.append((sx.mul(c, sx.add(metric.b(i, j), metric.b(j, i))), rest))
    return tuple((b, k) for b, k in out.items() if k != ZERO)


# ---------------------------------------------------------------------------
# (Anti-)automorphisms


def _graded_signs(m, sign_of_grade):
    return Multivector(
        m.metric,
        {
            b: (c if sign_of_grade(len(b)) > 0 else sx.mul(sx.rational(-1), c))
            for b, c in m.terms.items()
        },
    )


def clifford_prime(m):
    """Grade involution: flips the sign of every generator."""
    return _graded_signs(m, lambda g: -1 if g % 2 else 1)


def clifford_star(m):
    """Reversion: reverses the order of generators in every product."""
    return _graded_signs(m, lambda g: -1 if (g * (g - 1) // 2) % 2 else 1)


def clifford_bar(m):
    """Clifford conjugation: composition of reversion and grade involution."""
    return _graded_signs(m, lambda g: -1 if (g * (g + 1) // 2) % 2 else 1)


# ---------------------------------------------------------------------------
# Norm and inverse


def norm_square(m):
    """Scalar of m * bar(m); raises if the product is not scalar."""
    sq = m * clifford_bar(m)
    if any(b != () and normal(c) != ZERO for b, c in sq.terms.items()):
        raise NonScalarSquareError("m * bar(m) is not a scalar: %r" % (sq,))
    return normal(sq.coeff(()))

def clifford_norm(m):
    sq = norm_square(m)
    if sq is ZERO or sx.is_positive(sq):
        return sx.sqrt(sq)
    if sx.is_rational(sq):
        raise NegativeNormSquareError("norm square %r is negative" % (sq,))
    raise NonScalarSquareError("norm square %r has no declared sign" % (sq,))


def clifford_inverse(m):
    sq = norm_square(m)
    if sq == ZERO:
        raise ZeroNormError("multivector has zero norm, no inverse")
    return clifford_bar(m).scale(sx.pow_(sq, -1))


# ---------------------------------------------------------------------------
# Vector conversions


def _unit_scales(units, m=None):
    """{blade of e_j: k} for units c = k e_j, the one unit rule of both vector
    conversions: each is a nonzero multiple of its own, distinct generator,
    all over one metric, and m's too if given."""
    if not units:
        raise ValueError("no units given")
    scales = {}
    for c in units:
        _check_same_metric(c, units[0] if m is None else m)
        blade, k = next(iter(c.terms.items()), ((), ZERO))
        if len(c.terms) != 1 or len(blade) != 1 or blade in scales:
            raise NotAVectorError("units must be multiples of distinct generators")
        scales[blade] = k
    return scales


def lst_to_clifford(v, units):
    scales = _unit_scales(units)
    if len(v) != len(units):
        raise ValueError("component count %d != unit count %d" % (len(v), len(units)))
    terms = {b: sx.mul(comp, k) for comp, (b, k) in zip(v, scales.items())}
    return Multivector(units[0].metric, terms)


def clifford_to_lst(m, units):
    """Components v_k with m = sum v_k c_k, on every metric: v_k is m's e_j
    coefficient over k_k for the unit c_k = k_k e_j.  Raises NotAVectorError
    when m has a term on a blade that no unit covers."""
    scales = _unit_scales(units, m)
    residual = Multivector(m.metric, {b: c for b, c in m.terms.items() if b not in scales})
    if any(normal(c) != ZERO for c in residual.terms.values()):
        raise NotAVectorError("residual terms remain: %r" % (residual,))
    return [m.coeff(b) if k == ONE else sx.mul(m.coeff(b), sx.pow_(k, -1))
            for b, k in scales.items()]


def remove_dirac_ONE(m):
    if any(b != () for b in m.terms):
        raise NotScalarError("multivector %r is not scalar" % (m,))
    return m.coeff(())
