"""Generic Clifford algebra over an arbitrary (possibly non-symmetric,
possibly symbolic) metric.

Generators e_k satisfy e_i e_j + e_j e_i = B(i,j) + B(j,i).  Multivectors
are stored as maps from canonical blades (strictly increasing index
tuples) to coefficient expressions; the empty blade is the algebra unit.
"""

from __future__ import annotations

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
    if a.metric != b.metric:
        raise MetricMismatchError("multivectors live over different metrics")


def _canonical_blade(blade, metric):
    """The blade as a tuple of generator indices; raises unless they are
    strictly increasing and inside the metric's dimension."""
    blade = tuple(blade)
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
        return Multivector(self.metric, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, k):
        k = sx._coerce(k)
        return Multivector(
            self.metric, {b: sx.mul(k, c) for b, c in self.terms.items()}
        )

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


def dirac_ONE(metric):
    return Multivector(metric, {(): ONE})


def clifford_unit(k, metric):
    if not 0 <= k < metric.n:
        raise IndexError("generator index %d out of range 0..%d" % (k, metric.n - 1))
    return Multivector(metric, {(k,): ONE})


def clifford_units(metric):
    return tuple(clifford_unit(k, metric) for k in range(metric.n))


# ---------------------------------------------------------------------------
# Product canonicalization


def _mv_mul(a, b):
    metric = a.metric
    acc = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            _reduce_general(acc, sx.mul(ca, cb), ba + bb, metric)
    return Multivector(metric, acc)


def _emit(acc, blade, coeff):
    if blade in acc:
        acc[blade] = sx.add(acc[blade], coeff)
    else:
        acc[blade] = coeff


def _reduce_general(acc, coeff, word, metric):
    # Rewrite e_j e_i -> -e_i e_j + (B(i,j)+B(j,i)) for adjacent j > i and
    # e_i e_i -> B(i,i); each step reduces (length, inversions), so this
    # terminates for any metric.
    stack = [(coeff, word)]
    while stack:
        c, w = stack.pop()
        if c == ZERO:
            continue
        pos = None
        for k in range(len(w) - 1):
            if w[k] >= w[k + 1]:
                pos = k
                break
        if pos is None:
            _emit(acc, w, c)
            continue
        i, j = w[pos], w[pos + 1]
        if i == j:
            stack.append((sx.mul(c, metric.b(i, i)), w[:pos] + w[pos + 2 :]))
        else:
            swapped = w[:pos] + (j, i) + w[pos + 2 :]
            stack.append((sx.mul(sx.rational(-1), c), swapped))
            contracted = sx.mul(c, sx.add(metric.b(i, j), metric.b(j, i)))
            stack.append((contracted, w[:pos] + w[pos + 2 :]))


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
    residue = {b: c for b, c in sq.terms.items() if b != ()}
    if residue and any(normal(c) != ZERO for c in residue.values()):
        raise NonScalarSquareError("m * bar(m) is not a scalar: %r" % (sq,))
    return normal(sq.coeff(()))

def clifford_norm(m):
    sq = norm_square(m)
    if sx.is_rational(sq):
        if sx.as_fraction_value(sq) < 0:
            raise NegativeNormSquareError("norm square %r is negative" % (sq,))
        return sx.sqrt(sq)
    if isinstance(sq, sx.Symbol) and sq.positive:
        return sx.sqrt(sq)
    raise NonScalarSquareError(
        "norm square %r has no declared sign" % (sq,)
    )


def clifford_inverse(m):
    sq = norm_square(m)
    if sq == ZERO:
        raise ZeroNormError("multivector has zero norm, no inverse")
    return clifford_bar(m).scale(sx.pow_(sq, -1))


# ---------------------------------------------------------------------------
# Vector conversions


def lst_to_clifford(v, units):
    if len(v) != len(units):
        raise ValueError("component count %d != unit count %d" % (len(v), len(units)))
    metric = units[0].metric
    out = Multivector(metric, {})
    for comp, unit in zip(v, units):
        _check_same_metric(unit, units[0])
        out = out + unit.scale(comp)
    return out


def clifford_to_lst(m, units):
    """Components v_k with m = sum v_k c_k; falls back to coefficient
    extraction whenever some c_k squares to zero or to a non-numeric scalar."""
    metric = m.metric
    squares = []
    for c in units:
        _check_same_metric(c, m)
        sq = (c * c).coeff(())
        squares.append(normal(sq))
    usable = all(sx.is_rational(s) and s != ZERO for s in squares)
    comps = []
    if usable:
        for c, sq in zip(units, squares):
            sym = m * c + c * m
            divisor = sx.pow_(sx.mul(sx.rational(2), sq), -1)
            comps.append(normal(sx.mul(sym.coeff(()), divisor)))
    else:
        for c in units:
            blades = list(c.terms)
            if len(blades) != 1 or len(blades[0]) != 1:
                raise NotAVectorError(
                    "symbolic extraction needs single-generator units"
                )
            comps.append(m.coeff(blades[0]))
    residual = m - lst_to_clifford(comps, units)
    if any(normal(c) != ZERO for c in residual.terms.values()):
        raise NotAVectorError("residual terms remain: %r" % (residual,))
    return comps


def remove_dirac_ONE(m):
    if any(b != () for b in m.terms):
        raise NotScalarError("multivector %r is not scalar" % (m,))
    return m.coeff(())
