"""Shared helpers: exact matrix arithmetic over Fractions and the
Kronecker-product faithful representation used as an independent oracle
for the Clifford product and its involutions, plus reference walkers for
the term-order key and the float value of an expression."""

import math
import random
from fractions import Fraction

from cliffeph import FreeSymbolError, Multivector, as_fraction_value
from cliffeph.symexpr import Add, Func, Mul, Pow, Rational, Symbol


def eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(k, a):
    return [[k * x for x in row] for row in a]


def matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def kron(a, b):
    out = []
    for ra in a:
        for rb in b:
            out.append([x * y for x in ra for y in rb])
    return out


_SIG3 = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
_M_PLUS = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]   # squares to +1
_M_MINUS = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]  # squares to -1


def generator_matrices(signs):
    """Anticommuting matrices G_k with G_k^2 = signs[k] * I, built as
    sig3 x ... x sig3 x m_k x I x ... x I."""
    n = len(signs)
    gens = []
    for k, s in enumerate(signs):
        m = _M_PLUS if s == 1 else _M_MINUS
        mat = [[Fraction(1)]]
        for _ in range(k):
            mat = kron(mat, _SIG3)
        mat = kron(mat, m)
        for _ in range(k + 1, n):
            mat = kron(mat, eye(2))
        gens.append(mat)
    return gens


def represent(m, gens, reverse=False, negate=False):
    """Matrix of a rational-coefficient multivector; with reverse the
    generators in each blade multiply in reversed order, with negate each
    generator enters with a minus sign."""
    dim = len(gens[0]) if gens else 1
    acc = zeros(dim)
    for blade, coeff in m.terms.items():
        q = as_fraction_value(coeff)
        if negate and len(blade) % 2:
            q = -q
        mat = eye(dim)
        for k in (reversed(blade) if reverse else blade):
            mat = matmul(mat, gens[k])
        acc = madd(acc, mscale(q, mat))
    return acc


def random_multivector(metric, rng, max_den=7):
    terms = {}
    blades = all_blades(metric.n)
    for blade in blades:
        if rng.random() < 0.6:
            num = rng.randint(-9, 9)
            den = rng.randint(1, max_den)
            if num:
                terms[blade] = Fraction(num, den)
    return Multivector(metric, {b: _to_expr(c) for b, c in terms.items()})


def all_blades(n):
    out = [()]
    for k in range(n):
        out += [b + (k,) for b in out]
    return sorted(out, key=lambda b: (len(b), b))


def _to_expr(frac):
    from cliffeph import rational

    return rational(frac)


def make_rng(seed):
    return random.Random(seed)


def reference_key(e):
    """Term-order key of an expression, recomputed by walking the whole
    tree; the oracle for the key each node stores when it is built."""
    if isinstance(e, Rational):
        return (0, e.value)
    if isinstance(e, Symbol):
        return (1, e.name, e.positive)
    if isinstance(e, Func):
        return (2, e.name, reference_key(e.arg))
    if isinstance(e, Pow):
        return (3, reference_key(e.base), e.exponent)
    if isinstance(e, Mul):
        return (4, tuple(reference_key(f) for f in e.factors))
    return (5, tuple(reference_key(t) for t in e.terms))


def reference_evalf(e, env):
    """Float value of an expression by a recursive walk of the whole tree,
    ``env`` mapping names to floats; the oracle for the compiled evaluator.
    Sums fold left from int 0 in term order, products from 1.0."""
    if isinstance(e, Rational):
        try:
            return float(e.value)
        except OverflowError:
            return math.inf if e.value > 0 else -math.inf
    if isinstance(e, Symbol):
        if e.name not in env:
            raise FreeSymbolError("no value for symbol %r" % e.name)
        return env[e.name]
    if isinstance(e, Add):
        r = 0
        for t in e.terms:
            r = r + reference_evalf(t, env)
        return r
    if isinstance(e, Mul):
        r = 1.0
        for f in e.factors:
            r = r * reference_evalf(f, env)
        return r
    if isinstance(e, Pow):
        b, q = reference_evalf(e.base, env), e.exponent
        try:
            if q.denominator == 1:
                return b ** int(q)
            return math.nan if b < 0 else math.pow(b, float(q))
        except ZeroDivisionError:
            return math.inf
        except OverflowError:
            return -math.inf if b < 0 and q.denominator == 1 and int(q) % 2 else math.inf
        except ValueError:
            return math.nan
    x = reference_evalf(e.arg, env)
    try:
        return getattr(math, e.name)(x)
    except OverflowError:
        return math.copysign(math.inf, x) if e.name == "sinh" else math.inf
    except ValueError:
        return math.nan
