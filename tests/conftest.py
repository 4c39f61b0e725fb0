"""Shared helpers: exact matrix arithmetic over Fractions and the
Kronecker-product faithful representation used as an independent oracle
for the Clifford product and its involutions, reference walkers for the
term-order key and the float value of an expression, and the
operator-conjugated Moebius families that the vector fields are the
t-derivatives of."""

import math
import random
from fractions import Fraction
from functools import lru_cache

from cliffeph import (
    FreeSymbolError,
    Multivector,
    as_fraction_value,
    cayley_matrices,
    clifford_moebius_map,
    mat_mul,
    metric_for,
    subgroup_exp,
    symbols,
)
from cliffeph.symexpr import Add, Func, Mul, Pow, Rational, Symbol


def eye(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


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


def signed_permutation(mat):
    """(cols, signs) of a matrix whose every row holds one nonzero entry,
    signs[i] = +-1 in column cols[i]; every Kronecker generator is one."""
    cols, signs = [], []
    for row in mat:
        [(j, x)] = [(j, x) for j, x in enumerate(row) if x]
        assert abs(x) == 1
        cols.append(j)
        signs.append(int(x))
    return cols, signs


def blade_permutation(blade, perms, dim, reverse=False):
    """Product of the blade's generators, given as signed permutations,
    as a signed permutation: row i of A B is row cols_A[i] of B times
    signs_A[i]."""
    cols, signs = list(range(dim)), [1] * dim
    for k in (reversed(blade) if reverse else blade):
        gc, gs = perms[k]
        cols, signs = [gc[c] for c in cols], [s * gs[c] for s, c in zip(signs, cols)]
    return cols, signs


def dense_blade_matrix(blade, gens, reverse=False):
    """Product of the blade's generators by dense matrix products; the
    check on ``blade_permutation``."""
    mat = eye(len(gens[0]) if gens else 1)
    for k in (reversed(blade) if reverse else blade):
        mat = matmul(mat, gens[k])
    return mat


def dense(cols, signs):
    out = zeros(len(cols))
    for i, (j, s) in enumerate(zip(cols, signs)):
        out[i][j] = Fraction(s)
    return out


def represent(m, gens, reverse=False, negate=False):
    """Matrix of a rational-coefficient multivector; with reverse the
    generators in each blade multiply in reversed order, with negate each
    generator enters with a minus sign.  Each blade matrix is a signed
    permutation, so it is added entry by entry."""
    dim = len(gens[0]) if gens else 1
    perms = [signed_permutation(g) for g in gens]
    acc = zeros(dim)
    for blade, coeff in m.terms.items():
        q = as_fraction_value(coeff)
        if negate and len(blade) % 2:
            q = -q
        cols, signs = blade_permutation(blade, perms, dim, reverse)
        for i, (j, s) in enumerate(zip(cols, signs)):
            acc[i][j] += q if s > 0 else -q
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


@lru_cache(maxsize=None)
def operator_family(kind, sub, slot):
    """(u, v) of the subgroup's Moebius family in slot 0..2 conjugated as
    an operator, L E(t) R with (L, R) the identity, (C, CI) or (C1, C1I):
    the vector field of the slot is its t-derivative at t = 0."""
    x, y, t = symbols("x y t")
    mat = subgroup_exp(sub, t, kind)
    if slot:
        cay = cayley_matrices(kind)
        left, right = ((cay.C, cay.CI), (cay.C1, cay.C1I))[slot - 1]
        mat = mat_mul(mat_mul(left, mat), right)
    return tuple(clifford_moebius_map(mat, (x, y), metric_for(kind)))
