"""Shared helpers: exact matrix arithmetic over Fractions and the
Kronecker-product faithful representation used as an independent oracle
for the Clifford product and its involutions, a per-term rewrite of the
Clifford product as the oracle for its per-metric blade table, reference
walkers for the term-order key, the derivative, the substitution and the
float value of an expression, the reference content of a sum and the
two-pass reference ``normal``, and the operator-conjugated Moebius
families that the vector fields are the t-derivatives of, the 50-digit
value of a stream, the argparse command-line parser that ``plotcli``'s
own parser is checked against, and one shared run of ``cliffeph all
--format jsonl``."""

import argparse
import contextlib
import decimal
import io
import math
import random
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import pytest

from cliffeph import (
    FreeSymbolError,
    Multivector,
    as_fraction_value,
    cayley_matrices,
    cli_main,
    clifford_moebius_map,
    mat_mul,
    metric_for,
    subgroup_exp,
    symbols,
)
from cliffeph import plotcli, symexpr
from cliffeph.symexpr import (
    ONE, ZERO, Add, Func, Mul, Pow, Rational, Symbol, _coerce, _mul_powers, add, mul, pow_,
)


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


def reference_mv_mul(a, b):
    """Clifford product a * b, rewriting the generator word of every pair
    of terms with its coefficient attached; the oracle for the product,
    which reduces each word once per metric."""
    metric = a.metric
    acc = {}
    for ba, ca in a.terms.items():
        for bb, cb in b.terms.items():
            _reference_reduce_general(acc, mul(ca, cb), ba + bb, metric)
    return Multivector(metric, acc)


def _reference_emit(acc, blade, coeff):
    if blade in acc:
        acc[blade] = add(acc[blade], coeff)
    else:
        acc[blade] = coeff


def _reference_reduce_general(acc, coeff, word, metric):
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
            _reference_emit(acc, w, c)
            continue
        i, j = w[pos], w[pos + 1]
        if i == j:
            stack.append((mul(c, metric.b(i, i)), w[:pos] + w[pos + 2 :]))
        else:
            swapped = w[:pos] + (j, i) + w[pos + 2 :]
            stack.append((mul(Rational(-1), c), swapped))
            contracted = mul(c, add(metric.b(i, j), metric.b(j, i)))
            stack.append((contracted, w[:pos] + w[pos + 2 :]))


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


def reference_add_content(e):
    """Rational content and canonical sign of an Add, ``(scale, reduced)``,
    by folding a two-argument fraction gcd over the term coefficients; the
    oracle for ``symexpr._add_content``."""
    coeffs = []
    for t in e.terms:
        if isinstance(t, Rational):
            coeffs.append(t.value)
        elif isinstance(t, Mul) and isinstance(t.factors[0], Rational):
            coeffs.append(t.factors[0].value)
        else:
            coeffs.append(Fraction(1))
    content = Fraction(0)
    for c in map(abs, coeffs):
        content = Fraction(
            math.gcd(content.numerator, c.numerator),
            content.denominator * c.denominator // math.gcd(content.denominator, c.denominator),
        )
    scale = content if coeffs[0] > 0 else -content
    if scale == 1:
        return Fraction(1), e
    return scale, add(*(mul(Rational(1 / scale), t) for t in e.terms))


def _reference_as_fraction(e):
    """Split into (numerator, denominator), combining sums over a common one."""
    if isinstance(e, Mul):
        nums, dens = [], []
        for f in e.factors:
            if isinstance(f, Pow) and f.exponent < 0:
                dens.append(pow_(f.base, -f.exponent))
            else:
                nums.append(f)
        return mul(*nums) if nums else ONE, mul(*dens) if dens else ONE
    if isinstance(e, Pow) and e.exponent < 0:
        return ONE, pow_(e.base, -e.exponent)
    if isinstance(e, Add):
        parts = [_reference_as_fraction(t) for t in e.terms]
        den_pows = {}
        for _, d in parts:
            for base, x in _mul_powers(d).items():
                den_pows[base] = max(den_pows.get(base, x), x)
        if not den_pows:
            return e, ONE
        num_terms = []
        for n, d in parts:
            own = _mul_powers(d)
            comp = [
                pow_(base, x - own.get(base, 0))
                for base, x in den_pows.items()
                if x > own.get(base, 0)
            ]
            num_terms.append(mul(n, *comp))
        den = mul(*(pow_(b, x) for b, x in den_pows.items()))
        return add(*num_terms), den
    return e, ONE


def _reference_common_factors(num):
    """Factors shared by every additive term of num."""
    if isinstance(num, Add):
        terms = num.terms
    else:
        terms = (num,)
    shared = None
    for t in terms:
        pows = {b: x for b, x in _mul_powers(t).items() if x > 0}
        if shared is None:
            shared = pows
        else:
            shared = {b: min(x, pows[b]) for b, x in shared.items() if b in pows}
    return shared or {}


def reference_normal(e):
    """Common denominator and syntactic cancellation in two passes: the
    factors shared by every numerator term first, then those also in the
    denominator; the oracle for ``symexpr.normal``."""
    e = _coerce(e)
    num, den = _reference_as_fraction(e)
    if den is ONE:
        return num
    den_pows = _mul_powers(den)
    shared = _reference_common_factors(num)
    cancel = []
    for base, x in shared.items():
        if base in den_pows:
            m = min(x, den_pows[base])
            if m > 0:
                cancel.append((base, m))
    if cancel:
        inv = [pow_(b, -m) for b, m in cancel]
        num = mul(num, *inv)
        den = mul(den, *inv)
    if den is ONE:
        return num
    return mul(num, pow_(den, -1))


def reference_diff(e, s):
    """Derivative of an expression by the symbol named ``s``, by a recursive
    walk that visits a shared node once per occurrence; the oracle for
    ``diff``, which applies the same rules once per distinct node."""
    if isinstance(e, Rational):
        return ZERO
    if isinstance(e, Symbol):
        return ONE if e.name == s else ZERO
    if isinstance(e, Add):
        return add(*(reference_diff(t, s) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, fi in enumerate(fs):
            dfi = reference_diff(fi, s)
            if dfi == ZERO:
                continue
            parts.append(mul(dfi, *(fs[:i] + fs[i + 1:])))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = reference_diff(e.base, s)
        if db == ZERO:
            return ZERO
        return mul(Rational(e.exponent), pow_(e.base, e.exponent - 1), db)
    da = reference_diff(e.arg, s)
    if da == ZERO:
        return ZERO
    u = e.arg
    outer = {
        "sin": lambda: symexpr.cos(u),
        "cos": lambda: mul(Rational(-1), symexpr.sin(u)),
        "exp": lambda: symexpr.exp(u),
        "cosh": lambda: symexpr.sinh(u),
        "sinh": lambda: symexpr.cosh(u),
    }[e.name]()
    return mul(outer, da)


def reference_subs(e, b):
    """Simultaneous substitution, ``b`` mapping symbol names to
    expressions, by a recursive walk of the whole tree; the oracle for
    ``subs``."""
    if isinstance(e, Rational):
        return e
    if isinstance(e, Symbol):
        return b.get(e.name, e)
    if isinstance(e, Add):
        return add(*(reference_subs(t, b) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(reference_subs(f, b) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(reference_subs(e.base, b), e.exponent)
    return getattr(symexpr, e.name)(reference_subs(e.arg, b))


def reference_evalf(e, env):
    """Float value of an expression by a recursive walk of the whole tree,
    ``env`` mapping names to floats; the oracle for the compiled evaluator.
    Sums fold left from int 0 in term order, products from 1.0; a square is
    ``b * b`` and a reciprocal ``1.0 / b``."""
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
        if q == 2:  # one correctly rounded operation, not pow
            return b * b
        if q == -1:
            return 1.0 / b if b else math.inf
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


# The "Recipes" of the decimal module's documentation, each at two digits
# more than the context and rounded back to it.
def _decimal_exp(x):
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num = 0, 0, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 1
        fact *= i
        num *= x
        s += num / fact
    decimal.getcontext().prec -= 2
    return +s


def _decimal_cos(x):
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def _decimal_sin(x):
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 1, 0, x, 1, x, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


_DECIMAL_FUNCS = {
    "exp": _decimal_exp, "cos": _decimal_cos, "sin": _decimal_sin,
    "cosh": lambda x: (_decimal_exp(x) + _decimal_exp(-x)) / 2,
    "sinh": lambda x: (_decimal_exp(x) - _decimal_exp(-x)) / 2,
}


def reference_decimal(exprs, args, points):
    """The values of ``exprs`` to 50 significant digits at each of
    ``points``, tuples of floats bound to the symbols named by ``args`` and
    converted exactly by ``Decimal(x)``: one tuple of Decimals per point.
    Each distinct node (``symexpr._postorder``) is evaluated once per
    point, and a function once per distinct argument; a singular point
    raises the ``decimal`` signal, such as ``DivisionByZero``."""
    nodes = symexpr._postorder(*exprs)
    with decimal.localcontext(decimal.Context(prec=50)):
        consts = {x: Decimal(x.value.numerator) / x.value.denominator
                  for x in nodes if isinstance(x, Rational)}
        calls, results = {}, []
        for point in points:
            val = dict(consts)
            for x in nodes:
                if isinstance(x, Symbol):
                    val[x] = Decimal(point[args.index(x.name)])
                elif isinstance(x, Add):
                    val[x] = sum(map(val.__getitem__, x.terms))
                elif isinstance(x, Mul):
                    val[x] = math.prod(map(val.__getitem__, x.factors))
                elif isinstance(x, Pow):
                    q = x.exponent
                    val[x] = val[x.base] ** (q.numerator if q.denominator == 1
                                             else Decimal(q.numerator) / q.denominator)
                elif isinstance(x, Func):
                    key = x.name, val[x.arg]
                    if key not in calls:
                        calls[key] = _DECIMAL_FUNCS[x.name](val[x.arg])
                    val[x] = calls[key]
            results.append(tuple(val[e] for e in exprs))
    return results


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


def reference_parser():
    """``plotcli``'s argparse parser as it was before ``plotcli._parse_args``
    replaced it, kept verbatim but for the module names: the reference
    that ``_parse_args`` must decide every command line as."""
    parser = argparse.ArgumentParser(
        prog="cliffeph",
        description="Sample subgroup orbits of the EPH plane geometries "
        "and verify their focal properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*plotcli.PIPELINE_STEMS, "verify", "all"):
        p = sub.add_parser(name)
        # each command takes only the flags it reads; the rest keep these
        p.set_defaults(metric="all", subgroup="all", format="jsonl")
        if name != "future-past":
            p.add_argument("--metric", choices=sorted(plotcli._METRIC_FLAGS))
            p.add_argument("--subgroup", choices=sorted(plotcli._SUBGROUP_FLAGS))
        p.add_argument("--out", default=".", metavar="DIR")
        if name != "verify":
            p.add_argument("--format", choices=("jsonl", "svg"))
    return parser


@pytest.fixture(scope="session")
def all_jsonl_run(tmp_path_factory):
    """(exit status, stdout, output directory) of one ``cliffeph all
    --format jsonl`` on two worker processes, whatever the host's CPU
    count."""
    out = tmp_path_factory.mktemp("all-jsonl")
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout):
        mp.setattr(plotcli, "_usable_cpus", lambda: 2)
        status = cli_main(["all", "--format", "jsonl", "--out", str(out)])
    return status, stdout.getvalue(), out
