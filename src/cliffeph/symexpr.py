"""Small symbolic expression kernel.

Exact rational constants, named real symbols, sums, products, rational
powers and the elementary functions sin, cos, exp, cosh, sinh.
Expressions are immutable and are kept in a canonical flattened/sorted
form, so structural equality of two expressions implies they agree
numerically under every assignment of their symbols.

Division is represented as a power with a negative exponent; floats only
appear when :func:`evalf` is called.

Identity lives in one place: every node stores its term-order key
``_key``, a tuple built once from its children's stored keys.  ``==``
compares keys, the constructors sort terms and factors by them, and the
cached ``hash`` is built from the children's cached hashes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import attrgetter


class ExprError(Exception):
    """Base class for errors raised by this module."""


class FreeSymbolError(ExprError):
    """Numeric evaluation hit a symbol with no value."""


class SingularSystemError(ExprError):
    """Linear system has no unique solution."""


class NonLinearError(ExprError):
    """Equation passed to lsolve is not affine in the unknowns."""


# ---------------------------------------------------------------------------
# Expression nodes


class Expr:
    __slots__ = ("_key", "_hash")

    # Arithmetic sugar; every operator funnels into the canonicalizing
    # constructors below.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(_MINUS_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(_MINUS_ONE, self))

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_coerce(other), -1))

    def __rtruediv__(self, other):
        return mul(_coerce(other), pow_(self, -1))

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return mul(_MINUS_ONE, self)

    def __pos__(self):
        return self

    def diff(self, sym, order=1):
        return diff(self, sym, order)

    def subs(self, binding):
        return subs(self, binding)

    def evalf(self, env=None):
        return evalf(self, env)

    def __repr__(self):
        return to_str(self)

    def __eq__(self, other):
        return isinstance(other, Expr) and self._key == other._key

    def __hash__(self):
        return self._hash


class Rational(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value if isinstance(value, Fraction) else Fraction(value)
        self._key = (0, self.value)
        self._hash = hash(("rat", self.value))


class Symbol(Expr):
    __slots__ = ("name", "positive")

    def __init__(self, name, positive=False):
        self.name = name
        self.positive = bool(positive)
        self._key = (1, name, self.positive)
        self._hash = hash(("sym", name, self.positive))


class Add(Expr):
    """Flattened sorted sum; built only through :func:`add`."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms
        self._key = (5, tuple(t._key for t in terms))
        self._hash = hash(("add", terms))


class Mul(Expr):
    """Flattened sorted product; built only through :func:`mul`."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors
        self._key = (4, tuple(f._key for f in factors))
        self._hash = hash(("mul", factors))


class Pow(Expr):
    """base ** exponent with a rational, non-trivial exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = exponent
        self._key = (3, base._key, exponent)
        self._hash = hash(("pow", base, exponent))


class Func(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name, arg):
        self.name = name
        self.arg = arg
        self._key = (2, name, arg._key)
        self._hash = hash(("fun", name, arg))


ZERO = Rational(Fraction(0))
ONE = Rational(Fraction(1))
_MINUS_ONE = Rational(Fraction(-1))


def symbol(name, positive=False):
    return Symbol(name, positive)


def symbols(names, positive=False):
    return tuple(Symbol(n, positive) for n in names.split())


def rational(p, q=1):
    return Rational(Fraction(p, q))


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise ExprError("cannot interpret %r as an exact constant" % (x,))
    if isinstance(x, (int, Fraction, float)):
        # Fractions represent every finite double exactly.
        return Rational(Fraction(x))
    raise TypeError("cannot interpret %r as an expression" % (x,))


_term_order = attrgetter("_key")


# ---------------------------------------------------------------------------
# Canonicalizing constructors


def _split_coeff(t):
    """Split a canonical non-Add term into (rational coefficient, monomial)."""
    if isinstance(t, Rational):
        return t.value, ONE
    if isinstance(t, Mul) and isinstance(t.factors[0], Rational):
        rest = t.factors[1:]
        mono = rest[0] if len(rest) == 1 else Mul(rest)
        return t.factors[0].value, mono
    return Fraction(1), t


def _scale(coeff, mono):
    """coeff * mono for canonical non-Add, non-Rational mono."""
    if coeff == 1:
        return mono
    if isinstance(mono, Mul):
        return Mul((Rational(coeff),) + mono.factors)
    return Mul((Rational(coeff), mono))


def add(*terms):
    const = Fraction(0)
    bucket = {}
    pending = [_coerce(t) for t in terms]
    flat = []
    for t in pending:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    for t in flat:
        if isinstance(t, Rational):
            const += t.value
            continue
        coeff, mono = _split_coeff(t)
        bucket[mono] = bucket[mono] + coeff if mono in bucket else coeff
    out = []
    for mono in sorted(bucket, key=_term_order):
        coeff = bucket[mono]
        if coeff != 0:
            out.append(_scale(coeff, mono))
    if not out:
        return Rational(const)
    terms2 = ([Rational(const)] if const != 0 else []) + out
    if len(terms2) == 1:
        return terms2[0]
    return Add(tuple(terms2))


def _fraction_gcd(a, b):
    return Fraction(
        math.gcd(a.numerator, b.numerator),
        (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator),
    )


def _add_content(e):
    """Rational content and canonical sign of an Add; returns (scale, reduced)."""
    coeffs = [_split_coeff(t)[0] for t in e.terms]
    content = Fraction(0)
    for c in coeffs:
        content = _fraction_gcd(content, abs(c))
    sign = 1 if coeffs[0] > 0 else -1
    scale = content * sign
    if scale == 1:
        return Fraction(1), e
    inv = Rational(1 / scale)
    reduced = add(*(mul(inv, t) for t in e.terms))
    return scale, reduced


def _rational_pow(q, exp):
    """q ** exp for Fraction q; exact when possible, else a Pow node."""
    if exp.denominator == 1:
        if q == 0 and exp < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return Rational(q ** int(exp))
    if q < 0:
        return Pow(Rational(q), exp)
    if q == 0:
        if exp < 0:
            raise ZeroDivisionError("zero raised to a negative power")
        return ZERO
    rn = _iroot(q.numerator, exp.denominator)
    rd = _iroot(q.denominator, exp.denominator)
    if rn is not None and rd is not None:
        return Rational(Fraction(rn, rd) ** exp.numerator)
    return Pow(Rational(q), exp)


def _iroot(n, k):
    """Exact integer k-th root of n >= 0, or None; integer Newton steps
    from above, so any size of n works."""
    if n in (0, 1):
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def _coerce_exponent(x):
    if isinstance(x, Rational):
        return x.value
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ExprError("exponent %r is not finite" % (x,))
        return Fraction(x).limit_denominator(10 ** 9)
    if isinstance(x, Expr):
        raise ExprError("only rational exponents are supported")
    raise TypeError("bad exponent %r" % (x,))


def pow_(base, exp):
    base = _coerce(base)
    exp = _coerce_exponent(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    if isinstance(base, Rational):
        return _rational_pow(base.value, exp)
    if isinstance(base, Pow):
        if exp.denominator == 1:
            return pow_(base.base, base.exponent * exp)
        return Pow(base, exp)
    if isinstance(base, Mul):
        if exp.denominator == 1:
            return mul(*(pow_(f, exp) for f in base.factors))
        return Pow(base, exp)
    if isinstance(base, Add) and exp.denominator == 1:
        scale, reduced = _add_content(base)
        if scale != 1:
            return mul(_rational_pow(scale, exp), Pow(reduced, exp))
    return Pow(base, exp)


def mul(*factors):
    coeff = Fraction(1)
    powers = {}
    pending = [_coerce(f) for f in factors]
    while pending:
        f = pending.pop()
        if isinstance(f, Rational):
            if f.value == 0:
                return ZERO
            coeff *= f.value
        elif isinstance(f, Mul):
            pending.extend(f.factors)
        elif isinstance(f, Pow):
            powers[f.base] = powers.get(f.base, 0) + f.exponent
        else:
            powers[f] = powers.get(f, 0) + 1

    atoms = []
    adds = []
    requeue = []
    for base in sorted(powers, key=_term_order):
        e = powers[base]
        if e == 0:
            continue
        if e == 1:
            if isinstance(base, Add):
                adds.append(base)
            else:
                atoms.append(base)
            continue
        p = pow_(base, e)
        if isinstance(p, Rational):
            if p.value == 0:
                return ZERO
            coeff *= p.value
        elif isinstance(p, Pow) and p.base == base and p.exponent == e:
            atoms.append(p)
        else:
            requeue.append(p)
    if requeue:
        # A merged exponent triggered a rewrite; rebuild from scratch.
        return mul(Rational(coeff), *(atoms + adds + requeue))
    if adds:
        mono = mul(Rational(coeff), *atoms) if (atoms or coeff != 1) else ONE
        pieces = []
        for combo in itertools.product(*(a.terms for a in adds)):
            pieces.append(mul(mono, *combo))
        return add(*pieces)
    if not atoms:
        return Rational(coeff)
    if coeff == 1:
        return atoms[0] if len(atoms) == 1 else Mul(tuple(atoms))
    return Mul((Rational(coeff),) + tuple(atoms))


_FUNC_AT_ZERO = {"sin": ZERO, "cos": ONE, "exp": ONE, "cosh": ONE, "sinh": ZERO}


def _make_func(name, arg):
    arg = _coerce(arg)
    if arg == ZERO:
        return _FUNC_AT_ZERO[name]
    return Func(name, arg)


def sin(arg):
    return _make_func("sin", arg)


def cos(arg):
    return _make_func("cos", arg)


def exp(arg):
    return _make_func("exp", arg)


def cosh(arg):
    return _make_func("cosh", arg)


def sinh(arg):
    return _make_func("sinh", arg)


def sqrt(arg):
    return pow_(arg, Fraction(1, 2))


# ---------------------------------------------------------------------------
# Differentiation


def _sym_name(s):
    if isinstance(s, Symbol):
        return s.name
    if isinstance(s, str):
        return s
    raise TypeError("expected a symbol, got %r" % (s,))


def diff(e, sym, order=1):
    if order < 1:
        raise ValueError("order must be >= 1")
    name = _sym_name(sym)
    e = _coerce(e)
    for _ in range(order):
        e = _d(e, name)
    return e


def _d(e, s):
    if isinstance(e, Rational):
        return ZERO
    if isinstance(e, Symbol):
        return ONE if e.name == s else ZERO
    if isinstance(e, Add):
        return add(*(_d(t, s) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, fi in enumerate(fs):
            dfi = _d(fi, s)
            if dfi == ZERO:
                continue
            parts.append(mul(dfi, *(fs[:i] + fs[i + 1:])))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = _d(e.base, s)
        if db == ZERO:
            return ZERO
        return mul(Rational(e.exponent), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Func):
        da = _d(e.arg, s)
        if da == ZERO:
            return ZERO
        u = e.arg
        outer = {
            "sin": lambda: cos(u),
            "cos": lambda: mul(_MINUS_ONE, sin(u)),
            "exp": lambda: exp(u),
            "cosh": lambda: sinh(u),
            "sinh": lambda: cosh(u),
        }[e.name]()
        return mul(outer, da)
    raise TypeError("cannot differentiate %r" % (e,))


# ---------------------------------------------------------------------------
# Substitution


def subs(e, binding):
    """Simultaneous substitution of symbols by expressions."""
    b = {}
    for k, v in (binding or {}).items():
        b[_sym_name(k)] = _coerce(v)
    if not b:
        return _coerce(e)
    return _subs(_coerce(e), b)


def _subs(e, b):
    if isinstance(e, Rational):
        return e
    if isinstance(e, Symbol):
        return b.get(e.name, e)
    if isinstance(e, Add):
        return add(*(_subs(t, b) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(_subs(f, b) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(_subs(e.base, b), e.exponent)
    return _make_func(e.name, _subs(e.arg, b))


# ---------------------------------------------------------------------------
# Numeric evaluation


def evalf(e, env=None):
    """IEEE double evaluation; raises FreeSymbolError on unbound symbols.

    ``env`` maps symbol names to floats; infinities propagate rather than
    raising, and invalid operations yield NaN.
    """
    fenv = {}
    for k, v in (env or {}).items():
        fenv[_sym_name(k)] = float(v)
    return _ev(_coerce(e), fenv)


def _ev(e, env):
    if isinstance(e, Rational):
        try:
            return float(e.value)
        except OverflowError:
            return math.inf if e.value > 0 else -math.inf
    if isinstance(e, Symbol):
        try:
            return env[e.name]
        except KeyError:
            raise FreeSymbolError("no value for symbol %r" % e.name) from None
    if isinstance(e, Add):
        return sum(_ev(t, env) for t in e.terms)
    if isinstance(e, Mul):
        r = 1.0
        for f in e.factors:
            r *= _ev(f, env)
        return r
    if isinstance(e, Pow):
        return _fpow(_ev(e.base, env), e.exponent)
    x = _ev(e.arg, env)
    try:
        return getattr(math, e.name)(x)
    except OverflowError:
        # exp and cosh overflow to +inf; sinh, the odd one, keeps x's sign
        return math.copysign(math.inf, x) if e.name == "sinh" else math.inf
    except ValueError:
        return math.nan


def _fpow(b, q):
    try:
        if q.denominator == 1:
            return b ** int(q)
        if b < 0:
            return math.nan
        return math.pow(b, float(q))
    except ZeroDivisionError:
        return math.inf
    except OverflowError:
        if b < 0 and q.denominator == 1 and int(q) % 2:
            return -math.inf
        return math.inf
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# Best-effort normalization


def _mul_powers(e):
    """Factor multiset of a canonical product as {base: exponent}."""
    out = {}
    for f in e.factors if isinstance(e, Mul) else (e,):
        if isinstance(f, Pow):
            out[f.base] = f.exponent
        elif not isinstance(f, Rational):
            out[f] = Fraction(1)
    return out


def _as_fraction(e):
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
        parts = [_as_fraction(t) for t in e.terms]
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


def _common_factors(num):
    """Factors (and rational content) shared by every additive term of num."""
    if isinstance(num, Add):
        terms = num.terms
    else:
        terms = (num,)
    content = Fraction(0)
    shared = None
    for t in terms:
        coeff, mono = _split_coeff(t)
        content = _fraction_gcd(content, abs(coeff))
        pows = {b: x for b, x in _mul_powers(mono).items() if x > 0}
        if shared is None:
            shared = pows
        else:
            shared = {b: min(x, pows[b]) for b, x in shared.items() if b in pows}
    return content, shared or {}


def normal(e):
    """Combine over a common denominator and cancel shared factors.

    Cancellation is syntactic (identical factors and rational constants
    only); the result is idempotent and numerically equal to the input.
    """
    e = _coerce(e)
    num, den = _as_fraction(e)
    if den == ONE:
        return num
    den_pows = _mul_powers(den)
    den_coeff = Fraction(1)
    if isinstance(den, Mul) and isinstance(den.factors[0], Rational):
        den_coeff = den.factors[0].value
    elif isinstance(den, Rational):
        den_coeff = den.value
    content, shared = _common_factors(num)
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
    if den_coeff != 1:
        num = mul(num, Rational(1 / den_coeff))
        den = mul(den, Rational(1 / den_coeff))
    if den == ONE:
        return num
    return mul(num, pow_(den, -1))


# ---------------------------------------------------------------------------
# Linear solving


def _contains(e, name):
    if isinstance(e, Symbol):
        return e.name == name
    if isinstance(e, Add):
        return any(_contains(t, name) for t in e.terms)
    if isinstance(e, Mul):
        return any(_contains(f, name) for f in e.factors)
    if isinstance(e, Pow):
        return _contains(e.base, name)
    if isinstance(e, Func):
        return _contains(e.arg, name)
    return False


def lsolve(equations, variables):
    """Solve a square affine system; returns {symbol name: Expr}.

    ``equations`` is a sequence of (lhs, rhs) pairs, each affine in
    ``variables`` (coefficients may contain other symbols).
    """
    names = [_sym_name(v) for v in variables]
    if len(equations) != len(names):
        raise ValueError("need exactly one equation per unknown")
    zero_at = {n: ZERO for n in names}
    n = len(names)
    aug = []
    for lhs, rhs in equations:
        e = add(_coerce(lhs), mul(_MINUS_ONE, _coerce(rhs)))
        row = []
        for name in names:
            c = normal(diff(e, name))
            if any(_contains(c, w) for w in names):
                raise NonLinearError("equation is not affine in %s" % name)
            row.append(c)
        row.append(mul(_MINUS_ONE, normal(subs(e, zero_at))))
        aug.append(row)

    for col in range(n):
        piv = None
        for r in range(col, n):
            if normal(aug[r][col]) != ZERO:
                piv = r
                break
        if piv is None:
            raise SingularSystemError("pivot vanishes in column %d" % col)
        aug[col], aug[piv] = aug[piv], aug[col]
        pinv = pow_(aug[col][col], -1)
        aug[col] = [normal(mul(x, pinv)) for x in aug[col]]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col]
            if f == ZERO:
                continue
            aug[r] = [
                normal(add(a, mul(_MINUS_ONE, f, p)))
                for a, p in zip(aug[r], aug[col])
            ]
    return {names[i]: aug[i][n] for i in range(n)}


# ---------------------------------------------------------------------------
# Printing


def to_str(e):
    return _pr(e, 0)


def _pr(e, prec):
    # precedence: 1 add, 2 mul, 3 pow, 4 atom
    if isinstance(e, Rational):
        v = e.value
        s = str(v.numerator) if v.denominator == 1 else "%d/%d" % (v.numerator, v.denominator)
        need = prec >= 2 and (v < 0 or v.denominator != 1)
        return "(%s)" % s if need else s
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Func):
        return "%s(%s)" % (e.name, _pr(e.arg, 0))
    if isinstance(e, Pow):
        q = e.exponent
        es = str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)
        if q < 0 or q.denominator != 1:
            es = "(%s)" % es
        s = "%s**%s" % (_pr(e.base, 4), es)
        return "(%s)" % s if prec > 3 else s
    if isinstance(e, Mul):
        s = "*".join(_pr(f, 2) for f in e.factors)
        return "(%s)" % s if prec > 2 else s
    if isinstance(e, Add):
        s = " + ".join(_pr(t, 1) for t in e.terms)
        return "(%s)" % s if prec > 1 else s
    return repr(e)


def is_rational(e):
    return isinstance(e, Rational)


def as_fraction_value(e):
    if not isinstance(e, Rational):
        raise ExprError("expression is not a rational constant: %r" % (e,))
    return e.value
