"""Small symbolic expression kernel.

Exact rational constants, named real symbols, sums, products, rational
powers and the elementary functions sin, cos, exp, cosh, sinh.  As in
GiNaC's ``numeric``, a Rational's value and a power's exponent are an int
when integral and a Fraction only when proper.
Expressions are immutable and are kept in a canonical flattened/sorted
form, so structural equality of two expressions implies they agree
numerically under every assignment of their symbols.

Division is represented as a power with a negative exponent; floats only
appear when :func:`evalf` or a function from :func:`compile_ex` is called.
Expressions are DAGs (shared graphs): one iterative walk,
:func:`_postorder`, lists each distinct node of one or more roots once,
children first, and :func:`diff`, :func:`subs` and the straight-line
Python that :func:`compile_ex` builds once per tuple of outputs handle
each node once, in that order, however large the tree is.

A sum or product is kept as GiNaC keeps it: a term is an optional leading
coefficient, a Rational never 0 or 1, times a monomial; :func:`_coeff`
gives a plain term's coefficient as the int 1.

Every node is unique (hash-consed): a constructor first looks its class
and fields up in one module table, so equal structures are one object and
``==`` and ``hash`` are identity.  ``_key``, built once from the
children's keys, is only the term order the constructors sort by.
:func:`add`, :func:`mul` and :func:`pow_` are memoized by their
arguments, typed, so ``0.1`` and ``Fraction(0.1)`` stay apart; after each
symbolic build of the EPH geometry, a failed one too, :func:`clear_memo`
empties those memos and, as GiNaC frees a node its last holder lets go,
drops every node only the table holds, so no reachable node meets a
rebuilt twin: a whole ``cliffeph all`` leaves 683 of its 2,821 nodes.

The node classes are final: nothing subclasses ``Rational``, ``Symbol``,
``Add``, ``Mul``, ``Pow`` or ``Func``, so the constructors dispatch on
``type(x) is C``.
"""

import itertools
import math
import sys
from fractions import Fraction
from functools import lru_cache
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


# Every node not yet dropped by clear_memo(), inserted after its children and
# keyed by class and fields: a child hashes by identity, a Rational by its ratio.
_NODES = {}


class Expr:
    __slots__ = ("_key",)

    def __new__(cls, *fields):
        """The one node of ``cls`` with these fields, built on first use."""
        key = (cls, *fields)
        node = _NODES.get(key)
        if node is None:
            node = object.__new__(cls)
            node._fill(*fields)  # filled before it is published
            node = _NODES.setdefault(key, node)
        return node

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

    def __repr__(self):
        return to_str(self)


class Rational(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        if type(value) is int:  # not a bool: its ratio is already known
            return Expr.__new__(cls, (value, 1))
        value = value if isinstance(value, (int, Fraction)) else Fraction(value)
        return Expr.__new__(cls, value.as_integer_ratio())

    def _fill(self, ratio):
        self.value = ratio[0] if ratio[1] == 1 else Fraction(*ratio)
        self._key = (0, self.value)


class Symbol(Expr):
    __slots__ = ("name", "positive")

    def __new__(cls, name, positive=False):
        return Expr.__new__(cls, name, bool(positive))

    def _fill(self, name, positive):
        self.name = name
        self.positive = positive
        self._key = (1, name, positive)


class Add(Expr):
    """Flattened sorted sum; built only through :func:`add`."""

    __slots__ = ("terms",)

    def _fill(self, terms):
        self.terms = terms
        self._key = (5, tuple(t._key for t in terms))


class Mul(Expr):
    """Flattened sorted product; built only through :func:`mul`."""

    __slots__ = ("factors",)

    def _fill(self, factors):
        self.factors = factors
        self._key = (4, tuple(f._key for f in factors))


class Pow(Expr):
    """base ** exponent with a rational, non-trivial exponent."""

    __slots__ = ("base", "exponent")

    def _fill(self, base, exponent):
        self.base = base
        self.exponent = exponent
        self._key = (3, base._key, exponent)


class Func(Expr):
    __slots__ = ("name", "arg")

    def _fill(self, name, arg):
        self.name = name
        self.arg = arg
        self._key = (2, name, arg._key)


ZERO = Rational(0)
ONE = Rational(1)
_MINUS_ONE = Rational(-1)


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
        return Rational(x)
    raise TypeError("cannot interpret %r as an expression" % (x,))


_term_order = attrgetter("_key")


# ---------------------------------------------------------------------------
# Canonicalizing constructors


def _coeff(t):
    """Rational coefficient of a canonical term, an int when integral: a
    Rational's value, a product's leading Rational's, else 1.  Builds no nodes."""
    if isinstance(t, Rational):
        return t.value
    if isinstance(t, Mul) and isinstance(t.factors[0], Rational):
        return t.factors[0].value
    return 1


@lru_cache(maxsize=None, typed=True)
def add(*terms):
    """Canonical sum: an optional non-zero Rational first, then the terms
    ``c*mono`` of distinct monomials in ``_key`` order (module docstring)."""
    const = 0
    bucket = {}
    for arg in terms:
        if not isinstance(arg, Expr):
            arg = _coerce(arg)
        for t in arg.terms if type(arg) is Add else (arg,):
            cls = type(t)
            if cls is Rational:
                const += t.value
                continue
            if cls is Mul and type(t.factors[0]) is Rational:  # c*mono, c never 1
                coeff = t.factors[0].value
                rest = t.factors[1:]
                t = rest[0] if len(rest) == 1 else Mul(rest)
            else:
                coeff = 1
            bucket[t] = bucket[t] + coeff if t in bucket else coeff
    out = []
    for mono in sorted(bucket, key=_term_order) if len(bucket) > 1 else bucket:
        coeff = bucket[mono]
        if coeff == 1:
            out.append(mono)
        elif coeff:
            out.append(Mul((Rational(coeff), *(mono.factors if type(mono) is Mul else (mono,)))))
    if const or not out:
        out.insert(0, Rational(const))
    return out[0] if len(out) == 1 else Add(tuple(out))


def _add_content(e):
    """Rational content and canonical sign of an Add; returns (scale, reduced).

    The content is the gcd of the term coefficients; each is a reduced
    fraction, so it is the gcd of the numerators over the lcm of the
    denominators."""
    coeffs = [_coeff(t) for t in e.terms]
    scale = Fraction(math.gcd(*(c.numerator for c in coeffs)),
                     math.lcm(*(c.denominator for c in coeffs)))
    if coeffs[0] < 0:
        scale = -scale
    if scale == 1:
        return scale, e
    inv = Rational(1 / scale)
    return scale, add(*(mul(inv, t) for t in e.terms))


def _rational_pow(q, exp):
    """q ** exp for Fraction q; exact when possible, else a Pow node."""
    if q == 0 and exp < 0:
        raise ZeroDivisionError("zero raised to a negative power")
    if exp.denominator == 1:
        return Rational(Fraction(q) ** exp)  # an int ** a negative int is a float
    if q < 0:
        return Pow(Rational(q), exp)
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
    if k >= n.bit_length():  # a root r >= 2 needs 2**k <= n
        return None
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == n else None
        r = s


def _coerce_exponent(x):
    """x as an exponent: an int when integral, else a Fraction, as a Rational holds it."""
    if isinstance(x, Rational):
        return x.value
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ExprError("exponent %r is not finite" % (x,))
        # a magnitude below the limit's resolution keeps its exact value
        x = Fraction(x).limit_denominator(10 ** 9) or Fraction(x)
    elif isinstance(x, Expr):
        raise ExprError("only rational exponents are supported")
    elif not isinstance(x, (int, Fraction)):
        raise TypeError("bad exponent %r" % (x,))
    return x.numerator if x.denominator == 1 else x


@lru_cache(maxsize=None, typed=True)
def pow_(base, exp):
    """base ** exp for a rational exponent.

    A power of a power folds as GiNaC's ``power::eval`` does:
    ``(b**c1)**c2`` is ``b**(c1*c2)`` when c2 is an integer,
    -1 < c1 <= 1 or b is positive (:func:`is_positive`), where the fold
    holds on the principal branch; so ``sqrt(sqrt(x))`` is ``x**(1/4)``
    and ``sqrt(p**2)`` is ``p`` for a positive ``p``, while
    ``(x**2)**(1/2)``, which is |x| for real x, stays nested."""
    base = _coerce(base)
    exp = _coerce_exponent(exp)
    if exp == 0:
        return ONE
    if exp == 1:
        return base
    cls = type(base)
    if cls is Rational:
        return _rational_pow(base.value, exp)
    if cls is Pow:
        if exp.denominator == 1 or -1 < base.exponent <= 1 or is_positive(base.base):
            return pow_(base.base, base.exponent * exp)
        return Pow(base, exp)
    if cls is Mul:
        if exp.denominator == 1:
            return mul(*(pow_(f, exp) for f in base.factors))
        return Pow(base, exp)
    if cls is Add and exp.denominator == 1:
        scale, reduced = _add_content(base)
        if scale != 1:
            return mul(_rational_pow(scale, exp), Pow(reduced, exp))
    return Pow(base, exp)


@lru_cache(maxsize=None, typed=True)
def mul(*factors):
    """Canonical term ``c*mono`` (module docstring): the factors of mono in
    ``_key`` order, each base once; a sum of exponent 1 is multiplied out."""
    coeff = 1
    powers = {}
    pending = [f if isinstance(f, Expr) else _coerce(f) for f in factors]
    while pending:
        f = pending.pop()
        cls = type(f)
        if cls is Rational:
            if f is ZERO:
                return f
            coeff *= f.value
        elif cls is Mul:
            pending.extend(f.factors)
        elif cls is Pow:
            powers[f.base] = powers.get(f.base, 0) + f.exponent
        else:
            powers[f] = powers.get(f, 0) + 1

    atoms = []
    adds = []
    requeue = []
    for base in sorted(powers, key=_term_order) if len(powers) > 1 else powers:
        x = powers[base]
        cls = type(base)
        if x == 1 and (cls is Symbol or cls is Func):  # pow_ would return base
            atoms.append(base)
            continue
        p = pow_(base, x)
        cls = type(p)
        if cls is Rational:
            coeff *= p.value
        elif cls is Add:
            adds.append(p)
        # kept only on its own base: one that reduced to another may merge with it
        elif cls is Pow and p.base is base:
            atoms.append(p)
        else:
            requeue.append(p)
    if requeue:
        # A merged exponent triggered a rewrite; rebuild from scratch.
        return mul(Rational(coeff), *(atoms + adds + requeue))
    if adds:
        mono = mul(Rational(coeff), *atoms)
        return add(*(mul(mono, *combo) for combo in itertools.product(*(a.terms for a in adds))))
    if coeff != 1 or not atoms:
        atoms.insert(0, Rational(coeff))
    return atoms[0] if len(atoms) == 1 else Mul(tuple(atoms))


def clear_memo():
    """Empty the memo tables of :func:`add`, :func:`mul` and :func:`pow_`,
    then drop from the node table every node that nothing outside it holds.
    A held node stays, so a rebuild returns the same object."""
    for constructor in (add, mul, pow_):
        constructor.cache_clear()
    # Children are inserted before their parents; popping from the end frees a
    # dropped parent's key, and its hold on them, before they are looked at.
    keys = list(_NODES)
    while keys:
        key = keys.pop()
        if sys.getrefcount(_NODES[key]) == 2:  # the table's value and the argument
            del _NODES[key]


def _make_func(name, arg):
    arg = _coerce(arg)
    return _FUNCS[name][0] if arg is ZERO else Func(name, arg)


def _func(name):
    """The public constructor of elementary function ``name``."""
    def make(arg):
        return _make_func(name, arg)

    make.__name__ = make.__qualname__ = name
    return make


# Each elementary function once, as GiNaC registers it: its value at 0 and
# its derivative, which looks the constructors up only when called; the
# compiled evaluator takes the names from here too.
_FUNCS = {"sin": (ZERO, lambda u: cos(u)), "cos": (ONE, lambda u: mul(_MINUS_ONE, sin(u))),
          "exp": (ONE, lambda u: exp(u)), "cosh": (ONE, lambda u: sinh(u)),
          "sinh": (ZERO, lambda u: cosh(u))}
sin, cos, exp, cosh, sinh = map(_func, ("sin", "cos", "exp", "cosh", "sinh"))


def sqrt(arg):
    return pow_(arg, Fraction(1, 2))


# ---------------------------------------------------------------------------
# DAG traversal


def _children(e):
    if isinstance(e, (Add, Mul)):
        return e.terms if isinstance(e, Add) else e.factors
    if isinstance(e, (Pow, Func)):
        return (e.base,) if isinstance(e, Pow) else (e.arg,)
    return ()


def _postorder(*roots):
    """Each distinct node of the roots once, children before parents and
    left to right.  Iterative, so a deep expression cannot exceed Python's
    recursion limit."""
    order, seen, stack = [], set(), [(e, False) for e in reversed(roots)]
    while stack:
        x, expanded = stack.pop()
        if expanded:
            order.append(x)
        elif x not in seen:
            seen.add(x)
            stack.append((x, True))
            stack.extend((k, False) for k in reversed(_children(x)))
    return order


def _rewrite(e, rule):
    """Result of ``rule(node, r)`` for ``e``, computed once per distinct
    node in post-order; ``r(child)`` is the result already stored for a
    child, so a rule reads its children's results instead of recursing."""
    done = {}
    for x in _postorder(e):
        done[x] = rule(x, done.__getitem__)
    return done[e]


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
        e = _rewrite(e, lambda x, d: _d(x, name, d))
    return e


def _d(e, s, d):
    if isinstance(e, Rational):
        return ZERO
    if isinstance(e, Symbol):
        return ONE if e.name == s else ZERO
    if isinstance(e, Add):
        return add(*(d(t) for t in e.terms))
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, fi in enumerate(fs):
            dfi = d(fi)
            if dfi is ZERO:
                continue
            parts.append(mul(dfi, *(fs[:i] + fs[i + 1:])))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = d(e.base)
        if db is ZERO:
            return ZERO
        return mul(Rational(e.exponent), pow_(e.base, e.exponent - 1), db)
    da = d(e.arg)  # a Func
    return ZERO if da is ZERO else mul(_FUNCS[e.name][1](e.arg), da)


# ---------------------------------------------------------------------------
# Substitution


def subs(e, binding):
    """Simultaneous substitution of symbols by expressions."""
    b = {}
    for k, v in (binding or {}).items():
        b[_sym_name(k)] = _coerce(v)
    if not b:
        return _coerce(e)
    return _rewrite(_coerce(e), lambda x, r: _subs(x, b, r))


def _subs(e, b, r):
    if isinstance(e, Rational):
        return e
    if isinstance(e, Symbol):
        return b.get(e.name, e)
    if isinstance(e, Add):
        return add(*(r(t) for t in e.terms))
    if isinstance(e, Mul):
        return mul(*(r(f) for f in e.factors))
    if isinstance(e, Pow):
        return pow_(r(e.base), e.exponent)
    return _make_func(e.name, r(e.arg))


# ---------------------------------------------------------------------------
# Numeric evaluation


def evalf(e, env=None):
    """IEEE double evaluation; raises FreeSymbolError on unbound symbols.

    ``env`` maps symbol names (or Symbols) to numbers, converted to floats
    as constants are (±inf beyond double range); infinities propagate and
    invalid operations yield NaN.  A thin wrapper over :func:`compile_ex`
    with the names of ``env``, in its order, as the arguments."""
    fenv = {_sym_name(k): _float(v) for k, v in (env or {}).items()}
    return compile_ex((e,), tuple(fenv))(*fenv.values())[0]


def compile_ex(exprs, args):
    """``f(*floats) -> tuple``: the float values of ``exprs`` with the
    symbols named by ``args`` bound positionally, in that order.  Cached by
    ``(exprs, args)``, so compiling the same pair again returns the same
    function; a symbol not in ``args`` raises FreeSymbolError and a name
    given twice raises ValueError."""
    return _compile(tuple(map(_coerce, exprs)), tuple(map(_sym_name, args)))


# Operands per line of a long sum or product, far below the depth at which
# compiling a chained expression overflows the compiler's recursion limit.
_CHAIN = 64


@lru_cache(maxsize=None)
def _compile(exprs, args):
    """Straight-line Python for the tuple ``exprs`` over the positional
    parameters ``args``: one assignment per distinct node of all of them,
    so a subexpression shared within or between outputs is computed once
    per call.

    A sum folds left from int 0 in term order (``0 + a + b``, what builtin
    ``sum`` did before Python 3.12 made float sums compensated), a product
    from 1.0; constants are float literals, ±inf when out of range.  A
    square is ``b * b`` and a reciprocal ``1.0 / b`` (+inf for a zero base),
    each one correctly rounded operation; other powers go through
    ``_ipow`` and ``_rpow``.
    """
    lines = []
    names = {}
    params = {}
    for i, name in enumerate(args):
        if name in params:
            raise ValueError("symbol %r is given twice in the arguments" % name)
        params[name] = "a%d" % i

    def ref(x):
        return repr(_float(x.value)) if isinstance(x, Rational) else names[x]

    for x in _postorder(*exprs):
        if isinstance(x, Rational):
            continue
        if isinstance(x, Symbol):
            if x.name not in params:
                raise FreeSymbolError("no value for symbol %r" % x.name)
            names[x] = params[x.name]
            continue
        var = names[x] = "n%d" % len(names)
        if isinstance(x, (Add, Mul)):
            start, op, kids = ("0", " + ", x.terms) if isinstance(x, Add) else ("1.0", " * ", x.factors)
            operands = [ref(k) for k in kids]
            for i in range(0, len(operands), _CHAIN):
                lines.append("%s = %s%s%s" % (var, start, op, op.join(operands[i:i + _CHAIN])))
                start = var
            continue
        if isinstance(x, Pow):
            base, q = ref(x.base), x.exponent
            if q == 2:
                rhs = "%s * %s" % (base, base)
            elif q == -1:
                rhs = "(1.0 / %s if %s else inf)" % (base, base)
            elif q.denominator == 1:
                rhs = "_ipow(%s, %d)" % (base, q.numerator)
            else:
                try:
                    rhs = "_rpow(%s, %r)" % (base, float(q))
                except OverflowError:  # exponent beyond double range
                    rhs = "nan if %s < 0 else inf" % base
        else:
            rhs = "%s(%s)" % (x.name, ref(x.arg))
        lines.append("%s = %s" % (var, rhs))

    lines.append("return (%s)" % "".join(ref(e) + ", " for e in exprs))
    src = "def evaluate(%s):\n    %s\n" % (", ".join(params.values()), "\n    ".join(lines))
    scope = {}
    exec(compile(src, "<compile_ex>", "exec"), _RUNTIME, scope)
    return scope["evaluate"]


def _float(q):
    """float(q), or ±inf for a number beyond double range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def _ipow(b, n):
    """b ** n for an integer n: a zero base to a negative power gives +inf,
    overflow gives ±inf with the sign of an odd power."""
    try:
        return b ** n
    except ZeroDivisionError:
        return math.inf
    except OverflowError:
        return -math.inf if b < 0 and n % 2 else math.inf


def _rpow(b, p):
    """b ** p for a non-integer exponent p: nan for b < 0 and on a domain
    error (a zero base to a negative power), +inf on overflow."""
    if b < 0:
        return math.nan
    try:
        return math.pow(b, p)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _guarded(name):
    """math.<name> that does not raise: exp and cosh overflow to +inf, sinh,
    the odd one, keeps x's sign, and a domain error gives nan."""
    fn = getattr(math, name)

    def guarded(x):
        try:
            return fn(x)
        except OverflowError:
            return math.copysign(math.inf, x) if name == "sinh" else math.inf
        except ValueError:
            return math.nan

    return guarded


_RUNTIME = {name: _guarded(name) for name in _FUNCS}
_RUNTIME.update(_ipow=_ipow, _rpow=_rpow, inf=math.inf, nan=math.nan)


# ---------------------------------------------------------------------------
# Best-effort normalization


def _mul_powers(e):
    """Factor multiset of a canonical product as {base: exponent}."""
    out = {}
    for f in e.factors if isinstance(e, Mul) else (e,):
        if isinstance(f, Pow):
            out[f.base] = f.exponent
        elif not isinstance(f, Rational):
            out[f] = 1
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
        parts = [(n, _mul_powers(d)) for n, d in map(_as_fraction, e.terms)]
        den_pows = {}
        for _, own in parts:
            for base, x in own.items():
                den_pows[base] = max(den_pows.get(base, x), x)
        if not den_pows:
            return e, ONE
        num_terms = []
        for n, own in parts:
            comp = [
                pow_(base, x - own.get(base, 0))
                for base, x in den_pows.items()
                if x > own.get(base, 0)
            ]
            num_terms.append(mul(n, *comp))
        den = mul(*(pow_(b, x) for b, x in den_pows.items()))
        return add(*num_terms), den
    return e, ONE


def normal(e):
    """Combine over a common denominator and cancel shared factors.

    Cancellation is syntactic (identical factors only): a base cancels by
    its least exponent over the denominator and every numerator term.  The
    result is idempotent and numerically equal to the input.  The
    denominator has no coefficient to cancel: ``pow_`` takes a sum's
    rational content out of every integer power and keeps a rational base
    only under an inexact root.
    """
    e = _coerce(e)
    num, den = _as_fraction(e)
    term_pows = [_mul_powers(t) for t in (num.terms if isinstance(num, Add) else (num,))]
    inv = []
    for base, x in _mul_powers(den).items():
        m = min(x, *(pows.get(base, 0) for pows in term_pows))
        if m > 0:
            inv.append(pow_(base, -m))
    if inv:
        num = mul(num, *inv)
        den = mul(den, *inv)
    if den is ONE:
        return num
    return mul(num, pow_(den, -1))


# ---------------------------------------------------------------------------
# Linear solving


def _contains(e, name):
    return any(isinstance(x, Symbol) and x.name == name for x in _postorder(e))


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
            if normal(aug[r][col]) is not ZERO:
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
            if f is ZERO:
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
        return "(%s)" % v if prec >= 2 and (v < 0 or v.denominator != 1) else str(v)
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Func):
        return "%s(%s)" % (e.name, _pr(e.arg, 0))
    if isinstance(e, Pow):
        q = e.exponent
        s = "%s**%s" % (_pr(e.base, 4), "(%s)" % q if q < 0 or q.denominator != 1 else q)
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


def is_positive(e):
    """Whether ``e`` is positive by construction, as GiNaC's
    ``info_flags::positive`` answers: a positive rational, a positive
    symbol, or a product, power or sum of positives."""
    if isinstance(e, Rational):
        return e.value > 0
    if isinstance(e, Symbol):
        return e.positive
    if isinstance(e, Mul):
        return all(map(is_positive, e.factors))
    if isinstance(e, Add):
        return all(map(is_positive, e.terms))
    return isinstance(e, Pow) and is_positive(e.base)


def as_fraction_value(e):
    if not isinstance(e, Rational):
        raise ExprError("expression is not a rational constant: %r" % (e,))
    return e.value
