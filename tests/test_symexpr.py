import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from cliffeph import (
    ExprError,
    FreeSymbolError,
    SingularSystemError,
    as_fraction_value,
    cos,
    cosh,
    diff,
    evalf,
    exp,
    lsolve,
    normal,
    rational,
    sin,
    sinh,
    sqrt,
    subs,
    symbol,
    symbols,
    to_str,
)
from cliffeph.symexpr import ONE, ZERO, Pow, add, mul, pow_
from conftest import reference_key

x, y, t = symbols("x y t")


class TestConstruction:
    def test_rational_arithmetic_folds(self):
        assert rational(2, 3) + rational(1, 3) == ONE
        assert rational(2) * rational(3) == rational(6)
        assert rational(1, 2) ** 2 == rational(1, 4)

    def test_like_terms_collect(self):
        assert x + x == rational(2) * x
        assert x - x == ZERO
        assert x * x == x ** 2

    def test_division_cancels_syntactically(self):
        assert x / x == ONE
        assert (x ** 3) / x == x ** 2

    def test_zero_annihilates(self):
        assert ZERO * x == ZERO
        assert ZERO + x == x

    def test_exact_integer_roots(self):
        assert sqrt(rational(4)) == rational(2)
        assert sqrt(rational(9, 16)) == rational(3, 4)

    def test_roots_beyond_float_range(self):
        assert sqrt(rational(10 ** 400)) == rational(10 ** 200)
        assert sqrt(rational(1, 10 ** 400)) == rational(1, 10 ** 200)
        assert isinstance(sqrt(rational(2 * 10 ** 400)), Pow)
        assert pow_(rational(10 ** 600), Fraction(1, 3)) == rational(10 ** 200)

    def test_positive_symbol_is_its_own_atom(self):
        xp = symbol("x", positive=True)
        assert x * xp != x ** 2
        assert x - xp != ZERO
        assert x * xp == xp * x

    def test_non_finite_floats_raise_expr_error(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ExprError):
                rational(1) * bad
            with pytest.raises(ExprError):
                x ** bad

    def test_functions_fold_at_zero(self):
        assert sin(ZERO) == ZERO
        assert cos(ZERO) == ONE
        assert exp(ZERO) == ONE
        assert sinh(ZERO) == ZERO
        assert cosh(ZERO) == ONE

    def test_structural_equality_is_order_free(self):
        assert x + y == y + x
        assert x * y == y * x


class TestDiff:
    def test_product_rule(self):
        e = diff(x * sin(t), t)
        assert e == x * cos(t)

    def test_chain_rule_exp(self):
        e = diff(exp(rational(2) * t), t)
        assert evalf(e, {"t": 0.5}) == pytest.approx(2 * math.exp(1.0))

    def test_second_derivative(self):
        assert diff(exp(rational(2) * t), t, 2) == rational(4) * exp(rational(2) * t)

    def test_power_rule(self):
        assert diff(x ** 3, x) == rational(3) * x ** 2

    def test_constant(self):
        assert diff(rational(5), x) == ZERO


class TestSubsEvalf:
    def test_simultaneous_subs(self):
        e = subs(x + y, {x: y, y: x})
        assert e == x + y

    def test_subs_then_fold(self):
        assert subs(x * y, {x: rational(0)}) == ZERO

    def test_evalf_unbound_raises(self):
        with pytest.raises(FreeSymbolError):
            evalf(x + y, {"x": 1.0})

    def test_evalf_division_by_zero_is_inf(self):
        assert math.isinf(evalf(pow_(x, -1), {"x": 0.0}))

    @pytest.mark.parametrize("value", [1000.0, -1000.0])
    def test_evalf_overflow_keeps_the_sign_of_sinh(self, value):
        assert evalf(sinh(x), {"x": value}) == math.copysign(math.inf, value)
        assert evalf(cosh(x), {"x": value}) == math.inf

    def test_evalf_transcendentals(self):
        e = sin(t) ** 2 + cos(t) ** 2
        assert evalf(e, {"t": 0.7}) == pytest.approx(1.0)


class TestNormal:
    def test_common_denominator(self):
        e = normal(x / y + rational(1) / y)
        assert e == normal((x + rational(1)) / y)

    def test_polynomial_over_variable(self):
        assert normal((x ** 2 - x) / x) == x - rational(1)

    def test_idempotent(self):
        e = (x * y + x) / (y * x)
        assert normal(normal(e)) == normal(e)

    def test_rational_content(self):
        e = normal((rational(2) * x + rational(2) * y) / rational(2))
        assert e == x + y


class TestLsolve:
    def test_vandermonde(self):
        a, b, c = symbols("a b c")
        eqs = [
            (a + b + c, rational(0)),
            (a - b + c, rational(2)),
            (rational(4) * a + rational(2) * b + c, rational(3)),
        ]
        sol = lsolve(eqs, [a, b, c])
        assert as_fraction_value(sol["a"]) == Fraction(4, 3)
        assert as_fraction_value(sol["b"]) == Fraction(-1)
        assert as_fraction_value(sol["c"]) == Fraction(-1, 3)

    def test_singular_raises(self):
        a, b = symbols("a b")
        with pytest.raises(SingularSystemError):
            lsolve([(a + b, rational(1)), (a + b, rational(2))], [a, b])

    def test_parametric_solution(self):
        a, b = symbols("a b")
        sol = lsolve([(a + b, x), (a - b, y)], [a, b])
        half = rational(1, 2)
        assert normal(sol["a"] - half * (x + y)) == ZERO


rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=9
).map(lambda f: rational(f))


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals)
def test_field_axioms_on_rationals(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_diff_matches_finite_difference(a, b):
    e = x ** 2 * sin(x) + exp(x * rational(1, 2))
    d = diff(e, x)
    h = 1e-6
    pt = a + b / 10
    fd = (evalf(e, {"x": pt + h}) - evalf(e, {"x": pt - h})) / (2 * h)
    assert evalf(d, {"x": pt}) == pytest.approx(fd, rel=1e-4, abs=1e-4)


def test_to_str_round_trippable_syntax():
    e = x ** 2 + rational(1, 2) * y
    s = to_str(e)
    assert eval(s, {"x": 3.0, "y": 4.0}) == pytest.approx(11.0)


# Random expression trees for the kernel properties: x, y and small
# rationals combined by sin/cos/exp, add, mul and rational powers.  A draw
# whose construction divides by zero is skipped.


def _skip_zero_division(build):
    def go(args):
        try:
            return build(*args)
        except ZeroDivisionError:
            reject()

    return go


def _branches(kids):
    operands = st.lists(kids, min_size=2, max_size=3)
    return st.one_of(
        st.tuples(st.sampled_from([sin, cos, exp]), kids).map(lambda p: p[0](p[1])),
        operands.map(_skip_zero_division(add)),
        operands.map(_skip_zero_division(mul)),
        st.tuples(kids, st.sampled_from([-2, -1, 2, Fraction(1, 2)])).map(
            _skip_zero_division(pow_)
        ),
    )


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
trees = st.recursive(
    st.sampled_from([x, y]) | small_fractions.map(rational), _branches, max_leaves=8
)


def _outcome(op, args):
    try:
        e = op(*args)
    except ZeroDivisionError:
        return None
    return e, to_str(e), hash(e)


@settings(max_examples=150, deadline=None)
@given(st.lists(trees, min_size=2, max_size=4), st.sampled_from([add, mul]))
def test_add_and_mul_ignore_argument_order(args, op):
    first = _outcome(op, args)
    for perm in itertools.permutations(args):
        assert _outcome(op, perm) == first


@settings(max_examples=150, deadline=None)
@given(trees)
def test_stored_key_matches_reference_walker(e):
    assert e._key == reference_key(e)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_normal_is_idempotent(e):
    n = normal(e)
    assert normal(n) == n


@settings(max_examples=150, deadline=None)
@given(trees, small_fractions, small_fractions)
def test_subs_commutes_with_evalf(e, q, yv):
    try:
        lhs = evalf(subs(e, {x: rational(q)}), {"y": float(yv)})
    except ZeroDivisionError:
        reject()
    rhs = evalf(e, {"x": float(q), "y": float(yv)})
    if math.isfinite(lhs) and math.isfinite(rhs):
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)
