import functools
import itertools
import math
import operator
import os
import struct
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

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
from cliffeph import ephgeom, symexpr
from cliffeph.symexpr import (
    ONE,
    ZERO,
    Add,
    Func,
    Mul,
    Pow,
    Rational,
    _FUNCS,
    _add_content,
    _as_fraction,
    _children,
    _coeff,
    _postorder,
    add,
    clear_memo,
    compile_ex,
    is_positive,
    mul,
    pow_,
)
from conftest import (
    reference_add_content,
    reference_diff,
    reference_evalf,
    reference_key,
    reference_normal,
    reference_subs,
)
from test_golden_interpreters import _interpreter

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

    def test_root_of_a_degree_beyond_the_bit_length_is_decided_at_once(self):
        # Fraction(0.1) and 1e-12 have denominators 2**55 and 2**92;
        # Newton steps over r**(k - 1) would never finish
        assert isinstance(pow_(rational(2), Fraction(0.1)), Pow)
        assert isinstance(pow_(2, 1e-12), Pow)
        assert pow_(rational(3 ** 200), Fraction(1, 100)) == rational(9)
        assert pow_(rational(Fraction(1, 2 ** 64)), Fraction(1, 64)) == rational(1, 2)
        assert pow_(rational(2), Fraction(1, 2)) == Pow(rational(2), Fraction(1, 2))

    @pytest.mark.xfail(strict=True, reason="mul distributes a sum of exponent 1 but keeps "
                       "a repeated sum as a power (CHANGES.md FOUND line, ROADMAP item 3)")
    def test_product_does_not_depend_on_grouping(self):
        assert mul(x + y, mul(x, x + y)) == mul(x + y, x, x + y)

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

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ExprError, match="only rational exponents"):
            pow_(x, y)

    def test_functions_fold_at_zero(self):
        assert sin(ZERO) == ZERO
        assert cos(ZERO) == ONE
        assert exp(ZERO) == ONE
        assert sinh(ZERO) == ZERO
        assert cosh(ZERO) == ONE

    @pytest.mark.parametrize("name", list(_FUNCS))
    def test_public_function_is_its_funcs_entry(self, name):
        # a public name bound to another entry builds, folds or differentiates wrongly
        f = getattr(symexpr, name)
        at_zero, derivative = _FUNCS[name]
        assert f.__name__ == name
        assert isinstance(f(x), Func) and f(x).name == name
        assert f(ZERO) is at_zero
        assert diff(f(x), x) is derivative(x)
        assert diff(f(2 * x), x) == 2 * derivative(2 * x)

    def test_structural_equality_is_order_free(self):
        assert x + y == y + x
        assert x * y == y * x

    @pytest.mark.parametrize("product, canonical", [
        (mul(3, sqrt(2), sqrt(2)), rational(6)),
        (mul(3, sqrt(2), sqrt(2)) - 6, ZERO),
        (mul(sqrt(x * y), sqrt(x * y), t), mul(x, y, t)),
        (mul(sqrt(x ** 2), sqrt(x ** 2), y), mul(x ** 2, y)),
        (mul(x, sqrt(sqrt(x)), sqrt(sqrt(x))), x ** Fraction(3, 2)),
    ], ids=["rational-root-squared", "minus-6", "product-root-squared",
            "power-root-squared", "nested-root-squared"])
    def test_merged_powers_are_canonical(self, product, canonical):
        assert product == canonical

    def test_merged_power_that_reduces_to_a_symbol_is_merged_again(self):
        q = sqrt(sqrt(x))
        assert mul(x, q, q, q, q) == x ** 2

    def test_nested_fractional_powers_fold(self):
        assert sqrt(sqrt(x)) == pow_(x, Fraction(1, 4))
        assert mul(sqrt(sqrt(x)), pow_(x, Fraction(1, 4))) == sqrt(x)
        assert pow_(pow_(x, Fraction(-1, 2)), Fraction(3, 2)) == pow_(x, Fraction(-3, 4))
        # outside the rule the nesting stays: sqrt(x**2) is |x|, not x
        assert pow_(x ** 2, Fraction(1, 2)) == Pow(x ** 2, Fraction(1, 2))
        assert pow_(x ** -1, Fraction(1, 2)) == Pow(x ** -1, Fraction(1, 2))

    def test_power_of_a_power_of_a_positive_base_folds(self):
        # GiNaC folds (b**c1)**c2 for any c1 once b is positive
        p = symbol("p", positive=True)
        assert pow_(p ** 2, Fraction(1, 2)) is p
        assert pow_(p ** -2, Fraction(1, 4)) is pow_(p, Fraction(-1, 2))
        assert pow_((p + 1) ** 2, Fraction(1, 2)) is p + 1

    def test_equal_rationals_are_one_node(self):
        assert Rational(3) is Rational(3.0) is Rational(Fraction(6, 2))
        assert Rational(True) is ONE and Rational(False) is ZERO
        assert Rational(-7) is rational(-14, 2) and Rational(2 ** 300) is Rational(2.0 ** 300)
        assert type(Rational(True).value) is int

    def test_zero_base_powers(self):
        for negative in (-1, Fraction(-1, 2)):
            with pytest.raises(ZeroDivisionError, match="zero raised to a negative power"):
                pow_(0, negative)
        assert pow_(0, Fraction(1, 2)) == ZERO

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [-3, -2, 2, 3, 7])
    def test_negative_power_of_an_integer_is_exact(self, n, k):
        # an int ** a negative int is a float, 1/3 would become 6004799503160661/2**54
        p = pow_(rational(n), -k)
        assert p == rational(1, n ** k) and type(p.value) is Fraction

    @pytest.mark.parametrize("form", [int, Fraction, float, rational])
    @pytest.mark.parametrize("n", [2, -1])
    def test_integral_exponent_is_an_int(self, n, form):
        p = pow_(x, form(n))
        assert p is pow_(x, Fraction(2 * n, 2)) and type(p.exponent) is int

    def test_tiny_float_exponent_keeps_its_exact_value(self):
        # limit_denominator(10**9) rounds every 0 < |q| < 5e-10 to 0
        for q in (1e-12, -1e-12, 5e-324):
            assert pow_(x, q) == Pow(x, Fraction(q))
        assert evalf(pow_(x, 1e-12), {x: 0.0}) == 0.0
        assert pow_(x, 0.1) == Pow(x, Fraction(1, 10))


class TestMemo:
    def test_float_and_exact_exponents_keep_their_own_results(self):
        # 0.1 == Fraction(0.1) and their hashes agree, but the float is
        # limited to 1/10 and the Fraction is kept exact
        cold = {}
        for q in (0.1, Fraction(0.1)):
            clear_memo()
            cold[type(q)] = pow_(x, q)._key
        assert cold[float] != cold[Fraction]
        for order in ((0.1, Fraction(0.1)), (Fraction(0.1), 0.1)):
            clear_memo()
            for q in order:
                assert pow_(x, q)._key == cold[type(q)]

    def test_merged_symbol_equal_to_its_base_is_kept_in_one_pass(self):
        x1, x2, z = symbol("x"), symbol("x"), symbol("z")
        clear_memo()
        assert pow_(x1, 1) is x1
        before = mul.cache_info().currsize
        # pow_(x2, 1) returns the memoized x1, the one node named x
        product = mul(x2, z)
        assert mul.cache_info().currsize == before + 1
        assert product == x1 * z

    def test_pow_returns_the_unique_node(self):
        # none of these exponents folds, so the power is the node as built
        for q in (Fraction(-1), Fraction(3), Fraction(1, 3), Fraction(-3, 2)):
            assert pow_(x, q) is Pow(x, q)
        assert pow_(add(x, 1), Fraction(1, 2)) is Pow(add(x, 1), Fraction(1, 2))

    def test_a_node_that_fails_to_build_is_not_kept(self):
        # a half-built node in the table would be returned by the next call
        for _ in range(2):
            with pytest.raises(AttributeError):
                Add((1, 2))


class TestSweep:
    """``clear_memo`` drops from the node table every node that nothing
    outside the table holds, and keeps every other one."""

    def test_held_nodes_and_module_constants_survive(self):
        held = add(mul(symbol("held_through_a_sweep"), x), 1)
        clear_memo()
        assert add(mul(symbol("held_through_a_sweep"), x), 1) is held
        for node in (held, ZERO, ONE, ephgeom.X, ephgeom.Y, ephgeom.T):
            assert any(entry is node for entry in symexpr._NODES.values())
        assert Rational(0) is ZERO and rational(1) is ONE
        assert symbol("x") is ephgeom.X and symbol("y") is ephgeom.Y and symbol("t") is ephgeom.T

    def test_a_dropped_expression_leaves_the_table(self):
        clear_memo()
        before = len(symexpr._NODES)
        a, b = symbols("dropped_a dropped_b")
        e = pow_(add(a, mul(b, rational(7, 3)), sin(a)), -2)
        normal(diff(e, a) * cos(b))
        del a, b, e
        clear_memo()
        assert len(symexpr._NODES) == before

    def test_no_entry_is_left_that_only_the_table_holds(self):
        a = symbol("swept_in_one_pass")
        kept = add(mul(a, sin(x)), 1)
        mul(pow_(add(a, 2), -1), cos(kept), exp(mul(a, y)))
        clear_memo()
        # the key list holds children through their parents' keys, so it
        # can hide a node left behind but never make one up
        assert [key for key in list(symexpr._NODES)
                if sys.getrefcount(symexpr._NODES[key]) == 2] == []


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

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError, match="order must be >= 1"):
            diff(x, x, 0)


class TestSubsEvalf:
    def test_simultaneous_subs(self):
        e = subs(x + y, {x: y, y: x})
        assert e == x + y

    def test_subs_then_fold(self):
        assert subs(x * y, {x: rational(0)}) == ZERO

    def test_evalf_unbound_raises(self):
        with pytest.raises(FreeSymbolError):
            evalf(x + y, {"x": 1.0})
        with pytest.raises(FreeSymbolError, match="'y'"):
            evalf(sin(y) * x, {x: 1.0})

    def test_evalf_takes_symbol_keys_and_coerces_values(self):
        e = x * y + sin(x)
        assert evalf(e, {x: 2, y: Fraction(1, 2)}) == evalf(e, {"x": 2.0, "y": 0.5})
        assert evalf(e, {x: 2, "y": 0.5}) == 1.0 + math.sin(2.0)

    def test_evalf_binds_by_name_in_any_env_order(self):
        # the env's names, in its order, are the compiled function's arguments
        e = x - sin(y)
        assert evalf(e, {"y": 0.5, "x": 3.0}) == evalf(e, {"x": 3.0, "y": 0.5}) == 3.0 - math.sin(0.5)
        assert evalf(e, {"t": 9.0, "y": 0.5, "x": 3.0}) == 3.0 - math.sin(0.5)

    def test_evalf_sums_fold_left_in_term_order(self):
        # a compensated sum (math.fsum, builtin sum on Python 3.12+) gives 1.0
        a, b, c = symbols("a b c")
        e = a + b + c
        values = [1e16, 1.0, -1e16]
        assert [term.name for term in e.terms] == ["a", "b", "c"]
        assert math.fsum(values) == 1.0
        fold = functools.reduce(operator.add, values, 0)
        assert evalf(e, dict(zip("abc", values))) == fold == 0.0

    def test_evalf_compiles_sums_longer_than_the_compiler_nests(self):
        # one chained 0 + a + b ... of 3000 operands overflows the recursion
        # limit of compile() on Python 3.10-3.12
        e = add(*(rational(1, k) * x ** k for k in range(1, 3001)))
        assert _bits(evalf(e, {"x": 0.5})) == _bits(reference_evalf(e, {"x": 0.5}))

    @pytest.mark.parametrize(
        "e",
        [
            rational(10 ** 400) * x,
            rational(-(10 ** 400)) + x,
            pow_(x, 10 ** 400),
            pow_(x, 10 ** 400 + 1),
            pow_(x, Fraction(10 ** 400 + 1, 2)),
        ],
    )
    @pytest.mark.parametrize("value", [-2.0, -0.0, 0.5, 2.0, math.nan])
    def test_evalf_beyond_double_range_matches_reference_walker(self, e, value):
        assert _bits(evalf(e, {"x": value})) == _bits(reference_evalf(e, {"x": value}))

    @pytest.mark.parametrize(
        "value", [10 ** 400, -(10 ** 400), Fraction(10 ** 400, 3)], ids=["big", "-big", "big/3"])
    def test_evalf_env_value_beyond_double_range_is_inf(self, value):
        # the same rule as a constant beyond double range
        inf = math.inf if value > 0 else -math.inf
        assert evalf(x, {"x": value}) == inf
        assert evalf(x, {"x": value}) == evalf(x * rational(value), {"x": 1.0})

    def test_compile_ex_unbound_symbol_raises(self):
        with pytest.raises(FreeSymbolError, match="'t'"):
            compile_ex((x + y, sin(t)), ("x", "y"))

    def test_compile_ex_repeated_argument_raises(self):
        # binding x twice would leave the compiled function one parameter short
        with pytest.raises(ValueError, match="'x'"):
            compile_ex((x - y,), ("x", "y", "x"))
        with pytest.raises(ValueError, match="'y'"):
            compile_ex((x - y,), (y, "x", "y"))

    def test_compile_ex_caches_by_exprs_and_args(self):
        f = compile_ex((x * y, sin(x)), ("x", "y"))
        assert compile_ex((mul(y, x), sin(x)), (x, y)) is f
        assert compile_ex((x * y, sin(x)), ("y", "x")) is not f
        assert f(2.0, 3.0) == (6.0, math.sin(2.0))
        assert compile_ex((), ())() == ()

    def test_evalf_signed_zeros_follow_the_folds(self):
        # 0 + (-0.0) + (-0.0) is +0.0, 1.0 * (-0.0) * 1.0 is -0.0
        assert _bits(evalf(x + y, {"x": -0.0, "y": -0.0})) == _bits(0.0)
        assert _bits(evalf(x * y, {"x": -0.0, "y": 1.0})) == _bits(-0.0)

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

    def test_denominator_without_coefficient(self):
        # both inputs have rational content; pow_ takes it out of each
        # power, so the common denominator has none
        e = normal(rational(1) / (rational(2) * x + 2) + rational(1) / (rational(4) * y))
        assert to_str(e) == ("(1/4)*(y + x*y)**(-1) + (1/4)*x*(y + x*y)**(-1)"
                             " + (1/2)*y*(y + x*y)**(-1)")

    def test_common_factor_cancels(self):
        # over the common denominator (1 + x)**(5/2)*(2 + 2*x)**(3/2) every
        # numerator term has the factor (1 + x)**2, which normal cancels
        a, b = 1 + x, 2 + 2 * x
        e = (3 * b ** Fraction(3, 2) + 2 * a ** Fraction(-5, 2) * b ** Fraction(1, 2)
             + a ** Fraction(1, 2) * b ** Fraction(-3, 2))
        n = normal(e)
        assert to_str(n) == ("x*(1 + x)**(-1/2)*(2 + 2*x)**(-3/2) + 9*(1 + x)**(-1/2)*(2 + 2*x)**(-3/2)"
                             " + 24*(1 + x)**3*(2 + 2*x)**(-3/2)")
        assert normal(n) is n


class TestPositive:
    p, q = symbol("p", positive=True), symbol("q", positive=True)

    @pytest.mark.parametrize("make", [
        lambda p, q: rational(1, 3), lambda p, q: p, lambda p, q: 2 * p * q,
        lambda p, q: p ** -3, lambda p, q: sqrt(p + 1), lambda p, q: p + q / 2,
    ])
    def test_positive_by_construction(self, make):
        assert is_positive(make(self.p, self.q))

    @pytest.mark.parametrize("make", [
        lambda p, q: ZERO, lambda p, q: rational(-1, 3), lambda p, q: x, lambda p, q: -p,
        lambda p, q: p - 1, lambda p, q: x * x, lambda p, q: p * x, lambda p, q: exp(p),
    ])
    def test_no_sign_rule(self, make):
        assert not is_positive(make(self.p, self.q))


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
# rationals combined by elementary functions, add, mul and rational
# powers.  A draw whose construction divides by zero is skipped.


def _skip_zero_division(build):
    def go(args):
        try:
            return build(*args)
        except ZeroDivisionError:
            reject()

    return go


def _branches(kids, funcs=(sin, cos, exp), exponents=(-2, -1, 2, Fraction(1, 2))):
    operands = st.lists(kids, min_size=2, max_size=3)
    return st.one_of(
        st.tuples(st.sampled_from(funcs), kids).map(lambda p: p[0](p[1])),
        operands.map(_skip_zero_division(add)),
        operands.map(_skip_zero_division(mul)),
        st.tuples(kids, st.sampled_from(exponents)).map(_skip_zero_division(pow_)),
    )


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
leaves = st.sampled_from([x, y]) | small_fractions.map(rational)
trees = st.recursive(leaves, _branches, max_leaves=8)
_eval_branches = functools.partial(
    _branches,
    funcs=(sin, cos, exp, cosh, sinh),
    exponents=(-2, -1, 2, Fraction(1, 2), Fraction(-3, 2)),
)
eval_trees = st.recursive(leaves, _eval_branches, max_leaves=10)
# Trees whose leaves may be one drawn subtree, so that subtree is shared
# by several parents.
shared_trees = eval_trees.flatmap(
    lambda sub: st.recursive(leaves | st.just(sub), _eval_branches, max_leaves=8)
)
# Signed zeros, huge and tiny magnitudes (overflow in powers, exp, sinh)
# and the non-finite values, besides ordinary floats.
eval_values = st.sampled_from(
    [0.0, -0.0, 1e300, -1e300, 1e-300, 800.0, -800.0, math.inf, -math.inf, math.nan]
) | st.floats(min_value=-5, max_value=5)


def _bits(value):
    """The double's bytes, so -0.0 and the infinities count; every nan is
    one class, since CPython's own float addition gives a nan sign bit that
    depends on whether the interpreter has specialised the instruction."""
    return b"nan" if math.isnan(value) else struct.pack("<d", value)


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
@given(trees.filter(lambda e: isinstance(e, Add)), small_fractions.filter(bool))
def test_add_content_matches_reference_fold(e, q):
    for s in (e, mul(rational(q), e)):
        assert _add_content(s) == reference_add_content(s)


@settings(max_examples=150, deadline=None)
@given(trees)
def test_normal_is_idempotent(e):
    n = normal(e)
    assert normal(n) == n


# numerator 8*(1 + x)**2 + (1 + x)**3 + 24*(1 + x)**(11/2) over
# (1 + x)**(5/2)*(2 + 2*x)**(3/2): a fractional power of 1 + x cancels
_CANCELS_A_ROOT = add(
    mul(3, pow_(add(2, mul(2, x)), Fraction(3, 2))),
    mul(2, pow_(add(1, x), Fraction(-5, 2)), pow_(add(2, mul(2, x)), Fraction(1, 2))),
    mul(pow_(add(1, x), Fraction(1, 2)), pow_(add(2, mul(2, x)), Fraction(-3, 2))),
)


@settings(max_examples=80, deadline=None)
@given(trees | shared_trees)
@example(_CANCELS_A_ROOT)
# x shares no power of x + y with the other terms, so nothing cancels
@example(add(x, pow_(add(x, y), Fraction(-3, 2)), pow_(add(x, y), -1)))
def test_normal_is_the_reference_node(e):
    try:
        expected = reference_normal(e)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            normal(e)
        return
    assert normal(e) is expected


def test_normal_pinned_results():
    num, den = _as_fraction(_CANCELS_A_ROOT)
    assert to_str(num) == "8*(1 + x)**2 + (1 + x)**3 + 24*(1 + x)**(11/2)"
    assert to_str(den) == "(1 + x)**(5/2)*(2 + 2*x)**(3/2)"
    assert to_str(normal(_CANCELS_A_ROOT)) == (
        "x*(1 + x)**(-1/2)*(2 + 2*x)**(-3/2) + 9*(1 + x)**(-1/2)*(2 + 2*x)**(-3/2)"
        " + 24*(1 + x)**3*(2 + 2*x)**(-3/2)")
    # mul multiplies the sum y*(1 + x) out, so a denominator is not always
    # the product of its bases' powers
    z = symbol("z")
    assert normal(z / (y * (1 + x))) == mul(z, pow_(add(y, mul(x, y)), -1))
    assert to_str(normal(z / (y * (1 + x)))) == "z*(y + x*y)**(-1)"


@settings(max_examples=150, deadline=None)
@given(trees)
@example(mul(y, pow_(add(mul(rational(2), x), 2), -2)))
def test_common_denominator_has_no_coefficient(e):
    # normal relies on it and rescales nothing
    assert _coeff(_as_fraction(e)[1]) == 1


@settings(max_examples=150, deadline=None)
@given(trees)
@example(pow_(add(x, mul(rational(-1), x)), Fraction(1, 2)))
def test_no_power_has_base_zero(e):
    # mul relies on it: a merged power is never 0
    assert not any(isinstance(n, Pow) and n.base is ZERO for n in _postorder(e))


@settings(max_examples=150, deadline=None)
@given(trees)
@example(pow_(mul(rational(1, 2), x), Fraction(4, 2)))
def test_numbers_are_ints_exactly_when_integral(e):
    # as GiNaC's numeric: a Fraction only for a proper fraction
    numbers = [n.value if isinstance(n, Rational) else n.exponent
               for n in _postorder(e) if isinstance(n, (Rational, Pow))]
    assert all(type(q) is (int if q.denominator == 1 else Fraction) for q in numbers)


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


@settings(max_examples=300, deadline=None)
@given(eval_trees, eval_values, eval_values)
def test_evalf_matches_reference_walker_bit_for_bit(e, xv, yv):
    env = {"x": xv, "y": yv}
    assert _bits(evalf(e, env)) == _bits(reference_evalf(e, env))


# One to three trees whose leaves may be one drawn subtree, so the outputs
# of one compiled function share it.
shared_tuples = eval_trees.flatmap(
    lambda sub: st.lists(
        st.recursive(leaves | st.just(sub), _eval_branches, max_leaves=8), min_size=1, max_size=3)
).map(tuple)


@settings(max_examples=200, deadline=None)
@given(shared_tuples, eval_values, eval_values)
def test_compiled_outputs_match_reference_walker_bit_for_bit(exprs, xv, yv):
    env = {"x": xv, "y": yv}
    out = compile_ex(exprs, ("x", "y"))(xv, yv)
    assert [_bits(v) for v in out] == [_bits(reference_evalf(e, env)) for e in exprs]


def _calls_ipow(q):
    return "_ipow" in compile_ex((pow_(x, q),), ("x",)).__code__.co_names


@pytest.mark.parametrize("q,inline", [(2, True), (-1, True), (3, False), (-2, False)])
def test_only_the_square_and_the_reciprocal_compile_inline(q, inline):
    assert _calls_ipow(q) is not inline


# pow(v, 2) and pow(v, -1) of the C library are off by one bit here on
# some hosts, where v * v and 1.0 / v are correctly rounded
@settings(max_examples=100, deadline=None)
@given(eval_values)
@example(-707.076519201308)
@example(12.634701195110438)
def test_square_and_reciprocal_are_single_float_operations(v):
    square, reciprocal = compile_ex((pow_(x, 2), pow_(x, -1)), ("x",))(v)
    assert _bits(square) == _bits(v * v)
    assert _bits(reciprocal) == _bits(1.0 / v if v else math.inf)


@pytest.mark.parametrize("q,value,expected", [
    (3, 1e300, math.inf),
    (3, -1e300, -math.inf),
    (3, -0.0, -0.0),
    (3, -math.inf, -math.inf),
    (-2, 0.0, math.inf),
    (-2, -0.0, math.inf),
    (-2, 1e-300, math.inf),
    (-2, -1e-300, math.inf),
    (-2, -math.inf, 0.0),
])
def test_other_integer_powers_keep_the_overflow_and_zero_rules(q, value, expected):
    assert _calls_ipow(q)
    assert _bits(evalf(pow_(x, q), {"x": value})) == _bits(expected)


def _no_product_base(e):
    """Not a rational, a product or a power of a product: an integer power
    of a product distributes over its factors, so ``(x/(x + y))**-1`` is
    ``1 + y/x``, and then folding depends on how mul groups the factors."""
    base = e.base if isinstance(e, Pow) else e
    return not isinstance(e, Rational) and not isinstance(base, Mul)


@settings(max_examples=300, deadline=None)
@given(trees.filter(_no_product_base), small_fractions, st.integers(-3, 3) | small_fractions)
def test_power_of_a_power_folds_by_the_rule(e, p, q):
    if not (q.denominator == 1 or -1 < p <= 1):
        reject()
    try:
        inner = pow_(e, p)
        assert pow_(inner, q) == pow_(e, p * q)
    except ZeroDivisionError:
        reject()


def _built(build):
    try:
        return build()
    except ZeroDivisionError:
        return None


@settings(max_examples=150, deadline=None)
@given(st.lists(trees, min_size=1, max_size=3), st.sampled_from([-2, -1, 2, 0.5, Fraction(1, 3)]))
def test_constructors_return_one_object_per_structure(args, q):
    builds = [lambda: add(*args), lambda: mul(*args), lambda: pow_(args[0], q),
              lambda: pow_(mul(*args), q)]
    first = [_built(build) for build in builds]
    clear_memo()
    for build, node in zip(builds, first):
        assert _built(build) is node


def _monomial(term):
    """A term with its leading Rational, if any, taken off."""
    if isinstance(term, Mul) and isinstance(term.factors[0], Rational):
        rest = term.factors[1:]
        return rest[0] if len(rest) == 1 else Mul(rest)
    return term


def _check_canonical(node):
    """The shape every constructor promises: a sum or product is flat, with
    at most one Rational, first (a sum's never 0, a product's never 0 or 1),
    then distinct monomials or bases; no power has exponent 0 or 1."""
    if isinstance(node, Pow):
        assert node.exponent not in (0, 1)
    if not isinstance(node, (Add, Mul)):
        return
    kids = node.terms if isinstance(node, Add) else node.factors
    assert len(kids) >= 2
    assert not any(isinstance(k, type(node)) for k in kids)
    rest = kids[1:] if isinstance(kids[0], Rational) else kids
    assert not any(isinstance(k, Rational) for k in rest)
    if isinstance(node, Add):
        assert kids[0] is not ZERO
        monos = [_monomial(k) for k in rest]
        keys = [m._key for m in monos]
        assert keys == sorted(keys) and len(set(monos)) == len(monos)
    else:
        assert kids[0] not in (ZERO, ONE)
        bases = [k.base if isinstance(k, Pow) else k for k in rest]
        assert len(set(bases)) == len(bases)


@settings(max_examples=150, deadline=None)
@given(st.lists(trees, min_size=1, max_size=3), st.sampled_from([-2, -1, 2, 0.5, Fraction(1, 3)]))
def test_every_node_is_in_canonical_form(args, q):
    for build in (lambda: add(*args), lambda: mul(*args), lambda: pow_(args[0], q)):
        root = _built(build)
        for node in _postorder(root) if root is not None else ():
            _check_canonical(node)


def _key_of(build):
    try:
        return build()._key
    except ZeroDivisionError:
        return None


@settings(max_examples=150, deadline=None)
@given(trees, trees, st.sampled_from([-2, -1, 2, 0.5, 0.1, 1e-12]))
def test_constructors_agree_with_a_warm_and_a_cleared_memo(a, b, q):
    # the memo is warm from building the trees and from earlier examples;
    # a float exponent and the equal Fraction must not share an entry
    builds = [lambda: add(a, b), lambda: mul(a, b), lambda: pow_(a, q),
              lambda: pow_(a, Fraction(q)), lambda: pow_(mul(a, b), q)]
    warm = [_key_of(build) for build in builds]
    for build, key in zip(builds, warm):
        clear_memo()
        assert _key_of(build) == key


@settings(max_examples=100, deadline=None)
@given(st.lists(trees, min_size=1, max_size=3))
def test_node_table_lists_children_before_parents(args):
    # the one-pass sweep of clear_memo relies on this order
    steps = [lambda: add(*args), clear_memo, lambda: diff(mul(*args), x),
             lambda: normal(pow_(add(*args), -1)), clear_memo]
    for step in steps:
        _built(step)
        _assert_children_first()


def _assert_children_first():
    nodes = list(symexpr._NODES.values())
    place = {id(node): i for i, node in enumerate(nodes)}
    for i, node in enumerate(nodes):
        assert all(place[id(kid)] < i for kid in _children(node))


@settings(max_examples=200, deadline=None)
@given(shared_trees, trees, trees)
def test_diff_and_subs_match_reference_walkers(e, a, b):
    assert _outcome(diff, (e, x)) == _outcome(reference_diff, (e, "x"))
    assert _outcome(diff, (e, y, 2)) == _outcome(
        lambda f: reference_diff(reference_diff(f, "y"), "y"), (e,))
    assert _outcome(subs, (e, {x: a, y: b})) == _outcome(
        reference_subs, (e, {"x": a, "y": b}))


def test_postorder_lists_each_distinct_node_once_children_first():
    # sin(1 + x) is built twice, one node, and x occurs three times
    e = add(mul(y, sin(add(x, 1))), mul(x, sin(add(1, x))))
    inner = add(x, 1)
    s = sin(inner)
    left, right = mul(x, s), mul(y, s)
    assert e.terms == (left, right)
    assert _postorder(e) == [x, ONE, inner, s, left, y, right, e]


_NODE_TABLE_AFTER_ALL = """
import sys
sys.path.insert(0, sys.argv[1])
from cliffeph import plotcli, symexpr
plotcli._usable_cpus = lambda: 1  # one process, so this one builds every node
status = plotcli.cli_main(["all", "--format", "jsonl", "--out", sys.argv[2]])
print(status, len(symexpr._NODES),
      *(f.cache_info().currsize for f in (symexpr.add, symexpr.mul, symexpr.pow_)))
"""


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_one_process_cliffeph_all_leaves_the_documented_node_table(tmp_path, version):
    # A constructor fast path that built extra or different nodes would
    # change the count that the module docstring gives, and a memo left
    # full would hold its arguments alive after the build.  The sweep
    # reads reference counts, so an interpreter that counts them otherwise
    # shows here as a changed count.
    running = "%d.%d" % sys.version_info[:2]
    python = sys.executable if version == running else _interpreter(version)
    if python is None:
        pytest.skip("no working python%s on PATH or under ~/.pyenv/versions" % version)
    src = os.path.dirname(os.path.dirname(os.path.abspath(symexpr.__file__)))
    proc = subprocess.run([python, "-I", "-B", "-c", _NODE_TABLE_AFTER_ALL, src, str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "leaves 683 of its 2,821 nodes" in symexpr.__doc__
    assert proc.stdout.splitlines()[-1].split() == ["0", "683", "0", "0", "0"]
