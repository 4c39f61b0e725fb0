import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cliffeph import (
    CliffordError,
    MetricMismatchError,
    MetricSpec,
    Multivector,
    NegativeNormSquareError,
    NonScalarSquareError,
    NotAVectorError,
    NotScalarError,
    ZeroNormError,
    clifford_bar,
    clifford_inverse,
    clifford_norm,
    clifford_prime,
    clifford_star,
    clifford_to_lst,
    clifford_unit,
    clifford_units,
    dirac_ONE,
    lst_to_clifford,
    norm_square,
    rational,
    remove_dirac_ONE,
    sqrt,
    symbol,
)
from cliffeph.cliffalg import _canonical_blade
from cliffeph.symexpr import ONE, ZERO, add, mul, normal, symbols

from conftest import (
    all_blades,
    blade_permutation,
    dense,
    dense_blade_matrix,
    generator_matrices,
    make_rng,
    matmul,
    random_multivector,
    reference_mv_mul,
    represent,
    signed_permutation,
)

ELLIPTIC = MetricSpec.diag(-1, -1)
PARABOLIC = MetricSpec.diag(-1, 0)
HYPERBOLIC = MetricSpec.diag(-1, 1)


class TestUnits:
    @pytest.mark.parametrize(
        "metric,squares",
        [
            (ELLIPTIC, (-1, -1)),
            (PARABOLIC, (-1, 0)),
            (HYPERBOLIC, (-1, 1)),
            (MetricSpec.diag(1, -1, 0, 2), (1, -1, 0, 2)),
        ],
    )
    def test_unit_squares(self, metric, squares):
        for k, sq in enumerate(squares):
            e = clifford_unit(k, metric)
            assert remove_dirac_ONE(e * e) == rational(sq)

    def test_anticommutation(self):
        e0, e1 = clifford_units(HYPERBOLIC)
        assert (e0 * e1 + e1 * e0).is_zero()

    def test_nondiagonal_symbolic_metric(self):
        g = symbol("g")
        metric = MetricSpec([[rational(-1), g], [g, rational(1)]])
        e0, e1 = clifford_units(metric)
        s = remove_dirac_ONE(e0 * e1 + e1 * e0)
        assert s == rational(2) * g

    @pytest.mark.parametrize(
        "blade,error",
        [((1, 0), ValueError), ((0, 0), ValueError), ((-1,), IndexError), ((0.5,), TypeError)],
    )
    def test_non_canonical_blade_rejected(self, blade, error):
        # (1, 0) would be a second, unequal spelling of -e0e1 and (-1,)
        # a generator that does not exist
        with pytest.raises(error):
            Multivector(HYPERBOLIC, {blade: ONE})

    @pytest.mark.parametrize(
        "blade,error", [((1, 0), ValueError), ((0, 0), ValueError), ((-1,), IndexError)]
    )
    def test_coeff_rejects_non_canonical_blade(self, blade, error):
        # (e0*e1).coeff((1, 0)) used to answer 0, though (1, 0) names -e0e1
        e0, e1 = clifford_units(HYPERBOLIC)
        with pytest.raises(error):
            (e0 * e1).coeff(blade)

    def test_non_integer_unit_rejected(self):
        # clifford_unit(0.5, m) used to print as (1)*e0 and fail only when
        # it was multiplied
        with pytest.raises(TypeError, match=r"\(0\.5,\)"):
            clifford_unit(0.5, HYPERBOLIC)

    @pytest.mark.parametrize("k,error", [(5.5, TypeError), (5, IndexError)])
    def test_unit_index_named_in_error(self, k, error):
        # both used to say "generator index 5 out of range 0..1"
        with pytest.raises(error, match=re.escape("(%r,)" % (k,))):
            clifford_unit(k, HYPERBOLIC)

    def test_non_square_metric_rejected(self):
        with pytest.raises(ValueError, match="square matrix"):
            MetricSpec([[1, 0]])

    def test_constructor_coerces_coefficients(self):
        # plain numbers used to be stored as given: a zero 0 was kept as a
        # term and 1 made a multivector unequal to dirac_ONE
        assert Multivector(HYPERBOLIC, {(): 0}).is_zero()
        assert Multivector(HYPERBOLIC, {(): 1}) == dirac_ONE(HYPERBOLIC)
        assert Multivector(HYPERBOLIC, {(0,): Fraction(3, 2)}).coeff((0,)) == rational(3, 2)
        with pytest.raises(TypeError):
            Multivector(HYPERBOLIC, {(0,): "a"})

    def test_metric_mismatch_raises(self):
        with pytest.raises(MetricMismatchError):
            clifford_unit(0, ELLIPTIC) * clifford_unit(0, HYPERBOLIC)


class TestInvolutions:
    def test_prime_flips_odd_grades(self):
        e0, e1 = clifford_units(ELLIPTIC)
        m = dirac_ONE(ELLIPTIC) + e0 + e0 * e1
        p = clifford_prime(m)
        assert p.coeff(()) == ONE
        assert p.coeff((0,)) == rational(-1)
        assert p.coeff((0, 1)) == ONE

    def test_star_fixes_vectors(self):
        e0, e1 = clifford_units(HYPERBOLIC)
        m = e0 + e1
        assert clifford_star(m) == m
        assert clifford_star(e0 * e1).coeff((0, 1)) == rational(-1)

    def test_bar_is_star_after_prime(self):
        rng = make_rng(11)
        for metric in (ELLIPTIC, PARABOLIC, HYPERBOLIC):
            for _ in range(10):
                m = random_multivector(metric, rng)
                assert clifford_bar(m) == clifford_star(clifford_prime(m))


class TestReferenceProduct:
    """The product against the per-term rewrite it replaced, term by
    term with ==, over symbolic coefficients and symbolic metrics."""

    P, G, Q, R, X, Y = symbols("p g q r x y")
    METRICS = [
        ELLIPTIC,
        PARABOLIC,
        HYPERBOLIC,
        MetricSpec([[1, 2, 0], [-1, 0, 3], [5, 1, -2]]),
        MetricSpec([[P, G], [Q, R]]),
        MetricSpec([[P, G, 0], [Q, R, 1], [X, 0, -1]]),
    ]
    COEFFS = [X, Y, add(X, Y), add(mul(X, Y), ONE), rational(1), rational(-2), rational(3, 2)]

    def random_multivector(self, metric, rng):
        return Multivector(metric, {
            b: rng.choice(self.COEFFS) for b in all_blades(metric.n) if rng.random() < 0.5
        })

    @pytest.mark.parametrize("metric", METRICS, ids=repr)
    def test_product_equals_reference(self, metric):
        rng = make_rng(metric.n)
        for _ in range(40):
            a, b = self.random_multivector(metric, rng), self.random_multivector(metric, rng)
            assert a * b == reference_mv_mul(a, b)


class TestMatrixOracle:
    """Exact check against a faithful matrix representation built from
    Kronecker products of 2x2 blocks."""

    @pytest.mark.parametrize(
        "signs", [(-1, -1), (-1, 1), (1, 1), (-1, -1, 1), (1, -1, 1)]
    )
    def test_product_against_representation(self, signs):
        metric = MetricSpec.diag(*signs)
        gens = generator_matrices(signs)
        rng = make_rng(hash(signs) & 0xFFFF)
        for _ in range(20):
            a = random_multivector(metric, rng)
            b = random_multivector(metric, rng)
            lhs = represent(a * b, gens)
            rhs = matmul(represent(a, gens), represent(b, gens))
            assert lhs == rhs

    @pytest.mark.parametrize("signs", [
        (-1,), (1,), (-1, -1), (-1, 1), (1, 1), (-1, -1, -1), (-1, 1, 1),
        (-1, -1, 1), (1, -1, 1),
    ])
    def test_signed_permutation_blades_equal_dense_products(self, signs):
        # the oracle's fast blade matrices against the dense Kronecker
        # products, in both multiplication orders
        gens = generator_matrices(signs)
        perms = [signed_permutation(g) for g in gens]
        dim = len(gens[0])
        for blade in all_blades(len(signs)):
            for reverse in (False, True):
                fast = blade_permutation(blade, perms, dim, reverse)
                assert dense(*fast) == dense_blade_matrix(blade, gens, reverse)

    def test_involutions_against_representation(self):
        signs = (-1, 1)
        metric = MetricSpec.diag(*signs)
        gens = generator_matrices(signs)
        rng = make_rng(7)
        for _ in range(20):
            m = random_multivector(metric, rng)
            assert represent(clifford_prime(m), gens) == represent(
                m, gens, negate=True
            )
            assert represent(clifford_star(m), gens) == represent(
                m, gens, reverse=True
            )
            assert represent(clifford_bar(m), gens) == represent(
                m, gens, reverse=True, negate=True
            )


class TestNormInverse:
    def test_euclidean_norm(self):
        metric = MetricSpec.diag(-1, -1)
        e0, e1 = clifford_units(metric)
        m = e0.scale(3) + e1.scale(4)
        assert norm_square(m) == rational(25)
        assert clifford_norm(m) == rational(5)

    def test_negative_norm_square_has_no_norm(self):
        e0, _ = clifford_units(MetricSpec.diag(1, 1))
        with pytest.raises(NegativeNormSquareError, match="norm square -1 is negative"):
            clifford_norm(e0)

    def test_zero_norm_square_has_norm_zero(self):
        e0, e1 = clifford_units(MetricSpec.diag(-1, 0))
        assert clifford_norm(e1) is ZERO  # a null vector of the degenerate metric
        assert clifford_norm(e0.scale(0)) is ZERO

    def test_negative_fraction_norm_square_has_no_norm(self):
        e0, _ = clifford_units(MetricSpec.diag(1, 1))
        with pytest.raises(NegativeNormSquareError, match="norm square -1/4 is negative"):
            clifford_norm(e0.scale(rational(1, 2)))

    def test_norm_of_a_positive_symbol_is_its_root(self):
        p = symbol("p", positive=True)
        e0, _ = clifford_units(MetricSpec.diag(-p, -1))
        assert norm_square(e0) == p
        assert clifford_norm(e0) == sqrt(p)

    def test_norm_of_a_positive_square_is_its_base(self):
        # was (p**2)**(1/2): pow_ folded a power of a power only for a root
        p = symbol("p", positive=True)
        e0, _ = clifford_units(MetricSpec.diag(-p * p, -1))
        assert clifford_norm(e0) is p

    def test_norm_square_of_undeclared_sign_has_no_norm(self):
        e0, _ = clifford_units(MetricSpec.diag(-symbol("q"), -1))
        with pytest.raises(NonScalarSquareError, match="norm square q has no declared sign"):
            clifford_norm(e0)

    @pytest.mark.parametrize("square", [
        pytest.param(lambda p: 2 * p, id="2p"),
        pytest.param(lambda p: p * p, id="p^2"),
    ])
    def test_norm_square_positive_by_construction_has_a_root(self, square):
        sq = square(symbol("p", positive=True))
        e0, _ = clifford_units(MetricSpec.diag(-sq, -1))
        assert norm_square(e0) == sq
        assert clifford_norm(e0) == sqrt(sq)

    @pytest.mark.parametrize("square", [
        pytest.param(lambda p: -p, id="-p"),
        pytest.param(lambda p: p - 1, id="p-1"),
    ])
    def test_norm_square_of_no_sign_rule_has_no_norm(self, square):
        sq = square(symbol("p", positive=True))
        e0, _ = clifford_units(MetricSpec.diag(-sq, -1))
        assert norm_square(e0) == sq
        with pytest.raises(NonScalarSquareError, match="has no declared sign"):
            clifford_norm(e0)

    def test_non_scalar_product_has_no_norm_square(self):
        metric = MetricSpec.diag(-1, -1, -1)
        e0, e1, e2 = clifford_units(metric)
        with pytest.raises(NonScalarSquareError, match="is not a scalar"):
            norm_square(dirac_ONE(metric) + e0 * e1 * e2)

    def test_inverse_of_unit(self):
        e0, _ = clifford_units(ELLIPTIC)
        assert clifford_inverse(e0) == -e0

    def test_parabolic_nilpotent_has_no_inverse(self):
        _, e1 = clifford_units(PARABOLIC)
        with pytest.raises(ZeroNormError):
            clifford_inverse(e1)

    def test_random_inverses(self):
        rng = make_rng(23)
        for metric in (ELLIPTIC, HYPERBOLIC):
            one = dirac_ONE(metric)
            count = 0
            while count < 25:
                m = random_multivector(metric, rng)
                try:
                    inv = clifford_inverse(m)
                except CliffordError:
                    continue
                assert m * inv == one
                count += 1


class TestVectorConversion:
    def test_roundtrip_elliptic(self):
        units = clifford_units(ELLIPTIC)
        v = [rational(2, 3), rational(-5)]
        assert clifford_to_lst(lst_to_clifford(v, units), units) == v

    def test_roundtrip_parabolic_symbolic(self):
        e0, e1 = clifford_units(PARABOLIC)
        v = [rational(2), symbol("s")]
        for units in ((e0, e1), (e0.scale(2), e1.scale(rational(-1, 3)))):
            assert clifford_to_lst(lst_to_clifford(v, units), units) == v

    def test_units_must_be_multiples_of_one_generator(self):
        e0, e1 = clifford_units(ELLIPTIC)
        for units in ((e0 + e1, e0 - e1), (e0, e0 * e1)):
            with pytest.raises(NotAVectorError):
                clifford_to_lst(lst_to_clifford([rational(1), rational(2)], units), units)

    def test_units_must_be_distinct_generators(self):
        # (e0, e0) used to return [0, 0] for the zero multivector, and
        # lst_to_clifford used to build (3)*e0 from them
        e0, _ = clifford_units(ELLIPTIC)
        for m in (Multivector(ELLIPTIC, {}), e0):
            with pytest.raises(NotAVectorError):
                clifford_to_lst(m, (e0, e0))
        with pytest.raises(NotAVectorError):
            lst_to_clifford([1, 2], (e0, e0))

    def test_lst_to_clifford_reads_units_by_the_same_rule(self):
        # lst_to_clifford([1, 2], (e0 + e1, e0 - e1)) used to be (3)*e0 + (-1)*e1
        e0, e1 = clifford_units(ELLIPTIC)
        for units in ((e0 + e1, e0 - e1), (e0, e0 * e1), (e0.scale(0), e1)):
            with pytest.raises(NotAVectorError):
                lst_to_clifford([1, 2], units)

    def test_roundtrip_symbolic_unit(self):
        a, b, x, y = symbols("a b x y")
        e0, e1 = clifford_units(ELLIPTIC)
        units = (e0.scale(add(a, b)), e1)
        v = [x, add(mul(x, y), ONE)]
        got = clifford_to_lst(lst_to_clifford(v, units), units)
        assert all(normal(add(g, mul(rational(-1), w))) is ZERO for g, w in zip(got, v))

    @pytest.mark.parametrize("convert", [
        lambda: lst_to_clifford([], ()),
        lambda: clifford_to_lst(dirac_ONE(ELLIPTIC), ()),
    ], ids=["lst_to_clifford", "clifford_to_lst"])
    def test_no_units_rejected(self, convert):
        with pytest.raises(ValueError, match="no units given"):
            convert()

    def test_bivector_is_not_a_vector(self):
        e0, e1 = clifford_units(ELLIPTIC)
        with pytest.raises(NotAVectorError):
            clifford_to_lst(e0 * e1, (e0, e1))

    def test_remove_dirac_one_rejects_vectors(self):
        e0, _ = clifford_units(ELLIPTIC)
        with pytest.raises(NotScalarError):
            remove_dirac_ONE(e0)


def test_scalar_coercion_in_arithmetic():
    one = dirac_ONE(ELLIPTIC)
    m = one + Fraction(1, 2)
    assert m.coeff(()) == rational(3, 2)
    assert (one * 4).coeff(()) == rational(4)


# Products, sums and scalings build their results without the constructor's
# checks; over diagonal and non-diagonal, numeric and symbolic metrics they
# must be what the public constructor would build from the same terms.
_G = symbol("g")
_METRICS = (ELLIPTIC, PARABOLIC, HYPERBOLIC, MetricSpec.diag(1, -1, 0),
            MetricSpec([[-1, _G], [_G, 1]]), MetricSpec([[1, 2, 0], [-2, 0, _G], [0, 1, -1]]))
_COEFFS = st.one_of(st.integers(-3, 3), st.sampled_from([_G, -_G, _G * _G, rational(1, 2)]))
_OPS = {
    "mul": lambda a, b, k: a * b,
    "add": lambda a, b, k: a + b,
    "sub": lambda a, b, k: a - b,
    "scale": lambda a, b, k: a.scale(k),
    "div": lambda a, b, k: a / k if k != 0 else -a,
    "mul-add": lambda a, b, k: a * b + b * a.scale(k),
}


@st.composite
def _internal_results(draw):
    metric = draw(st.sampled_from(_METRICS))
    mvs = st.dictionaries(st.sampled_from(all_blades(metric.n)), _COEFFS, max_size=4).map(
        lambda terms: Multivector(metric, terms))
    a = draw(mvs)
    b = draw(st.one_of(mvs, st.just(a), st.just(-a)))  # a - a, a + -a cancel
    return _OPS[draw(st.sampled_from(sorted(_OPS)))](a, b, draw(_COEFFS))


@settings(max_examples=150, deadline=None)
@given(_internal_results())
def test_internal_results_are_what_the_constructor_builds(m):
    assert Multivector(m.metric, m.terms) == m
    assert all(type(b) is tuple and _canonical_blade(b, m.metric) == b for b in m.terms)
    assert ZERO not in m.terms.values()
