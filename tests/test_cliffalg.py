from fractions import Fraction

import pytest

from cliffeph import (
    CliffordError,
    MetricMismatchError,
    MetricSpec,
    Multivector,
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
    symbol,
)
from cliffeph.symexpr import ONE, ZERO

from conftest import (
    all_blades,
    blade_permutation,
    dense,
    dense_blade_matrix,
    generator_matrices,
    make_rng,
    matmul,
    random_multivector,
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
        "blade,error", [((1, 0), ValueError), ((0, 0), ValueError), ((-1,), IndexError)]
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

    def test_roundtrip_parabolic_uses_fallback(self):
        units = clifford_units(PARABOLIC)
        v = [rational(2), symbol("s")]
        assert clifford_to_lst(lst_to_clifford(v, units), units) == v

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
