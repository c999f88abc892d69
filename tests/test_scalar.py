"""Cyclotomic arithmetic and the exponential isomorphism gamma.

Derived expected values are computed by independent oracles first: the
complex embedding for ring identities, brute-force multiplicative order for
gamma_inverse.
"""

import pytest
from hypothesis import given, settings

from conftest import assert_close, cyclotomics, embed_complex, exponent_classes

from fuchskit.errors import DivisionByZero, NotRootOfUnity
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, ExponentClass, gamma, gamma_inverse


def brute_force_order(x, bound=240):
    """Independent oracle: smallest m >= 1 with x^m = 1, by repeated
    multiplication."""
    acc = x
    for m in range(1, bound + 1):
        if acc == 1:
            return m
        acc = acc * x
    return None


class TestCyclotomic:
    def test_zeta4_squared_is_minus_one(self):
        # oracle first: numerically zeta_4^2 = -1
        z4 = Cyclotomic.root_of_unity(4)
        assert_close(embed_complex(z4) ** 2, -1)
        assert z4 * z4 == Cyclotomic.from_rat(-1)

    def test_add_zero_identity(self):
        z12 = Cyclotomic.root_of_unity(12, 5)
        assert z12 + Cyclotomic.zero() == z12

    def test_inverse_of_zeta3(self):
        z3 = Cyclotomic.root_of_unity(3)
        # oracle: zeta_3^3 = 1, so the inverse is zeta_3^2
        assert z3 ** 3 == Cyclotomic.one()
        assert z3.inverse() == z3 ** 2
        assert z3 * z3.inverse() == Cyclotomic.one()

    def test_inverse_of_zero_raises(self):
        with pytest.raises(DivisionByZero):
            Cyclotomic.zero().inverse()

    def test_cross_conductor_equality(self):
        z6 = Cyclotomic.root_of_unity(6)
        z3 = Cyclotomic.root_of_unity(3)
        assert z6 == -(z3 ** 2)
        assert z6 != z3

    def test_rational_demotion(self):
        z3 = Cyclotomic.root_of_unity(3)
        s = z3 + z3 ** 2  # equals -1
        assert s.n == 1 and s.rational_value == -1

    @pytest.mark.parametrize("n", [1, 7, 12, 2003])
    def test_rational_factor_matches_general_product(self, n):
        # oracle: convolution of the coordinate vectors with the embedded
        # rational, reduced and demoted by the constructor
        def general_product(x, r):
            b = [(0, Rat(r))]
            prod = [Rat(0)] * (2 * len(x.c) - 1)
            for i, xi in enumerate(x.c):
                for j, bj in b:
                    prod[i + j] += xi * bj
            return Cyclotomic(x.n, prod)

        phi = len(Cyclotomic(n, [0, 1]).c) if n > 1 else 1
        x = Cyclotomic(n, [Rat(i % 5 - 2, i % 3 + 1) for i in range(phi)])
        assert x.n == n
        for r in (Rat(0), Rat(1), Rat(-3, 7), 5):
            expected = general_product(x, r)
            for got in (x * Cyclotomic.from_rat(r), Cyclotomic.from_rat(r) * x, x * r, r * x):
                assert (got.n, got.c) == (expected.n, expected.c)
        zero = x * Cyclotomic.zero()
        assert (zero.n, zero.c) == (1, (Rat(0),))

    @given(cyclotomics(), cyclotomics())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_matches_complex_embedding(self, x, y):
        assert_close(embed_complex(x + y), embed_complex(x) + embed_complex(y), 1e-6)
        assert_close(embed_complex(x * y), embed_complex(x) * embed_complex(y), 1e-6)

    @given(cyclotomics(), cyclotomics(), cyclotomics())
    @settings(max_examples=40, deadline=None)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert x * x.inverse() == Cyclotomic.one()

    @given(cyclotomics())
    @settings(max_examples=40, deadline=None)
    def test_embedding_is_injective_ring_map(self, x):
        m = x.n * 3
        e = x.embed(m)
        assert e == x
        assert e.is_zero == x.is_zero
        assert (x * x).embed(m) == e * e


class TestExponentClass:
    def test_representative_in_unit_interval(self):
        assert ExponentClass(Rat(7, 2)).value == Rat(1, 2)
        assert ExponentClass(Rat(-1, 3)).value == Rat(2, 3)
        assert ExponentClass(0).value == 0

    def test_addition_mod_one(self):
        a, b = ExponentClass(Rat(2, 3)), ExponentClass(Rat(2, 3))
        assert (a + b).value == Rat(1, 3)
        assert (-a).value == Rat(1, 3)

    def test_zero_class_negation(self):
        assert (-ExponentClass(0)).value == 0


class TestGamma:
    def test_gamma_of_zero(self):
        assert gamma(0) == Cyclotomic.one()

    def test_gamma_of_one_half(self):
        assert gamma(Rat(1, 2)) == Cyclotomic.from_rat(-1)

    def test_homomorphism_thirds(self):
        assert gamma(Rat(1, 3)) * gamma(Rat(2, 3)) == Cyclotomic.one()

    @given(exponent_classes, exponent_classes)
    @settings(max_examples=60, deadline=None)
    def test_homomorphism(self, a, b):
        assert gamma(a + b) == gamma(a) * gamma(b)

    def test_gamma_inverse_trivial(self):
        assert gamma_inverse(Cyclotomic.one()) == ExponentClass(0)

    def test_gamma_inverse_minus_one(self):
        # oracle: order of -1 is 2, and (-1)^1 = -1, so the class is 1/2
        assert brute_force_order(Cyclotomic.from_rat(-1)) == 2
        assert gamma_inverse(Cyclotomic.from_rat(-1)) == ExponentClass(Rat(1, 2))

    def test_gamma_inverse_of_two_raises(self):
        assert brute_force_order(Cyclotomic.from_rat(2)) is None
        with pytest.raises(NotRootOfUnity):
            gamma_inverse(Cyclotomic.from_rat(2))

    def test_gamma_inverse_of_zero_raises(self):
        with pytest.raises(NotRootOfUnity):
            gamma_inverse(Cyclotomic.zero())

    @given(exponent_classes)
    @settings(max_examples=60, deadline=None)
    def test_inverse_roundtrip(self, a):
        lam = gamma(a)
        # cross-check the order against the brute-force oracle
        assert brute_force_order(lam) == int(a.value.denominator)
        assert gamma_inverse(lam) == a
