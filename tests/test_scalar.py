"""Cyclotomic arithmetic and the exponential isomorphism gamma.

Derived expected values are computed by independent oracles first: the
complex embedding for ring identities, brute-force multiplicative order for
gamma_inverse.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings

from conftest import assert_close, cyclotomics, embed_complex, exponent_classes

from fuchskit.errors import DivisionByZero, NotRootOfUnity
from fuchskit.ratio import Rat
from fuchskit import scalar
from fuchskit.scalar import (
    Cyclotomic,
    ExponentClass,
    _divmod_monic,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
    gamma,
    gamma_inverse,
)


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


def brute_force_root(x):
    """Independent oracle: the first (q, p) with q | 2n ascending, p coprime
    to q, and x == zeta_q^p, compared as values; None when there is none."""
    for q in range(1, 2 * x.n + 1):
        if 2 * x.n % q == 0:
            for p in range(q):
                if gcd(p, q) == 1 and x == Cyclotomic.root_of_unity(q, p):
                    return (q, p)
    return None


class TestAsRootOfUnity:
    @pytest.mark.parametrize("n", list(range(1, 25)) + [60, 84])
    def test_matches_brute_force(self, n):
        rng = random.Random(n)
        z = Cyclotomic.root_of_unity(n)
        inputs = []
        for q in divisors(n):
            for p in range(q) if n <= 24 else rng.sample(range(q), min(q, 3)):
                root = Cyclotomic.root_of_unity(q, p).embed(n)  # non-minimal label when q < n
                inputs += [root, -root]
        inputs += [z + z, z * Rat(1, 2), z + Cyclotomic.one(), z * z + z, Cyclotomic.zero(), Cyclotomic.from_rat(2)]
        inputs += [Cyclotomic(n, [Rat(rng.randint(-1, 1)) for _ in z.c], _reduced=True) for _ in range(3)]
        for x in inputs:
            assert x.as_root_of_unity() == brute_force_root(x), x

    def test_negated_root_of_odd_conductor(self):
        # -zeta_3^2 = zeta_6^1: the order is 2n for a negated root at odd n
        assert (-Cyclotomic.root_of_unity(3, 2)).as_root_of_unity() == (6, 1)
        assert (-Cyclotomic.root_of_unity(15, 4)).as_root_of_unity() == (30, 23)

    def test_non_minimal_label(self):
        x = Cyclotomic.root_of_unity(4, 3).embed(12)
        assert x.n == 12 and x.as_root_of_unity() == (4, 3)

    def test_no_powering(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("as_root_of_unity must not raise to a power")

        monkeypatch.setattr(Cyclotomic, "__pow__", refuse)
        assert Cyclotomic.root_of_unity(84, 25).as_root_of_unity() == (84, 25)
        assert (Cyclotomic.root_of_unity(7) * 2).as_root_of_unity() is None


class TestNumberTheory:
    def test_divisors_and_phi_match_naive(self):
        bound = 3000
        phi = list(range(bound + 1))  # sieve oracle
        for p in range(2, bound + 1):
            if phi[p] == p:
                for k in range(p, bound + 1, p):
                    phi[k] -= phi[k] // p
        for n in range(1, bound + 1):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
            assert euler_phi(n) == phi[n]

    def test_large_prime_factors_use_pollard_rho(self, monkeypatch):
        p, q = 100003, 100019
        for r in (p, q):
            assert all(r % d for d in range(2, 317))  # both prime, above the trial bound
        calls = []
        rho = scalar._pollard_rho
        monkeypatch.setattr(scalar, "_pollard_rho", lambda m: calls.append(m) or rho(m))
        n = 12 * p * q
        assert divisors(n) == sorted(a * b * c for a in divisors(12) for b in (1, p) for c in (1, q))
        assert euler_phi(n) == 4 * (p - 1) * (q - 1)
        assert calls

    @staticmethod
    def _poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    @pytest.mark.parametrize("field", [int, Rat])
    def test_divmod_monic_reconstructs(self, field):
        rng = random.Random(5)
        dens = [cyclotomic_polynomial(n) for n in (1, 4, 12, 15)] + [[rng.randint(-3, 3) for _ in range(3)] + [1]]
        for den in dens:
            for length in range(0, 12):
                if field is int:
                    num = [rng.randint(-9, 9) for _ in range(length)]
                else:
                    num = [Rat(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(length)]
                q, r = _divmod_monic(num, den)
                assert len(r) <= len(den) - 1
                back = self._poly_mul(q, den) if q else [0]
                back = [a + (r[i] if i < len(r) else 0) for i, a in enumerate(back + [0] * len(num))]
                assert back[: len(num)] == num and not any(back[len(num):])

    def test_cyclotomic_polynomial_values(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)

    def test_rational_embedding_builds_no_power_table(self):
        m = 4093  # prime; no other test reaches this conductor
        assert m not in scalar._POWER_CACHE
        vec = Cyclotomic.from_rat(Rat(-3, 7))._embed_vec(m)
        assert m not in scalar._POWER_CACHE
        assert len(vec) == m - 1 and vec[0] == Rat(-3, 7) and not any(vec[1:])
