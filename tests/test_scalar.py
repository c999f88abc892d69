"""Cyclotomic arithmetic and the exponential isomorphism gamma.

Derived expected values are computed by independent oracles first: the
complex embedding for ring identities, brute-force multiplicative order for
gamma_inverse.
"""

import hashlib
import random
from math import gcd, lcm

import pytest
from hypothesis import given, settings

from conftest import assert_close, cyclotomics, embed_complex, exponent_classes, run_child

from fuchskit.errors import DivisionByZero, NotRootOfUnity
from fuchskit.ratio import Rat
from fuchskit import scalar
from fuchskit.scalar import (
    Cyclotomic,
    ExponentClass,
    _divmod_monic,
    _normal,
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


def _ref_power(k, m):
    """z^k in Q(zeta_m) by reducing the monomial x^k modulo Phi_m."""
    row = _divmod_monic([Rat(0)] * k + [Rat(1)], cyclotomic_polynomial(m))[1]
    return row + [Rat(0)] * (euler_phi(m) - len(row))


def _ref_coords(x, m):
    """Rational coordinates of x in Q(zeta_m), x.n | m, from its own
    coordinates and the reduced monomials z_m^(i m / n)."""
    acc = [Rat(0)] * euler_phi(m)
    for i, ci in enumerate(x.c):
        for j, pj in enumerate(_ref_power(i * (m // x.n), m)):
            acc[j] += ci * pj
    return acc


def _ref_result(m, coords):
    """(conductor, coordinates) under the label rule: the lcm label m,
    demoted only to 1 when the value is rational."""
    if not any(coords[1:]):
        return (1, (coords[0],))
    return (m, tuple(coords))


def _ref_ops(x, y):
    """Schoolbook Fraction sum, difference and product at lcm(x.n, y.n)."""
    m = lcm(x.n, y.n)
    a, b = _ref_coords(x, m), _ref_coords(y, m)
    prod = [Rat(0)] * (2 * len(a) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    prod = _divmod_monic(prod, cyclotomic_polynomial(m))[1]
    prod += [Rat(0)] * (euler_phi(m) - len(prod))
    return {
        "+": _ref_result(m, [u + v for u, v in zip(a, b)]),
        "-": _ref_result(m, [u - v for u, v in zip(a, b)]),
        "*": _ref_result(m, prod),
    }


KERNEL_CONDUCTORS = [1, 3, 4, 12, 15, 30, 60, 84]


def _random_element(rng, n):
    """A seeded element of Q(zeta_n): dense, sparse, integral, a root of
    unity, or a value of a subfield carried at the label n."""
    phi = euler_phi(n)
    kind = rng.randrange(5)
    if kind == 0:
        return Cyclotomic(n, [Rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(phi)])
    if kind == 1:
        return Cyclotomic(n, [Rat(rng.choice((0, 0, 1, -2, 5)), rng.choice((1, 2, 3))) for _ in range(phi)])
    if kind == 2:
        return Cyclotomic(n, [rng.randint(-3, 3) for _ in range(phi)])
    if kind == 3:
        return Cyclotomic.root_of_unity(n, rng.randrange(n))
    d = rng.choice([d for d in divisors(n)])
    return Cyclotomic(d, [Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(d))]).embed(n)


class TestIntegerKernel:
    """The integer-numerator kernel against Fraction schoolbook arithmetic
    reduced by Phi_n, with the label of every result pinned."""

    @pytest.mark.parametrize("n", KERNEL_CONDUCTORS)
    def test_same_conductor_matches_reference(self, n):
        self._check_pairs(random.Random(n), [(n, n)] * 12)

    def test_mixed_conductors_match_reference(self):
        rng = random.Random(7)
        pairs = [(a, b) for a in KERNEL_CONDUCTORS for b in KERNEL_CONDUCTORS if a != b]
        self._check_pairs(rng, pairs)

    @staticmethod
    def _check_pairs(rng, pairs):
        for na, nb in pairs:
            x, y = _random_element(rng, na), _random_element(rng, nb)
            ref = _ref_ops(x, y)
            for op, got in (("+", x + y), ("-", x - y), ("*", x * y)):
                assert (got.n, got.c) == ref[op], (x, y, op)
            m = lcm(x.n, y.n)
            assert (x == y) == (_ref_coords(x, m) == _ref_coords(y, m))
            assert x == x.embed(m) and (x - y == 0) == (x == y)
            if not x.is_zero:
                inv = x.inverse()
                assert inv.n == x.n
                assert _ref_ops(x, inv)["*"] == (1, (Rat(1),)), x

    def test_pinned_labels(self):
        z30, z12 = Cyclotomic.root_of_unity(30), Cyclotomic.root_of_unity(12)
        # zeta_30^2 = zeta_15 keeps the label 30
        x = z30 * z30
        assert (x.n, x.c) == (30, tuple(_ref_power(2, 30)))
        assert x == Cyclotomic.root_of_unity(15) and x.as_root_of_unity() == (15, 1)
        y = Cyclotomic(15, [Rat(i - 3, 2) for i in range(8)]) * z30 * z30
        assert y.n == 30 and y == Cyclotomic(15, [Rat(i - 3, 2) for i in range(8)]) * Cyclotomic.root_of_unity(15)
        # zeta_12^3 = i keeps the label 12, also as a sum with a Q(i) value
        i12 = z12 ** 3
        assert (i12.n, i12.c) == (12, tuple(_ref_power(3, 12)))
        s = i12 + Cyclotomic.root_of_unity(4)
        assert (s.n, s.c) == (12, tuple(2 * c for c in _ref_power(3, 12)))
        # only a rational value is demoted, and zero always to (1, (0,))
        assert ((z12 ** 6).n, (z12 ** 6).c) == (1, (Rat(-1),))
        assert ((s - s).n, (s - s).c) == (1, (Rat(0),))
        assert ((y * 0).n, (y * 0).c, (y * 0).is_zero) == (1, (Rat(0),), True)
        half = Cyclotomic(12, [Rat(1, 2), 0, 0, 0])
        assert (half.n, half.c) == (1, (Rat(1, 2),))

    def test_normal_form_is_unique(self):
        # one value reached by different routes has one encoding at a label
        z = Cyclotomic.root_of_unity(60, 7)
        a = (z * Rat(2, 3) + z * Rat(1, 3)) * Rat(6, 4) - z * Rat(1, 2)
        assert (a.n, a.c, a._num, a._den) == (z.n, z.c, z._num, z._den)
        b = Cyclotomic(84, [Rat(1, 6)] * 24)
        assert (b._den, gcd(b._den, *b._num)) == (6, 1)


def _expected_root(q, p, negated):
    """Minimal (order, exponent) of +-zeta_q^p: -zeta_q^p = zeta_2q^(2p+q)."""
    k, order = ((2 * p + q) % (2 * q), 2 * q) if negated else (p % q, q)
    g = gcd(k, order)
    return (order // g, k // g)


class TestRootsOfUnityRoundTrip:
    def test_every_root_up_to_120(self):
        for q in range(1, 121):
            for p in range(q):
                root = Cyclotomic.root_of_unity(q, p)
                assert root.as_root_of_unity() == _expected_root(q, p, False), (q, p)
                assert (-root).as_root_of_unity() == _expected_root(q, p, True), (q, p)

    @pytest.mark.parametrize("q", [1009, 2003, 4093])
    def test_large_prime_orders(self, q):
        rng = random.Random(q)
        for p in [0, 1, 2, q // 2, q - 2, q - 1] + rng.sample(range(q), 12):
            root = Cyclotomic.root_of_unity(q, p)
            assert root.as_root_of_unity() == _expected_root(q, p, False), (q, p)
            assert (-root).as_root_of_unity() == _expected_root(q, p, True), (q, p)
        # z^(q-1) = -(1 + z + ... + z^(q-2)) is the one power of a prime order
        # that is not a unit vector
        assert Cyclotomic.root_of_unity(q, q - 1)._num == (-1,) * (q - 1)
        assert (Cyclotomic.root_of_unity(q) * 2).as_root_of_unity() is None
        # 1 + z + ... + z^(q-2) = -z^(q-1) = zeta_2q^(q-2)
        assert Cyclotomic(q, [1] * (q - 1)).as_root_of_unity() == (2 * q, q - 2)


_RANK_ONE_SETUP = """
from fractions import Fraction
from fuchskit import exponents, mon, rank_one
n = int(sys.argv[1])
"""

_RANK_ONE_WORK = """
module = rank_one(Fraction(1, n))
sigma, exps = mon(module), exponents(module)
assert sigma.monodromy.data[0][0] == Cyclotomic.root_of_unity(n, -1)
assert [repr(e) for e in exps.entries] == [f"1/{n}"]
"""

_NO_ROOT_SETUP = """
from fuchskit.errors import EigenvalueNotFound
from fuchskit.linalg import poly_roots
p = [Cyclotomic.root_of_unity(2520) * -2] + [Cyclotomic.zero()] * 7 + [Cyclotomic.one()]
"""

_NO_ROOT_WORK = """
try:
    poly_roots(p)
except EigenvalueNotFound:
    pass
else:
    raise AssertionError("x^8 - 2 zeta_2520 has no root in Q or in the roots of unity")
"""


class TestLargePrimeConductor:
    # each in a child process: a dense table of the powers z^e would take
    # tens of gigabytes at 100003 and 200006

    def test_rank_one_mon_at_100003_stays_small(self):
        elapsed, rss_mb = run_child(_RANK_ONE_SETUP, _RANK_ONE_WORK, 100003)
        assert elapsed < 5, elapsed
        assert rss_mb < 50, rss_mb

    @pytest.mark.parametrize("n", [4006, 200006])
    def test_rank_one_mon_at_twice_a_prime_stays_small(self, n):
        # N - phi(N) = N/2 + 1: every power z^e with e >= phi(N) is a row
        elapsed, rss_mb = run_child(_RANK_ONE_SETUP, _RANK_ONE_WORK, n)
        assert elapsed < 2, elapsed
        assert rss_mb < 100, rss_mb

    def test_failing_eigenvalue_search_at_2520_stays_small(self):
        elapsed, rss_mb = run_child(_NO_ROOT_SETUP, _NO_ROOT_WORK)
        assert elapsed < 2, elapsed
        assert rss_mb < 100, rss_mb


class TestRootOfUnityPastPhi:
    """z^e for e >= phi(q) is the remainder of x^e by Phi_q, read off power
    series through the factors of Phi_q; the reference reduces x^e one
    degree at a time by _divmod_monic.  The conductors past 2310 have square
    factors, so Phi_q(x) = Phi_r(x^s) with s > 1."""

    @pytest.mark.parametrize("q", [105, 210, 1155, 2310, 60, 84, 360, 2520])
    def test_every_power_against_divmod_monic(self, q):
        cyclo, phi = cyclotomic_polynomial(q), euler_phi(q)
        power = [1] + [0] * (phi - 1)  # x^0 mod Phi_q
        for e in range(q):
            expected = _normal(q, list(power), 1)
            got = Cyclotomic.root_of_unity(q, e)
            assert (got.n, got._num, got._den) == (expected.n, expected._num, expected._den), (q, e)
            power = _divmod_monic([0] + power, cyclo)[1]
            power += [0] * (phi - len(power))

    @pytest.mark.parametrize("q, e", [(30030, 30029), (30030, 15014), (10010, 10009)])
    def test_composite_conductor_in_a_child(self, q, e):
        work = f"z = Cyclotomic.root_of_unity({q}, {e})"
        elapsed, rss_mb = run_child("", work)
        assert elapsed < 0.5, elapsed

    def test_rank_one_mon_at_30030(self):
        elapsed, rss_mb = run_child(_RANK_ONE_SETUP, _RANK_ONE_WORK, 30030)
        assert elapsed < 0.5, elapsed
        assert rss_mb < 100, rss_mb


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
        inputs += [Cyclotomic(n, [Rat(rng.randint(-1, 1)) for _ in z.c]) for _ in range(3)]
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


    @pytest.mark.parametrize("n", [1155, 2018, 2310, 2520])
    def test_conductors_with_many_non_unit_powers(self, n):
        # most powers z^e are reduced rows here, not unit vectors
        rng = random.Random(n)
        for p in [1, n // 2 - 1, n // 2 + 1, n - 1] + rng.sample(range(n), 12):
            root = Cyclotomic.root_of_unity(n, p)
            assert root.as_root_of_unity() == _expected_root(n, p, False), (n, p)
            assert (-root).as_root_of_unity() == _expected_root(n, p, True), (n, p)
            assert (root * 2).as_root_of_unity() is None, (n, p)
            if n // gcd(n, p) != 3:  # zeta_3 + 1 = -zeta_3^2
                assert (root + 1).as_root_of_unity() is None, (n, p)

    @pytest.mark.parametrize("n", [1155, 2018, 2310, 2520])
    def test_image_collision_is_rejected(self, n):
        # z^j + l has the image of z^j in F_l, so only the exact
        # confirmation tells them apart
        ell = scalar._prime_root(n)[0]
        for p in (1, n // 2 + 1, n - 1):
            for root in (Cyclotomic.root_of_unity(n, p), -Cyclotomic.root_of_unity(n, p)):
                assert (root + ell).n == n and (root + ell).as_root_of_unity() is None, (n, p)


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

    def test_tables_compute_once_per_key(self, monkeypatch):
        # keys no other test uses, so the first call computes
        calls = []
        factorize = scalar._factorize
        monkeypatch.setattr(scalar, "_factorize", lambda n: calls.append(n) or factorize(n))
        for fn, key in ((euler_phi, (7919 * 7927,)), (scalar.cyclotomic_polynomial, (3**7,)),
                        (scalar._prime_root, (3**7, 10**6))):
            first = fn(*key)
            assert key[0] in calls, fn.__name__
            seen = len(calls)
            assert fn(*key) is first and len(calls) == seen, fn.__name__

    def test_image_matches_horner(self):
        # the Horner loop Cyclotomic._image ran before it called _value_mod
        def horner(c, m, ell, w):
            v, acc = pow(w, m // c.n, ell), 0
            for x in reversed(c._num):
                acc = (acc * v + x) % ell
            return acc * pow(c._den, -1, ell) % ell

        rng = random.Random("image-horner")
        for n in range(1, 85):
            m = n * rng.choice([1, 2, 3])
            ell, w = scalar._prime_root(m)
            for _ in range(4):
                c = Cyclotomic(n, [Rat(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(euler_phi(n))])
                if c._den % ell:
                    assert c._image(m, ell, w) == horner(c, m, ell, w), (n, m)

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

    def test_cyclotomic_polynomials_multiply_to_x_n_minus_one(self):
        for n in range(1, 401):
            acc = [1]
            for d in divisors(n):
                acc = self._poly_mul(acc, cyclotomic_polynomial(d))
            assert acc == [-1] + [0] * (n - 1) + [1], n

    @pytest.mark.parametrize("n, digest", [
        (4006, "20247c10764e4f83cc7c3eb07846c4e03bd72e184827af633a3dc304c8c5c881"),
        (10010, "aa22d58c8c6be0b9077f964a65ca41bc2d9110af97e046ab41d172251b77a948"),
        (17640, "979c6794fa1fd20418b3044040b6f760c95b1b4bbfcf7be6eda959dc985eb15a"),
    ])
    def test_large_cyclotomic_polynomials_are_pinned(self, n, digest):
        # sha256 of the coefficient tuple's repr as computed by dividing
        # x^n - 1 by Phi_d for every proper divisor d, which takes seconds
        poly = cyclotomic_polynomial(n)
        assert len(poly) == euler_phi(n) + 1 and poly[-1] == 1
        assert hashlib.sha256(repr(poly).encode()).hexdigest() == digest

    def test_rational_embedding_builds_no_power_table(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a rational embedding must not reduce modulo Phi_m")

        monkeypatch.setattr(scalar, "_divmod_monic", refuse)
        m = 4093  # prime
        x = Cyclotomic.from_rat(Rat(-3, 7))
        num = x._embed_num(m)
        assert len(num) == m - 1 and (num[0], x._den) == (-3, 7) and not any(num[1:])
