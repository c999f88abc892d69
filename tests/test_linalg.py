"""Exact matrices over the cyclotomics: charpoly, eigenvalues, Jordan form.

The characteristic polynomial, determinant and adjugate are checked against
an independent oracle (permutation expansion of det(xI - M) over the
polynomial ring, and of det(M) over the Laurent ring); Jordan data is
verified by exact reconstruction P^-1 M P = J.
"""

import random
import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _poly_mul, charpoly_oracle, cyclotomics, det_oracle, rational_roots_oracle, run_child

from fuchskit import jsonio, linalg
from fuchskit.errors import EigenvalueNotFound, NonSquare
from fuchskit.generate import Sizes, rand_laurent, rand_shearing_gauge
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import (
    Matrix,
    adjugate,
    charpoly,
    det_and_adjugate,
    det_cofactor,
    eigenvalues,
    integer_eigenvalues,
    jordan_block,
    jordan_form,
    poly_roots,
    rational_roots,
    _divide_linear,
    _jordan_elimination,
    _rational_reconstruction,
    _rational_roots_of,
    _root_candidates,
    _root_orders,
)
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, cyclotomic_polynomial, euler_phi

C = Cyclotomic.from_rat


class TestCharpoly:
    def test_nilpotent(self):
        m = Matrix([[C(0), C(1)], [C(0), C(0)]])
        assert charpoly(m) == [C(0), C(0), C(1)]

    def test_diagonal(self):
        a, b = C(Rat(1, 2)), C(3)
        m = Matrix([[a, C(0)], [C(0), b]])
        # (x - a)(x - b)
        assert charpoly(m) == [a * b, -(a + b), C(1)]

    def test_rotation(self):
        m = Matrix([[C(0), C(1)], [C(-1), C(0)]])
        assert charpoly(m) == [C(1), C(0), C(1)]

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            charpoly(Matrix([[C(1), C(0)]]))

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.lists(st.lists(cyclotomics(), min_size=n, max_size=n), min_size=n, max_size=n)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_permutation_oracle(self, rows):
        m = Matrix(rows)
        assert charpoly(m) == charpoly_oracle(m)

    @given(cyclotomics(), cyclotomics(), cyclotomics(), cyclotomics())
    @settings(max_examples=15, deadline=None)
    def test_cayley_hamilton(self, a, b, c, d):
        m = Matrix([[a, b], [c, d]])
        acc = Matrix.zeros(2, 2)
        power = Matrix.identity(2)
        for coeff in charpoly(m):
            acc = acc + power.scale(coeff)
            power = power * m
        assert acc == Matrix.zeros(2, 2)


class TestDeterminantAndAdjugate:
    """Over the Laurent ring, from seeded shearing gauges (unit determinant)
    and the same gauges plus a random Laurent matrix (any determinant)."""

    def test_against_permutation_oracle(self):
        rng = random.Random(7)
        sizes = Sizes()
        for dim in range(1, 7):
            h = rand_shearing_gauge(rng, sizes, dim)
            noise = Matrix([[rand_laurent(rng, sizes) for _ in range(dim)] for _ in range(dim)])
            for m in (h, h + noise):
                det = det_cofactor(m)
                assert det == det_oracle(m)
                ident = Matrix.identity(dim, LaurentPoly)
                assert adjugate(m) * m == ident.scale(det)
                assert m * adjugate(m) == ident.scale(det)

    def test_det_and_adjugate_from_one_charpoly(self):
        rng = random.Random(11)
        sizes = Sizes()
        for dim in range(1, 6):
            m = rand_shearing_gauge(rng, sizes, dim)
            assert det_and_adjugate(m) == (det_cofactor(m), adjugate(m))

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            det_cofactor(Matrix([[C(1), C(0)]]))


def _from_roots(roots):
    p = [Cyclotomic.one()]
    for lam in roots:
        p = _poly_mul(p, [-lam, Cyclotomic.one()])
    return p


def _assert_canonical(roots):
    keys = [lam.sort_key() for lam, _ in roots]
    assert keys == sorted(keys)


class TestPolyRoots:
    """One case per branch of the norm-free root search."""

    def test_rational_root_beside_cyclotomic_coefficients(self):
        z5 = Cyclotomic.root_of_unity(5)
        roots = poly_roots(_from_roots([C(Rat(1, 2)), z5]))
        assert roots == [(C(Rat(1, 2)), 1), (z5, 1)]
        _assert_canonical(roots)

    def test_order_coprime_to_conductor(self):
        # Phi_5(x) (x - zeta_3): the coprime order 5 is found from the
        # rational part of the coefficients
        z3 = Cyclotomic.root_of_unity(3)
        p = _poly_mul([C(c) for c in cyclotomic_polynomial(5)], [-z3, Cyclotomic.one()])
        roots = poly_roots(p)
        assert roots == [(z3, 1)] + [(Cyclotomic.root_of_unity(5, j), 1) for j in range(1, 5)]
        _assert_canonical(roots)

    def test_order_sharing_a_factor_with_conductor(self):
        # x^2 - i over Q(i): roots of order 8, which does not divide 4
        i = Cyclotomic.root_of_unity(4)
        roots = poly_roots([-i, C(0), C(1)])
        assert roots == [(Cyclotomic.root_of_unity(8, 1), 1), (Cyclotomic.root_of_unity(8, 5), 1)]
        _assert_canonical(roots)

    def test_prime_filter_skipped_on_its_denominator(self):
        # (x - 1/17)(x^2 - i): the filter for order 8 works modulo 17 and 41
        i = Cyclotomic.root_of_unity(4)
        roots = poly_roots(_poly_mul([C(Rat(-1, 17)), C(1)], [-i, C(0), C(1)]))
        assert roots == [(C(Rat(1, 17)), 1), (Cyclotomic.root_of_unity(8, 1), 1), (Cyclotomic.root_of_unity(8, 5), 1)]
        _assert_canonical(roots)

    def test_prime_filter_skipped_at_both_primes(self):
        # (x - 1/697)(x^2 - i), 697 = 17 * 41: neither prime filters order 8
        i = Cyclotomic.root_of_unity(4)
        roots = poly_roots(_poly_mul([C(Rat(-1, 697)), C(1)], [-i, C(0), C(1)]))
        assert roots == [(C(Rat(1, 697)), 1), (Cyclotomic.root_of_unity(8, 1), 1), (Cyclotomic.root_of_unity(8, 5), 1)]
        _assert_canonical(roots)

    @pytest.mark.parametrize("n, k", [(2520, 8), (420, 12)])
    def test_two_primes_leave_no_spurious_candidate(self, n, k):
        # x^k - 2 zeta_n has no root in Q or in the roots of unity; testing
        # every exponent at two distinct primes leaves nothing to build
        p = [Cyclotomic.root_of_unity(n) * -2] + [C(0)] * (k - 1) + [C(1)]
        assert list(_root_candidates(p)) == []

    def test_divide_linear_reconstructs(self):
        # quotient * (x - lam) + p(lam) = p, and p(lam) is the Horner value
        rng = random.Random(5)

        def coeff():
            n = rng.choice((1, 3, 4, 12))
            return Cyclotomic(n, [Rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(euler_phi(n))])

        for _ in range(30):
            p = [coeff() for _ in range(rng.randint(2, 6))]
            lam = coeff()
            quotient, value = _divide_linear(p, lam)
            assert len(quotient) == len(p) - 1
            rebuilt = _poly_mul(quotient, [-lam, C(1)])
            assert [rebuilt[0] + value] + rebuilt[1:] == p
            horner = p[-1]
            for c in p[-2::-1]:
                horner = horner * lam + c
            assert value == horner

    def test_repeated_root(self):
        z7 = Cyclotomic.root_of_unity(7)
        assert poly_roots(_from_roots([z7, z7])) == [(z7, 2)]

    def test_recovers_seeded_root_multisets(self):
        rng = random.Random(11)
        for _ in range(20):
            picks = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.3:
                    picks.append(C(Rat(rng.randint(-4, 4), rng.randint(1, 3))))
                else:
                    d = rng.choice([3, 4, 5, 6, 8, 10, 12])
                    picks.append(Cyclotomic.root_of_unity(d, rng.choice([j for j in range(1, d) if gcd(j, d) == 1])))
            expected = {}
            for lam in picks:
                expected[lam.sort_key()] = (lam, expected.get(lam.sort_key(), (lam, 0))[1] + 1)
            assert poly_roots(_from_roots(picks)) == [expected[k] for k in sorted(expected)]

    def test_irrational_roots_raise(self):
        with pytest.raises(EigenvalueNotFound):
            poly_roots([C(-2), C(0), C(1)])

    def test_search_bounded_by_degree_not_conductor_bound(self):
        # eigenvalues +-sqrt(2): the degree leaves only the orders 3, 4 and 6
        # to try, so the refusal is a quick decision
        m = Matrix([[C(0), C(2)], [C(1), C(0)]])
        start = time.perf_counter()
        with pytest.raises(EigenvalueNotFound, match="no root in Q or in the roots of unity$"):
            eigenvalues(m)
        assert time.perf_counter() - start < 1


def _int_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _int_from_roots(roots, lead=1):
    """lead * prod (t x - s) over the roots s/t, ascending integer
    coefficients."""
    p = [lead]
    for r in map(Rat, roots):
        p = _int_mul(p, [-r.numerator, r.denominator])
    return p


def _planted(rng, count, numerators, denominators, lead=1):
    """lead times the product of (t x - s)^k, k random in 1..4, over count
    random roots s/t."""
    roots = []
    for _ in range(count):
        r = Rat(rng.choice(numerators), rng.choice(denominators))
        roots += [r] * rng.randint(1, 4)
    return _int_from_roots(roots, lead)


# the product of (2520 x - j): each root has denominator 2520, and the end
# coefficients 2520^10 and the product of the j have so many divisors that
# the divisor-pair search had not finished after a minute
_J_2520 = (1, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class TestRationalRoots:
    """_rational_roots_of against the divisor search it replaced
    (conftest.rational_roots_oracle) on a seeded corpus."""

    @staticmethod
    def _agree(p):
        assert _rational_roots_of(p) == rational_roots_oracle(p), p

    def test_random_integer_polynomials(self):
        rng = random.Random(101)
        for _ in range(300):
            p = [rng.randint(-40, 40) for _ in range(rng.randint(1, 7))]
            p[-1] = p[-1] or 1
            self._agree(p)

    def test_random_rational_polynomials(self):
        rng = random.Random(102)
        for _ in range(200):
            p = [Rat(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(rng.randint(1, 7))]
            p[-1] = p[-1] or Rat(1, 7)
            self._agree(p)

    def test_planted_multiple_roots(self):
        # multiplicities 2-4 beside simple roots, now and then with a
        # quadratic factor that has no rational root
        rng = random.Random(103)
        for _ in range(150):
            p = _planted(rng, rng.randint(1, 3), range(-12, 13), range(1, 13), rng.choice([1, 2, -3]))
            if rng.random() < 0.3:
                p = _int_mul(p, [rng.choice([1, 2, 3, 5]), 0, 1])
            self._agree(p)
            self._agree([Rat(c, 6) for c in p])

    def test_root_zero_and_unit_roots(self):
        # 0 is read off the x^k factor; +-1 have |s| = t, and the exact
        # test is the only guard between them
        rng = random.Random(104)
        for _ in range(100):
            roots = [0] * rng.randint(0, 3) + [1] * rng.randint(0, 3) + [-1] * rng.randint(0, 3)
            roots += [Rat(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(0, 2))]
            p = _int_from_roots(roots, rng.choice([1, -1, 4]))
            self._agree(p)
            if rng.random() < 0.5:
                self._agree(_int_mul(p, [1, 0, 1]))
        assert _rational_roots_of(_int_from_roots([1, -1, 1])) == [-1, 1]
        assert _rational_roots_of([0, 0, 0, 3]) == [0]

    def test_constant_and_linear(self):
        for p in ([5], [Rat(-2, 3)], [0, 1], [0, Rat(5, 2)], [3, 7], [Rat(1, 2), Rat(-3, 4)], [-9, 6]):
            self._agree(p)
        assert _rational_roots_of([-9, 6]) == [Rat(3, 2)]
        assert _rational_roots_of([7]) == []

    def test_leads_divisible_by_3_5_7(self):
        # the least primes divide the leading coefficient, so the prime is
        # chosen past them
        rng = random.Random(105)
        for _ in range(150):
            p = _planted(rng, rng.randint(1, 3), range(-10, 11), [3, 5, 7, 9, 15, 21, 35, 49, 105])
            if rng.random() < 0.4:
                p = _int_mul(p, [rng.randint(1, 5), 0, 105])
            self._agree(p)

    def test_roots_congruent_modulo_small_primes(self):
        # 0 and 3 meet modulo 3 and 0 and 5 modulo 5; 1, 3, 4, 6, 8 meet
        # modulo 2, 3, 5 and 7, so a root mod l is double at every l < 11
        cases = [[0, 3], [0, 3, 5], [1, 3, 4, 6, 8], [1, 3, 4, 6, 8, 12, 14]]
        rng = random.Random(106)
        for _ in range(100):
            base = rng.randint(-5, 5)
            roots = [base + rng.choice([2, 3, 5, 7]) * rng.randint(1, 3) * k for k in range(rng.randint(2, 4))]
            cases.append([Rat(r, rng.choice([1, 11, 13])) for r in roots])
        for roots in cases:
            p = _int_from_roots(roots)
            self._agree(p)
            assert _rational_roots_of(p) == sorted(set(map(Rat, roots)))

    def test_prime_search_skips_double_roots_and_the_leading_coefficient(self, monkeypatch):
        # (3x - 1)(5x - 3)(7x - 6): 1/3 and 3/5 meet modulo 2, 3, 5 and 7
        # divide the leading coefficient, and 1/3 and 6/7 meet modulo 11, so
        # the roots are lifted from F_13
        moduli = []
        value = linalg._value_mod
        monkeypatch.setattr(linalg, "_value_mod", lambda p, x, m: moduli.append(m) or value(p, x, m))
        assert _rational_roots_of(_int_from_roots([Rat(1, 3), Rat(3, 5), Rat(6, 7)])) == [
            Rat(1, 3), Rat(3, 5), Rat(6, 7)]
        assert sorted({m for m in moduli if m < 100}) == [2, 11, 13]

    def test_product_over_2520(self):
        # too slow for the oracle; the roots are known
        p = _int_from_roots([Rat(j, 2520) for j in _J_2520])
        assert _rational_roots_of(p) == [Rat(j, 2520) for j in _J_2520]
        assert _rational_roots_of(_int_mul(p, p)) == [Rat(j, 2520) for j in _J_2520]
        assert rational_roots([C(c) for c in p]) == [Rat(j, 2520) for j in _J_2520]


_DOUBLE_EIGENVALUE_SETUP = """
from fuchskit.diffmod import DiffModule
from fuchskit.functors import exponents
from fuchskit.linalg import Matrix, jordan_block
from fuchskit.ratio import Rat
C = Cyclotomic.from_rat
s = Matrix([[C(1), C(0)], [C(1), C(1)]])
module = DiffModule.from_constant(s * jordan_block(C(Rat(1, 2**61 - 1)), 2) * s.inverse())
"""

_DOUBLE_EIGENVALUE_WORK = """
assert [repr(e) for e in exponents(module).entries] == ["1/2305843009213693951"] * 2
"""

_PRODUCT_2520_SETUP = f"""
from fuchskit.linalg import rational_roots
from fuchskit.ratio import Rat
p = [Cyclotomic.one()]
for j in {_J_2520}:
    p = [a * 2520 - b * j for a, b in zip([Cyclotomic.zero()] + p, p + [Cyclotomic.zero()])]
"""

_PRODUCT_2520_WORK = f"""
assert rational_roots(p) == [Rat(j, 2520) for j in {_J_2520}]
"""


class TestRationalRootCliffs:
    """Inputs whose end coefficients a divisor search must factor or whose
    divisor pairs run to millions, timed in a child process."""

    def test_double_eigenvalue_over_a_mersenne_prime(self):
        # the end coefficients of the charpoly are 1 and (2^61 - 1)^2
        elapsed, _ = run_child(_DOUBLE_EIGENVALUE_SETUP, _DOUBLE_EIGENVALUE_WORK)
        assert elapsed < 2, elapsed

    def test_product_over_2520(self):
        elapsed, _ = run_child(_PRODUCT_2520_SETUP, _PRODUCT_2520_WORK)
        assert elapsed < 2, elapsed


def _kernel_reconstruction_oracle(a, m, bound):
    """The reconstruction step _reconstructed made inline: (x, q) with
    x = q a (mod m) and |x|, q at most bound, or None."""
    if a <= bound:
        return a, 1
    if m - a <= bound:
        return a - m, 1
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _root_reconstruction_oracle(r, m, bound):
    """The reconstruction step _lifted_roots made inline."""
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


class TestRationalReconstruction:
    def test_matches_the_inline_loops(self):
        # the kernel lift's bound is sqrt(m/2) and rejects q past it; the
        # root lift's bound is |f_0|, any value below m
        rng = random.Random("rational-reconstruction")
        for _ in range(3000):
            m = rng.choice([rng.randint(2, 10**6), rng.randint(2, 2**29) * rng.randint(2, 2**29), 3 ** rng.randint(1, 60)])
            bound = isqrt(m >> 1)
            x, q = rng.randint(-bound, bound), rng.randint(1, max(bound, 1))
            a = rng.choice([
                x * pow(q, -1, m) % m if gcd(q, m) == 1 else rng.randrange(m),  # a small fraction
                rng.randrange(m),
                m - rng.randint(1, bound + 1),  # a > m/2, a small negative integer when within the bound
                rng.randint(0, bound),  # already within the bound
            ])
            got = _rational_reconstruction(a, m, bound)
            assert (got if got[1] <= bound else None) == _kernel_reconstruction_oracle(a, m, bound), (a, m)
            bound = rng.randrange(m)
            assert _rational_reconstruction(a, m, bound) == _root_reconstruction_oracle(a, m, bound), (a, m, bound)


def _totients(limit):
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


class TestRootOrders:
    def test_derived_orders_match_the_range_scan(self):
        # the range scan: every d in [3, 2 (phi(n) k)^2] with
        # phi(lcm(n, d)) <= phi(n) k, where phi(lcm) phi(gcd) = phi(n) phi(d)
        top_n, top_k = 60, 4
        phi = _totients(2 * (top_n * top_k) ** 2)
        for n in range(1, top_n + 1):
            for k in range(1, top_k + 1):
                width = phi[n] * k
                scan = [d for d in range(3, 2 * width**2 + 1)
                        if phi[n] * phi[d] <= width * phi[gcd(n, d)]]
                assert list(_root_orders(n, k)) == scan, (n, k)


class TestJordan:
    def test_nilpotent_block(self):
        m = Matrix([[C(0), C(1)], [C(0), C(0)]])
        jd = jordan_form(m)
        assert jd.blocks == [(C(0), 2)]
        assert jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()

    def test_rotation_splits_over_gaussians(self):
        m = Matrix([[C(0), C(1)], [C(-1), C(0)]])
        jd = jordan_form(m)
        z4 = Cyclotomic.root_of_unity(4)
        assert jd.blocks == [(z4, 1), (z4 ** 3, 1)]
        assert jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()

    def test_scalar_matrix(self):
        h = C(Rat(1, 2))
        m = Matrix([[h, C(0)], [C(0), h]])
        assert jordan_form(m).blocks == [(h, 1), (h, 1)]

    def test_blocks_sorted_sizes_descending(self):
        m = Matrix.block_diag([jordan_block(C(2), 1), jordan_block(C(2), 3)])
        jd = jordan_form(m)
        assert jd.blocks == [(C(2), 3), (C(2), 1)]

    def test_idempotent_on_block_matrix(self, rng):
        from fuchskit.generate import Sizes, rand_constant_module

        for _ in range(10):
            m = rand_constant_module(rng, Sizes(max_dim=4)).constant_matrix()
            jd = jordan_form(m)
            assert jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()
            again = jordan_form(jd.jordan_matrix())
            key = lambda blocks: sorted((l.sort_key(), s) for l, s in blocks)
            assert key(again.blocks) == key(jd.blocks)

    def test_eigenvalue_not_found(self):
        # x^2 - 2 has no rational or root-of-unity roots
        m = Matrix([[C(0), C(2)], [C(1), C(0)]])
        with pytest.raises(EigenvalueNotFound):
            jordan_form(m)

    def test_repeated_cyclotomic_roots_from_rational_matrix(self):
        # companion matrix of (x^2 + x + 1)^2: eigenvalues zeta_3, zeta_3^2,
        # each with one Jordan block of size 2 (minimal polynomial squared)
        comp = Matrix([
            [C(0), C(0), C(0), C(-1)],
            [C(1), C(0), C(0), C(-2)],
            [C(0), C(1), C(0), C(-3)],
            [C(0), C(0), C(1), C(-2)],
        ])
        z3 = Cyclotomic.root_of_unity(3)
        jd = jordan_form(comp)
        assert jd.blocks == [(z3, 2), (z3 ** 2, 2)]
        assert jd.transform.inverse() * comp * jd.transform == jd.jordan_matrix()

    def test_golden_ratio_matrix_rejected_honestly(self):
        m = Matrix([[C(1), C(1)], [C(1), C(0)]])
        with pytest.raises(EigenvalueNotFound):
            eigenvalues(m)


def _integer_gauge(n):
    """A fixed unimodular integer matrix L * U with entries in {-1, 0, 1}."""
    lower = Matrix([[C(1) if i == j else C((i * j + i) % 3 - 1) if i > j else C(0) for j in range(n)] for i in range(n)])
    upper = Matrix([[C(1) if i == j else C((i + 2 * j) % 3 - 1) if i < j else C(0) for j in range(n)] for i in range(n)])
    return lower * upper


def _encoded(x):
    """Short form of an encoded cyclotomic: "p/q" for conductor 1, else
    (conductor, coeffs)."""
    return {"conductor": 1, "coeffs": [x]} if isinstance(x, str) else {"conductor": x[0], "coeffs": x[1]}


_Z12 = Cyclotomic.root_of_unity(12)

# (blocks of J, expected blocks, expected transform) of jordan_form(G J G^-1)
# for the integer gauge G above; J lists its blocks out of canonical order.
PINNED_JORDAN = {
    "three_equal": (
        [(C(2), 2)] * 3,
        [("2", 2), ("2", 2), ("2", 2)],
        [
            ["3", "1", "3", "0", "0", "0"],
            ["1", "0", "2", "1", "-1", "0"],
            ["2", "0", "4", "0", "-1", "0"],
            ["-5", "0", "-7", "0", "2", "0"],
            ["0", "0", "0", "0", "0", "1"],
            ["2", "0", "1", "0", "1", "0"],
        ],
    ),
    "three_one_one": (
        [(C(Rat(1, 2)), 1), (C(Rat(1, 2)), 3), (C(-1), 1), (C(Rat(1, 2)), 1)],
        [("-1", 1), ("1/2", 3), ("1/2", 1), ("1/2", 1)],
        [
            ["1/2", "1", "-2", "0", "-2/5", "-2/5"],
            ["-1/2", "1", "-1", "1", "-2/5", "3/5"],
            ["1/2", "1", "-1", "0", "-3/5", "-3/5"],
            ["1/2", "-2", "2", "0", "1", "0"],
            ["0", "1", "-2", "0", "0", "1"],
            ["1", "1", "-3", "0", "0", "0"],
        ],
    ),
    "conductor_12": (
        [(_Z12 ** 5, 1), (_Z12, 2), (_Z12, 1), (_Z12 ** 5, 2)],
        [((12, ["0", "1", "0", "0"]), 2), ((12, ["0", "1", "0", "0"]), 1),
         ((12, ["0", "-1", "0", "1"]), 2), ((12, ["0", "-1", "0", "1"]), 1)],
        [
            ["1", "1", "0", "1/3", "-4/9", "-1/3"],
            ["1", "-2", "-1", "-1/3", "5/9", "-1/3"],
            ["1", "-2", "-1", "1/3", "-7/9", "-1/3"],
            ["-2", "0", "1", "1/3", "0", "1"],
            ["1", "1", "0", "0", "1", "0"],
            ["1", "0", "0", "2/3", "0", "0"],
        ],
    ),
}


class TestPinnedJordan:
    """The chain tops are part of the output: any other choice of top gives
    another transform, and the CLI prints the gauges built from it."""

    @pytest.mark.parametrize("name", sorted(PINNED_JORDAN))
    def test_blocks_and_transform(self, name):
        given, blocks, transform = PINNED_JORDAN[name]
        j = Matrix.block_diag([jordan_block(lam, size) for lam, size in given])
        g = _integer_gauge(j.rows)
        m = g * j * g.inverse()
        jd = jordan_form(m)
        assert [[jsonio.encode_cyclotomic(lam), size] for lam, size in jd.blocks] == [
            [_encoded(lam), size] for lam, size in blocks
        ]
        assert jsonio.encode_matrix(jd.transform, jsonio.encode_cyclotomic) == [
            [_encoded(x) for x in row] for row in transform
        ]
        assert jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()


def _jordan_encoded(jd):
    """Blocks and transform of Jordan data, every value with its label."""
    enc = jsonio.encode_cyclotomic
    return [(enc(lam), size) for lam, size in jd.blocks], jsonio.encode_matrix(jd.transform, enc)


def _spectrum_encoded(spectrum):
    return [(jsonio.encode_cyclotomic(lam), count) for lam, count in spectrum]


_Z15_AT_30 = Cyclotomic.root_of_unity(15, 2).embed(30)

# blocks (eigenvalue, size) of Jordan-shaped matrices, listed out of order
JORDAN_SHAPED = {
    "equal_sizes": [(C(2), 2), (C(2), 1), (C(2), 2), (C(2), 2)],
    "several": [(_Z12 ** 5, 1), (C(-1), 2), (C(Rat(1, 2)), 1), (Cyclotomic.root_of_unity(3), 2), (C(-1), 3)],
    "label_30": [(_Z15_AT_30, 2), (Cyclotomic.root_of_unity(15, 2), 1), (_Z15_AT_30, 1), (C(0), 1)],
    "one_by_one_root": [(Cyclotomic.root_of_unity(5, 3), 1)],
    "one_by_one_rational": [(C(Rat(-7, 3)), 1)],
}


def _random_jordan_blocks(rng):
    def value():
        if rng.random() < 0.4:
            return C(Rat(rng.randint(-3, 3), rng.choice([1, 2])))
        d = rng.choice([3, 4, 5, 6, 8, 12, 15])
        lam = Cyclotomic.root_of_unity(d, rng.choice([j for j in range(1, d) if gcd(j, d) == 1]))
        return lam.embed(2 * d) if rng.random() < 0.3 else lam

    pool = [value() for _ in range(rng.randint(1, 3))]
    return [(rng.choice(pool), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]


class TestJordanShape:
    """On a matrix already in Jordan shape, jordan_form reads the answer off
    the matrix; it must equal the general elimination's, labels included."""

    @pytest.fixture
    def searched_spectrum(self, monkeypatch):
        # the elimination then finds each eigenvalue by the polynomial search,
        # not by the triangular shortcut
        monkeypatch.setattr(linalg, "eigenvalues", lambda m: poly_roots(charpoly(m)))

    @pytest.mark.parametrize("name", sorted(JORDAN_SHAPED))
    def test_shortcut_is_taken_and_equals_elimination(self, name, monkeypatch, searched_spectrum):
        m = Matrix.block_diag([jordan_block(lam, size) for lam, size in JORDAN_SHAPED[name]])
        expected = _jordan_encoded(_jordan_elimination(m))

        def refuse(m):
            raise AssertionError("the shortcut was not taken")

        monkeypatch.setattr(linalg, "_jordan_elimination", refuse)
        assert _jordan_encoded(jordan_form(m)) == expected

    def test_random_jordan_matrices(self, searched_spectrum):
        rng = random.Random(20)
        for _ in range(150):
            m = Matrix.block_diag([jordan_block(lam, size) for lam, size in _random_jordan_blocks(rng)])
            assert _jordan_encoded(jordan_form(m)) == _jordan_encoded(_jordan_elimination(m))

    def test_label_30_eigenvalue_comes_back_at_its_order(self):
        blocks = jordan_form(Matrix.block_diag([jordan_block(_Z15_AT_30, 2)])).blocks
        assert [(lam.n, size) for lam, size in blocks] == [(15, 2)]

    def test_one_between_unequal_eigenvalues_falls_back(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "_jordan_elimination", lambda m: calls.append(m) or _jordan_elimination(m))
        m = Matrix([[C(1), C(1)], [C(0), C(2)]])
        jd = jordan_form(m)
        assert calls == [m]
        assert jd.blocks == [(C(1), 1), (C(2), 1)]
        assert jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()

    def test_eigenvalue_outside_q_and_mu_falls_back_and_raises(self):
        two_zeta5 = Cyclotomic.root_of_unity(5) * 2
        for m in (Matrix([[two_zeta5]]), Matrix.block_diag([jordan_block(C(1), 1), jordan_block(two_zeta5, 2)])):
            with pytest.raises(EigenvalueNotFound):
                jordan_form(m)
            with pytest.raises(EigenvalueNotFound):
                eigenvalues(m)

    def test_triangular_eigenvalues_equal_the_search(self):
        rng = random.Random(21)
        for _ in range(60):
            diag = [lam for lam, size in _random_jordan_blocks(rng) for _ in range(size)]
            n = len(diag)
            m = Matrix([[diag[i] if i == j else C(rng.randint(-2, 2)) if i < j else C(0)
                         for j in range(n)] for i in range(n)])
            assert _spectrum_encoded(eigenvalues(m)) == _spectrum_encoded(poly_roots(charpoly(m)))


class TestIntegerEigenvalues:
    def test_mixed_spectrum(self):
        m = Matrix.block_diag(
            [jordan_block(C(2), 2), jordan_block(C(Rat(1, 2)), 1), jordan_block(C(-1), 1)]
        )
        assert integer_eigenvalues(m) == [(-1, 1), (2, 1)]

    def test_no_search_bound_needed(self):
        m = Matrix([[C(1000000)]])
        assert integer_eigenvalues(m) == [(1000000, 1)]
