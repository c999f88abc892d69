"""The exponent ring: derivation, monodromy, binomial basis, solvers."""

from math import factorial

import pytest
from hypothesis import given, settings

from conftest import exprings

from fuchskit.errors import DivisionByZero
from fuchskit.expring import (
    ExpRingElem,
    GroupAlgElem,
    binom_ell,
    binom_ell_poly,
    from_binomial_basis,
    kernel_checks,
    solve_dsigma,
    solve_partial,
    to_binomial_basis,
)
from fuchskit.laurent import LaurentPoly
from fuchskit.ratio import Rat


E = ExpRingElem
ELL = ExpRingElem.ell_var()


class TestDerivation:
    def test_symbolic_power(self):
        x = E.t_power(Rat(1, 2))
        assert x.partial() == x * Rat(1, 2)

    def test_log_derivative(self):
        assert ELL.partial() == E.one()

    def test_mixed_power(self):
        x = E.from_laurent(LaurentPoly.t_power(1)) * E.t_power(Rat(1, 2))
        assert x.partial() == x * Rat(3, 2)

    def test_stabilizes_group_algebra(self):
        x = E.t_power(Rat(5, 3))
        assert len(x.partial().ell) == 1


class TestGroupAlgebra:
    def test_integer_spill_on_multiplication(self):
        # t^{2/3} * t^{2/3} = t * t^{1/3}: the integer part folds into A
        x = GroupAlgElem.t_power(Rat(2, 3))
        assert x * x == GroupAlgElem({Rat(1, 3): LaurentPoly.t_power(1)})

    def test_unique_decomposition_keys(self):
        x = GroupAlgElem.t_power(Rat(7, 3))
        assert list(x.parts) == [__import__("fuchskit.scalar", fromlist=["ExponentClass"]).ExponentClass(Rat(1, 3))]
        assert x.component(Rat(1, 3)) == LaurentPoly.t_power(2)


class TestSigma:
    def test_log_shift(self):
        assert ELL.sigma() == ELL + E.one()

    def test_symbolic_power_scaling(self):
        x = E.t_power(Rat(1, 2))
        assert x.sigma() == -x

    def test_fixes_laurent(self):
        x = E.from_laurent(LaurentPoly.t_power(3))
        assert x.sigma() == x

    @given(exprings())
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_partial(self, x):
        assert x.sigma().partial() == x.partial().sigma()

    @given(exprings(), exprings())
    @settings(max_examples=40, deadline=None)
    def test_twisted_leibniz(self, x, y):
        d = (x * y).dsigma()
        assert d == x.dsigma() * y.sigma() + x * y.dsigma()
        assert d == x.dsigma() * y + x.sigma() * y.dsigma()


class TestDsigma:
    def test_binomial_shift(self):
        for n in range(6):
            assert binom_ell(n).dsigma() == binom_ell(n - 1)

    def test_kills_laurent(self):
        assert E.from_laurent(LaurentPoly({2: 7, -1: 3})).dsigma().is_zero

    def test_nonzero_class_scaling(self):
        x = E.t_power(Rat(1, 2))
        assert x.dsigma() == x * Rat(-2)


class TestBinomialBasis:
    def test_ell_is_binom_one(self):
        coeffs = to_binomial_basis(ELL)
        assert coeffs[0].is_zero and coeffs[1] == GroupAlgElem.one()

    def test_ell_squared(self):
        # ell^2 = 2*binom(ell,2) + binom(ell,1)
        coeffs = to_binomial_basis(ELL * ELL)
        assert [g.laurent_part.constant_term.rational_value for g in coeffs] == [0, 1, 2]

    def test_one(self):
        assert to_binomial_basis(E.one()) == [GroupAlgElem.one()]

    def test_binom_poly_is_the_falling_product(self):
        assert binom_ell_poly(-1) == () and binom_ell_poly(0) == (Rat(1),)
        poly = [Rat(1)]  # ell (ell - 1) ... (ell - k + 1), ascending in ell
        for k in range(1, 13):
            poly = [a - (k - 1) * b for a, b in zip([Rat(0)] + poly, poly + [Rat(0)])]
            assert binom_ell_poly(k) == tuple(c / factorial(k) for c in poly), k

    def test_binom_poly_is_computed_once(self):
        assert binom_ell_poly(40) is binom_ell_poly(40)

    @given(exprings())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, x):
        assert from_binomial_basis(to_binomial_basis(x)) == x


class TestSolveDsigma:
    def test_one_gives_ell(self):
        assert solve_dsigma(E.one()) == ELL

    def test_symbolic_power(self):
        x = E.t_power(Rat(1, 2))
        assert solve_dsigma(x) == x * Rat(-1, 2)

    def test_binomial(self):
        assert solve_dsigma(binom_ell(1)) == binom_ell(2)

    @given(exprings())
    @settings(max_examples=50, deadline=None)
    def test_surjectivity_roundtrip(self, y):
        assert solve_dsigma(y).dsigma() == y

    def test_preimage_of_a_class_zero_part_is_a_typed_error(self):
        # d_sigma is zero on class 0, so no preimage exists there
        for x in (GroupAlgElem.one(), GroupAlgElem.one() + GroupAlgElem.t_power(Rat(1, 2))):
            with pytest.raises(DivisionByZero):
                x.dsigma_preimage()

    @given(exprings())
    @settings(max_examples=30, deadline=None)
    def test_solver_passes_no_class_zero_part(self, y):
        # the free A-components of solve_dsigma clear class 0 at every level
        seen, preimage = [], GroupAlgElem.dsigma_preimage

        def recorded(x):
            seen.append(x.laurent_part.is_zero)
            return preimage(x)

        GroupAlgElem.dsigma_preimage = recorded
        try:
            solve_dsigma(y)
        finally:
            GroupAlgElem.dsigma_preimage = preimage
        assert all(seen) and len(seen) == len(y.ell)


class TestSolvePartial:
    def test_one_gives_ell(self):
        assert solve_partial(E.one()) == ELL

    def test_diagonal_mode(self):
        y = E.from_laurent(LaurentPoly.t_power(3))
        assert solve_partial(y) == E.from_laurent(LaurentPoly.t_power(3, Rat(1, 3)))

    def test_symbolic_power(self):
        x = E.t_power(Rat(1, 2))
        assert solve_partial(x) == x * 2

    def test_log_squared(self):
        # partial(ell^2 / 2) = ell
        assert solve_partial(ELL) == ELL * ELL * Rat(1, 2)

    @given(exprings())
    @settings(max_examples=50, deadline=None)
    def test_surjectivity_roundtrip(self, y):
        assert solve_partial(y).partial() == y


class TestKernelWindows:
    def test_all_kernels_match_theory(self):
        report = kernel_checks(degree_bound=3, ell_bound=2)
        assert report["ok"], report
        assert report["partial_on_EA"]["dim"] == 1
        assert report["dsigma_on_EA"]["dim"] == 7  # the A-slice has 2*3+1 monomials
