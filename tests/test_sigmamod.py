"""Representations of Z: constructions, classification, trivialization."""

import pytest

from fuchskit import jsonio
from fuchskit.errors import ZeroEigenvalue
from fuchskit.expring import ExpRingElem, solve_dsigma
from fuchskit.generate import Sizes, rand_invertible_constant, rand_sigma_module
from fuchskit.linalg import Matrix, det_cofactor, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, gamma
from fuchskit.sigmamod import (
    SigmaModule,
    direct_sum,
    dual,
    hom_dim,
    is_trivializing,
    isomorphism,
    rank_one,
    tensor,
    trivialize,
    _triv_poly,
)

C = Cyclotomic.from_rat


class TestConstructions:
    def test_rank_one_product(self):
        z3 = Cyclotomic.root_of_unity(3)
        z4 = Cyclotomic.root_of_unity(4)
        assert tensor(rank_one(z3), rank_one(z4)) == rank_one(z3 * z4)

    def test_dual_inverts(self):
        z3 = Cyclotomic.root_of_unity(3)
        assert dual(rank_one(z3)) == rank_one(z3.inverse())

    def test_tensor_with_unit(self):
        v = SigmaModule(Matrix([[C(1), C(1)], [C(0), C(1)]]))
        assert tensor(v, rank_one(C(1))) == v

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            rank_one(C(0))

    def test_singular_monodromy_rejected(self):
        with pytest.raises(ZeroEigenvalue):
            SigmaModule(Matrix([[C(1), C(1)], [C(1), C(1)]]))

    def test_direct_sum(self):
        s = direct_sum(rank_one(C(1)), rank_one(C(-1)))
        assert s.monodromy == Matrix([[C(1), C(0)], [C(0), C(-1)]])


class TestHomDim:
    def test_self_hom_of_rank_one(self):
        assert hom_dim(rank_one(C(-1)), rank_one(C(-1))) == 1

    def test_distinct_eigenvalues(self):
        assert hom_dim(rank_one(C(1)), rank_one(C(-1))) == 0

    def test_unipotent_commutant(self):
        j = SigmaModule(Matrix([[C(1), C(1)], [C(0), C(1)]]))
        assert hom_dim(j, j) == 2

    def test_eigenvalues_beyond_the_unit_roots(self):
        # +-sqrt(2): no Jordan form here, so the Sylvester kernel is the count
        v = SigmaModule(Matrix([[C(0), C(2)], [C(1), C(0)]]))
        assert hom_dim(v, v) == 2


class TestIsomorphism:
    def test_conjugates_are_isomorphic(self, rng):
        for _ in range(8):
            v = rand_sigma_module(rng, Sizes(max_dim=4))
            t = rand_invertible_constant(rng, v.dim)
            w = SigmaModule(t * v.monodromy * t.inverse())
            witness = isomorphism(v, w)
            assert witness is not None
            assert witness * v.monodromy * witness.inverse() == w.monodromy

    def test_different_blocks_not_isomorphic(self):
        v = SigmaModule(Matrix([[C(1), C(1)], [C(0), C(1)]]))
        w = SigmaModule(Matrix.identity(2))
        assert isomorphism(v, w) is None


class TestTrivialize:
    def test_rank_one_gives_symbolic_power(self):
        z3 = Cyclotomic.root_of_unity(3)
        b = trivialize(rank_one(z3))
        # gamma(2/3) = zeta_3^2 = 1/zeta_3
        assert b.data[0][0] == ExpRingElem.t_power(Rat(2, 3))
        assert is_trivializing(rank_one(z3), b)

    def test_trivial_module(self):
        assert trivialize(rank_one(C(1))).data[0][0] == ExpRingElem.one()

    def test_unipotent_block_uses_log(self):
        v = SigmaModule(Matrix([[C(1), C(1)], [C(0), C(1)]]))
        b = trivialize(v)
        ell = ExpRingElem.ell_var()
        # columns: b1'' = b1, b2'' = b2 - ell*b1
        assert b == Matrix(
            [[ExpRingElem.one(), -ell], [ExpRingElem.zero(), ExpRingElem.one()]]
        )
        assert is_trivializing(v, b)

    def test_random_modules_fixed_and_invertible(self, rng):
        for _ in range(8):
            v = rand_sigma_module(rng, Sizes(max_dim=3))
            b = trivialize(v)
            assert is_trivializing(v, b)
            det = det_cofactor(b)
            # determinant must be a unit of the exponent ring: the units of
            # E_A are the monomials c t^g, c != 0, with no ell part
            (part,) = det.ell
            ((_, f),) = part.parts.items()
            assert f.is_unit

    def test_closed_form_matches_the_dsigma_recursion(self):
        # reference: the defining recursion p_0 = 1, p_j = solve_dsigma(-sigma(p_(j-1)))
        p = ExpRingElem.one()
        for j in range(9):
            if j:
                p = solve_dsigma(-(p.sigma()))
            assert _triv_poly(j) == p
            assert jsonio.encode_expring(_triv_poly(j)) == jsonio.encode_expring(p)

    def test_mixed_orders(self):
        v = SigmaModule(
            Matrix.block_diag([jordan_block(gamma(Rat(1, 4)), 2), jordan_block(C(-1), 1)])
        )
        b = trivialize(v)
        assert is_trivializing(v, b)
