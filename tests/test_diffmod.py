"""Differential module constructions, solutions, and extension groups.

h1/ext dimensions are cross-checked against an independent windowed
cokernel oracle; horizontal Hom dimensions against a windowed kernel
oracle.  Neither oracle knows about the mode analysis used by the library.
"""

import random

import pytest

from fuchskit.diffmod import (
    DiffModule,
    base_change,
    block_extension,
    direct_sum,
    dual,
    expring_matrix_is_horizontal,
    ext_dim,
    fundamental_matrix,
    h1_dimension,
    hom_module,
    horizontal_hom,
    invert_coordinate,
    is_horizontal_morphism,
    laurent_matrix,
    match_right_factor,
    rank_one,
    tensor,
    twist_derivation,
    _sylvester_operator,
)
from fuchskit.errors import (
    DerivationMismatch,
    DimensionMismatch,
    NotAUnit,
    NotInvertibleOverA,
)
from fuchskit.expring import ExpRingElem
from fuchskit.functors import exponents, horizontal_isomorphism
from fuchskit.generate import Sizes, rand_constant_module, rand_shearing_gauge
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix, jordan_form
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic

C = Cyclotomic.from_rat


def windowed_h1_oracle(module, bound=9):
    """Independent oracle for dim coker(nabla) on A^n: build the operator
    v -> partial(v) + G v on the monomial window and count missed modes.

    The cokernel is computed as (#window modes) - rank, on a window wide
    enough that boundary effects cancel: G is constant, so the operator is
    block diagonal per mode with blocks (k + G) that are singular for only
    finitely many k."""
    g = module.constant_matrix()
    n = module.dim
    deficiency = 0
    for k in range(-bound, bound + 1):
        block = g + Matrix.identity(n).scale(C(k))
        deficiency += n - block.rank()
    return deficiency


def windowed_hom_oracle(m1, m2, bound=9):
    """Independent oracle for dim Hom^nabla: exact kernel of the full
    operator F -> partial(F) + G2 F - F G1 on Laurent matrices supported on
    [-bound, bound], one coordinate per (mode, row, column)."""
    c1, c2 = m1.constant_matrix(), m2.constant_matrix()
    unknowns = [
        (k, i, j)
        for k in range(-bound, bound + 1)
        for i in range(m2.dim)
        for j in range(m1.dim)
    ]
    index = {u: pos for pos, u in enumerate(unknowns)}
    columns = []
    for (k, i, j) in unknowns:
        vec = [Cyclotomic.zero()] * len(unknowns)
        vec[index[(k, i, j)]] = vec[index[(k, i, j)]] + C(k)
        for r in range(m2.dim):
            vec[index[(k, r, j)]] = vec[index[(k, r, j)]] + c2.data[r][i]
        for c in range(m1.dim):
            vec[index[(k, i, c)]] = vec[index[(k, i, c)]] - c1.data[j][c]
        columns.append(vec)
    return len(Matrix(columns).transpose().nullspace())


class TestBaseChange:
    def test_unit_gauge_shifts_exponent(self):
        assert base_change(rank_one(0), laurent_matrix([[LaurentPoly.t_power(1)]])) == rank_one(1)

    def test_identity_gauge(self):
        m = rank_one(Rat(1, 3))
        assert base_change(m, Matrix.identity(1, LaurentPoly)) == m

    def test_constant_gauge_conjugates(self):
        g = Matrix([[C(1), C(2)], [C(0), C(3)]])
        m = DiffModule.from_constant(g)
        h = Matrix([[C(1), C(1)], [C(1), C(2)]])
        result = base_change(m, h.map(LaurentPoly.from_scalar))
        assert result.matrix == (h * g * h.inverse()).map(LaurentPoly.from_scalar)

    def test_shearing_example(self):
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, 0]]))
        h = laurent_matrix([[1, 0], [0, LaurentPoly.t_power(1)]])
        assert base_change(m, h).matrix == laurent_matrix([[0, 1], [0, 1]])

    def test_non_invertible_gauge_rejected(self):
        with pytest.raises(NotInvertibleOverA):
            base_change(rank_one(0), laurent_matrix([[LaurentPoly({0: 1, 1: 1})]]))

    def test_cocycle(self, rng):
        sizes = Sizes(max_dim=3)
        for _ in range(8):
            m = rand_constant_module(rng, sizes)
            h1 = rand_shearing_gauge(rng, sizes, m.dim)
            h2 = rand_shearing_gauge(rng, sizes, m.dim)
            assert base_change(base_change(m, h1), h2) == base_change(m, h2 * h1)


class TestConstructions:
    def test_rank_one_unit(self):
        assert rank_one(0).matrix == laurent_matrix([[0]])

    def test_rank_one_isomorphic_to_shift(self):
        assert base_change(rank_one(1), laurent_matrix([[LaurentPoly.t_power(-1)]])) == rank_one(0)

    def test_tensor_of_rank_ones(self):
        assert tensor(rank_one(Rat(1, 3)), rank_one(Rat(1, 2))) == rank_one(Rat(5, 6))

    def test_dual_negates(self):
        assert dual(rank_one(Rat(2, 5))) == rank_one(Rat(-2, 5))

    def test_hom_module_formula(self):
        m1, m2 = rank_one(Rat(1, 4)), rank_one(Rat(1, 3))
        assert hom_module(m1, m2) == tensor(dual(m1), m2)

    def test_direct_sum_block(self):
        s = direct_sum(rank_one(1), rank_one(2))
        assert s.matrix == laurent_matrix([[1, 0], [0, 2]])

    def test_block_extension_star_zero_is_direct_sum(self):
        e = block_extension(rank_one(1), rank_one(2), laurent_matrix([[0]]))
        assert e == direct_sum(rank_one(1), rank_one(2))

    def test_block_extension_unit_self_extension(self):
        e = block_extension(rank_one(0), rank_one(0), laurent_matrix([[1]]))
        assert e.matrix == laurent_matrix([[0, 1], [0, 0]])

    def test_block_extension_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            block_extension(rank_one(0), rank_one(0), laurent_matrix([[1, 2]]))


class TestTwist:
    def test_trivial_twist(self):
        m = rank_one(Rat(1, 2))
        assert twist_derivation(m, LaurentPoly.one()) == m

    def test_sign_twist_recorded(self):
        tw = twist_derivation(rank_one(Rat(1, 2)), LaurentPoly.from_scalar(-1))
        assert tw.twist == LaurentPoly.from_scalar(-1)
        assert tw.matrix == rank_one(Rat(1, 2)).matrix

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            twist_derivation(rank_one(0), LaurentPoly({0: 1, 1: 1}))

    def test_twist_of_one_is_the_standard_derivation(self):
        m = rank_one(Rat(1, 2))
        one = DiffModule(m.matrix, twist=LaurentPoly.one())
        assert one.twist is None and one == m
        assert exponents(one) == exponents(m)
        assert direct_sum(one, m).twist is None and direct_sum(m, one).twist is None
        assert twist_derivation(twist_derivation(m, -1), -1).twist is None

    @pytest.mark.parametrize("twist", [0, LaurentPoly({0: 1, 1: 1})], ids=["zero", "one_plus_t"])
    def test_non_unit_twist_rejected_at_construction(self, twist):
        with pytest.raises(NotAUnit):
            DiffModule(rank_one(0).matrix, twist=twist)

    def test_mixed_tags_refused(self):
        tw = twist_derivation(rank_one(0), LaurentPoly.from_scalar(-1))
        with pytest.raises(DerivationMismatch):
            tensor(tw, rank_one(0))

    def test_hom_ext_and_h1_refuse_a_twist(self):
        # over 2 t d/dt the connection of Hom(N(0), N(1)) acts on the mode
        # t^k by 2k + 1, never 0; the integer modes of t d/dt gave t^-1
        m1 = twist_derivation(rank_one(0), 2)
        m2 = twist_derivation(rank_one(1), 2)
        assert not is_horizontal_morphism(laurent_matrix([[LaurentPoly.t_power(-1)]]), m1, m2)
        for call in (
            lambda: horizontal_hom(m1, m2),
            lambda: horizontal_isomorphism(m1, m2),
            lambda: ext_dim(m1, m2),
            lambda: h1_dimension(m2),
        ):
            with pytest.raises(DerivationMismatch):
                call()


class TestInvertCoordinate:
    def test_rank_one(self):
        assert invert_coordinate(rank_one(Rat(1, 3))) == rank_one(Rat(-1, 3))

    def test_zero(self):
        assert invert_coordinate(rank_one(0)) == rank_one(0)

    def test_nonconstant(self):
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, 0]]))
        assert invert_coordinate(m).matrix == laurent_matrix(
            [[0, LaurentPoly.t_power(-1, -1)], [0, 0]]
        )


class TestFundamentalMatrix:
    def test_rank_one(self):
        u = fundamental_matrix(rank_one(Rat(1, 2)))
        assert u.data[0][0] == ExpRingElem.t_power(Rat(-1, 2))

    def test_unit_object(self):
        assert fundamental_matrix(rank_one(0)).data[0][0] == ExpRingElem.one()

    def test_nilpotent_block(self):
        m = DiffModule.from_constant(Matrix([[C(0), C(1)], [C(0), C(0)]]))
        u = fundamental_matrix(m)
        ell = ExpRingElem.ell_var()
        assert u == Matrix(
            [[ExpRingElem.one(), -ell], [ExpRingElem.zero(), ExpRingElem.one()]]
        )

    def test_horizontal_and_sigma_conjugacy(self, rng):
        from fuchskit.functors import mon

        sizes = Sizes(max_dim=4)
        for _ in range(8):
            m = rand_constant_module(rng, sizes)
            u = fundamental_matrix(m)
            assert expring_matrix_is_horizontal(u, m.matrix)
            r = match_right_factor(u, u.map(lambda x: x.sigma()))
            assert jordan_form(r).blocks == jordan_form(mon(m).monodromy).blocks


class TestMatchRightFactor:
    E = ExpRingElem
    ELL, ROOT_T = E.ell_var(), E.t_power(Rat(1, 2))

    def scalar(self, q):
        return self.E.from_scalar(C(q))

    def basis(self):
        # columns (1, ell) and (t^(1/2), 1)
        return Matrix([[self.E.one(), self.ROOT_T], [self.ELL, self.E.one()]])

    def test_unique_factor(self):
        # V = U R for R = [[2, -1], [1/3, 0]], written out by hand
        v = Matrix([
            [self.scalar(2) + self.ROOT_T * self.scalar(Rat(1, 3)), self.scalar(-1)],
            [self.ELL * self.scalar(2) + self.scalar(Rat(1, 3)), -self.ELL],
        ])
        r = Matrix([[C(2), C(-1)], [C(Rat(1, 3)), C(0)]])
        assert match_right_factor(self.basis(), v) == r

    def test_dependent_columns_of_u_raise(self):
        u = Matrix([[self.E.one(), self.scalar(2)], [self.ELL, self.ELL * self.scalar(2)]])
        with pytest.raises(ArithmeticError, match="no unique constant factor"):
            match_right_factor(u, u)

    def test_column_outside_the_span_raises(self):
        v = Matrix([[self.E.one(), self.E.t_power(Rat(1))], [self.ELL, self.E.zero()]])
        with pytest.raises(ArithmeticError, match="no unique constant factor"):
            match_right_factor(self.basis(), v)


class TestHorizontalHom:
    def test_endomorphisms_of_rank_one(self):
        assert horizontal_hom(rank_one(Rat(1, 3)), rank_one(Rat(1, 3))).dimension == 1

    def test_distinct_classes(self):
        assert horizontal_hom(rank_one(0), rank_one(Rat(1, 2))).dimension == 0

    def test_integer_shift(self):
        space = horizontal_hom(rank_one(0), rank_one(1))
        assert space.dimension == 1
        assert space.basis[0].data[0][0] == LaurentPoly.t_power(-1)

    def test_basis_is_horizontal(self, rng):
        sizes = Sizes(max_dim=3)
        for _ in range(6):
            m1 = rand_constant_module(rng, sizes)
            m2 = rand_constant_module(rng, sizes)
            for f in horizontal_hom(m1, m2).basis:
                assert is_horizontal_morphism(f, m1, m2)

    @staticmethod
    def loop_sylvester(c_m, c_n):
        """F -> C_N F - F C_M built column by column, row-major basis."""
        nn, nm = c_n.rows, c_m.rows
        z = Cyclotomic.zero()
        cols = []
        for i in range(nn):
            for j in range(nm):
                image = [[z] * nm for _ in range(nn)]
                for r in range(nn):
                    image[r][j] = image[r][j] + c_n.data[r][i]
                for c in range(nm):
                    image[i][c] = image[i][c] - c_m.data[j][c]
                cols.append([image[r][c] for r in range(nn) for c in range(nm)])
        return Matrix(cols).transpose()

    def test_kronecker_sum_matches_the_loop_operator(self):
        rng = random.Random(12)

        def entry():
            kind = rng.random()
            if kind < 0.2:
                return Cyclotomic.zero()
            if kind < 0.5:
                return C(Rat(rng.randint(-3, 3), rng.randint(1, 4)))
            return Cyclotomic(12, [Rat(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)])

        for _ in range(30):
            nm, nn = rng.randint(1, 3), rng.randint(1, 3)
            c_m = Matrix([[entry() for _ in range(nm)] for _ in range(nm)])
            c_n = Matrix([[entry() for _ in range(nn)] for _ in range(nn)])
            got, want = _sylvester_operator(c_m, c_n), self.loop_sylvester(c_m, c_n)
            assert (got.rows, got.cols) == (want.rows, want.cols) == (nn * nm, nn * nm)
            for row_got, row_want in zip(got.data, want.data):
                assert [(x.n, x) for x in row_got] == [(x.n, x) for x in row_want]

    def test_dimension_matches_windowed_oracle(self, rng):
        sizes = Sizes(max_dim=2, max_numerator=2)
        for _ in range(6):
            m1 = rand_constant_module(rng, sizes)
            m2 = rand_constant_module(rng, sizes)
            assert horizontal_hom(m1, m2).dimension == windowed_hom_oracle(m1, m2)


class TestExtAndH1:
    def test_h1_of_unit(self):
        assert h1_dimension(rank_one(0)) == 1

    def test_ext_same_class(self):
        assert ext_dim(rank_one(Rat(1, 3)), rank_one(Rat(1, 3))) == 1

    def test_ext_distinct_class(self):
        assert ext_dim(rank_one(0), rank_one(Rat(1, 2))) == 0

    def test_ext_integer_shifted_class(self):
        assert ext_dim(rank_one(Rat(1, 3)), rank_one(Rat(4, 3))) == 1

    def test_ext_beyond_the_unit_roots(self):
        # [[0, 2], [1, 0]] has the eigenvalues +-sqrt(2), in Q(zeta_8) but
        # neither rational nor roots of unity, so jordan_form cannot split
        # it; Ext is still the H^1 of the Hom module, whose constant matrix
        # has the integer eigenvalue 0 twice
        m = DiffModule(laurent_matrix([[0, 2], [1, 0]]))
        assert ext_dim(m, m) == 2

    def test_h1_matches_windowed_oracle(self, rng):
        sizes = Sizes(max_dim=3, max_numerator=2)
        for _ in range(8):
            m = rand_constant_module(rng, sizes)
            assert h1_dimension(m) == windowed_h1_oracle(m)

    def test_ext_matches_windowed_oracle(self, rng):
        sizes = Sizes(max_dim=2, max_numerator=1)
        for _ in range(5):
            m1 = rand_constant_module(rng, sizes)
            m2 = rand_constant_module(rng, sizes)
            assert ext_dim(m1, m2) == windowed_h1_oracle(hom_module(m1, m2))
