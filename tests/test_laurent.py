"""Laurent polynomials and the derivation t*d/dt."""

import random

import pytest
from hypothesis import given, settings

from conftest import laurents, exponent_classes

from fuchskit.errors import LogObstruction, NotAUnit
from fuchskit.laurent import (
    LaurentPoly,
    PackedMatrix,
    kernel_partial,
    kernel_partial_plus,
    kernel_partial_square,
    partial,
    solve_partial_plus_a,
)
from fuchskit.linalg import Matrix
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic


class TestPartial:
    def test_monomial(self):
        assert partial(LaurentPoly.t_power(3)) == LaurentPoly.t_power(3, 3)

    def test_constants_killed(self):
        assert partial(LaurentPoly.from_scalar(5)).is_zero

    def test_termwise(self):
        f = LaurentPoly({-2: 1, 1: 1})
        assert partial(f) == LaurentPoly({-2: -2, 1: 1})

    @given(laurents(), laurents())
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, f, g):
        assert partial(f * g) == partial(f) * g + f * partial(g)


class TestSolvePartialPlusA:
    def test_solve_t(self):
        # oracle: partial(t) = t
        x = solve_partial_plus_a(LaurentPoly.t_power(1), 0)
        assert x == LaurentPoly.t_power(1)
        assert partial(x) == LaurentPoly.t_power(1)

    def test_solve_constant_with_half(self):
        # oracle: (partial + 1/2)(2) = 1
        x = solve_partial_plus_a(LaurentPoly.one(), Rat(1, 2))
        assert x == LaurentPoly.from_scalar(2)

    def test_obstruction(self):
        with pytest.raises(LogObstruction) as exc:
            solve_partial_plus_a(LaurentPoly.one(), 0)
        assert exc.value.constant == Cyclotomic.one()

    def test_zero_class_solution_normalized(self):
        x = solve_partial_plus_a(LaurentPoly({1: 2, -3: 1}), 0)
        assert x.constant_term.is_zero

    @given(laurents(), exponent_classes)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, y, a):
        if a.is_zero:
            y = y - LaurentPoly.from_scalar(y.constant_term)
        x = solve_partial_plus_a(y, a)
        assert partial(x) + x * Cyclotomic.from_rat(a.value) == y


class TestKernels:
    def test_partial_square_window(self):
        basis = kernel_partial_square(-5, 5)
        assert len(basis) == 1 and basis[0] == LaurentPoly.one()

    def test_partial_square_window_excluding_zero(self):
        assert kernel_partial_square(1, 5) == []

    def test_partial_plus_half_window(self):
        assert kernel_partial_plus(-2, 2, Rat(1, 2)) == []

    def test_partial_kernel_is_constants(self):
        basis = kernel_partial(-6, 6)
        assert len(basis) == 1 and basis[0] == LaurentPoly.one()


class TestUnits:
    def test_monomials_are_units(self):
        f = LaurentPoly.t_power(-3, Rat(2, 5))
        assert f.is_unit
        assert f * f.unit_inverse() == LaurentPoly.one()

    def test_binomials_are_not_units(self):
        f = LaurentPoly({0: 1, 1: 1})
        assert not f.is_unit
        with pytest.raises(NotAUnit):
            f.unit_inverse()

    def test_substitute_inverse(self):
        f = LaurentPoly({2: 3, -1: 5})
        assert f.substitute_inverse() == LaurentPoly({-2: 3, 1: 5})


def rand_rational_matrix(rng, rows, cols):
    """A rational Laurent matrix with degrees in [-3, 3]; about a third of
    its entries are zero."""
    def entry():
        if rng.random() < 0.35:
            return LaurentPoly.zero()
        return LaurentPoly({rng.randint(-3, 3): Rat(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(3)})

    return Matrix([[entry() for _ in range(cols)] for _ in range(rows)])


def packed(m):
    return PackedMatrix.from_rows(m.data)


def unpacked(p):
    """The Matrix of LaurentPoly of a PackedMatrix, every label checked to be 1."""
    rows = p.to_rows()
    assert all(c.n == 1 for row in rows for f in row for c in f.terms.values())
    return Matrix(rows)


SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)]


class TestPackedMatrix:
    """The packed integer format of the window search against the same
    operations on matrices of LaurentPoly."""

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_round_trip(self, shape):
        rng = random.Random(f"packed-round-trip:{shape}")
        for _ in range(20):
            m = rand_rational_matrix(rng, *shape)
            p = packed(m)
            assert (p.rows, p.cols) == shape and p.den > 0
            assert unpacked(p) == m
            assert p.is_zero == all(f.is_zero for row in m.data for f in row)

    def test_zero_matrix(self):
        p = packed(Matrix.zeros(2, 3, LaurentPoly))
        assert p.is_zero and p.den == 1 and unpacked(p) == Matrix.zeros(2, 3, LaurentPoly)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_sum(self, shape):
        rng = random.Random(f"packed-sum:{shape}")
        for _ in range(20):
            a, b = rand_rational_matrix(rng, *shape), rand_rational_matrix(rng, *shape)
            assert unpacked(packed(a) + packed(b)) == a + b
            # a sum that cancels to zero
            assert (packed(a) + packed(a.map(lambda f: -f))).is_zero

    @pytest.mark.parametrize("inner", [1, 2, 3])
    def test_product(self, inner):
        rng = random.Random(f"packed-product:{inner}")
        for _ in range(20):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a, b = rand_rational_matrix(rng, rows, inner), rand_rational_matrix(rng, inner, cols)
            p = packed(a) * packed(b)
            assert (p.rows, p.cols) == (rows, cols)
            assert unpacked(p) == a * b

    @pytest.mark.parametrize("a", [Rat(0), Rat(1, 2), Rat(-7, 3), Rat(5)], ids=str)
    def test_partial_plus(self, a):
        rng = random.Random(f"packed-partial-plus:{a}")
        for shape in SHAPES:
            m = rand_rational_matrix(rng, *shape)
            assert unpacked(packed(m).partial_plus(a)) == m.map(lambda f: f.partial() + f * a)

    @pytest.mark.parametrize("p, q", [(0, 1), (1, 1), (-1, 3), (6, 5), (-4, 2)], ids=str)
    def test_scaled(self, p, q):
        rng = random.Random(f"packed-scaled:{p}/{q}")
        for shape in SHAPES:
            m = rand_rational_matrix(rng, *shape)
            assert unpacked(packed(m).scaled(p, q)) == m.map(lambda f: f * Rat(p, q))

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_equality_is_equality_of_values(self, shape):
        # the lowest-terms form is unique, so equal values are stored alike
        # however they were made
        rng = random.Random(f"packed-eq:{shape}")
        for _ in range(20):
            a, b = rand_rational_matrix(rng, *shape), rand_rational_matrix(rng, *shape)
            pa, pb = packed(a), packed(b)
            assert (pa == pb) == (a == b)
            assert pa == packed(a)
            assert pa.scaled(6, 1).scaled(1, 6) == pa
            assert (pa + pb) + packed(b.map(lambda f: -f)) == pa
            assert pa + pb == packed(a + b)
            bump = Matrix([[LaurentPoly.t_power(-2, Rat(1, 7)) if (i, j) == (0, 0) else LaurentPoly.zero()
                            for j in range(shape[1])] for i in range(shape[0])])
            assert not pa == pa + packed(bump)
