"""Matrix.rref, Matrix.nullspace and their consumers against the dense oracle.

Both read their results off linalg.column_kernel, the library's one
elimination.  conftest.dense_rref is the dense Gauss-Jordan elimination they
replaced; patched onto Matrix (with conftest.dense_nullspace) it runs every
consumer the old way.  On seeded rational, conductor-12 and mixed
conductor-3/4 matrices (zero, wide, square and tall), rref, rank, inverse,
match_right_factor and the elimination path of jordan_form give the values
of the dense path, with the same conductor labels on single-conductor input
and labels by the 3/12 and 4/12 rule of test_column_kernel on mixed input.
diffmod._constant_factor, behind match_right_factor and _section_monodromy,
is compared with its old dense form the same way.
"""

import random

import pytest

from conftest import KINDS, assert_same_basis, dense_nullspace, dense_rref, rand_columns, rand_entry
from test_seed_blocks import sheared
from fuchskit import diffmod, functors, linalg
from fuchskit.diffmod import DiffModule, fundamental_matrix, match_right_factor
from fuchskit.errors import DivisionByZero, NonSquare
from fuchskit.expring import ExpRingElem
from fuchskit.jsonio import encode_cyclotomic, encode_matrix
from fuchskit.linalg import Matrix, _jordan_elimination
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic

ZERO, ONE = Cyclotomic.zero(), Cyclotomic.one()
Z3, I, Z12 = Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4), Cyclotomic.root_of_unity(12)

# eigenvalues in Q union mu_infinity, carried at the labels of each kind
DIAGONALS = {
    "rational": [Cyclotomic.from_rat(Rat(p, q)) for p, q in ((1, 2), (-1, 3), (2, 1), (0, 1))],
    "conductor12": [Z12 ** k for k in (0, 1, 4, 5, 6, 9)],
    "mixed3and4": [ONE, -ONE, Z3, Z3 * Z3, I, -I],
}


def rand_matrix(rng, kind, rows, cols):
    """A matrix with planted dependent columns; some matrices are zero."""
    if rng.random() < 0.05:
        return Matrix.zeros(rows, cols)
    columns = rand_columns(rng, kind, rows, cols, rng.choice([0.3, 0.7]))
    return Matrix([[col.get(r, ZERO) for col in columns] for r in range(rows)])


def shapes(rng):
    """Wide, square and tall shapes, one of each per round."""
    n = rng.randint(1, 5)
    return [(n, n + rng.randint(1, 4)), (n, n), (n + rng.randint(1, 4), n)]


def rand_mixed_order(rng, kind, n, diagonal):
    """diag(diagonal) plus random entries above it, with rows and columns
    permuted alike: the spectrum is the diagonal, the entries keep their
    labels, and the matrix is not in Jordan shape."""
    t = [[diagonal[i] if i == j else rand_entry(rng, kind) if j > i else ZERO for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Matrix([[t[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def through_dense(monkeypatch, fn, *args):
    """fn(*args) with Matrix.rref and Matrix.nullspace run by dense elimination."""
    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "rref", dense_rref)
        patch.setattr(Matrix, "nullspace", dense_nullspace)
        return fn(*args)


def assert_same_matrix(got, expected, kind):
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert_same_basis(got.data, expected.data, same_labels=kind != "mixed3and4")


class TestRrefAgainstDense:
    @pytest.mark.parametrize("kind", KINDS)
    def test_reduced_matrix_pivots_and_rank(self, kind):
        rng = random.Random(f"rref:{kind}")
        free = 0
        for _ in range(25):
            for rows, cols in shapes(rng):
                m = rand_matrix(rng, kind, rows, cols)
                red, pivots = m.rref()
                dense_red, dense_pivots = dense_rref(m)
                assert pivots == dense_pivots
                assert_same_matrix(red, dense_red, kind)
                assert m.cols - len(m.nullspace()) == len(dense_pivots)
                assert_same_basis(m.nullspace(), dense_nullspace(m), same_labels=kind != "mixed3and4")
                free += cols - len(pivots)
        assert free > 75  # the planted columns make many kernels nontrivial

    def test_zero_matrices(self):
        for rows, cols in [(1, 1), (1, 4), (3, 3), (5, 2)]:
            m = Matrix.zeros(rows, cols)
            assert m.rref() == (m, ())
            assert m.cols - len(m.nullspace()) == 0
            assert_same_basis(m.nullspace(), dense_nullspace(m))

    def test_free_column_entries_are_minus_the_kernel_coordinates(self):
        # rows (1, 0, 2, 1/2) and (0, 1, 3, 0): columns 2 and 3 are free
        r = lambda p, q=1: Cyclotomic.from_rat(Rat(p, q))  # noqa: E731
        m = Matrix([[ONE, ZERO, r(2), r(1, 2)], [ZERO, ONE, r(3), ZERO], [ONE, ONE, r(5), r(1, 2)]])
        red, pivots = m.rref()
        assert pivots == (0, 1)
        assert red == Matrix([[ONE, ZERO, r(2), r(1, 2)], [ZERO, ONE, r(3), ZERO], [ZERO] * 4])
        assert m.nullspace() == [[r(-2), r(-3), ONE, ZERO], [r(-1, 2), ZERO, ZERO, ONE]]


class TestInverseAgainstDense:
    @pytest.mark.parametrize("kind", KINDS)
    def test_square_matrices(self, kind):
        rng = random.Random(f"inverse:{kind}")
        singular = 0
        for _ in range(60):
            n = rng.randint(1, 5)
            m = rand_matrix(rng, kind, n, n)
            if dense_rref(m)[1] != tuple(range(n)):
                singular += 1
                with pytest.raises(DivisionByZero):
                    m.inverse()
                continue
            inv = m.inverse()
            assert m * inv == Matrix.identity(n)
            aug = Matrix([list(m.data[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)])
            assert_same_matrix(inv, Matrix([row[n:] for row in dense_rref(aug)[0].data]), kind)
        assert 5 < singular < 55

    def test_singular_raises(self):
        m = Matrix([[ONE, Z3], [I, I * Z3]])
        with pytest.raises(DivisionByZero, match="singular"):
            m.inverse()
        with pytest.raises(DivisionByZero):
            Matrix.zeros(3, 3).inverse()

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            Matrix.zeros(2, 3).inverse()


def fundamental_of(rng, kind, n):
    """The fundamental matrix of a constant module with rational exponents
    whose constant is not in Jordan shape."""
    diagonal = [Cyclotomic.from_rat(Rat(rng.randint(-2, 2), rng.choice([1, 2, 3]))) for _ in range(n)]
    return fundamental_matrix(DiffModule.from_constant(rand_mixed_order(rng, kind, n, diagonal)))


class TestMatchRightFactorAgainstDense:
    @pytest.mark.parametrize("kind", KINDS)
    def test_unique_factors(self, kind, monkeypatch):
        rng = random.Random(f"match-right:{kind}")
        for _ in range(6):
            n = rng.randint(1, 3)
            u = fundamental_of(rng, kind, n)
            k = rng.randint(1, 3)
            r = Matrix([[rand_entry(rng, kind) for _ in range(k)] for _ in range(n)])
            for v in (u * r.map(ExpRingElem.from_scalar), u.map(lambda x: x.sigma())):
                got = match_right_factor(u, v)
                assert_same_matrix(got, through_dense(monkeypatch, match_right_factor, u, v), kind)
            assert match_right_factor(u, u * r.map(ExpRingElem.from_scalar)) == r

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_unique_factor_raises(self, kind, monkeypatch):
        rng = random.Random(f"match-right-dependent:{kind}")
        for _ in range(4):
            u = fundamental_of(rng, kind, 2)
            x = ExpRingElem.from_scalar(rand_entry(rng, kind))
            dependent = Matrix([[row[0], row[0] * x] for row in u.data])
            for fn in (match_right_factor, lambda *a: through_dense(monkeypatch, match_right_factor, *a)):
                with pytest.raises(ArithmeticError, match="no unique constant factor"):
                    fn(dependent, u)


def old_constant_factor(columns, k, rref=dense_rref):
    """diffmod._constant_factor as it was before it read R off the canonical
    kernel: the columns filled with zeros into a matrix over their sorted
    joint keys, its reduced rows, and R the top right block when the pivots
    are the columns of U.  With conftest.dense_rref it is the dense oracle."""
    keys = sorted(set().union(*columns))
    red, pivots = rref(Matrix.from_columns([[col.get(key, ZERO) for key in keys] for col in columns]))
    if pivots != tuple(range(k)):
        raise ArithmeticError("no unique constant factor")
    return Matrix([row[k:] for row in red.data[:k]])


class TestConstantFactorAgainstDense:
    """_constant_factor reads R off column_kernel; patched into diffmod and
    functors, old_constant_factor runs match_right_factor and
    _section_monodromy the old way.  With the library's rref the old way
    gives the same labels on every kind, since column_kernel visits the keys
    in the same order whether they are tuples or their sorted positions."""

    @staticmethod
    def old_way(monkeypatch, fn, *args, rref=dense_rref):
        def old(columns, k):
            return old_constant_factor(columns, k, rref)

        with monkeypatch.context() as patch:
            patch.setattr(diffmod, "_constant_factor", old)
            patch.setattr(functors, "_constant_factor", old)
            return fn(*args)

    @pytest.mark.parametrize("kind", KINDS)
    def test_unique_factors(self, kind, monkeypatch):
        rng = random.Random(f"constant-factor:{kind}")
        for _ in range(6):
            n = rng.randint(1, 3)
            u = fundamental_of(rng, kind, n)
            k = rng.randint(1, 3)
            r = Matrix([[rand_entry(rng, kind) for _ in range(k)] for _ in range(n)])
            for v in (u * r.map(ExpRingElem.from_scalar), u.map(lambda x: x.sigma())):
                got = match_right_factor(u, v)
                assert_same_matrix(got, self.old_way(monkeypatch, match_right_factor, u, v), kind)
                same_bytes = self.old_way(monkeypatch, match_right_factor, u, v, rref=Matrix.rref)
                assert encode_matrix(got, encode_cyclotomic) == encode_matrix(same_bytes, encode_cyclotomic)
            assert match_right_factor(u, u * r.map(ExpRingElem.from_scalar)) == r

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_unique_factor_raises(self, kind, monkeypatch):
        rng = random.Random(f"constant-factor-dependent:{kind}")
        for _ in range(4):
            u = fundamental_of(rng, kind, 2)
            x = ExpRingElem.from_scalar(rand_entry(rng, kind))
            dependent = Matrix([[row[0], row[0] * x] for row in u.data])
            for fn in (match_right_factor, lambda *a: self.old_way(monkeypatch, match_right_factor, *a)):
                with pytest.raises(ArithmeticError, match="no unique constant factor"):
                    fn(dependent, u)

    @pytest.mark.parametrize(
        "superdiagonal",
        [Cyclotomic.from_rat(1), Cyclotomic.root_of_unity(12), Cyclotomic.root_of_unity(5) + Rat(1, 2)],
        ids=["rational", "conductor12", "conductor5"],
    )
    def test_section_monodromy_of_sheared_modules(self, superdiagonal, monkeypatch):
        rng = random.Random(f"constant-factor-sheared:{superdiagonal!r}")
        for _ in range(4):
            module, exps = sheared(rng, superdiagonal)
            sections, _ = functors._section_search(module, module.matrix, exps, 4)
            assert len(sections) == module.dim
            got = encode_matrix(functors._section_monodromy(sections), encode_cyclotomic)
            assert got == encode_matrix(self.old_way(monkeypatch, functors._section_monodromy, sections),
                                        encode_cyclotomic)

    def test_zero_u_raises(self):
        # the zero columns have no keys: the old way raised ValueError from
        # Matrix's constructor on the empty matrix
        zero = Matrix([[ExpRingElem.zero()]])
        with pytest.raises(ArithmeticError, match="no unique constant factor"):
            match_right_factor(zero, zero)


class TestJordanEliminationAgainstDense:
    @pytest.mark.parametrize("kind", KINDS)
    def test_blocks_and_transform(self, kind, monkeypatch):
        rng = random.Random(f"jordan-elimination:{kind}")
        for _ in range(8):
            n = rng.randint(2, 4)
            diagonal = [rng.choice(DIAGONALS[kind]) for _ in range(n)]
            diagonal[1] = diagonal[0]  # a repeated eigenvalue, so chains of length 2 can occur
            m = rand_mixed_order(rng, kind, n, diagonal)
            jd = _jordan_elimination(m)
            dense = through_dense(monkeypatch, _jordan_elimination, m)
            assert jd.blocks == dense.blocks
            assert_same_basis([[lam for lam, _ in jd.blocks]], [[lam for lam, _ in dense.blocks]])
            assert_same_matrix(jd.transform, dense.transform, kind)
            assert jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()


class TestRouting:
    """Every consumer of the exact elimination reaches column_kernel, once per
    rref or nullspace it makes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        kernel = linalg.column_kernel

        def counted(columns):
            calls.append(len(columns))
            return kernel(columns)

        monkeypatch.setattr(linalg, "column_kernel", counted)
        return calls

    def test_matrix_methods(self, calls):
        m = Matrix([[ONE, Z3, I], [I, ONE, Z3]])
        square = Matrix([[ONE, Z3], [I, ONE]])
        for make, n_cols in ((m.nullspace, 3), (m.rref, 3), (square.inverse, 4)):
            calls.clear()
            make()
            assert calls == [n_cols]

    def test_match_right_factor(self, calls):
        u = fundamental_of(random.Random("routing"), "mixed3and4", 2)
        calls.clear()
        match_right_factor(u, u.map(lambda x: x.sigma()))
        assert calls == [4]

    def test_jordan_elimination(self, calls):
        # J(i, 2) + (zeta_3) in a permuted basis: for i the kernels of E and
        # E^2 and one rref for the tops of size 2 (there is no block of size
        # 1), for zeta_3 one kernel, whose basis needs no rref: nothing comes
        # before it
        t = [[I, ONE, Z3], [ZERO, I, ZERO], [ZERO, ZERO, Z3]]
        m = Matrix([[t[(r + 1) % 3][(c + 1) % 3] for c in range(3)] for r in range(3)])
        assert [size for _, size in _jordan_elimination(m).blocks] in ([2, 1], [1, 2])
        assert len(calls) == 4
