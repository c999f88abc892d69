"""linalg.column_kernel against the dense Gauss-Jordan elimination.

conftest.dense_nullspace, the elimination Matrix.nullspace ran before it
called column_kernel, is the oracle: on seeded sparse matrices with planted
dependent columns, zero columns and zero matrices, both give the same basis
entry by entry, and the same conductor labels whenever every non-rational
entry has one conductor (rational and conductor-12 inputs).  With conductor-3
and conductor-4 entries mixed, a value of Q(zeta_3) or Q(i) is labelled 3 or
4 when it was computed from that field alone and 12 when an operation
brought in the other one; the two eliminations make different operations,
so there only the values and the admissible labels are compared.
"""

import random

import pytest

from conftest import KINDS, assert_same_basis, dense_nullspace, rand_columns, rand_entry
from fuchskit.linalg import Matrix, column_kernel
from fuchskit.scalar import Cyclotomic


def dense_kernel(columns, rows):
    return dense_nullspace(Matrix([[col.get(key, Cyclotomic.zero()) for col in columns] for key in range(rows)]))


class TestAgainstDenseNullspace:
    @pytest.mark.parametrize("kind", KINDS)
    def test_planted_dependencies(self, kind):
        rng = random.Random(f"column-kernel:{kind}")
        dims = 0
        for _ in range(60):
            rows, cols = rng.randint(1, 9), rng.randint(1, 14)
            columns = rand_columns(rng, kind, rows, cols, rng.choice([0.2, 0.5]))
            expected = dense_kernel(columns, rows)
            assert_same_basis(column_kernel(columns), expected, same_labels=kind != "mixed3and4")
            dims += len(expected)
        assert dims > 60  # the planted columns make the kernels nontrivial

    @pytest.mark.parametrize("kind", KINDS)
    def test_banded_window_shape(self, kind):
        # degree-keyed columns shifted along a band, as the window search makes
        rng = random.Random(f"column-kernel-band:{kind}")
        for _ in range(8):
            band, width = rng.randint(1, 4), rng.randint(3, 20)
            shape = [Cyclotomic.zero()]
            while all(x.is_zero for x in shape):
                shape = [rand_entry(rng, kind) for _ in range(band)]
            columns = [{(d + k, 0): x for k, x in enumerate(shape) if not x.is_zero} for d in range(width)]
            columns.insert(rng.randrange(width), dict(columns[rng.randrange(width)]))
            keys = sorted(set().union(*columns))
            rows = [[col.get(key, Cyclotomic.zero()) for col in columns] for key in keys]
            assert_same_basis(column_kernel(columns), dense_nullspace(Matrix(rows)), same_labels=kind != "mixed3and4")

    def test_row_order_does_not_matter(self):
        rng = random.Random("column-kernel-rows")
        for _ in range(20):
            columns = rand_columns(rng, "conductor12", 7, 10, 0.4)
            relabel = list(range(7))
            rng.shuffle(relabel)
            shuffled = [{relabel[key]: x for key, x in col.items()} for col in columns]
            assert_same_basis(column_kernel(shuffled), column_kernel(columns))


class TestZeroColumns:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_columns_among_others(self, kind):
        rng = random.Random(f"column-kernel-zeros:{kind}")
        for _ in range(20):
            columns = rand_columns(rng, kind, 5, 8, 0.5)
            for j in rng.sample(range(len(columns)), 3):
                columns[j] = {}
            assert_same_basis(column_kernel(columns), dense_kernel(columns, 5), same_labels=kind != "mixed3and4")

    def test_zero_matrix(self):
        for rows, cols in [(1, 1), (3, 5), (6, 2)]:
            columns = [{} for _ in range(cols)]
            got = column_kernel(columns)
            assert_same_basis(got, dense_kernel(columns, rows))
            assert got == [[Cyclotomic.one() if i == j else Cyclotomic.zero() for i in range(cols)] for j in range(cols)]

    def test_stored_zero_entries_are_zero(self):
        zero, one = Cyclotomic.zero(), Cyclotomic.one()
        assert column_kernel([{0: zero}, {0: one, 1: zero}]) == [[one, zero]]

    def test_no_columns(self):
        assert column_kernel([]) == []
