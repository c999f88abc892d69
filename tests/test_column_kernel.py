"""linalg.column_kernel against the dense Gauss-Jordan elimination, and its
modular path against the Cyclotomic elimination it replaced.

conftest.dense_nullspace, the elimination Matrix.nullspace ran before it
called column_kernel, is the oracle: on seeded sparse matrices with planted
dependent columns, zero columns and zero matrices, both give the same basis
entry by entry, and the same conductor labels whenever every non-rational
entry has one conductor (rational and conductor-12 inputs).  With conductor-3
and conductor-4 entries mixed, a value of Q(zeta_3) or Q(i) is labelled 3 or
4 when it was computed from that field alone and 12 when an operation
brought in the other one; the two eliminations make different operations,
so there only the values and the admissible labels are compared.

Rational columns take the modular path (linalg._modular_kernel): it is
compared with the sparse LU run on the Cyclotomic entries (linalg._lu_kernel,
the path every irrational column set keeps) and with the dense oracle, on
inputs that need several primes, and with an unlucky prime forced into the
prime stream, which must be rejected.
"""

import random

import pytest

from conftest import KINDS, assert_same_basis, dense_nullspace, rand_columns, rand_entry
from fuchskit import linalg
from fuchskit.linalg import Matrix, column_kernel
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, euler_phi


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


def lu_kernel(columns):
    """The kernel basis of the sparse LU on the Cyclotomic entries, as dense
    vectors: what column_kernel returned for every input before the modular
    path."""
    zero, one = Cyclotomic.zero(), Cyclotomic.one()
    basis = []
    for f, coords in linalg._lu_kernel(columns, linalg._cyclotomic_normal, Cyclotomic.inverse):
        vec = [zero] * len(columns)
        vec[f] = one
        for p, x in coords.items():
            vec[p] = x
        basis.append(vec)
    return basis


def conductor_columns(rng, n, rows, cols):
    """Seeded sparse columns over Q(zeta_n) (rational for n = 1) with planted
    dependent, duplicate and zero columns; an entry has a few nonzero
    coordinates."""
    def entry():
        coords = [Rat(0)] * euler_phi(n)
        for i in rng.sample(range(euler_phi(n)), min(euler_phi(n), rng.randint(1, 3))):
            coords[i] = Rat(rng.randint(-4, 4), rng.randint(1, 4))
        return Cyclotomic(n, coords)

    columns = []
    for _ in range(cols):
        roll = rng.random()
        if columns and roll < 0.3:
            col = {}
            for base in rng.sample(columns, min(len(columns), 2)):
                scale = entry()
                for key, x in base.items():
                    col[key] = col.get(key, Cyclotomic.zero()) + scale * x
        elif columns and roll < 0.4:
            col = dict(rng.choice(columns))
        elif roll < 0.5:
            col = {}
        else:
            col = {key: entry() for key in range(rows) if rng.random() < 0.5}
        columns.append({key: x for key, x in col.items() if not x.is_zero})
    return columns


@pytest.fixture
def primes_drawn(monkeypatch):
    """The moduli each _modular_kernel call draws from the prime stream."""
    drawn, stream = [], linalg._kernel_primes

    def counted():
        drawn.append([])
        for ell in stream():
            drawn[-1].append(ell)
            yield ell

    monkeypatch.setattr(linalg, "_kernel_primes", counted)
    return drawn


class TestModularPath:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 12, 84])
    def test_against_lu_and_dense(self, n, primes_drawn):
        rng = random.Random(f"modular-kernel:{n}")
        sizes = (5, 7) if n == 84 else (8, 12)
        for _ in range(6 if n == 84 else 25):
            rows, cols = rng.randint(1, sizes[0]), rng.randint(1, sizes[1])
            columns = conductor_columns(rng, n, rows, cols)
            primes_drawn.clear()
            got = column_kernel(columns)
            # rational column sets, and only they, take the modular path
            assert bool(primes_drawn) == all(x.n == 1 for col in columns for x in col.values())
            assert_same_basis(got, lu_kernel(columns))
            assert_same_basis(got, dense_kernel(columns, rows))

    def test_zero_duplicate_and_empty_columns(self):
        one, two, third = Cyclotomic.one(), Cyclotomic.from_rat(2), Cyclotomic.from_rat(Rat(1, 3))
        cases = [
            [{}, {0: one}, {}, {0: one}],  # zero and duplicate columns
            [{0: one, 1: third}, {0: one, 1: third}, {0: two, 1: two * third}],  # duplicates of a pivot
            [{0: Cyclotomic.zero()}, {1: one, 0: Cyclotomic.zero()}],  # stored zero entries
            [{} for _ in range(4)],  # the zero matrix
        ]
        assert column_kernel([]) == []
        for columns in cases:
            rows = 1 + max((key for col in columns for key in col), default=0)
            got = column_kernel(columns)
            assert_same_basis(got, lu_kernel(columns))
            assert_same_basis(got, dense_kernel(columns, rows))

    def test_large_entries_take_several_primes(self, primes_drawn):
        # more columns than rows of 90-bit fractions: the kernel coordinates
        # are quotients of minors, far beyond one prime
        rng = random.Random("modular-kernel-crt")
        for trial in range(12):
            rows = rng.randint(1, 4)
            columns = [{key: Cyclotomic.from_rat(Rat(rng.randint(-2**90, 2**90) or 1, rng.randint(1, 2**40)))
                        for key in range(rows)} for _ in range(rows + rng.randint(1, 3))]
            primes_drawn.clear()
            got = column_kernel(columns)
            assert_same_basis(got, lu_kernel(columns))
            assert_same_basis(got, dense_kernel(columns, rows))
            assert len(got) == len(columns) - rows and len(primes_drawn[0]) >= 2, primes_drawn

    @pytest.mark.parametrize("case", ["worse-profile", "lower-rank", "wrong-residue"])
    def test_unlucky_prime_is_rejected(self, monkeypatch, case):
        # the prime 101 comes first, and what it gives must not be returned
        ell, one = 101, Cyclotomic.one()
        columns = {
            # column 0 vanishes mod 101, so column 0 looks free and column 1
            # a pivot: the true profile is better, and restarts the search
            "worse-profile": [{0: Cyclotomic.from_rat(ell)}, {0: one}],
            # full rank over Q, rank 1 mod 101: e_0 fails the exact check
            "lower-rank": [{0: Cyclotomic.from_rat(ell)}, {1: one}],
            # column 1 is 101 times column 0, and the coordinate -101 is 0
            # mod 101: the vector e_1 fails the exact check, and the next
            # prime's residues complete it
            "wrong-residue": [{0: Cyclotomic.from_rat(Rat(1, ell))}, {0: one}],
        }[case]
        drawn, stream = [], linalg._kernel_primes

        def unlucky_first():
            drawn.append(ell)
            yield ell
            for prime in stream():
                drawn.append(prime)
                yield prime

        monkeypatch.setattr(linalg, "_kernel_primes", unlucky_first)
        got = column_kernel(columns)
        assert_same_basis(got, lu_kernel(columns))
        assert_same_basis(got, dense_kernel(columns, 2))
        assert len(drawn) >= 2
