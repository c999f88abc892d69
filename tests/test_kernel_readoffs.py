"""Answers read straight off the canonical kernel basis, against the code paths
they replaced, kept here as oracles.

- Matrix.inverse reads X off the kernel of [M | I]; the old one reduced
  [M | I] with rref and sliced the right half.  Values, conductor labels
  and the DivisionByZero on singular matrices agree.
- Matrix.shift(c) adds c to the diagonal; the old sites added (or
  subtracted) Matrix.identity(n).scale(c).  Entries agree with their labels.
- linalg._lifted always reconstructs; the old one took residues within the
  bound as integers over 1.  Both give the same vector once zero coordinates
  are dropped, and column_kernel the same basis.
- Cyclotomic.root_of_unity past phi(q) runs the Phi_r power series for every
  power; long division by Phi_q, Cyclotomic(q, [0] * p + [1]), is the
  oracle.
- _modular_kernel skips a prime with a worse rank profile after a good one.
"""

import random
from itertools import chain

import pytest

from conftest import assert_same_basis
from fuchskit import linalg
from fuchskit.errors import DivisionByZero
from fuchskit.linalg import Matrix, column_kernel
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, euler_phi

ZERO, ONE = Cyclotomic.zero(), Cyclotomic.one()


def exact(x):
    """A Cyclotomic's bytes: label, numerators, denominator."""
    return x.n, x._num, x._den


def assert_identical(got, expected):
    assert (got.rows, got.cols) == (expected.rows, expected.cols)
    assert [list(map(exact, row)) for row in got.data] == [list(map(exact, row)) for row in expected.data]


def rand_entry(rng, label):
    """A nonzero-ish entry at the label (0 for mixed Q(zeta_3)/Q(i))."""
    n = rng.choice([1, 3, 4]) if label == 0 else label
    return Cyclotomic(n, [Rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(euler_phi(n))])


def rand_square(rng, label, n):
    return Matrix([[rand_entry(rng, label) for _ in range(n)] for _ in range(n)])


LABELS = [1, 3, 4, 12, 0]  # 0: entries of Q(zeta_3) and Q(i) mixed


# -- Matrix.inverse -------------------------------------------------------------


def rref_inverse(m):
    """The inverse as it was computed before: augment, rref, slice."""
    n = m.rows
    aug = Matrix([list(m.data[i]) + [ONE if i == j else ZERO for j in range(n)] for i in range(n)])
    red, pivots = aug.rref()
    if tuple(pivots) != tuple(range(n)):
        raise DivisionByZero("matrix is singular")
    return Matrix([row[n:] for row in red.data])


def singular(rng, label, n):
    """A square matrix with column d a combination of other columns; d is
    any column, not only the last, and now and then a column is zero."""
    m = rand_square(rng, label, n)
    cols = m.columns()
    d = rng.randrange(n)
    if n == 1 or rng.random() < 0.2:
        cols[d] = [ZERO] * n
    else:
        others = [j for j in range(n) if j != d]
        cols[d] = [ZERO] * n
        for j in rng.sample(others, rng.randint(1, len(others))):
            c = rand_entry(rng, label)
            cols[d] = [x + c * y for x, y in zip(cols[d], cols[j])]
    return Matrix.from_columns(cols), d


class TestInverse:
    @pytest.mark.parametrize("label", LABELS)
    def test_against_rref_slice(self, label):
        rng = random.Random(f"inverse:{label}")
        done = 0
        for _ in range(30):
            m = rand_square(rng, label, rng.randint(1, 5))
            try:
                expected = rref_inverse(m)
            except DivisionByZero:
                with pytest.raises(DivisionByZero):
                    m.inverse()
                continue
            got = m.inverse()
            assert_identical(got, expected)
            assert got * m == Matrix.identity(m.rows)
            done += 1
        assert done > 20

    @pytest.mark.parametrize("label", LABELS)
    def test_singular_raises_on_both(self, label):
        rng = random.Random(f"inverse-singular:{label}")
        positions = set()
        for _ in range(20):
            m, d = singular(rng, label, rng.randint(1, 5))
            positions.add(d == m.cols - 1)
            with pytest.raises(DivisionByZero):
                rref_inverse(m)
            with pytest.raises(DivisionByZero):
                m.inverse()
        assert positions == {True, False}  # the dependent column is not always the last


# -- M + cI by a diagonal shift ---------------------------------------------------


class TestShift:
    @pytest.mark.parametrize("label", LABELS)
    def test_against_scaled_identity(self, label):
        rng = random.Random(f"shift:{label}")
        scalars = [Cyclotomic.from_rat(Rat(-3, 2)), Cyclotomic.from_rat(2), ZERO, ONE,
                   Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4, 3), Cyclotomic.root_of_unity(12, 5)]
        for _ in range(10):
            n = rng.randint(1, 5)
            m = rand_square(rng, label, n)
            for c in scalars:
                ident = Matrix.identity(n)
                assert_identical(m.shift(c), m + ident.scale(c))
                assert_identical(m.shift(-c), m - ident.scale(c))  # the M - lam of the eigen-sites


# -- _lifted ------------------------------------------------------------------------


def old_lifted(columns, f, residues, modulus, bound):
    """_lifted with its small-integer branch, which kept zero coordinates."""
    nums = {p: (a + bound) % modulus - bound for p, a in residues.items()}
    if max(nums.values(), default=0) <= bound:
        den, rows = 1, dict(columns[f])
    elif vec := linalg._reconstructed(residues, modulus, bound):
        den, nums = vec
        rows = {k: den * x for k, x in columns[f].items()}
    else:
        return None
    for p, a in nums.items():
        for k, x in columns[p].items():
            rows[k] = rows.get(k, 0) + a * x
    return None if any(rows.values()) else (f, den, nums)


def without_zeros(lifted):
    if lifted is None:
        return None
    f, den, nums = lifted
    return f, den, {p: x for p, x in nums.items() if x}


def integer_columns(rng, rows, cols, size):
    """Seeded integer columns with planted combinations, duplicates, zero
    columns and zero entries."""
    columns = []
    for _ in range(cols):
        roll = rng.random()
        if columns and roll < 0.35:
            col = {}
            for base in rng.sample(columns, min(len(columns), 2)):
                c = rng.randint(-size, size)
                for k, x in base.items():
                    col[k] = col.get(k, 0) + c * x
        elif columns and roll < 0.45:
            col = dict(rng.choice(columns))
        elif roll < 0.5:
            col = {}
        else:
            col = {k: rng.randint(-size, size) for k in range(rows) if rng.random() < 0.6}
        columns.append({k: x for k, x in col.items() if x})
    return columns


def as_cyclotomic_columns(columns):
    return [{k: Cyclotomic.from_rat(x) for k, x in col.items()} for col in columns]


class TestLifted:
    SIZES = [3, 2**20, 2**70]  # one prime lifts; two or more primes are needed

    @pytest.mark.parametrize("size", SIZES)
    def test_same_lifts_in_column_kernel(self, monkeypatch, size):
        rng = random.Random(f"lifted:{size}")
        lifted = linalg._lifted
        compared, over_one = [], 0

        def both(columns, f, residues, modulus, bound):
            new = lifted(columns, f, residues, modulus, bound)
            assert new == without_zeros(old_lifted(columns, f, residues, modulus, bound))
            compared.append(new is not None)
            return new

        for _ in range(25):
            columns = integer_columns(rng, rng.randint(1, 5), rng.randint(1, 8), size)
            cyclo = as_cyclotomic_columns(columns)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_lifted", both)
                got = column_kernel(cyclo)
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_lifted", old_lifted)
                old = column_kernel(cyclo)
            assert [list(map(exact, v)) for v in got] == [list(map(exact, v)) for v in old]
            over_one += sum(any(x._den > 1 for x in v) for v in got)
        assert any(compared)
        if size == self.SIZES[-1]:
            assert not all(compared) and over_one  # some lifts fail at one prime and need another

    def test_zero_coordinates(self):
        # residues of true kernel vectors with every pivot coordinate present,
        # zeros included, and the same with one residue spoiled; eight primes
        # bound every coordinate here
        rng = random.Random("lifted-zeros")
        primes, modulus = linalg._kernel_primes(), 1
        for _ in range(8):
            modulus *= next(primes)
        bound = linalg.isqrt(modulus >> 1)
        zeros = failures = 0
        for _ in range(40):
            columns = integer_columns(rng, rng.randint(1, 4), rng.randint(2, 7), rng.choice([3, 2**20]))
            for vec in column_kernel(as_cyclotomic_columns(columns)):
                f = max(j for j, x in enumerate(vec) if not x.is_zero)
                coords = {p: vec[p].rational_value for p in range(f)}
                residues = {p: x.numerator * pow(x.denominator, -1, modulus) % modulus for p, x in coords.items()}
                zeros += sum(not a for a in residues.values())
                expected = without_zeros(old_lifted(columns, f, residues, modulus, bound))
                assert expected is not None
                assert linalg._lifted(columns, f, residues, modulus, bound) == expected
                if residues:
                    p = rng.choice(list(residues))
                    residues[p] = (residues[p] + rng.randint(1, modulus - 1)) % modulus
                    expected = without_zeros(old_lifted(columns, f, residues, modulus, bound))
                    assert linalg._lifted(columns, f, residues, modulus, bound) == expected
                    failures += expected is None
        assert zeros and failures


# -- Cyclotomic.root_of_unity ---------------------------------------------------------


class TestRootOfUnity:
    def test_every_power_up_to_210(self):
        for q in range(1, 211):
            for p in range(q):
                assert exact(Cyclotomic.root_of_unity(q, p)) == exact(Cyclotomic(q, [0] * p + [1])), (q, p)

    def test_large_conductor(self):
        q = 30030
        phi = euler_phi(q)  # 5760; q is square-free, so p = phi is the series' first case
        for p in (1, phi - 1, phi, phi + 1, phi + 7, phi + 200):
            assert exact(Cyclotomic.root_of_unity(q, p)) == exact(Cyclotomic(q, [0] * p + [1])), p


# -- the skipped prime of _modular_kernel ------------------------------------------------


class TestSkippedPrime:
    def test_worse_profile_after_a_good_prime_is_skipped(self, monkeypatch):
        # column 0 is bad * c, zero modulo bad: there column 0 looks free and
        # column 2 a pivot, a worse profile than the good primes' free [2]
        bad = 101
        rng = random.Random("skipped-prime")
        big = lambda: rng.randint(2**50, 2**60)  # noqa: E731
        columns = [{0: Cyclotomic.from_rat(bad * big())},
                   {0: Cyclotomic.from_rat(big()), 1: Cyclotomic.from_rat(big())},
                   {0: Cyclotomic.from_rat(big()), 1: Cyclotomic.from_rat(-big())}]
        stream = linalg._kernel_primes
        drawn = []

        def counted():
            for ell in stream():
                drawn.append(ell)
                yield ell

        def bad_second():
            primes = stream()
            for ell in chain([next(primes), bad], primes):
                drawn.append(ell)
                yield ell

        monkeypatch.setattr(linalg, "_kernel_primes", counted)
        clean = column_kernel(columns)
        clean_drawn, drawn[:] = list(drawn), []
        monkeypatch.setattr(linalg, "_kernel_primes", bad_second)
        skipping = linalg._lu_kernel
        profiles = []

        def seen(cols, normal, inverse):
            image = skipping(cols, normal, inverse)
            profiles.append([f for f, _ in image])
            return image

        lifted, moduli = linalg._lifted, []

        def lifting(cols, f, residues, modulus, bound):
            moduli.append(modulus)
            return lifted(cols, f, residues, modulus, bound)

        monkeypatch.setattr(linalg, "_lu_kernel", seen)
        monkeypatch.setattr(linalg, "_lifted", lifting)
        got = column_kernel(columns)
        assert len(clean_drawn) >= 2  # one prime cannot lift the kernel
        assert profiles[:2] == [[2], [0]]  # the bad prime's profile is worse
        assert moduli and all(m % bad for m in moduli)  # and its residues are never combined
        assert drawn == [clean_drawn[0], bad, *clean_drawn[1:]]  # it only costs one draw
        assert [list(map(exact, v)) for v in got] == [list(map(exact, v)) for v in clean]
        expected = []  # the Cyclotomic elimination's basis
        for f, coords in skipping(columns, linalg._cyclotomic_normal, Cyclotomic.inverse):
            vec = [ZERO] * len(columns)
            vec[f] = ONE
            for p, x in coords.items():
                vec[p] = x
            expected.append(vec)
        assert_same_basis(got, expected)
