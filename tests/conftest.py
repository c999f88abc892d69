"""Shared test helpers: independent numeric oracles, hypothesis strategies,
and a child process that times work under a memory limit.

The library itself never touches floating point; the complex-embedding
oracle below lives only in the tests, as an independent cross-check of the
exact cyclotomic arithmetic.
"""

import cmath
import subprocess
import sys
from itertools import permutations
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, ExponentClass, divisors
from fuchskit.laurent import LaurentPoly
from fuchskit.expring import ExpRingElem, GroupAlgElem
from fuchskit.linalg import Matrix


def embed_complex(c):
    """Numeric value of a Cyclotomic under zeta_N -> exp(2*pi*i/N)."""
    zeta = cmath.exp(2j * cmath.pi / c.n)
    return sum(
        (int(x.numerator) / int(x.denominator)) * zeta**i for i, x in enumerate(c.c)
    )


def assert_close(a, b, tol=1e-9):
    assert abs(a - b) < tol, (a, b)


# -- the dense elimination oracle ----------------------------------------------


def dense_rref(self):
    """Reduced row echelon form by dense Gauss-Jordan elimination; pivots on
    the lowest column index.  This is the elimination Matrix.rref ran before
    it read its result off linalg.column_kernel, kept verbatim (a method
    body, so that a test can also patch it onto Matrix) as the independent
    oracle of column_kernel and of every consumer of rref."""
    m = [list(row) for row in self.data]
    one = self.ring.one()
    pivots = []
    pr = 0
    for col in range(self.cols):
        pivot_row = None
        for r in range(pr, self.rows):
            if not m[r][col].is_zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = m[pr][col].inverse()
        prow = [one if j == col else x if x.is_zero else x * inv for j, x in enumerate(m[pr])]
        m[pr] = prow
        support = [j for j, x in enumerate(prow) if not x.is_zero]
        for r in range(self.rows):
            if r != pr and not m[r][col].is_zero:
                factor = m[r][col]
                row = m[r]
                for j in support:
                    row[j] = row[j] - factor * prow[j]
        pivots.append(col)
        pr += 1
        if pr == self.rows:
            break
    return Matrix(m), tuple(pivots)


def dense_nullspace(self):
    """The kernel basis read off dense_rref: one vector per free column,
    ascending, with a 1 in the free coordinate."""
    red, pivots = dense_rref(self)
    pivot_set = set(pivots)
    zero, one = self.ring.zero(), self.ring.one()
    basis = []
    for free in range(self.cols):
        if free in pivot_set:
            continue
        vec = [zero] * self.cols
        vec[free] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red.data[r][free]
        basis.append(vec)
    return basis


KINDS = ["rational", "conductor12", "mixed3and4"]


def rand_entry(rng, kind):
    """An entry of the given kind, now and then zero."""
    rat = lambda: Rat(rng.randint(-3, 3), rng.randint(1, 3))  # noqa: E731
    if kind == "rational":
        return Cyclotomic.from_rat(rat())
    if kind == "conductor12":
        return Cyclotomic(12, [rat() for _ in range(4)])
    n = rng.choice([1, 3, 4])
    return Cyclotomic(n, [rat() for _ in range(1 if n == 1 else 2)])


def rand_columns(rng, kind, rows, cols, density):
    """Sparse columns over the row keys 0..rows-1; about a third of them are
    planted combinations of up to three earlier columns, and some are zero."""
    columns = []
    for _ in range(cols):
        if columns and rng.random() < 0.35:
            col = {}
            for base in rng.sample(columns, min(len(columns), rng.randint(1, 3))):
                scale = rand_entry(rng, kind)
                for key, x in base.items():
                    col[key] = col.get(key, Cyclotomic.zero()) + scale * x
        elif rng.random() < 0.1:
            col = {}
        else:
            col = {key: rand_entry(rng, kind) for key in range(rows) if rng.random() < density}
        columns.append({key: x for key, x in col.items() if not x.is_zero})
    return columns


def assert_same_basis(got, expected, same_labels=True):
    """Equal vectors (or matrix rows) entry by entry.  With same_labels the
    conductor labels are equal too; otherwise, on mixed conductor-3 and
    conductor-4 input, a value of Q(zeta_3) or Q(i) may be labelled 3 or 4
    by one elimination and 12 by the other, which brought in the other field
    through an operation that cancelled."""
    assert len(got) == len(expected)
    for u, v in zip(got, expected):
        assert len(u) == len(v)
        for x, y in zip(u, v):
            assert x == y
            if same_labels:
                assert x.n == y.n, (x, y)
            else:
                # rational exactly at label 1; a value of a subfield may be
                # carried at the compositum's label
                assert x.n == y.n or {x.n, y.n} in ({3, 12}, {4, 12}), (x, y)


# -- the divisor-search oracle of the rational roots ---------------------------


def rational_roots_oracle(q):
    """Distinct rational roots of a nonzero rational polynomial, ascending.
    This is the divisor search linalg._rational_roots_of ran before it
    lifted the roots of the square-free part l-adically, kept verbatim as the
    independent oracle of that search.

    Clears denominators and divides out x^k to get integer a_0, ..., a_n with
    a_0 != 0; a nonzero root s/t in lowest terms has s | a_0, t | a_n and
    |s/t| below the Cauchy bound, and is tested exactly in integers as
    sum_i a_i s^i t^(n-i) = 0.
    """
    den = lcm(*(int(c.denominator) for c in q))
    ints = [int(c.numerator) * (den // int(c.denominator)) for c in q]
    while ints[-1] == 0:
        ints.pop()
    roots = [Rat(0)] if ints[0] == 0 and len(ints) > 1 else []
    while ints[0] == 0:
        ints.pop(0)
    lead = abs(ints[-1])
    cap = lead + max(abs(c) for c in ints)
    numerators = divisors(abs(ints[0]))
    for t in divisors(lead):
        for s in numerators:
            if gcd(s, t) > 1 or s * lead > cap * t:
                continue
            for r in (s, -s):
                acc, power = ints[-1], 1
                for c in ints[-2::-1]:
                    power *= t
                    acc = acc * r + c * power
                if acc == 0:
                    roots.append(Rat(r, t))
    return sorted(roots)


# -- the permutation-expansion oracle of charpoly and det -------------------------


def _poly_mul(p, q):
    out = [Cyclotomic.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def charpoly_oracle(m):
    """det(x*I - M) by permutation expansion; independent of Berkowitz."""
    n = m.rows
    entries = [
        [
            [-m.data[i][j], Cyclotomic.one()] if i == j else [-m.data[i][j]]
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = [Cyclotomic.zero()] * (n + 1)
    for perm in permutations(range(n)):
        prod = [Cyclotomic.one()]
        for i in range(n):
            prod = _poly_mul(prod, entries[i][perm[i]])
        sign = _perm_sign(perm)
        for k, c in enumerate(prod):
            total[k] = total[k] + (c if sign > 0 else -c)
    return total


def det_oracle(m):
    """det(M) by permutation expansion, over any commutative ring."""
    total = m.ring.zero()
    for perm in permutations(range(m.rows)):
        prod = m.ring.one()
        for i in range(m.rows):
            prod = prod * m.data[i][perm[i]]
        total = total + prod if _perm_sign(perm) > 0 else total - prod
    return total


# -- hypothesis strategies ---------------------------------------------------

rationals = st.builds(
    lambda p, q: Rat(p, q), st.integers(-12, 12), st.integers(1, 12)
)

exponent_classes = st.builds(ExponentClass, rationals)

small_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cyclotomics(draw):
    from fuchskit.scalar import euler_phi

    n = draw(small_conductors)
    coeffs = [draw(rationals) for _ in range(euler_phi(n))]
    return Cyclotomic(n, coeffs)


@st.composite
def laurents(draw, max_terms=3, max_degree=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        d = draw(st.integers(-max_degree, max_degree))
        terms[d] = Cyclotomic.from_rat(draw(rationals))
    return LaurentPoly(terms)


@st.composite
def groupalgs(draw, max_classes=2):
    parts = {}
    for _ in range(draw(st.integers(0, max_classes))):
        parts[draw(exponent_classes)] = draw(laurents())
    return GroupAlgElem(parts)


@st.composite
def exprings(draw, max_ell=3):
    return ExpRingElem([draw(groupalgs()) for _ in range(draw(st.integers(0, max_ell)))])


@pytest.fixture
def rng():
    import random

    return random.Random(20250809)


# -- child processes ----------------------------------------------------------

_CHILD = """
import resource, sys, time
try:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
except (ValueError, OSError):
    pass
from fuchskit.scalar import Cyclotomic
{setup}
start = time.perf_counter()
{work}
elapsed = time.perf_counter() - start
try:
    # the peak of this address space; ru_maxrss survives exec, so it would
    # carry the peak of the test process that started this one
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 if sys.platform == "darwin" else 1)
print(elapsed, kb / 1024)
"""


def run_child(setup, work, *args, timeout=120):
    """Seconds and peak MB of work in a child process under an address-space
    limit, after setup and the imports; a child still running after timeout
    seconds fails the test instead of hanging the suite."""
    pytest.importorskip("resource")
    import os

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = _CHILD.format(setup=setup, work=work)
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env, timeout=timeout)
    assert done.returncode == 0, done.stderr
    return tuple(map(float, done.stdout.split()))
