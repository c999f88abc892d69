"""Exact dense linear algebra over the cyclotomic scalars.

Matrix is generic over any commutative ring element type exposing zero()/
one() classmethods and the usual operators; field algorithms (rref,
inverse, Jordan form) additionally need .inverse() on entries, which
Cyclotomic provides.

The eigenvalue finder is deliberately restricted to Q union the roots of
unity: that is exactly the eigenvalue set reachable through gamma on
rational exponent classes.  The degree of the polynomial bounds the orders
that can occur, so the search is a decision, and anything else is an honest
EigenvalueNotFound instead of an approximation.
"""

from dataclasses import dataclass
from math import gcd, lcm

from .errors import DivisionByZero, EigenvalueNotFound, NonSquare
from .ratio import Rat, is_int
from .scalar import (
    Cyclotomic,
    _divmod_monic,
    _factorize,
    _is_probable_prime,
    _poly_xgcd,
    cyclotomic_polynomial,
    divisors,
    euler_phi,
)


class Matrix:
    """Immutable dense matrix; entries share one ring element type."""

    __slots__ = ("rows", "cols", "data")
    __hash__ = None

    def __init__(self, data):
        data = tuple(tuple(row) for row in data)
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n, ring=Cyclotomic):
        z, o = ring.zero(), ring.one()
        return cls([[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols, ring=Cyclotomic):
        z = ring.zero()
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def block_diag(cls, blocks, ring=None):
        ring = ring or type(blocks[0].data[0][0])
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        z = ring.zero()
        out = [[z] * m for _ in range(n)]
        r = c = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r + i][c + j] = b.data[i][j]
            r += b.rows
            c += b.cols
        return cls(out)

    @classmethod
    def from_columns(cls, columns):
        return cls([[columns[j][i] for j in range(len(columns))] for i in range(len(columns[0]))])

    # -- bookkeeping -------------------------------------------------------

    @property
    def ring(self):
        return type(self.data[0][0])

    @property
    def is_square(self):
        return self.rows == self.cols

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def map(self, fn):
        return Matrix([[fn(x) for x in row] for row in self.data])

    def transpose(self):
        return Matrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)]
        )

    def __neg__(self):
        return self.map(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            bt = other.transpose().data
            return Matrix(
                [[_dot(row, col) for col in bt] for row in self.data]
            )
        if isinstance(other, (list, tuple)):
            if self.cols != len(other):
                raise ValueError("shape mismatch")
            return [_dot(row, other) for row in self.data]
        return NotImplemented

    def scale(self, s):
        return self.map(lambda x: x * s)

    def kron(self, other):
        """Kronecker product, row-major block convention."""
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.data[i][j]
                    row.extend(a * other.data[k][l] for l in range(other.cols))
                out.append(row)
        return Matrix(out)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for r1, r2 in zip(self.data, other.data) for a, b in zip(r1, r2))
        )

    def __repr__(self):
        return "Matrix(" + "; ".join(", ".join(repr(x) for x in row) for row in self.data) + ")"

    # -- field algorithms (entries need .inverse()) -------------------------

    def rref(self):
        """Reduced row echelon form; pivots on the lowest column index.
        Rows are treated sparsely (zero entries of the pivot row are skipped)."""
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

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Deterministic kernel basis: one vector per free column, ascending,
        with a 1 in the free coordinate."""
        red, pivots = self.rref()
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

    def inverse(self):
        if not self.is_square:
            raise NonSquare("inverse of a non-square matrix")
        n = self.rows
        zero, one = self.ring.zero(), self.ring.one()
        aug = Matrix(
            [list(self.data[i]) + [one if i == j else zero for j in range(n)] for i in range(n)]
        )
        red, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise DivisionByZero("matrix is singular")
        return Matrix([row[n:] for row in red.data])


def _dot(xs, ys):
    it = zip(xs, ys)
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def _berkowitz(m):
    """Coefficients (ascending) of det(x*I - M) by Berkowitz's algorithm:
    division-free, O(n^4) ring operations over any commutative ring.

    Grows the trailing principal submatrix a[k:, k:] one row and column at a
    time; its polynomial is a lower-triangular Toeplitz matrix with first
    column 1, -a_kk, -R C, -R A C, -R A^2 C, ... times the previous one, where
    R, C are row and column k beside the submatrix A = a[k+1:, k+1:].  The
    list t below holds that column without its leading 1.
    """
    if not m.is_square:
        raise NonSquare("characteristic polynomial of a non-square matrix")
    n, a = m.rows, m.data
    vec = [m.ring.one()]  # descending coefficients
    for k in range(n - 1, -1, -1):
        row = a[k][k + 1 :]
        col = [a[i][k] for i in range(k + 1, n)]
        t = [-a[k][k]]
        for i in range(n - k - 1):
            if i:
                col = [_dot(a[r][k + 1 :], col) for r in range(k + 1, n)]
            t.append(-_dot(row, col))
        vec = vec[:1] + [x + _dot(t[i - 1 :: -1], vec) for i, x in enumerate(vec[1:] + [m.ring.zero()], 1)]
    return vec[::-1]


def det_cofactor(m):
    """Determinant, (-1)^n times the constant coefficient of the characteristic
    polynomial; needs only ring operations, so it also works over K[t,1/t]
    and the exponent ring."""
    c0 = _berkowitz(m)[0]
    return c0 if m.rows % 2 == 0 else -c0


def det_and_adjugate(m):
    """det(M) and the classical adjugate, adj(M) * M = det(M) * I, from one
    characteristic polynomial.

    By Cayley-Hamilton, adj(M) = (-1)^(n-1) (M^(n-1) + c_(n-1) M^(n-2) + ...
    + c_1 I) for det(x*I - M) = x^n + c_(n-1) x^(n-1) + ... + c_0.
    """
    c = _berkowitz(m)
    acc = Matrix.identity(m.rows, m.ring)
    for k in range(m.rows - 1, 0, -1):  # Horner: acc * M + c_k I, and I * M = M
        prod = m if k == m.rows - 1 else acc * m
        acc = Matrix([[x + c[k] if i == j else x for j, x in enumerate(row)] for i, row in enumerate(prod.data)])
    return (-c[0], acc) if m.rows % 2 else (c[0], -acc)


def adjugate(m):
    """Classical adjugate over a commutative ring: adj(M) * M = det(M) * I."""
    return det_and_adjugate(m)[1]


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalues


def charpoly(m):
    """Coefficients (ascending) of det(x*I - M), monic."""
    return _berkowitz(m)


def poly_eval(p, x):
    acc = p[-1]
    for c in p[-2::-1]:
        acc = acc * x + c
    return acc


def poly_div_linear(p, lam):
    """Divide p by (x - lam); requires lam to be a root. Returns the quotient."""
    n = len(p) - 1
    q = [Cyclotomic.zero()] * n
    carry = p[n]
    for i in range(n - 1, -1, -1):
        q[i] = carry
        carry = p[i] + carry * lam
    if not carry.is_zero:
        raise ArithmeticError("not a root")
    return q


def _rational_roots_of(q):
    """Distinct rational roots of a nonzero rational polynomial, ascending.

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


def _rational_part(p):
    """gcd over Q of the components p_i of p = sum_i z^i p_i(x), written in the
    power basis z^i of Q(zeta_N), N the lcm of the coefficient conductors, as
    a primitive integer polynomial.

    The basis is Q-linearly independent, so a polynomial over Q divides p
    exactly when it divides every p_i: the rational roots of p, and the
    cyclotomic factors Phi_d of p for d coprime to N, are those of the gcd.
    The p_i are read as integers, scaled by the common denominator of the
    coefficients of p, which changes no divisor.
    """
    n = lcm(*(c.n for c in p))
    den = lcm(*(c._den for c in p))
    vecs = [[x * (den // c._den) for x in c._embed_num(n)] for c in p]
    parts = [q for q in zip(*vecs) if any(q)]
    g = parts[0]
    for q in parts[1:]:
        g = _poly_xgcd(g, q)[0]
    content = gcd(*g)
    return [x // content for x in g]


def rational_roots(p):
    """Distinct rational roots of p (Cyclotomic coefficients, not all zero),
    ascending."""
    return _rational_roots_of(_rational_part(p))


def _unit_root_filter(p, n, d, exps):
    """The exponents j of exps for which zeta_d^j can be a root of p, whose
    coefficients lie in Q(zeta_n).

    Reduces modulo a prime l = 1 (mod L), L = lcm(n, d): sending zeta_L to an
    element w of order L in F_l is a ring map from the elements whose
    denominators l does not divide, so it sends a root to a root.  When l
    divides a denominator of p, every exponent is kept.
    """
    big = lcm(n, d)
    ell = big + 1
    while not _is_probable_prime(ell):
        ell += big
    primes = _factorize(big)
    w, h = 1, 1
    while any(pow(w, big // r, ell) == 1 for r in primes):
        h += 1
        w = pow(h, (ell - 1) // big, ell)
    image = []
    for c in p:
        if c._den % ell == 0:
            return exps
        step, acc = big // c.n, 0
        for i, x in enumerate(c._num):
            if x:
                acc += x * pow(w, step * i, ell)
        image.append(acc * pow(c._den, -1, ell) % ell)
    return [j for j in exps if poly_eval(image, pow(w, big // d * j, ell)) % ell == 0]


def _root_orders(n, k):
    """The orders d >= 3 of the roots of unity that a polynomial of degree k
    over Q(zeta_n) can have, ascending (a generator).

    zeta_d can be a root only when [Q(zeta_n, zeta_d) : Q(zeta_n)] =
    phi(lcm(n, d)) / phi(n) is at most k.  Write d = g e with g = gcd(n, d):
    then lcm(n, d) = n e and phi(n e) >= phi(n) phi(e), so phi(e) <= k, and
    as phi(e) >= sqrt(e / 2), e <= 2 k^2.  So finitely many orders qualify.
    """
    width = euler_phi(n) * k
    for d in sorted({g * e for g in divisors(n) for e in range(1, 2 * k * k + 1)}):
        if d >= 3 and euler_phi(lcm(n, d)) <= width:
            yield d


def _root_candidates(p):
    """Possible roots of p in Q union mu_infinity, in sort_key order: the
    rational roots, then zeta_d^j by order d (see _root_orders) and
    exponent j."""
    rational = _rational_part(p)
    for r in _rational_roots_of(rational):
        yield Cyclotomic.from_rat(r)
    n = lcm(*(c.n for c in p))
    for d in _root_orders(n, len(p) - 1):
        exps = [j for j in range(1, d) if gcd(j, d) == 1]
        if gcd(n, d) > 1:
            exps = _unit_root_filter(p, n, d, exps)
        elif any(_divmod_monic(rational, cyclotomic_polynomial(d))[1]):
            continue
        for j in exps:
            yield Cyclotomic.root_of_unity(d, j)


def poly_roots(p):
    """All roots of p (Cyclotomic coefficients, nonzero) that lie in
    Q union mu_infinity, with multiplicities, in sort_key order.

    Raises EigenvalueNotFound when the roots do not account for the full
    degree: the search is exhaustive, so that certifies a factor with no root
    in Q or in the roots of unity.
    """
    while p and p[-1].is_zero:
        p = p[:-1]
    if len(p) <= 1:
        return []
    remaining = list(p)
    roots = []
    candidates = _root_candidates(p)
    while len(remaining) > 1:
        lam = next(candidates, None)
        if lam is None:
            raise EigenvalueNotFound(
                "characteristic polynomial has a factor of degree "
                f"{len(remaining) - 1} with no root in Q or in the roots of unity"
            )
        mult = 0
        while len(remaining) > 1 and poly_eval(remaining, lam).is_zero:
            remaining = poly_div_linear(remaining, lam)
            mult += 1
        if mult:
            roots.append((lam, mult))
    return roots


def _as_found(x):
    """x as poly_roots finds it: a rational at label 1, a root of unity as
    root_of_unity(q, p) at its order q; None for any other value."""
    if x.n == 1:
        return x
    ru = x.as_root_of_unity()
    return None if ru is None else Cyclotomic.root_of_unity(*ru)


def eigenvalues(m):
    """Eigenvalues with algebraic multiplicity, in sort_key order, as
    poly_roots(charpoly(m)) gives them.

    When m is upper triangular and its diagonal lies in Q union mu_infinity,
    the counted diagonal is read off in O(n^2) instead; any other m raises
    EigenvalueNotFound from the general search when a root lies outside.
    """
    if m.is_square and all(x.is_zero for i, row in enumerate(m.data) for x in row[:i]):
        counts = {}
        for lam in (_as_found(row[i]) for i, row in enumerate(m.data)):
            if lam is None:
                return poly_roots(charpoly(m))
            counts.setdefault(lam.sort_key(), [lam, 0])[1] += 1
        return [(lam, count) for _, (lam, count) in sorted(counts.items())]
    return poly_roots(charpoly(m))


def integer_eigenvalues(m):
    """Integer eigenvalues with geometric multiplicity: the candidates come
    from the rational root theorem, and each multiplicity is an exact kernel
    dimension."""
    n = m.rows
    ident = Matrix.identity(n)
    return [
        (int(r), n - (m - ident.scale(Cyclotomic.from_rat(r))).rank())
        for r in rational_roots(charpoly(m))
        if is_int(r)
    ]


# ---------------------------------------------------------------------------
# Jordan normal form


@dataclass
class JordanData:
    """blocks: list of (eigenvalue, size), canonically ordered; transform P
    satisfies P^-1 * M * P = block diagonal of J(eigenvalue, size)."""

    blocks: list
    transform: Matrix

    def jordan_matrix(self):
        return Matrix.block_diag([jordan_block(lam, size) for lam, size in self.blocks])


def jordan_block(lam, n):
    """J(lam, n): lam on the diagonal, 1 on the superdiagonal."""
    lam = lam if isinstance(lam, Cyclotomic) else Cyclotomic.from_rat(lam)
    z, o = Cyclotomic.zero(), Cyclotomic.one()
    return Matrix(
        [[lam if i == j else o if j == i + 1 else z for j in range(n)] for i in range(n)]
    )


def jordan_form(m):
    """Exact Jordan normal form with transformation matrix.

    Blocks are sorted by (canonical eigenvalue order, size descending).  A
    matrix already in Jordan shape (nonzero entries only on the diagonal and
    the superdiagonal, each nonzero superdiagonal entry a 1 between equal
    diagonal entries) whose diagonal lies in Q union mu_infinity is read off
    in O(n^2): its blocks, stably sorted, and the 0/1 permutation matrix that
    puts its columns in that order, which is what the general elimination
    returns for it.  Any other matrix goes through _jordan_elimination.
    """
    if not m.is_square:
        raise NonSquare("Jordan form of a non-square matrix")
    n, d = m.rows, m.data
    if any(not x.is_zero for i, row in enumerate(d) for j, x in enumerate(row) if j != i and j != i + 1):
        return _jordan_elimination(m)
    runs, start = [], 0
    for i in range(n):
        if i + 1 < n and not d[i][i + 1].is_zero:
            if d[i][i + 1] != 1 or d[i][i] != d[i + 1][i + 1]:
                return _jordan_elimination(m)
            continue
        lam = _as_found(d[start][start])
        if lam is None:
            return _jordan_elimination(m)
        runs.append((lam, i + 1 - start, start))
        start = i + 1
    runs.sort(key=lambda run: (run[0].sort_key(), -run[1]))
    order = [first + k for _, size, first in runs for k in range(size)]
    zero, one = Cyclotomic.zero(), Cyclotomic.one()
    transform = Matrix([[one if order[j] == i else zero for j in range(n)] for i in range(n)])
    return JordanData(blocks=[(lam, size) for lam, size, _ in runs], transform=transform)


def _jordan_elimination(m):
    """jordan_form of a square matrix by elimination.

    For each eigenvalue lam, with E = M - lam, every kernel ker E^k is
    computed once, as a nullspace basis, until its dimension reaches the
    algebraic multiplicity.  The chain tops of size s, from the largest size
    down, are the vectors of the ker E^s basis, in basis order, that are
    independent of ker E^(s-1) and of the chains already built: the pivot
    columns of one rref.  A top v contributes the columns E^(s-1) v, ...,
    E v, v.
    """
    ident = Matrix.identity(m.rows)
    blocks = []
    basis_columns = []
    for lam, mult in eigenvalues(m):
        e1 = m - ident.scale(lam)
        power, kernels = e1, [[], e1.nullspace()]
        while len(kernels[-1]) < mult:
            power = power * e1
            kernels.append(power.nullspace())
            if len(kernels[-1]) == len(kernels[-2]):
                raise AssertionError("generalized eigenspace smaller than the multiplicity")
        chains = []
        for size in range(len(kernels) - 1, 0, -1):
            known = kernels[size - 1] + chains
            for col in Matrix.from_columns(known + kernels[size]).rref()[1]:
                if col < len(known):
                    continue
                chain = [kernels[size][col - len(known)]]
                for _ in range(size - 1):
                    chain.append(e1 * chain[-1])
                chains.extend(chain)
                basis_columns.extend(reversed(chain))
                blocks.append((lam, size))
    return JordanData(blocks=blocks, transform=Matrix.from_columns(basis_columns))
