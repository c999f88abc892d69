"""Exact linear algebra over the cyclotomic scalars: dense matrices, and
column_kernel, the one exact elimination.

Matrix is generic over any commutative ring element type exposing zero()/
one() classmethods and the usual operators.  Its field algorithms need
Cyclotomic entries: nullspace is column_kernel of the columns, and rref,
rank and inverse read their answers off that kernel basis.

Every product and every step of Berkowitz's algorithm is a sum of products
(_dot).  A ring may provide a fused one, sum_of_products(xs, ys, n), as
Cyclotomic and LaurentPoly do: one reduction modulo Phi_n and one gcd per
coefficient instead of one per term.  Its bytes are the left fold's by the
label rule: the fold's label is the lcm of the labels met, demoted to 1
only at a rational value, so when the coefficients carry labels 1 and one
n, every partial sum is at 1 or n, 1 exactly when rational, and the label
follows from the value.  Other sums (E_A, two or more irrational labels,
mixed types) take the left fold in its order, skipping the pairs with a
zero factor: a zero adds neither value nor label.

column_kernel takes rational columns modulo primes and certifies the lifted
basis exactly (each vector in the kernel, cols - rank mod l of them); columns
with an irrational entry keep the Cyclotomic elimination, whose labels the
library prints.

The eigenvalue finder is deliberately restricted to Q union the roots of
unity: that is exactly the eigenvalue set reachable through gamma on
rational exponent classes.  Its rational half lifts the roots of the
square-free part modulo a prime l-adically and reconstructs them, so it
tries at most deg candidates and factors no coefficient.  The degree of the
polynomial bounds the orders of the roots of unity that can occur, so the
search is a decision, and anything else is an honest EigenvalueNotFound
instead of an approximation.
"""

from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm
from operator import add, sub

from .errors import DivisionByZero, EigenvalueNotFound, NonSquare
from .ratio import Rat, is_int
from .scalar import (
    Cyclotomic,
    _common_numerators,
    _poly_xgcd,
    _prime_root,
    _rat,
    _value_mod,
    divisors,
    euler_phi,
)


class Matrix:
    """Immutable dense matrix; entries share one ring element type."""

    __slots__ = ("rows", "cols", "data")
    __hash__ = None

    def __init__(self, data):
        data = tuple(map(tuple, data))
        if not data or not data[0]:
            raise ValueError("matrix must be nonempty")
        cols = len(data[0])
        if len(set(map(len, data))) != 1:
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
    def block_diag(cls, blocks):
        ring = type(blocks[0].data[0][0])
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

    def _entrywise(self, other, op):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix([list(map(op, r1, r2)) for r1, r2 in zip(self.data, other.data)])

    def __add__(self, other):
        return self._entrywise(other, add)

    def __sub__(self, other):
        return self._entrywise(other, sub)

    def __neg__(self):
        return self.map(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            label = _fused_label(self.data, other.data) if self.cols > 1 else None  # else one-term sums
            columns = list(zip(*other.data))
            return Matrix([[_dot(row, col, label) for col in columns] for row in self.data])
        if isinstance(other, (list, tuple)):
            if self.cols != len(other):
                raise ValueError("shape mismatch")
            label = _fused_label(self.data, [other]) if self.cols > 1 else None
            return [_dot(row, other, label) for row in self.data]
        return NotImplemented

    def scale(self, s):
        return self.map(lambda x: x * s)

    def shift(self, c):
        """M + c I, by adding c to the diagonal only (square M)."""
        return Matrix([[x + c if i == j else x for j, x in enumerate(row)] for i, row in enumerate(self.data)])

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

    # -- field algorithms (Cyclotomic entries) --------------------------------

    def rref(self):
        """Reduced row echelon form and its pivot columns, read off the
        kernel basis of nullspace: a free column is one with a kernel vector
        (whose last nonzero entry, at that column, is a 1), the pivots are
        the other columns, and row r holds at a free column f minus the
        coordinate of pivot r in the vector of f."""
        zero, one = self.ring.zero(), self.ring.one()
        free = {max(j for j, x in enumerate(vec) if not x.is_zero): vec for vec in self.nullspace()}
        pivots = tuple(j for j in range(self.cols) if j not in free)
        rows = [[one if j == p else -free[j][p] if j in free else zero for j in range(self.cols)] for p in pivots]
        rows += [[zero] * self.cols for _ in range(self.rows - len(pivots))]
        return Matrix(rows), pivots

    def rank(self):
        """cols minus the number of nullspace vectors, with no reduced rows."""
        return self.cols - len(self.nullspace())

    def nullspace(self):
        """Deterministic kernel basis: column_kernel of the columns, one
        vector per free column, ascending, with a 1 in the free coordinate."""
        return column_kernel([{i: x for i, x in enumerate(col) if not x.is_zero} for col in self.columns()])

    def inverse(self):
        """X = M^-1, read off the kernel of [M | I]: the vector of free column
        n + j is e_(n+j) - sum_p X[p][j] e_p, so X[p][j] is minus its p-th
        coordinate.  [M | I] has rank n, so M is singular exactly when its
        first free column is below n, where the vector is 0 from n on."""
        if not self.is_square:
            raise NonSquare("inverse of a non-square matrix")
        n = self.rows
        kernel = Matrix([row + e for row, e in zip(self.data, Matrix.identity(n, self.ring).data)]).nullspace()
        if kernel[0][n].is_zero:
            raise DivisionByZero("matrix is singular")
        return Matrix([[-vec[p] for vec in kernel] for p in range(n)])


def column_kernel(columns):
    """The canonical kernel basis of the columns: the library's one row
    reduction, behind Matrix.nullspace, rref, rank and inverse and the window
    search.  Columns are dicts from row keys (any sortable values) to
    Cyclotomic entries, and a key missing from a column is a zero entry.

    The basis is the one that is the identity on the free columns, and the
    free columns are those in the span of the earlier ones, so it depends
    only on the kernel and the column order: the vector of a free column f
    is e_f minus the coordinates of column f in the pivot columns before it.

    Rational columns are packed as integers over one denominator and taken
    modulo primes (_modular_kernel), with a certificate: every vector lies
    exactly in the kernel, and there are cols - rank mod l of them, at least
    the dimension over Q.  Columns with an irrational entry are eliminated
    in the Cyclotomic arithmetic (_lu_kernel): with two or more irrational
    labels a value's label depends on the operations that made it, and only
    that arithmetic reproduces the labels the library prints; at one label
    N > 1, the phi(N) modular images cost more than it on small matrices.
    """
    dens = {x._den if x._n == 1 else 0 for col in columns for x in col.values()}  # 0: irrational
    if 0 in dens:
        kernel = _lu_kernel(columns, _cyclotomic_normal, Cyclotomic.inverse)
    else:
        den = lcm(*dens)
        kernel = [(f, {p: _rat(x, d) for p, x in coords.items()})
                  for f, d, coords in _modular_kernel([{k: x._num[0] * (den // x._den) for k, x in col.items()}
                                                       for col in columns])]
    zero, one = Cyclotomic.zero(), Cyclotomic.one()
    basis = []
    for f, coords in kernel:
        vec = [zero] * len(columns)
        vec[f] = one
        for p, x in coords.items():
            vec[p] = x
        basis.append(vec)
    return basis


def _cyclotomic_normal(x):
    # a Cyclotomic is in normal form and always true: None stands for zero
    return None if x._n == 1 and not x._num[0] else x  # x.is_zero, inlined


def _lu_kernel(columns, normal, inverse):
    """The canonical kernel (see column_kernel) of columns over a field, as
    pairs (free column f, {pivot column p: the nonzero coordinate p of the
    vector of f}).  Entries are combined by +, - and *; normal(x) is the
    normal form of x, false exactly when x is zero, taken only where an
    entry is tested or stored, and inverse(x) inverts a nonzero normal form.

    Pass 1, a sparse LU in column order: each column is reduced against the
    earlier pivot columns in increasing key order (a heap), and one that does
    not reduce to zero becomes a pivot at its lowest remaining key; only the
    multipliers and the reduced column are stored, with the inverse of its
    pivot entry.  Pass 2 runs only for a column that reduced to zero: its
    multipliers are expanded through those of the pivots, in decreasing
    column order, into coordinates in the original pivot columns.  Nothing
    tracks combinations of the original columns, whose size would grow with
    the square of the number of columns.  When the keys put every column
    inside a band of rows, as the window search's (degree, coordinate) keys
    do, fill-in stays inside the band: pass 1 costs about band^2 operations
    per column and pass 2 about band per pivot walked, for each kernel
    vector, so the cost is linear in the number of columns.
    """
    pivot_at = {}  # pivot key -> pivot column
    below = {}  # pivot column -> (its reduced entries after the pivot key, inverse of the pivot entry)
    used_by = {}  # pivot column -> [(earlier pivot column, multiplier)]
    kernel = []
    for f, column in enumerate(columns):
        col = dict(column)
        heap = list(col)
        heapify(heap)
        used = []
        while heap:
            key = heappop(heap)
            p = pivot_at.get(key)
            if p is None:
                continue
            x = normal(col.pop(key))
            if not x:
                continue
            rest, inv = below[p]
            m = normal(x * inv)
            used.append((p, m))
            for k, y in rest.items():
                prev = col.get(k)
                if prev is None:
                    col[k] = -(m * y)
                    heappush(heap, k)
                else:
                    col[k] = prev - m * y
        col = {k: y for k, x in col.items() if (y := normal(x))}
        if col:
            key = min(col)
            pivot_at[key] = f
            pivot = col.pop(key)
            below[f] = (col, inverse(pivot))
            used_by[f] = used
            continue
        coords = dict(used)
        order = [-p for p in coords]
        heapify(order)
        vec = {}
        while order:
            p = -heappop(order)
            x = normal(coords[p])
            if not x:
                continue
            vec[p] = -x
            for q, m in used_by[p]:
                prev = coords.get(q)
                if prev is None:
                    coords[q] = -(x * m)
                    heappush(order, -q)
                else:
                    coords[q] = prev - x * m
        kernel.append((f, vec))
    return kernel


def _kernel_primes():
    """The primes above 2^29, ascending.  Below 2^30 a residue is one digit
    of a Python int and a product of two fits in two, which makes these
    eliminations faster than with word-size primes, though entries past
    about 2^14 take more than one prime."""
    ell = 1 << 29
    while True:
        ell = _prime_root(1, ell)[0]
        yield ell


def _modular_kernel(columns):
    """The canonical kernel (see column_kernel) of integer columns (dicts from
    row keys to ints): per free column f, (f, den, {pivot column p:
    numerator}), the nonzero coordinates of its vector over den > 0, in
    lowest terms.

    _lu_kernel runs modulo one prime after another, and the coordinates are
    combined by the Chinese remainder theorem and recovered by rational
    reconstruction until every vector passes the exact check M v = 0.  A
    prime whose free columns give a better rank profile (fewer of them, or
    as many and the first difference a pivot) restarts the combination; a
    worse one is skipped.

    The certificate: each v_f is in the kernel, 1 at f and 0 at the other
    free columns and after f, so the kernel has dimension at least the
    number of free columns, cols - rank mod l, which is at least its
    dimension, since the rank over Q is at least the rank mod l.  So the v_f
    are a basis, its last nonzero coordinates are the free columns, and it
    is the canonical one.  No free column mod l: the kernel is [], at once.
    """
    best = None
    for ell in _kernel_primes():
        # the integers themselves go in: _lu_kernel reduces an entry where it
        # tests or stores it, and its coordinates are residues modulo ell
        image = _lu_kernel(columns, ell.__rmod__, lambda x: pow(x, -1, ell))  # x % ell
        free = [f for f, _ in image]
        if best is None or (-len(free), free) > best:
            best, modulus, done = (-len(free), free), ell, {}
            residues = [vec for _, vec in image]
        elif (-len(free), free) < best:
            continue
        else:
            inv = pow(modulus, -1, ell)
            for (f, vec), res in zip(image, residues):
                if f not in done:
                    for p in res.keys() | vec.keys():
                        a = res.get(p, 0)
                        res[p] = a + modulus * ((vec.get(p, 0) - a) * inv % ell)
            modulus *= ell
        bound = isqrt(modulus >> 1)
        for f, res in zip(free, residues):
            if f not in done and (vec := _lifted(columns, f, res, modulus, bound)):
                done[f] = vec
        if len(done) == len(free):
            return [done[f] for f in free]


def _lifted(columns, f, residues, modulus, bound):
    """(f, den, {p: numerator}) of the vector den e_f + sum_p numerator_p e_p
    whose coordinates _reconstructed finds from the residues modulo modulus
    (zeros dropped), if it is in the kernel of the integer columns, checked
    in exact integers; else None."""
    if (vec := _reconstructed(residues, modulus, bound)) is None:
        return None
    den, nums = vec
    rows = {k: den * x for k, x in columns[f].items()}
    for p, a in nums.items():
        for k, x in columns[p].items():
            rows[k] = rows.get(k, 0) + a * x
    return None if any(rows.values()) else (f, den, nums)


def _reconstructed(residues, modulus, bound):
    """(den, {p: numerator}) in lowest terms, den > 0, of the rationals with
    the given residues modulo modulus, zeros dropped; None when one has none.
    Each residue times the denominator so far goes through
    _rational_reconstruction, x/q = a (mod m) with |x| and q at most
    bound = sqrt(m/2); a vector's coordinates mostly share one denominator."""
    den, nums = 1, {}
    for p, a in residues.items():
        a, q = _rational_reconstruction(a * den % modulus, modulus, bound)
        if q > bound:
            return None
        if q > 1:
            den *= q
            nums = {c: x * q for c, x in nums.items()}
        if a:
            nums[p] = a
    g = gcd(den, *nums.values())
    if g > 1:
        den, nums = den // g, {p: x // g for p, x in nums.items()}
    return den, nums


def _fused_label(*blocks):
    """The label n at which _dot may take the ring's sum_of_products over
    the entries of these blocks of rows: when they all have one type whose
    ring has one (Cyclotomic or LaurentPoly), and their coefficients carry
    the label 1 and at most one n > 1 (n = 1 for rational ones).  Else None,
    for the left fold: E_A and mixed types have no kernel, and with two or
    more irrational labels, a value's label depends on the order of the
    operations that made it, and only the fold reproduces it.  A product or
    Berkowitz's algorithm makes no label outside those of its operands, so
    this is decided once per call, not per sum."""
    values = [x for rows in blocks for row in rows for x in row]
    ring = type(values[0])
    if set(map(type, values)) != {ring} or not hasattr(ring, "sum_of_products"):
        return None
    labels = ring.labels(values) - {1}
    if len(labels) > 1:
        return None
    return labels.pop() if labels else 1


def _dot(xs, ys, label=None):
    """sum x*y over the pairs: the ring's sum_of_products at the label
    _fused_label found, else the left fold acc + x*y over the pairs without
    a zero factor, or x0*y0 (the ring's zero) when every pair has one."""
    if label is not None and len(xs) > 1:
        return type(xs[0]).sum_of_products(xs, ys, label)
    acc = None
    for x, y in zip(xs, ys):
        if not (x.is_zero or y.is_zero):
            acc = x * y if acc is None else acc + x * y
    return xs[0] * ys[0] if acc is None else acc


def _berkowitz(m):
    """Coefficients (ascending) of det(x*I - M) by Berkowitz's algorithm:
    division-free, O(n^4) ring operations over any commutative ring.

    Grows the trailing principal submatrix a[k:, k:] one row and column at a
    time; its polynomial is a lower-triangular Toeplitz matrix with first
    column 1, -a_kk, -R C, -R A C, -R A^2 C, ... times the previous one, where
    R, C are row and column k beside the submatrix A = a[k+1:, k+1:].  The
    list t below holds that column without its leading 1, and each new
    coefficient is one sum of products, the old coefficient entering times 1.
    """
    if not m.is_square:
        raise NonSquare("characteristic polynomial of a non-square matrix")
    n, a = m.rows, m.data
    label = _fused_label(a) if n > 1 else None  # a 1 x 1 matrix takes no sum
    one, zero = m.ring.one(), m.ring.zero()
    vec = [one]  # descending coefficients
    for k in range(n - 1, -1, -1):
        row = a[k][k + 1 :]
        col = [a[i][k] for i in range(k + 1, n)]
        t = [-a[k][k]]
        for i in range(n - k - 1):
            if i:
                col = [_dot(a[r][k + 1 :], col, label) for r in range(k + 1, n)]
            t.append(-_dot(row, col, label))
        vec = vec[:1] + [_dot(t[i - 1 :: -1] + [x], vec[:i] + [one], label) for i, x in enumerate(vec[1:] + [zero], 1)]
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
        acc = prod.shift(c[k])
    return (-c[0], acc) if m.rows % 2 else (c[0], -acc)


def adjugate(m):
    """Classical adjugate over a commutative ring: adj(M) * M = det(M) * I."""
    return det_and_adjugate(m)[1]


# ---------------------------------------------------------------------------
# characteristic polynomial and eigenvalues


def charpoly(m):
    """Coefficients (ascending) of det(x*I - M), monic."""
    return _berkowitz(m)


def _divide_linear(p, lam):
    """Synthetic division of p by (x - lam): the quotient and p(lam)."""
    acc = [p[-1]]
    for c in p[-2::-1]:
        acc.append(c + acc[-1] * lam)
    return acc[-2::-1], acc[-1]


def _rational_roots_of(q):
    """Distinct rational roots of a nonzero rational polynomial, ascending.

    Clears denominators and divides out x^k to get integer a_0, ..., a_n with
    a_0 != 0, then searches the primitive square-free part f = p / gcd(p, p')
    (gcd by _poly_xgcd, made primitive, so that by Gauss's lemma the division
    is exact in integers).  A root s/t of f in lowest terms has s | f_0 and
    t | f_n.  With l the least prime that does not divide f_n and at which
    every root of f mod l is simple, each root mod l lifts by Newton's
    iteration to a unique root mod m = l^(2^k) > 2 |f_0| |f_n|, and there
    rational reconstruction with |s| <= |f_0|, 0 < t <= |f_n| has at most one
    answer.  So there are at most deg f candidates, and each is tested
    exactly in integers as sum_i f_i s^i t^(n-i) = 0.  Bad primes divide
    f_n times the discriminant, so the search for l ends.
    """
    den = lcm(*(int(c.denominator) for c in q))
    ints = [int(c.numerator) * (den // int(c.denominator)) for c in q]
    while ints[-1] == 0:
        ints.pop()
    roots = [Rat(0)] if ints[0] == 0 and len(ints) > 1 else []
    while ints[0] == 0:
        ints.pop(0)
    if len(ints) > 2:
        g = _poly_xgcd(ints, [i * c for i, c in enumerate(ints)][1:])[0]
        ints = _exact_quotient(ints, _primitive(g))
    f = _primitive(ints)
    if len(f) == 2:
        roots.append(Rat(-f[0], f[1]))
    elif len(f) > 2:
        roots += _lifted_roots(f)
    return sorted(roots)


def _primitive(p):
    """The integer polynomial p divided by the gcd of its coefficients."""
    content = gcd(*p)
    return [x // content for x in p]


def _exact_quotient(p, g):
    """p / g for integer polynomials, g primitive and dividing p over Q: by
    Gauss's lemma the quotient is integral, so every step divides exactly."""
    k, r = len(g) - 1, list(p)
    quotient = [0] * (len(p) - k)
    for i in range(len(quotient) - 1, -1, -1):
        c = quotient[i] = r[i + k] // g[-1]
        if c:
            for j, y in enumerate(g[:-1]):
                r[i + j] -= c * y
    return quotient


def _rational_reconstruction(a, m, bound):
    """(x, q), q > 0, x = q a (mod m): the first Euclidean remainder of (m, a)
    at most bound, over its cofactor (Wang's rational reconstruction)."""
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, t0, t1 = r1, r0 - quo * r1, t1, t0 - quo * t1
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lifted_roots(f):
    """The rational roots of a primitive square-free integer polynomial f of
    degree >= 2, by l-adic lifting and _rational_reconstruction (see _rational_roots_of)."""
    lead, df, ell = f[-1], [i * c for i, c in enumerate(f)][1:], 1
    while True:
        ell = _prime_root(1, ell)[0]
        if lead % ell:
            residues = [x for x in range(ell) if not _value_mod(f, x, ell)]
            if all(_value_mod(df, x, ell) for x in residues):
                break
    bound, roots = 2 * abs(f[0]) * abs(lead), []
    for r in residues:
        m = ell
        while m <= bound:
            m *= m
            r = (r - _value_mod(f, r, m) * pow(_value_mod(df, r, m), -1, m)) % m
        s, t = _rational_reconstruction(r, m, abs(f[0]))
        if t > abs(lead) or gcd(s, t) > 1:
            continue
        acc, power = f[-1], 1
        for c in f[-2::-1]:
            power *= t
            acc = acc * s + c * power
        if acc == 0:
            roots.append(Rat(s, t))
    return roots


def _rational_part(p):
    """gcd over Q of the components p_i of p = sum_i z^i p_i(x), written in the
    power basis z^i of Q(zeta_N), N the lcm of the coefficient conductors, as
    a primitive integer polynomial.

    The basis is Q-linearly independent, so a polynomial over Q divides p
    exactly when it divides every p_i, so the rational roots of p are those
    of the gcd.  The p_i are read as integers, scaled by the common
    denominator of the coefficients of p, which changes no divisor.
    """
    _, _, vecs = _common_numerators(p)
    parts = [q for q in zip(*vecs) if any(q)]
    g = parts[0]
    for q in parts[1:]:
        g = _poly_xgcd(g, q)[0]
    return _primitive(g)


def rational_roots(p):
    """Distinct rational roots of p (Cyclotomic coefficients, not all zero),
    ascending: those of the rational gcd of its power-basis components
    (_rational_part), found by l-adic lifting (_rational_roots_of)."""
    return _rational_roots_of(_rational_part(p))


def _unit_root_filter(p, n, d, exps):
    """The exponents j of exps for which zeta_d^j can be a root of p, whose
    coefficients lie in Q(zeta_n).

    Reduces modulo two distinct primes l = 1 (mod L), L = lcm(n, d): sending
    zeta_L to an element w of order L in F_l is a ring map from the elements
    whose denominators l does not divide, so it sends a root to a root, and
    an exponent is kept only when zeta_d^j passes at both primes.  A prime
    that divides a denominator of p keeps every exponent.
    """
    big, ell = lcm(n, d), 0
    for _ in range(2):
        ell, w = _prime_root(big, ell)
        if exps and all(c._den % ell for c in p):
            image = [c._image(big, ell, w) for c in p]
            v, powers = pow(w, big // d, ell), [1] * d
            for i in range(1, d):
                powers[i] = powers[i - 1] * v % ell
            values = [0] * len(exps)
            for i, c in enumerate(image):
                if c:
                    values = [y + c * powers[i * j % d] for y, j in zip(values, exps)]
            exps = [j for j, y in zip(exps, values) if not y % ell]
    return exps


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
    yield from map(Cyclotomic.from_rat, rational_roots(p))
    n = lcm(*(c.n for c in p))
    for d in _root_orders(n, len(p) - 1):
        for j in _unit_root_filter(p, n, d, [j for j in range(1, d) if gcd(j, d) == 1]):
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
        while len(remaining) > 1:
            quotient, value = _divide_linear(remaining, lam)
            if not value.is_zero:
                break
            remaining, mult = quotient, mult + 1
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
    """Integer eigenvalues with geometric multiplicity: the integers among
    the rational roots of the characteristic polynomial (at most its
    square-free degree of them), each multiplicity the number of nullspace
    vectors of M - r, formed by shifting the diagonal."""
    return [(int(r), len(m.shift(Cyclotomic.from_rat(-r)).nullspace()))
            for r in rational_roots(charpoly(m)) if is_int(r)]


# ---------------------------------------------------------------------------
# Jordan normal form


class JordanData:
    """blocks: list of (eigenvalue, size), canonically ordered; transform P
    satisfies P^-1 * M * P = block diagonal of J(eigenvalue, size)."""

    __slots__ = ("blocks", "transform")

    def __init__(self, blocks, transform):
        self.blocks, self.transform = blocks, transform

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

    For each eigenvalue lam, with E = M - lam (the diagonal shifted by -lam),
    every kernel ker E^k is computed once, as a nullspace basis, until its
    dimension reaches the algebraic multiplicity.  The chain tops of size s,
    from the largest size down, are the vectors of the ker E^s basis, in
    basis order, that are independent of ker E^(s-1) and of the chains
    already built: the pivot columns of one rref, or the whole basis when
    there is nothing before it.
    There are as many as there are blocks of size s, (d_s - d_(s-1)) -
    (d_(s+1) - d_s) for d_k = dim ker E^k, so a size with none takes no
    rref.  A top v contributes the columns E^(s-1) v, ..., E v, v.  Each
    kernel and each rref is one column_kernel.
    """
    blocks = []
    basis_columns = []
    for lam, mult in eigenvalues(m):
        e1 = m.shift(-lam)
        power, kernels = e1, [[], e1.nullspace()]
        while len(kernels[-1]) < mult:
            power = power * e1
            kernels.append(power.nullspace())
            if len(kernels[-1]) == len(kernels[-2]):
                raise AssertionError("generalized eigenspace smaller than the multiplicity")
        chains = []
        dims = [len(kernel) for kernel in kernels] + [len(kernels[-1])]
        for size in range(len(kernels) - 1, 0, -1):
            if dims[size] - dims[size - 1] == dims[size + 1] - dims[size]:
                continue  # no block has this size, so there is no top to find
            known = kernels[size - 1] + chains
            # a basis is independent: with nothing known, every vector is a top
            tops = Matrix.from_columns(known + kernels[size]).rref()[1] if known else range(len(kernels[size]))
            for col in tops:
                if col < len(known):
                    continue
                chain = [kernels[size][col - len(known)]]
                for _ in range(size - 1):
                    chain.append(e1 * chain[-1])
                chains.extend(chain)
                basis_columns.extend(reversed(chain))
                blocks.append((lam, size))
    return JordanData(blocks=blocks, transform=Matrix.from_columns(basis_columns))
