"""Differential modules over (K[t,1/t], t*d/dt), presented by connection
matrices.

A module is a square matrix G over the Laurent ring in a chosen basis; the
connection acts on coordinate vectors as partial(v) + G v.  Base change by
an invertible H replaces G by partial(H) H^-1 + H G H^-1 and preserves the
isomorphism class.  All constructions (tensor, dual, Hom, extensions) are
matrix-level and exact.
"""

from dataclasses import dataclass
from math import factorial

from .errors import (
    DerivationMismatch,
    DimensionMismatch,
    NonRationalExponent,
    NotAUnit,
    NotConstant,
    NotInvertibleOverA,
)
from .laurent import LaurentPoly
from .linalg import (
    Matrix,
    det_and_adjugate,
    det_cofactor,  # re-exported: part of this module's public names
    eigenvalues,
    integer_eigenvalues,
    jordan_form,
)
from .ratio import Rat
from .scalar import Cyclotomic, ExponentClass, as_cyclotomic
from .expring import ExpRingElem


def _as_laurent_entry(x):
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.from_scalar(as_cyclotomic(x))


def laurent_matrix(rows):
    """Matrix over K[t,1/t]; scalar entries are lifted to constants."""
    return Matrix([[_as_laurent_entry(x) for x in row] for row in rows])


def constant_matrix_of(m):
    """Extract the Matrix over K when every entry is constant, else None."""
    out = []
    for row in m.data:
        r = []
        for x in row:
            if not x.is_constant:
                return None
            r.append(x.constant_term)
        out.append(r)
    return Matrix(out)


def laurent_matrix_inverse(m):
    """Inverse of a matrix over K[t,1/t]; defined exactly when det is a unit."""
    det, adj = det_and_adjugate(m)
    if not det.is_unit:
        raise NotInvertibleOverA(f"determinant {det!r} is not a unit of K[t,1/t]")
    det_inv = det.unit_inverse()
    return adj.map(lambda x: x * det_inv)


class DiffModule:
    """Finite free differential module, given by its connection matrix.

    twist is None for the standard derivation t*d/dt; after twisting it
    records the unit h with derivation h * t*d/dt.  Operations refuse to mix
    modules over different derivations.
    """

    __slots__ = ("matrix", "twist")
    __hash__ = None

    def __init__(self, matrix, twist=None):
        if not isinstance(matrix, Matrix):
            matrix = laurent_matrix(matrix)
        if not matrix.is_square:
            raise DimensionMismatch("connection matrix must be square")
        if matrix.ring is not LaurentPoly:
            matrix = matrix.map(_as_laurent_entry)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "twist", twist)

    def __setattr__(self, *_):
        raise AttributeError("DiffModule is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_constant(cls, matrix):
        return cls(matrix.map(LaurentPoly.from_scalar))

    @property
    def dim(self):
        return self.matrix.rows

    @property
    def is_constant(self):
        return constant_matrix_of(self.matrix) is not None

    def constant_matrix(self):
        c = constant_matrix_of(self.matrix)
        if c is None:
            raise NotConstant("connection matrix has nonconstant entries")
        return c

    def _same_derivation(self, other):
        st = self.twist if self.twist is not None else LaurentPoly.one()
        ot = other.twist if other.twist is not None else LaurentPoly.one()
        if st != ot:
            raise DerivationMismatch("modules live over different derivations")

    def require_standard_derivation(self):
        if self.twist is not None:
            raise DerivationMismatch("operation requires the standard derivation t d/dt")

    def derive(self, f):
        """The module's derivation applied to a Laurent polynomial."""
        df = f.partial()
        return df if self.twist is None else self.twist * df

    def __eq__(self, other):
        if not isinstance(other, DiffModule):
            return NotImplemented
        st = self.twist if self.twist is not None else LaurentPoly.one()
        ot = other.twist if other.twist is not None else LaurentPoly.one()
        return self.matrix == other.matrix and st == ot

    def __repr__(self):
        tag = "t d/dt" if self.twist is None else f"({self.twist!r}) * t d/dt"
        return f"DiffModule(dim={self.dim}, derivation={tag}, matrix={self.matrix!r})"


def rank_one(a):
    """N(a): the one dimensional module with constant matrix a."""
    if isinstance(a, ExponentClass):
        a = a.value
    return DiffModule(laurent_matrix([[as_cyclotomic(a)]]))


def base_change(module, h):
    """Gauge by invertible H over K[t,1/t]: G -> partial(H) H^-1 + H G H^-1."""
    if not isinstance(h, Matrix):
        h = laurent_matrix(h)
    if h.ring is not LaurentPoly:
        h = h.map(_as_laurent_entry)
    if h.rows != module.dim or not h.is_square:
        raise DimensionMismatch("gauge matrix has wrong shape")
    h_inv = laurent_matrix_inverse(h)
    dh = h.map(module.derive)
    new = dh * h_inv + h * module.matrix * h_inv
    return DiffModule(new, twist=module.twist)


def direct_sum(m1, m2):
    m1._same_derivation(m2)
    return DiffModule(Matrix.block_diag([m1.matrix, m2.matrix]), twist=m1.twist)


def tensor(m1, m2):
    """Connection of the tensor product: G1 (x) I + I (x) G2."""
    m1._same_derivation(m2)
    i1 = Matrix.identity(m1.dim, LaurentPoly)
    i2 = Matrix.identity(m2.dim, LaurentPoly)
    return DiffModule(m1.matrix.kron(i2) + i1.kron(m2.matrix), twist=m1.twist)


def dual(m):
    """Dual module Hom(M, A): the matrix is -G^T."""
    return DiffModule(-m.matrix.transpose(), twist=m.twist)


def hom_module(m1, m2):
    """Internal Hom(M1, M2) = dual(M1) (x) M2."""
    return tensor(dual(m1), m2)


def block_extension(m1, m3, star):
    """Middle term of 0 -> M1 -> M2 -> M3 -> 0 with matrix [[G1, *], [0, G3]]."""
    m1._same_derivation(m3)
    if not isinstance(star, Matrix):
        star = laurent_matrix(star)
    if star.ring is not LaurentPoly:
        star = star.map(_as_laurent_entry)
    if star.rows != m1.dim or star.cols != m3.dim:
        raise DimensionMismatch(
            f"star block must be {m1.dim} x {m3.dim}, got {star.rows} x {star.cols}"
        )
    z = LaurentPoly.zero()
    n1, n3 = m1.dim, m3.dim
    rows = []
    for i in range(n1):
        rows.append(list(m1.matrix.data[i]) + list(star.data[i]))
    for i in range(n3):
        rows.append([z] * n1 + list(m3.matrix.data[i]))
    return DiffModule(Matrix(rows), twist=m1.twist)


def invert_coordinate(m):
    """The coordinate change t -> 1/t: G(t) -> -G(1/t) (and d_{1/t} = -d_t)."""
    m.require_standard_derivation()
    return DiffModule(m.matrix.map(lambda f: -f.substitute_inverse()))


def twist_derivation(m, h):
    """View the module over the derivation h * (t d/dt), h a unit of A."""
    if not isinstance(h, LaurentPoly):
        h = _as_laurent_entry(h)
    if not h.is_unit:
        raise NotAUnit(f"{h!r} is not a unit of K[t,1/t]")
    current = m.twist if m.twist is not None else LaurentPoly.one()
    combined = current * h
    return DiffModule(m.matrix, twist=None if combined == LaurentPoly.one() else combined)


# ---------------------------------------------------------------------------
# solutions of constant-matrix modules


def exp_ell_n(size):
    """exp(-ell * N) over E_A for the nilpotent part N of a Jordan block:
    upper triangular Toeplitz with (-1)^j ell^j / j! on the j-th diagonal."""
    ell = ExpRingElem.ell_var()
    z = ExpRingElem.zero()
    entries = [[z] * size for _ in range(size)]
    ell_pow = ExpRingElem.one()
    for j in range(size):
        term = ell_pow * Rat((-1) ** j, factorial(j))
        for i in range(size - j):
            entries[i][i + j] = term
        ell_pow = ell_pow * ell
    return Matrix(entries)


def _block_fundamental(a_value, size):
    """t^{-a} * exp(-ell N) for the Jordan block J(a, size): the columns are
    horizontal for the connection v -> partial(v) + J(a,size) v."""
    t_neg_a = ExpRingElem.t_power(-a_value)
    return exp_ell_n(size).map(lambda e: t_neg_a * e)


def fundamental_matrix(module):
    """U in GL_n(E_A) with partial(U) = -G U, for a constant matrix G.

    Built blockwise from the Jordan form: U = P (t^{-a} exp(-ell N)) P^-1.
    Requires the eigenvalues of G to be rational (the symbolic powers t^a of
    the artifact carry rational classes only).
    """
    module.require_standard_derivation()
    g = module.constant_matrix()
    jd = jordan_form(g)
    blocks = []
    for lam, size in jd.blocks:
        rv = lam.rational_value
        if rv is None:
            raise NonRationalExponent(f"eigenvalue {lam!r} is not rational")
        blocks.append(_block_fundamental(rv, size))
    p = jd.transform.map(ExpRingElem.from_scalar)
    p_inv = jd.transform.inverse().map(ExpRingElem.from_scalar)
    return p * Matrix.block_diag(blocks, ring=ExpRingElem) * p_inv


def expring_matrix_is_horizontal(u, g):
    """Check partial(U) = -G U exactly (G constant or Laurent)."""
    g_e = g.map(lambda x: ExpRingElem.from_laurent(x) if isinstance(x, LaurentPoly) else ExpRingElem.from_scalar(x))
    du = u.map(lambda x: x.partial())
    return du == -(g_e * u)


def expring_unit_inverse(x):
    """Inverse of a unit c * t^g of E_A (monomials are the only units)."""
    if len(x.ell) != 1:
        raise NotAUnit("units of E_A have no ell part")
    g = x.ell[0]
    if len(g.parts) != 1:
        raise NotAUnit("units of E_A are monomials")
    ((a, f),) = g.parts.items()
    if not f.is_unit:
        raise NotAUnit("units of E_A are monomials")
    inv_laurent = f.unit_inverse()
    neg_a = ExpRingElem.t_power(-a.value)
    return neg_a * ExpRingElem.from_laurent(inv_laurent)


def match_right_factor(u, v):
    """The constant matrix R with V = U * R (columns of V in the span of the
    columns of U over K); raises if no exact unique solution exists.

    One rref of the coordinates of [U | V]: R is unique exactly when the
    pivots are the columns of U, and it is then the top right block."""
    coords = _expring_coordinates(u.columns() + v.columns())
    red, pivots = Matrix.from_columns(coords).rref()
    if pivots != tuple(range(u.cols)):
        raise ArithmeticError("no unique constant factor")
    return Matrix([row[u.cols :] for row in red.data[: u.cols]])


def match_left_factor(w, v):
    """The constant matrix R with V = R * W (rows of V in the row span of W)."""
    return match_right_factor(w.transpose(), v.transpose()).transpose()


def _expring_coordinates(vectors):
    """Exact coordinate vectors of ExpRing vectors in their joint monomial
    support, ordered deterministically."""
    keys = set()
    for vec in vectors:
        for comp, x in enumerate(vec):
            for k, gpart in enumerate(x.ell):
                for a, f in gpart.parts.items():
                    for d in f.terms:
                        keys.add((comp, a.value, k, d))
    index = {key: i for i, key in enumerate(sorted(keys))}
    out = []
    for vec in vectors:
        coords = [Cyclotomic.zero()] * len(index)
        for comp, x in enumerate(vec):
            for k, gpart in enumerate(x.ell):
                for a, f in gpart.parts.items():
                    for d, c in f.terms.items():
                        coords[index[(comp, a.value, k, d)]] = c
        out.append(coords)
    return out


# ---------------------------------------------------------------------------
# horizontal morphisms and extension groups (constant matrices)


@dataclass
class HorizontalSpace:
    """Exact basis of the solutions with values in A of Hom(M, N)."""

    basis: list

    @property
    def dimension(self):
        return len(self.basis)


def _sylvester_operator(c_m, c_n):
    """Matrix of F -> C_N F - F C_M on n_N x n_M matrices, row-major basis."""
    nn, nm = c_n.rows, c_m.rows
    dim = nn * nm
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
    return Matrix(cols).transpose(), dim


def horizontal_hom(m1, m2):
    """Basis of Hom^nabla(M1, M2) over A for constant connection matrices.

    The equation partial(F) + C2 F - F C1 = 0 splits by Laurent mode; mode k
    contributes ker(k id + Sylvester), and only integers of the form
    (eigenvalue of C1) - (eigenvalue of C2) can occur.
    """
    m1._same_derivation(m2)
    c1, c2 = m1.constant_matrix(), m2.constant_matrix()
    eig1 = eigenvalues(c1)
    eig2 = eigenvalues(c2)
    modes = set()
    for a, _ in eig1:
        for b, _ in eig2:
            diff = a - b
            rv = diff.rational_value
            if rv is not None and rv.denominator == 1:
                modes.add(int(rv))
    syl, dim = _sylvester_operator(c1, c2)
    basis = []
    for k in sorted(modes):
        op = syl + Matrix.identity(dim).scale(Cyclotomic.from_rat(k))
        for vec in op.nullspace():
            f = Matrix(
                [
                    [LaurentPoly({k: vec[i * m1.dim + j]}) for j in range(m1.dim)]
                    for i in range(m2.dim)
                ]
            )
            basis.append(f)
    return HorizontalSpace(basis=basis)


def is_horizontal_morphism(f, m1, m2):
    """partial(F) + G2 F - F G1 = 0, exactly (any Laurent matrices)."""
    df = f.map(lambda x: m1.derive(x))
    return (df + m2.matrix * f - f * m1.matrix) == Matrix.zeros(
        f.rows, f.cols, LaurentPoly
    )


def h1_dimension(module):
    """dim coker(nabla) on A^n for a constant matrix: each integer eigenvalue
    contributes its geometric multiplicity (one per Jordan block)."""
    c = module.constant_matrix()
    return sum(g for _, g in integer_eigenvalues(c))


def ext_dim(m1, m2):
    """dim Ext(M1, M2) = dim H^1(Hom(M1, M2))."""
    return h1_dimension(hom_module(m1, m2))
