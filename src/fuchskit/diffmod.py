"""Differential modules over (K[t,1/t], t*d/dt), presented by connection
matrices.

A module is a square matrix G over the Laurent ring in a chosen basis; the
connection acts on coordinate vectors as partial(v) + G v.  Base change by
an invertible H replaces G by partial(H) H^-1 + H G H^-1 and preserves the
isomorphism class.  All constructions (tensor, dual, Hom, extensions) are
matrix-level and exact.
"""

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
from .scalar import Cyclotomic, as_cyclotomic
from .expring import ExpRingElem, coordinates
from . import linalg as _linalg  # column_kernel looked up at call time


def _as_laurent_entry(x):
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.from_scalar(as_cyclotomic(x))


def laurent_matrix(rows):
    """Matrix over K[t,1/t]; scalar entries are lifted to constants.  A Matrix
    whose entries are already Laurent is returned as it is."""
    if isinstance(rows, Matrix):
        return rows if rows.ring is LaurentPoly else rows.map(_as_laurent_entry)
    return Matrix([[_as_laurent_entry(x) for x in row] for row in rows])


def constant_matrix_of(m):
    """Extract the Matrix over K when every entry is constant, else None."""
    if not all(x.is_constant for row in m.data for x in row):
        return None
    return m.map(lambda x: x.constant_term)


def laurent_matrix_inverse(m):
    """Inverse of a matrix over K[t,1/t]; defined exactly when det is a unit."""
    det, adj = det_and_adjugate(m)
    if not det.is_unit:
        raise NotInvertibleOverA(f"determinant {det!r} is not a unit of K[t,1/t]")
    det_inv = det.unit_inverse()
    return adj.map(lambda x: x * det_inv)


class DiffModule:
    """Finite free differential module, given by its connection matrix.

    twist is None for the standard derivation t*d/dt and otherwise the unit
    h = c*t^m != 1 of the derivation h * t*d/dt: a twist of 1 is stored as
    None, one that is not a unit raises NotAUnit.  Operations refuse to mix
    modules over different derivations.
    """

    __slots__ = ("matrix", "twist")
    __hash__ = None

    def __init__(self, matrix, twist=None):
        matrix = laurent_matrix(matrix)
        if not matrix.is_square:
            raise DimensionMismatch("connection matrix must be square")
        if twist is not None:
            twist = _as_laurent_entry(twist)
            if not twist.is_unit:
                raise NotAUnit(f"{twist!r} is not a unit of K[t,1/t]")
            twist = None if twist == LaurentPoly.one() else twist
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

    def constant_matrix(self):
        c = constant_matrix_of(self.matrix)
        if c is None:
            raise NotConstant("connection matrix has nonconstant entries")
        return c

    def _same_derivation(self, other):
        if self.twist != other.twist:
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
        return self.matrix == other.matrix and self.twist == other.twist

    def __repr__(self):
        tag = "t d/dt" if self.twist is None else f"({self.twist!r}) * t d/dt"
        return f"DiffModule(dim={self.dim}, derivation={tag}, matrix={self.matrix!r})"


def rank_one(a):
    """N(a): the one dimensional module with constant matrix a."""
    return DiffModule([[a]])


def base_change(module, h):
    """Gauge by invertible H over K[t,1/t]: G -> partial(H) H^-1 + H G H^-1."""
    h = laurent_matrix(h)
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
    star = laurent_matrix(star)
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
    """View the module over h times its derivation, h a unit of A."""
    return DiffModule(m.matrix, twist=h if m.twist is None else m.twist * h)


# ---------------------------------------------------------------------------
# solutions of constant-matrix modules


def _block_fundamental(a_value, size):
    """t^{-a} * exp(-ell N) for the Jordan block J(a, size): upper triangular
    Toeplitz with t^{-a} (-1)^j ell^j / j! on the j-th diagonal, whose
    columns are horizontal for the connection v -> partial(v) + J(a,size) v."""
    t_neg_a = ExpRingElem.t_power(-a_value)
    ell = ExpRingElem.ell_var()
    z = ExpRingElem.zero()
    entries = [[z] * size for _ in range(size)]
    ell_pow = ExpRingElem.one()
    for j in range(size):
        term = t_neg_a * (ell_pow * Rat((-1) ** j, factorial(j)))
        for i in range(size - j):
            entries[i][i + j] = term
        ell_pow = ell_pow * ell
    return Matrix(entries)


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
    return p * Matrix.block_diag(blocks) * p_inv


def expring_matrix_is_horizontal(u, g):
    """Check partial(U) = -G U exactly (G constant or Laurent)."""
    g_e = g.map(lambda x: ExpRingElem.from_laurent(x) if isinstance(x, LaurentPoly) else ExpRingElem.from_scalar(x))
    du = u.map(lambda x: x.partial())
    return du == -(g_e * u)


def match_right_factor(u, v):
    """The constant matrix R with V = U * R (columns of V in the span of the
    columns of U over K); raises if no exact unique solution exists."""
    columns = [{(comp, *key): c for comp, x in enumerate(vec) for key, c in coordinates(x).items()}
               for vec in u.columns() + v.columns()]
    return _constant_factor(columns, u.cols)


def match_left_factor(w, v):
    """The constant matrix R with V = R * W (rows of V in the row span of W)."""
    return match_right_factor(w.transpose(), v.transpose()).transpose()


def _constant_factor(columns, k):
    """The R with V = U R for the columns [U | V], given as dicts from
    sortable coordinate keys to entries, U the first k of them.

    Read off the canonical kernel, as Matrix.inverse reads X: R is unique
    exactly when the free columns are those of V (len(columns) - k vectors,
    the first nonzero at k), and R[p][j] is minus coordinate p of the
    vector of free column k + j."""
    kernel = _linalg.column_kernel(columns)
    if len(kernel) != len(columns) - k or kernel[0][k].is_zero:
        raise ArithmeticError("no unique constant factor")
    return Matrix([[-vec[p] for vec in kernel] for p in range(k)])


# ---------------------------------------------------------------------------
# horizontal morphisms and extension groups (constant matrices)


class HorizontalSpace:
    """Exact basis of the solutions with values in A of Hom(M, N)."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        self.basis = basis

    @property
    def dimension(self):
        return len(self.basis)


def _sylvester_operator(c_m, c_n):
    """Matrix of F -> C_N F - F C_M on n_N x n_M matrices in the row-major
    basis: the Kronecker sum C_N (x) I - I (x) C_M^T."""
    return c_n.kron(Matrix.identity(c_m.rows)) - Matrix.identity(c_n.rows).kron(c_m.transpose())


def horizontal_hom(m1, m2):
    """Basis of Hom^nabla(M1, M2) over A for constant connection matrices,
    over the standard derivation (a twisted module raises
    DerivationMismatch: its modes are not the integers k)."""
    m1._same_derivation(m2)
    m1.require_standard_derivation()
    c1, c2 = m1.constant_matrix(), m2.constant_matrix()
    return _hom_basis(c1, c2, eigenvalues(c1), eigenvalues(c2))


def _hom_basis(c1, c2, spectrum1, spectrum2):
    """horizontal_hom of the constant matrices c1, c2, whose eigenvalues are
    the first entries of the pairs in spectrum1, spectrum2 (eigenvalues or
    Jordan blocks).  partial(F) + C2 F - F C1 = 0 splits by Laurent mode k
    into ker(Sylvester + k id), the operator with its diagonal shifted by k,
    and k can only be an integer (eigenvalue of C1) - (eigenvalue of C2)."""
    diffs = ((a - b).rational_value for a, _ in spectrum1 for b, _ in spectrum2)
    modes = sorted({int(rv) for rv in diffs if rv is not None and rv.denominator == 1})
    syl = _sylvester_operator(c1, c2)
    basis = []
    for k in modes:
        for vec in syl.shift(Cyclotomic.from_rat(k)).nullspace():
            basis.append(Matrix([[LaurentPoly({k: vec[i * c1.rows + j]}) for j in range(c1.rows)]
                                 for i in range(c2.rows)]))
    return HorizontalSpace(basis=basis)


def is_horizontal_morphism(f, m1, m2):
    """partial(F) + G2 F = F G1, exactly (any Laurent matrices); modules over
    different derivations raise DerivationMismatch."""
    m1._same_derivation(m2)
    return f.map(m1.derive) + m2.matrix * f == f * m1.matrix


def h1_dimension(module):
    """dim coker(nabla) on A^n for a constant matrix over the standard
    derivation: each integer eigenvalue contributes its geometric
    multiplicity (one per Jordan block).  A twisted module raises
    DerivationMismatch."""
    module.require_standard_derivation()
    c = module.constant_matrix()
    return sum(g for _, g in integer_eigenvalues(c))


def ext_dim(m1, m2):
    """dim Ext(M1, M2) = dim H^1(Hom(M1, M2))."""
    return h1_dimension(hom_module(m1, m2))
