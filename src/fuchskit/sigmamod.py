"""Finite-dimensional K-linear representations of Z (sigma-modules).

A representation is determined by the single invertible operator [1]; the
classification is its Jordan normal form.  Every such module is trivialized
over the exponent ring: per Jordan block J(lam, n), pick a with
gamma(a) = 1/lam, rescale by t^a and a constant diagonal, and fill the
unipotent part with the log-polynomials binom(-ell, j).
"""

from .errors import DimensionMismatch, ZeroEigenvalue
from .expring import ExpRingElem, GroupAlgElem, binom_ell_poly
from .linalg import Matrix, det_cofactor, jordan_form
from .scalar import Cyclotomic, as_cyclotomic, gamma_inverse
from .diffmod import _sylvester_operator


class SigmaModule:
    """A K-vector space with a distinguished automorphism (the monodromy)."""

    __slots__ = ("monodromy",)
    __hash__ = None

    def __init__(self, monodromy):
        if not isinstance(monodromy, Matrix):
            monodromy = Matrix([[as_cyclotomic(x) for x in row] for row in monodromy])
        if not monodromy.is_square:
            raise DimensionMismatch("monodromy must be square")
        if det_cofactor(monodromy).is_zero:
            raise ZeroEigenvalue("monodromy must be invertible")
        object.__setattr__(self, "monodromy", monodromy)

    def __setattr__(self, *_):
        raise AttributeError("SigmaModule is immutable")

    @property
    def dim(self):
        return self.monodromy.rows

    def __eq__(self, other):
        if not isinstance(other, SigmaModule):
            return NotImplemented
        return self.monodromy == other.monodromy

    def __repr__(self):
        return f"SigmaModule(dim={self.dim}, monodromy={self.monodromy!r})"


def rank_one(lam):
    """V_lam: sigma acts by multiplication by lam != 0."""
    return SigmaModule([[lam]])


def direct_sum(v, w):
    return SigmaModule(Matrix.block_diag([v.monodromy, w.monodromy]))


def tensor(v, w):
    """g(v (x) w) = g(v) (x) g(w): the Kronecker product of the operators."""
    return SigmaModule(v.monodromy.kron(w.monodromy))


def dual(v):
    """Hom(V, K) with g(f) = g o f o g^-1: the inverse transpose."""
    return SigmaModule(v.monodromy.transpose().inverse())


def hom_dim(v, w):
    """dim Hom^Z(V, W) = dim{F : F S_V = S_W F}, the number of nullspace
    vectors of the Sylvester operator."""
    return len(_sylvester_operator(v.monodromy, w.monodromy).nullspace())


def isomorphism(v, w):
    """An explicit T with T S_V T^-1 = S_W, or None when the Jordan block
    multisets differ."""
    jv = jordan_form(v.monodromy)
    jw = jordan_form(w.monodromy)
    if jv.blocks != jw.blocks:
        return None
    return jw.transform * jv.transform.inverse()


# ---------------------------------------------------------------------------
# trivialization over the exponent ring


def _triv_poly(j):
    """p_j = binom(-ell, j) in K[ell], read off binom(ell, j) with the sign
    (-1)^m on ell^m: by Pascal's rule and sigma(ell) = ell + 1 it solves the
    block system d_sigma(p_j) = -sigma(p_(j-1)), p_0 = 1, p_j(0) = 0 (j > 0)."""
    return ExpRingElem([GroupAlgElem.from_scalar(Cyclotomic.from_rat(c if m % 2 == 0 else -c))
                        for m, c in enumerate(binom_ell_poly(j))])


def trivialize(v):
    """An invertible matrix B over E_A whose columns are fixed by the twisted
    action: S * sigma(B) = B.

    Per Jordan block J(lam, n): a = -gamma_inverse(lam), so gamma(a) = 1/lam, then
    B_block = t^a * diag(1, lam, ..., lam^(n-1)) * X(ell) with X unipotent
    upper triangular, X[i][k] = p_{k-i} = binom(-ell, k-i).  Raises
    NotRootOfUnity when an eigenvalue is not a root of unity.
    """
    jd = jordan_form(v.monodromy)
    blocks = []
    for lam, size in jd.blocks:
        a = -gamma_inverse(lam)
        t_a = ExpRingElem.t_power(a.value)
        z = ExpRingElem.zero()
        entries = [[z] * size for _ in range(size)]
        for i in range(size):
            scale = ExpRingElem.from_scalar(lam**i)
            for k in range(i, size):
                entries[i][k] = t_a * scale * _triv_poly(k - i)
        blocks.append(Matrix(entries))
    p = jd.transform.map(ExpRingElem.from_scalar)
    return p * Matrix.block_diag(blocks)


def is_trivializing(v, b):
    """Exact fixed-point check: S * sigma(B) == B."""
    s = v.monodromy.map(ExpRingElem.from_scalar)
    sigma_b = b.map(lambda x: x.sigma())
    return s * sigma_b == b
