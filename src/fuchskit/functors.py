"""The monodromy equivalence made computable.

mon sends a module with constant connection matrix to the representation of
Z obtained by swapping every Jordan block J(a, n) for J(gamma(-a), n); rm is
the inverse dictionary.  For nonconstant matrices, find_constant_form
searches for a full basis of horizontal sections of M (x) E_A by exact
linear algebra on a bounded coefficient space, then reads the monodromy, the
gauge and the constant matrix off the seeds of that basis, over A and K.
"""

from dataclasses import dataclass
from math import comb, factorial

from .diffmod import (
    DiffModule,
    HorizontalSpace,
    constant_matrix_of,
    dual,
    horizontal_hom,
    match_left_factor,
    tensor,
)
from .errors import (
    MissingCandidates,
    NotFoundWithinBounds,
    NotRegularWithinBounds,
)
from .expring import ExpRingElem, GroupAlgElem
from .laurent import LaurentPoly, kernel_partial_plus, kernel_partial_square
from .linalg import (
    Matrix,
    charpoly,
    det_cofactor,
    eigenvalues,
    jordan_block,
    jordan_form,
    rational_roots,
)
from .ratio import Rat
from .scalar import Cyclotomic, ExponentClass, gamma, gamma_inverse
from .sigmamod import SigmaModule, hom_dim

DEFAULT_DEGREE_BOUND = 8


@dataclass
class ConstantForm:
    """gauge H and constant matrix C with partial(H)H^-1 + H G H^-1 = C."""

    gauge: Matrix  # over LaurentPoly
    constant: Matrix  # over Cyclotomic


@dataclass(frozen=True)
class ExponentMultiset:
    """Multiset of exponent classes in [0,1), sorted, one entry per dimension."""

    entries: tuple

    @classmethod
    def from_classes(cls, classes):
        return cls(entries=tuple(sorted(classes, key=lambda a: a.value)))

    def __eq__(self, other):
        if not isinstance(other, ExponentMultiset):
            return NotImplemented
        return self.entries == other.entries

    def negated(self):
        return ExponentMultiset.from_classes([-a for a in self.entries])

    def pairwise_sums(self, other):
        return ExponentMultiset.from_classes(
            [a + b for a in self.entries for b in other.entries]
        )

    def __repr__(self):
        return "{" + ", ".join(repr(a) for a in self.entries) + "}"


# ---------------------------------------------------------------------------
# exponent candidates


def default_exponent_candidates(module):
    """Eigenvalue classes of the t^0 coefficient of G; a documented heuristic
    valid when G has no negative t-degrees (t-adically entire matrices)."""
    for row in module.matrix.data:
        for entry in row:
            md = entry.min_degree
            if md is not None and md < 0:
                raise MissingCandidates(
                    "G has negative t-degrees; supply exponent_candidates explicitly"
                )
    g0 = module.matrix.map(lambda f: f.coeff(0))
    classes = [ExponentClass(r) for r in rational_roots(charpoly(g0))]
    classes.append(ExponentClass(0))
    return list(dict.fromkeys(classes))


# ---------------------------------------------------------------------------
# bounded search for horizontal sections (row form)


def _apply_row_operator(g, a_scalar, row):
    """T(w) = (partial + a)(w) + w G on a row vector of Laurent polynomials."""
    n = len(row)
    out = []
    for j in range(n):
        val = row[j].partial() + row[j] * a_scalar
        for i in range(n):
            gij = g.data[i][j]
            if not gij.is_zero and not row[i].is_zero:
                val = val + row[i] * gij
        out.append(val)
    return out


def _operator_powers(g):
    """T_0^k(e_i) for k = 0..n, one list per i: n^2 applications of T_0."""
    powers = [[[LaurentPoly.one() if j == i else LaurentPoly.zero() for j in range(g.rows)]] for i in range(g.rows)]
    for seq in powers:
        for _ in range(g.rows):
            seq.append(_apply_row_operator(g, Cyclotomic.zero(), seq[-1]))
    return powers


def _window_images(powers, search_class, bound):
    """T^n(t^d e_i) for d in [-bound, bound] (d outer, i inner) as maps
    (j, degree) -> nonzero coefficient, from powers[i][k] = T_0^k(e_i) by the
    shift identity (see _row_solution_chains)."""
    n = len(powers)
    images = []
    for d in range(-bound, bound + 1):
        scales = [Cyclotomic.from_rat(comb(n, k) * (search_class.value + d) ** (n - k)) for k in range(n + 1)]
        for seq in powers:
            img = {}
            for scale, row in zip(scales, seq):
                for j, f in enumerate(row):
                    for e, c in f.terms.items():
                        prev = img.get((j, e + d))
                        img[j, e + d] = c * scale if prev is None else prev + c * scale
            images.append({key: c for key, c in img.items() if not c.is_zero})
    return images


def _row_solution_chains(g, search_class, bound, powers):
    """All horizontal rows w = sum_k w_k ell^k of class a with seeds in the
    window [-bound, bound]: w_0 ranges over ker(T^n), w_{k+1} = -T(w_k)/(k+1).

    T = partial + a + G satisfies T(t^d w) = t^d (T + d)(w) and T = T_0 + a,
    so the image of a unit seed is T^n(t^d e_i) =
    t^d sum_k C(n,k) (a+d)^(n-k) T_0^k(e_i), summed over k in increasing
    order; powers holds the T_0^k(e_i), shared by every search class."""
    if bound < 0:
        return []  # an empty window holds no seeds
    n = g.rows
    a_scalar = Cyclotomic.from_rat(search_class.value)
    images = _window_images(powers, search_class, bound)
    keys = sorted(set().union(*images)) or [None]
    chains = []
    for combo in Matrix([[img.get(key, Cyclotomic.zero()) for img in images] for key in keys]).nullspace():
        chain = [[LaurentPoly({d: combo[(d + bound) * n + i] for d in range(-bound, bound + 1)}) for i in range(n)]]
        k = 0
        while True:
            img = _apply_row_operator(g, a_scalar, chain[-1])
            if all(f.is_zero for f in img):
                break
            k += 1
            if k >= n:
                raise AssertionError("chain does not terminate at the nilpotency bound")
            scale = Cyclotomic.from_rat(Rat(-1, k))
            chain.append([f * scale for f in img])
        chains.append(chain)
    return chains


def _section_search(module, g, exponent_candidates, laurent_degree_bound):
    """The horizontal rows w = t^sc sum_k w_k ell^k, partial(w) + w g = 0,
    found by the seed-chain search (g is G for row sections, G^T for column
    sections), as (sc, [w_0, w_1, ...]) pairs grouped by search class in
    increasing order, and the exponent candidates searched."""
    module.require_standard_derivation()
    if exponent_candidates is None:
        candidates = default_exponent_candidates(module)
    else:
        candidates = [ExponentClass(a) for a in exponent_candidates]
    search_classes = sorted(dict.fromkeys(-a for a in candidates), key=lambda a: a.value)
    powers = _operator_powers(g)
    sections = []
    for sc in search_classes:
        sections.extend((sc, chain) for chain in _row_solution_chains(g, sc, laurent_degree_bound, powers))
    return sections, candidates


def _seed_block_inverse(lam, a_class, size):
    """t^(a+sc) Z0^-1 for J(a, size) with monodromy exactly J(lam, size),
    where the rows of Z0 are lam^i e_1^T X^i, X = exp(-N) - I.  The seeds
    of the block have class sc = -a, so a + sc is 0 or 1."""
    zero_c, one_c = Cyclotomic.zero(), Cyclotomic.one()
    x = Matrix(
        [
            [Cyclotomic.from_rat(Rat((-1) ** (j - i), factorial(j - i))) if j > i else zero_c for j in range(size)]
            for i in range(size)
        ]
    )
    rows = []
    current = [one_c] + [zero_c] * (size - 1)
    lam_pow = one_c
    for i in range(size):
        rows.append([lam_pow * c for c in current])
        current = (Matrix([current]) * x).data[0] if i + 1 < size else current
        lam_pow = lam_pow * lam
    shift = 0 if a_class.is_zero else 1
    return Matrix(rows).inverse().map(lambda z: LaurentPoly({shift: z}))


def _gauge_gives(module, h, c):
    """Whether the gauge H takes G to the matrix C, given that H is
    invertible: G' = (partial(H) + H G) H^-1, so G' = C exactly when
    partial(H) + H G = C H, which needs no inverse of H."""
    return h.map(module.derive) + h * module.matrix == c * h


def _horizontal_is_invertible(f):
    """Whether a square F over A with partial(F) = F G1 - G2 F is invertible.

    Such F are the horizontal morphisms (G1, G2 the two connection
    matrices) and the gauges with partial(H) + H G = C H (G1 = -G,
    G2 = -C).  By Liouville's formula partial(det F) = (tr G1 - tr G2) det F.
    A nonzero y in A with partial(y)/y in A is a monomial: write y = t^m v
    with v a polynomial, v(0) != 0; then partial(y)/y = m + t v'/v, so v
    divides t v', hence v', and v is constant.  So det F is 0 or a unit of A,
    and the value det(F(1)) at t = 1 tells which.
    """
    at_one = f.map(lambda x: sum(x.terms.values(), Cyclotomic.zero()))
    return not det_cofactor(at_one).is_zero


def find_constant_form(
    module,
    exponent_candidates=None,
    laurent_degree_bound=DEFAULT_DEGREE_BOUND,
):
    """Search for a gauge H over A making the connection matrix constant.

    The horizontal-section equation is diagonal in the exponent classes and
    block triangular in ell, so sections of class a correspond exactly to
    seeds w_0 (the ell^0 coefficient, with Laurent degrees in the bound
    window) on which T = (partial + a) + G acts nilpotently; the higher ell
    coefficients follow by w_{k+1} = -T(w_k)/(k+1).  If n independent
    sections W exist, their monodromy R (sigma(W) = R W) is read off the
    ell^0 rows: the ell^0 part of sigma(t^sc sum_k w_k ell^k) is
    gamma(sc) t^sc sum_k w_k, and the seeds are independent.  With
    R = Q J Q^-1 in Jordan form and W_C = t^-a Z0 exp(-ell N) the row
    solutions of the constant matrix C dictated by J, the gauge
    H = W_C^-1 Q^-1 W is sigma-invariant, so it lies in A and equals its
    ell^0 part t^a Z0^-1 Q^-1 W_0; all of this is computed over A and K.
    G' = C is checked as partial(H) + H G = C H, and then H is certified
    invertible by the value of det H at t = 1 (see _horizontal_is_invertible).

    This is a semi-decision procedure: NotRegularWithinBounds means absence
    within the bounds, not a proof of irregularity.
    """
    n = module.dim
    sections, candidates = _section_search(module, module.matrix, exponent_candidates, laurent_degree_bound)
    if len(sections) < n:
        shown = ", ".join(str(a) for a in sorted(candidates, key=lambda a: a.value))
        raise NotFoundWithinBounds(
            f"found {len(sections)} independent horizontal sections (need {n}) "
            f"within degree window [{-laurent_degree_bound},{laurent_degree_bound}] "
            f"for exponent candidates [{shown}]"
        )
    if len(sections) > n:
        raise AssertionError("solution space exceeds the rank; this is a bug")

    def ell0_rows(rows):
        return Matrix([[ExpRingElem.from_groupalg(GroupAlgElem({sc: f})) for f in row]
                       for (sc, _), row in zip(sections, rows)])

    w0 = [chain[0] for _, chain in sections]
    # the ell^0 rows of sigma(W), summed over k in increasing order as ExpRingElem.sigma does
    sigma_w0 = [[sum((w[j] * gamma(sc) for w in chain[1:]), chain[0][j] * gamma(sc)) for j in range(n)]
                for sc, chain in sections]
    jd = jordan_form(match_left_factor(ell0_rows(w0), ell0_rows(sigma_w0)))
    blocks = [(lam, -gamma_inverse(lam), size) for lam, size in jd.blocks]
    q_inv_w0 = jd.transform.inverse().map(LaurentPoly.from_scalar) * Matrix(w0)
    h = Matrix.block_diag([_seed_block_inverse(lam, a, size) for lam, a, size in blocks]) * q_inv_w0
    c = Matrix.block_diag([jordan_block(a.as_cyclotomic(), size) for _, a, size in blocks])
    if not _gauge_gives(module, h, c.map(LaurentPoly.from_scalar)):
        raise AssertionError("constant form verification failed; this is a bug")
    if not _horizontal_is_invertible(h):
        raise AssertionError("reconstructed gauge is not invertible over A")
    return ConstantForm(gauge=h, constant=c)


def ensure_constant_form(module, **opts):
    """Identity gauge for an already-constant matrix, else the bounded search."""
    module.require_standard_derivation()
    c = constant_matrix_of(module.matrix)
    if c is not None:
        return ConstantForm(gauge=Matrix.identity(module.dim, LaurentPoly), constant=c)
    return find_constant_form(module, **opts)


def horizontal_sections(
    module,
    exponent_candidates=None,
    laurent_degree_bound=DEFAULT_DEGREE_BOUND,
):
    """Basis of the solution space (M (x) E_A)^{nabla=0} within bounds.

    Column vectors v over the exponent ring with partial(v) + G v = 0: these
    are the row solutions of the transposed matrix, found by the same
    seed-chain search as find_constant_form.  Every returned vector is
    re-checked exactly against the defining equation.
    """
    g = module.matrix
    n = module.dim
    sections, _ = _section_search(module, g.transpose(), exponent_candidates, laurent_degree_bound)
    basis = [[ExpRingElem([GroupAlgElem({sc: w[j]}) for w in chain]) for j in range(n)] for sc, chain in sections]
    g_e = g.map(ExpRingElem.from_laurent)
    for v in basis:
        image = [x.partial() for x in v]
        for i in range(n):
            for j in range(n):
                image[i] = image[i] + g_e.data[i][j] * v[j]
        if any(not x.is_zero for x in image):
            raise AssertionError("section fails the defining equation; this is a bug")
    return HorizontalSpace(basis=basis)


# ---------------------------------------------------------------------------
# the equivalence


def _constant_form_or_not_regular(module, **opts):
    try:
        return ensure_constant_form(module, **opts)
    except NotFoundWithinBounds as exc:
        raise NotRegularWithinBounds(str(exc)) from exc


def mon(module, **opts):
    """The monodromy representation: J(a, n) blocks become J(gamma(-a), n)."""
    cf = _constant_form_or_not_regular(module, **opts)
    return _mon_of_blocks(jordan_form(cf.constant).blocks)


def _mon_of_blocks(blocks):
    """mon of a constant module from the Jordan blocks (a, n) of its matrix."""
    return SigmaModule(Matrix.block_diag(
        [jordan_block(gamma(-ExponentClass.from_scalar(a)), size) for a, size in blocks]))


def rm(v):
    """The inverse dictionary: J(lam, n) blocks become J(-gamma_inverse(lam), n)."""
    jd = jordan_form(v.monodromy)
    blocks = []
    for lam, size in jd.blocks:
        a = -gamma_inverse(lam)
        blocks.append(jordan_block(a.as_cyclotomic(), size))
    return DiffModule.from_constant(Matrix.block_diag(blocks))


def exponents(module, **opts):
    """Eigenvalues of a constant form, reduced mod Z, with multiplicity."""
    cf = _constant_form_or_not_regular(module, **opts)
    return _exponent_multiset(eigenvalues(cf.constant))


def _exponent_multiset(spectrum):
    """The classes of (eigenvalue, count) pairs, such as eigenvalues or Jordan
    blocks, each taken count times."""
    return ExponentMultiset.from_classes(
        [ExponentClass.from_scalar(lam) for lam, count in spectrum for _ in range(count)])


@dataclass
class FuchsDecomposition:
    """Triangularizing gauge, the Jordan constant matrix, and the ordered
    rank-one factors N(a_i) read off its diagonal."""

    gauge: Matrix  # over LaurentPoly
    triangular: Matrix  # over Cyclotomic, block upper triangular (Jordan)
    factors: list  # diagonal entries, one per rank-one sub-quotient
    exponent_multiset: ExponentMultiset


def fuchs_decomposition(module, **opts):
    """Jordan-Hoelder data: compose the constant form with a constant
    conjugation to Jordan shape, exposing the flag of rank-one sub-quotients.
    The gauge P^-1 H is checked over A without an inverse, as in
    find_constant_form: partial(P^-1 H) + P^-1 H G = J P^-1 H.  It needs no
    invertibility test of its own, since P is a constant invertible matrix
    and H is certified invertible by find_constant_form (or is I)."""
    cf = _constant_form_or_not_regular(module, **opts)
    jd = jordan_form(cf.constant)
    p_inv = jd.transform.inverse().map(LaurentPoly.from_scalar)
    gauge = p_inv * cf.gauge
    triangular = jd.jordan_matrix()
    if not _gauge_gives(module, gauge, triangular.map(LaurentPoly.from_scalar)):
        raise AssertionError("triangularization verification failed; this is a bug")
    diag = [triangular.data[i][i] for i in range(module.dim)]
    classes = [ExponentClass.from_scalar(x) for x in diag]
    return FuchsDecomposition(
        gauge=gauge,
        triangular=triangular,
        factors=diag,
        exponent_multiset=ExponentMultiset.from_classes(classes),
    )


# ---------------------------------------------------------------------------
# comparison reports


_WITNESS_TRIALS = 40  # rungs of the coefficient ladder (i+1)^trial tried before giving up


def horizontal_isomorphism(m1, m2):
    """An explicit invertible horizontal morphism M1 -> M2 over A, or None
    (always None when the dimensions differ).

    Scans deterministic integer combinations of the horizontal Hom basis;
    under the equivalence the invertible locus is Zariski open, so a small
    power ladder of coefficients finds a witness whenever one exists.  Each
    candidate is horizontal, so it is invertible exactly when its value at
    t = 1 is (see _horizontal_is_invertible).
    """
    space = horizontal_hom(m1, m2)
    if not space.basis or m1.dim != m2.dim:
        return None
    for f in space.basis:
        if _horizontal_is_invertible(f):
            return f
    for trial in range(1, _WITNESS_TRIALS + 1):
        combo = Matrix.zeros(m2.dim, m1.dim, LaurentPoly)
        for i, f in enumerate(space.basis):
            combo = combo + f.map(lambda x: x * Cyclotomic.from_rat((i + 1) ** trial))
        if _horizontal_is_invertible(combo):
            return combo
    return None


def mon_hom_compare(m1, m2, **opts):
    """Check dim Hom^nabla(M, N) = dim Hom^Z(Mon M, Mon N), plus the exponent
    arithmetic of tensor and dual.  Returns a report dict."""
    c1, c2 = (DiffModule.from_constant(_constant_form_or_not_regular(m, **opts).constant) for m in (m1, m2))
    return _hom_report(c1, c2, horizontal_hom(c1, c2))


def _hom_report(c1, c2, space):
    """mon_hom_compare's report for constant modules c1, c2 and the
    horizontal Hom space between them."""
    d_hom = space.dimension
    blocks1, blocks2 = (jordan_form(c.constant_matrix()).blocks for c in (c1, c2))
    d_mon = hom_dim(_mon_of_blocks(blocks1), _mon_of_blocks(blocks2))
    e1, e2 = _exponent_multiset(blocks1), _exponent_multiset(blocks2)
    tensor_ok = exponents(tensor(c1, c2)) == e1.pairwise_sums(e2)
    dual_ok = exponents(dual(c1)) == e1.negated()
    return {
        "hom_dim": d_hom,
        "mon_hom_dim": d_mon,
        "hom_match": d_hom == d_mon,
        "tensor_exponents_match": bool(tensor_ok),
        "dual_exponents_match": bool(dual_ok),
        "ok": d_hom == d_mon and bool(tensor_ok) and bool(dual_ok),
    }


def verify_no_exp_no_log(degree_bound=6, exponent_samples=(Rat(1, 2), Rat(1, 3), Rat(5, 12))):
    """Windowed check that A = K[t,1/t] is without exponents nor logarithm:
    ker partial^2 = K and ker(partial + a) = 0 for sampled nonzero classes."""
    lo, hi = -degree_bound, degree_bound
    sq = kernel_partial_square(lo, hi)
    sq_ok = len(sq) == 1 and sq[0] == LaurentPoly.one()
    report = {
        "partial_square_kernel_dim": len(sq),
        "partial_square_is_constants": bool(sq_ok),
    }
    plus_ok = True
    for a in exponent_samples:
        cls = ExponentClass(a)
        if cls.is_zero:
            raise ValueError("samples must be nonzero classes")
        basis = kernel_partial_plus(lo, hi, cls)
        report[f"partial_plus_{cls!r}_kernel_dim"] = len(basis)
        plus_ok = plus_ok and not basis
    report["partial_plus_all_zero"] = bool(plus_ok)
    report["ok"] = bool(sq_ok and plus_ok)
    return report
