"""The monodromy equivalence made computable.

mon sends a module with constant connection matrix to the representation of
Z obtained by swapping every Jordan block J(a, n) for J(gamma(-a), n); rm is
the inverse dictionary.  For nonconstant matrices, find_constant_form
searches for a full basis of horizontal sections of M (x) E_A by exact
linear algebra on a bounded coefficient space, then reads the monodromy, the
gauge and the constant matrix off the seeds of that basis, over A and K.

Where a path is chosen, one rule holds (as in linalg.column_kernel):
rational input runs in integers, and anything with an irrational
coefficient runs in the Laurent ring and the Cyclotomic elimination, whose
labels the library prints.  For rational G the search operator
T = partial + a + G and its chain steps w -> -T(w)/k run on
laurent.PackedMatrix, unpacked only in the chains handed back, and the
window's integer seed images go to linalg's certified modular elimination.
"""

from math import comb, factorial, lcm

from .diffmod import (
    DiffModule,
    HorizontalSpace,
    _hom_basis,
    constant_matrix_of,
    dual,
    expring_matrix_is_horizontal,
    _constant_factor,
    horizontal_hom,
    tensor,
)
from .errors import (
    MissingCandidates,
    NotFoundWithinBounds,
    NotRegularWithinBounds,
)
from .expring import ExpRingElem, GroupAlgElem, binom_ell_poly
from .laurent import LaurentPoly, PackedMatrix, kernel_partial_plus, kernel_partial_square
from .linalg import (
    Matrix,
    _modular_kernel,
    charpoly,
    column_kernel,
    det_cofactor,
    eigenvalues,
    jordan_block,
    jordan_form,
    rational_roots,
)
from .ratio import Rat
from .scalar import Cyclotomic, ExponentClass, _common_numerators, _normal, gamma, gamma_inverse
from .sigmamod import _make as _sigma_module

DEFAULT_DEGREE_BOUND = 8


class ConstantForm:
    """gauge H and constant matrix C with partial(H)H^-1 + H G H^-1 = C."""

    __slots__ = ("gauge", "constant")

    def __init__(self, gauge, constant):
        self.gauge = gauge  # over LaurentPoly
        self.constant = constant  # over Cyclotomic


class ExponentMultiset:
    """Multiset of exponent classes in [0,1), sorted, one entry per dimension;
    equal (and hashed) by its entries."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = entries

    def __eq__(self, other):
        return self.entries == other.entries if isinstance(other, ExponentMultiset) else NotImplemented

    def __hash__(self):
        return hash(self.entries)

    @classmethod
    def from_classes(cls, classes):
        return cls(entries=tuple(sorted(classes, key=lambda a: a.value)))

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


def _search_operator(g):
    """G for the window search: packed (laurent.PackedMatrix) when it is
    rational, else the Laurent matrix itself, whose arithmetic gives the
    labels the library prints.  For G with a single irrational label both
    would print label L or 1 by value; the Laurent ring keeps one rule."""
    return PackedMatrix.from_rows(g.data) if LaurentPoly.labels(f for row in g.data for f in row) <= {1} else g


def _apply_packed_operator(g, a, w):
    """T(w) = (partial + a)(w) + w G on a packed row, for packed G and a
    rational a."""
    return w.partial_plus(a) + w * g


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
    """The coefficients of T_0^k(e_i), k = 0..n, n^2 applications of T_0:
    for each i the tuples (e, j, L, D, nums), nums[k] the integer numerators
    at label L over D of the coefficient of t^e in the j-th entry of
    T_0^k(e_i)."""
    return (_packed_powers if isinstance(g, PackedMatrix) else _laurent_powers)(g)


def _packed_powers(g):
    """_operator_powers for rational G, in integers (irrational G takes
    _laurent_powers): label 1, and one D per i."""
    n, powers = g.rows, []
    for i in range(n):
        seq = [PackedMatrix.from_rows([[LaurentPoly.one() if j == i else LaurentPoly.zero() for j in range(n)]])]
        for _ in range(n):
            seq.append(_apply_packed_operator(g, 0, seq[-1]))
        den, by_key = lcm(*(w.den for w in seq)), {}
        for k, w in enumerate(seq):
            for (e, _, j), x in w.nums.items():
                by_key.setdefault((e, j), [[0]] * (n + 1))[k] = [x * (den // w.den)]
        powers.append([(e, j, 1, den, nums) for (e, j), nums in by_key.items()])
    return powers


def _laurent_powers(g):
    """_operator_powers for a Laurent G: each (e, j) at the lcm of the labels
    its n + 1 coefficients have."""
    n, powers = g.rows, []
    for i in range(n):
        seq = [[LaurentPoly.one() if j == i else LaurentPoly.zero() for j in range(n)]]
        for _ in range(n):
            seq.append(_apply_row_operator(g, Cyclotomic.zero(), seq[-1]))
        by_key = {}
        for k, row in enumerate(seq):
            for j, f in enumerate(row):
                for e, c in f.terms.items():
                    by_key.setdefault((e, j), [Cyclotomic.zero()] * (n + 1))[k] = c
        powers.append([(e, j, *_common_numerators(cs)) for (e, j), cs in by_key.items()])
    return powers


def _window_images(powers, search_class, bound, entry):
    """T^n(t^d e_i) for d in [-bound, bound] (d outer, i inner), in integers,
    from the coefficients of the T_0^k(e_i) (see _operator_powers) by the
    shift identity (see _row_solution_chains): maps (degree, j) ->
    entry(label, numerators, D) of the nonzero coefficients, over one
    positive denominator D.  With a = p0/q, the numerators of the T_0^k(e_i)
    are scaled by C(n,k) q^k and by D / (q^n times their denominator), and
    Horner's rule at p = p0 + d q gives the image's coefficient of t^(e+d),
    one coordinate at a time.  Every column of the search is so scaled by
    the same D, which leaves its kernel as it is."""
    n = len(powers)
    p0, q = search_class.value.numerator, search_class.value.denominator
    den = lcm(*(d for seq in powers for _, _, _, d, _ in seq)) * q**n
    weights = [comb(n, k) * q**k for k in range(n + 1)]
    groups = [[(e, j, m, [[w * (den // (d * q**n)) * x for w, x in zip(weights, col)] for col in zip(*nums)])
               for e, j, m, d, nums in seq] for seq in powers]
    images = []
    for d in range(-bound, bound + 1):
        p = p0 + d * q
        for group in groups:
            img = {}
            for e, j, m, coords in group:
                num = []
                for bs in coords:
                    acc = 0
                    for b in bs:
                        acc = acc * p + b
                    num.append(acc)
                if any(num):
                    img[e + d, j] = entry(m, num, den)
            images.append(img)
    return images


def _packed_chain(g, a, seed):
    """The chain of a packed seed row (see _row_solution_chains) for packed G,
    unpacked."""
    chain = [seed]
    for k in range(1, g.rows + 1):
        img = _apply_packed_operator(g, a, chain[-1])
        if img.is_zero:
            return [w.to_rows()[0] for w in chain]
        chain.append(img.scaled(-1, k))
    raise AssertionError("chain does not terminate at the nilpotency bound")


def _laurent_chain(g, a, seed):
    """The chain of a seed row for a Laurent G."""
    a_scalar = Cyclotomic.from_rat(a)
    chain = [seed]
    for k in range(1, g.rows + 1):
        img = _apply_row_operator(g, a_scalar, chain[-1])
        if all(f.is_zero for f in img):
            return chain
        chain.append([f * Cyclotomic.from_rat(Rat(-1, k)) for f in img])
    raise AssertionError("chain does not terminate at the nilpotency bound")


def _row_solution_chains(g, search_class, bound, powers):
    """All horizontal rows w = sum_k w_k ell^k of class a with seeds in the
    window [-bound, bound]: w_0 ranges over ker(T^n), w_{k+1} = -T(w_k)/(k+1).
    g is the search operator (_search_operator) and the rows are Laurent.

    T = partial + a + G satisfies T(t^d w) = t^d (T + d)(w) and T = T_0 + a,
    so the image of a unit seed is T^n(t^d e_i) =
    t^d sum_k C(n,k) (a+d)^(n-k) T_0^k(e_i), evaluated by Horner's rule in
    integers; powers holds the T_0^k(e_i), shared by every search class.

    The seeds w_0 are the kernel of the images, in seed order: the canonical
    basis (the identity on the columns that depend on earlier ones) depends
    only on the kernel and that order, so it is the basis Matrix.nullspace
    gives for the matrix of the images.  For rational G the integer images
    go straight to linalg._modular_kernel and the seeds to the chain steps
    packed; for irrational G they are made Cyclotomic for column_kernel and
    the chains run in the Laurent ring.  An image has degrees in
    [d + n lo, d + n hi] for G of degrees [lo, hi]; keyed by (degree, j),
    the images form a band, and the search costs time linear in the window
    times the band."""
    if bound < 0:
        return []  # an empty window holds no seeds
    n, a = g.rows, search_class.value
    chains = []
    if isinstance(g, PackedMatrix):
        # the numerators alone: D scales every column
        images = _window_images(powers, search_class, bound, lambda m, num, den: num[0])
        # a seed packed: column (d + bound) n + i is the coefficient of t^d in entry i
        for f, seed_den, coords in _modular_kernel(images):
            nums = {**coords, f: seed_den}
            seed = PackedMatrix(seed_den, {(c // n - bound, 0, c % n): nums[c] for c in sorted(nums)}, 1, n)
            chains.append(_packed_chain(g, a, seed))
        return chains
    for combo in column_kernel(_window_images(powers, search_class, bound, _normal)):
        seed = [LaurentPoly({d: combo[(d + bound) * n + i] for d in range(-bound, bound + 1)}) for i in range(n)]
        chains.append(_laurent_chain(g, a, seed))
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
    op = _search_operator(g)
    powers = _operator_powers(op)
    sections = []
    for sc in search_classes:
        sections.extend((sc, chain) for chain in _row_solution_chains(op, sc, laurent_degree_bound, powers))
    return sections, candidates


def _seed_block_inverse(lam, size):
    """t^(a+sc) Z0^-1 for J(a, size) with monodromy exactly J(lam, size).

    Row i of Z0 is lam^i e_1^T X^i with X = exp(-N) - I, that is lam^i times
    the coefficients of (e^(-x) - 1)^i in x.  Put u = e^(-x) - 1, so
    x = -log(1 + u) and e^(ell x) = (1 + u)^(-ell) = sum_i binom(-ell, i) u^i;
    the ell^j coefficients give x^j = j! sum_i [ell^j] binom(-ell, i) u^i.
    So entry (j, i) of Z0^-1 is lam^(-i) j! (-1)^j [ell^j] binom(ell, i),
    read off expring.binom_ell_poly with no inverse of Z0.  The seeds of the
    block have class sc = -a, so a + sc is 0 for lam = 1, else 1."""
    shift = 0 if lam == 1 else 1
    scales = [lam ** -i for i in range(size)]

    def entry(j, i):
        c = (-1) ** j * factorial(j) * binom_ell_poly(i)[j] if j <= i else 0
        return LaurentPoly({shift: scales[i] * Cyclotomic.from_rat(c)})

    return Matrix([[entry(j, i) for i in range(size)] for j in range(size)])


def _section_monodromy(sections):
    """The R with sigma(W) = R W for n independent sections (sc, chain) of
    _section_search, read off the ell^0 rows t^sc w_0 and
    gamma(sc) t^sc sum_k w_k: the E_A coordinates of each row, keyed
    (component, class, 0, t-degree) as match_left_factor keys them, are one
    column of [U | V] with V = U R^T."""
    n = len(sections)

    def seed_columns(rows):
        return [{(j, sc.value, 0, d): c for j, f in enumerate(row) for d, c in f.terms.items()}
                for (sc, _), row in zip(sections, rows)]

    w0 = [chain[0] for _, chain in sections]
    # the ell^0 rows of sigma(W), summed over k in increasing order as ExpRingElem.sigma does
    sigma_w0 = [[sum((w[j] * gamma(sc) for w in chain[1:]), chain[0][j] * gamma(sc)) for j in range(n)]
                for sc, chain in sections]
    return _constant_factor(seed_columns(w0) + seed_columns(sigma_w0), n).transpose()


def _gauge_gives(module, h, c):
    """Whether the gauge H takes G to the matrix C, given that H is
    invertible: G' = (partial(H) + H G) H^-1, so G' = C exactly when
    partial(H) + H G = C H, which needs no inverse of H.  Both sides are
    compared by value in the Laurent ring.  The callers have checked that
    the module is over the standard derivation."""
    return h.map(LaurentPoly.partial) + h * module.matrix == c * h


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
    gamma(sc) t^sc sum_k w_k, and the seeds are independent, so R is the
    one constant factor of the E_A coordinates of those rows (see
    _section_monodromy).  With
    R = Q J Q^-1 in Jordan form and W_C = t^-a Z0 exp(-ell N) the row
    solutions of the constant matrix C dictated by J, the gauge
    H = W_C^-1 Q^-1 W is sigma-invariant, so it lies in A and equals its
    ell^0 part t^a Z0^-1 Q^-1 W_0; all of this is computed over A and K.
    Per block J(lam, size), entry (j, i) of Z0^-1 is
    lam^(-i) j! (-1)^j [ell^j] binom(ell, i), the expansion of x^j in powers
    of u = e^(-x) - 1 (see _seed_block_inverse); no matrix is inverted.
    G' = C is checked as partial(H) + H G = C H, and then H is certified
    invertible by the value of det H at t = 1 (see _horizontal_is_invertible).

    This is a semi-decision procedure: NotFoundWithinBounds means absence
    within the bounds, not a proof of irregularity (mon, exponents and
    fuchs_decomposition raise it as NotRegularWithinBounds).
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

    jd = jordan_form(_section_monodromy(sections))
    q_inv_w0 = jd.transform.inverse().map(LaurentPoly.from_scalar) * Matrix([chain[0] for _, chain in sections])
    h = Matrix.block_diag([_seed_block_inverse(lam, size) for lam, size in jd.blocks]) * q_inv_w0
    c = _rm_of_blocks(jd.blocks)
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
    seed-chain search as find_constant_form.  The returned vectors are
    re-checked exactly against the defining equation.
    """
    sections, _ = _section_search(module, module.matrix.transpose(), exponent_candidates, laurent_degree_bound)
    basis = [[ExpRingElem([GroupAlgElem({sc: w[j]}) for w in chain]) for j in range(module.dim)]
             for sc, chain in sections]
    if basis and not expring_matrix_is_horizontal(Matrix.from_columns(basis), module.matrix):
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


def _mon_blocks(blocks):
    """The Jordan blocks (gamma(-a), n) of mon from the blocks (a, n)."""
    return [(gamma(-ExponentClass.from_scalar(a)), size) for a, size in blocks]


def _mon_of_blocks(blocks):
    """mon of a constant module from the Jordan blocks (a, n) of its matrix."""
    return _sigma_module(Matrix.block_diag([jordan_block(lam, size) for lam, size in _mon_blocks(blocks)]))


def rm(v):
    """The inverse dictionary: J(lam, n) blocks become J(-gamma_inverse(lam), n)."""
    return DiffModule.from_constant(_rm_of_blocks(jordan_form(v.monodromy).blocks))


def _rm_of_blocks(blocks):
    """The constant matrix of rm of a representation from the Jordan blocks
    (lam, n) of its monodromy."""
    return Matrix.block_diag([jordan_block((-gamma_inverse(lam)).as_cyclotomic(), size) for lam, size in blocks])


def exponents(module, **opts):
    """Eigenvalues of a constant form, reduced mod Z, with multiplicity."""
    cf = _constant_form_or_not_regular(module, **opts)
    return _exponent_multiset(eigenvalues(cf.constant))


def _exponent_multiset(spectrum):
    """The classes of (eigenvalue, count) pairs, such as eigenvalues or Jordan
    blocks, each taken count times."""
    return ExponentMultiset.from_classes(
        [ExponentClass.from_scalar(lam) for lam, count in spectrum for _ in range(count)])


class FuchsDecomposition:
    """Triangularizing gauge, the Jordan constant matrix, and the ordered
    rank-one factors N(a_i) read off its diagonal."""

    __slots__ = ("gauge", "triangular", "factors", "exponent_multiset")

    def __init__(self, gauge, triangular, factors, exponent_multiset):
        self.gauge = gauge  # over LaurentPoly
        self.triangular = triangular  # over Cyclotomic, block upper triangular (Jordan)
        self.factors = factors  # diagonal entries, one per rank-one sub-quotient
        self.exponent_multiset = exponent_multiset


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
    return FuchsDecomposition(
        gauge=gauge,
        triangular=triangular,
        factors=[triangular.data[i][i] for i in range(module.dim)],
        exponent_multiset=_exponent_multiset(jd.blocks),
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
    m1._same_derivation(m2)  # before the dimensions: mixed derivations raise
    if m1.dim != m2.dim or not (space := horizontal_hom(m1, m2)).basis:
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
    return _hom_report(c1, c2)[1]


def _hom_report(c1, c2):
    """The horizontal Hom space between the constant modules c1, c2 and
    mon_hom_compare's report on them, from one Jordan form per constant.
    dim Hom^Z is sum min(p, q) over the pairs of monodromy blocks (gamma(-a), p),
    (gamma(-b), q) with equal eigenvalues (Gantmacher, Theory of Matrices I, VIII)."""
    k1, k2 = c1.constant_matrix(), c2.constant_matrix()
    blocks1, blocks2 = jordan_form(k1).blocks, jordan_form(k2).blocks
    space = _hom_basis(k1, k2, blocks1, blocks2)
    d_hom = space.dimension
    mon1, mon2 = _mon_blocks(blocks1), _mon_blocks(blocks2)
    d_mon = sum(min(p, q) for lam, p in mon1 for mu, q in mon2 if lam == mu)
    e1, e2 = _exponent_multiset(blocks1), _exponent_multiset(blocks2)
    tensor_ok = exponents(tensor(c1, c2)) == e1.pairwise_sums(e2)
    dual_ok = exponents(dual(c1)) == e1.negated()
    return space, {
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
