"""The window search of the constant-form pipeline.

The images T_a^n(t^d e_i) of the unit seeds come from the shift identity
T_a^n(t^d e_i) = t^d sum_k C(n,k) (a+d)^(n-k) T_0^k(e_i); they are compared
here, value and conductor label, with a direct n-fold application of T_a.
Their kernel is taken by the certified modular elimination
(linalg._modular_kernel) for rational G and by linalg.column_kernel
otherwise; the chains are compared, value and conductor label, with those
of the dense path they replaced (a dense matrix of the images and the
dense Gauss-Jordan conftest.dense_nullspace, kept as the oracle), and a
child process checks that an irregular search over a wide window stays
fast and small.  G is drawn rational, over Q(zeta_12), over Q and Q(zeta_5),
and over Q, Q(zeta_3) and Q(i): rational G takes the packed operator, and
the other three (conductor12, conductor5 and mixed3and4) take the Laurent
one.  The gauge checks of find_constant_form and fuchs_decomposition use
partial(H) + H G = C H in place of base_change, which is compared with
base_change itself, and on a rational triple with the same equation in
packed integers.
"""

import hashlib
import random

import pytest

from conftest import dense_nullspace, run_child

from fuchskit import diffmod, functors, linalg
from fuchskit.diffmod import DiffModule, base_change, laurent_matrix
from fuchskit.functors import (
    _apply_row_operator,
    _gauge_gives,
    _operator_powers,
    _row_solution_chains,
    _search_operator,
    _window_images,
    find_constant_form,
    fuchs_decomposition,
    horizontal_sections,
)
from fuchskit.generate import Sizes, rand_shearing_gauge
from fuchskit.laurent import LaurentPoly, PackedMatrix
from fuchskit.linalg import Matrix, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, ExponentClass, _normal

Z12 = Cyclotomic.root_of_unity(12)

# The kinds of coefficients drawn: rational (the packed search); Q(zeta_12)
# with every coordinate drawn; rationals and Q(zeta_5) (one label other
# than 12); and rationals, Q(zeta_3) and Q(i) (two labels).
KINDS = [False, True, 5, "mixed"]
KIND_IDS = ["rational", "conductor12", "conductor5", "mixed3and4"]


def rand_coefficient(rng, kind):
    """A coefficient of the given kind (see KINDS)."""
    if not kind:
        return Cyclotomic.from_rat(Rat(rng.randint(-3, 3), rng.randint(1, 4)))
    if kind is True:
        return Cyclotomic(12, [Rat(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)])
    n = rng.choice([1, 3, 4] if kind == "mixed" else [1, kind])
    return Cyclotomic(n, [Rat(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(1 if n == 1 else 2)])


def rand_connection(rng, dim, kind):
    """A Laurent matrix with degrees in [-2, 2], negative degrees included."""
    rows = []
    for _ in range(dim):
        row = []
        for _ in range(dim):
            terms = {rng.randint(-2, 2): rand_coefficient(rng, kind) for _ in range(rng.randint(0, 2))}
            row.append(LaurentPoly(terms))
        rows.append(row)
    rows[0][-1] = rows[0][-1] + LaurentPoly.t_power(-1, rand_coefficient(rng, kind) + 1)
    return Matrix(rows)


def direct_image(g, a, d, i):
    """T_a^n(t^d e_i) by n applications of T_a = partial + a + G to a row."""
    n = g.rows
    a = Cyclotomic.from_rat(a)
    row = [LaurentPoly.t_power(d) if j == i else LaurentPoly.zero() for j in range(n)]
    for _ in range(n):
        row = [
            sum((row[k] * g.data[k][j] for k in range(n)), row[j].partial() + row[j] * a)
            for j in range(n)
        ]
    return {(e, j): c for j, f in enumerate(row) for e, c in f.terms.items()}


def assert_same_image(image, expected, mixed):
    """Equal keys and values, and equal conductor labels.  With Q(zeta_3) and
    Q(i) entries mixed, the two computations make different operations, so a
    value of a subfield may be carried at the compositum's label 12 by one of
    them (the rule of test_column_kernel); a rational is at label 1 in both."""
    assert image.keys() == expected.keys()
    for key, c in image.items():
        e = expected[key]
        assert not c.is_zero and c == e, (key, c, e)
        assert c.n == e.n or (mixed and {c.n, e.n} in ({3, 12}, {4, 12})), (key, c.n, e.n)


def is_rational(*ms):
    """Whether every coefficient of the Laurent matrices ms is rational."""
    return all(c.n == 1 for m in ms for row in m.data for f in row for c in f.terms.values())


def terms_and_labels(row):
    """Every coefficient of a row of Laurent polynomials, value and label."""
    return [sorted((d, repr(c), c.n) for d, c in f.terms.items()) for f in row]


class TestShiftIdentity:
    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    @pytest.mark.parametrize("a", [Rat(0), Rat(1, 2), Rat(5, 12), Rat(7, 1009)], ids=["0", "1/2", "5/12", "7/1009"])
    def test_images_match_direct_application(self, kind, a):
        rng = random.Random(f"window-images:{kind}:{a}")
        bound = 2
        for dim in (1, 2, 3):
            g = rand_connection(rng, dim, kind)
            images = _window_images(_operator_powers(_search_operator(g)), ExponentClass(a), bound, _normal)
            assert len(images) == (2 * bound + 1) * dim
            seeds = [(d, i) for d in range(-bound, bound + 1) for i in range(dim)]
            for image, (d, i) in zip(images, seeds):
                assert_same_image(image, direct_image(g, a, d, i), kind == "mixed")

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_zero_shift_keeps_only_the_top_power(self, kind):
        # class 0 at d = 0: a + d = 0, so the image of e_i is T_0^n(e_i) alone
        rng = random.Random(f"window-images-p0:{kind}")
        for dim in (1, 2, 3):
            g = rand_connection(rng, dim, kind)
            powers = _operator_powers(_search_operator(g))
            images = _window_images(powers, ExponentClass(0), 0, _normal)
            for image, seq in zip(images, powers):
                top = {(e, j): _normal(m, nums[-1], den) for e, j, m, den, nums in seq if any(nums[-1])}
                assert_same_image(image, top, kind == "mixed")

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_operator_is_packed_iff_rational(self, kind):
        rng = random.Random(f"search-operator:{kind}")
        for dim in (2, 3):
            g = rand_connection(rng, dim, kind)
            rational = is_rational(g)
            assert rational == (not kind)
            op = _search_operator(g)
            if rational:
                assert isinstance(op, PackedMatrix)
                # unpacking gives back every value, at label 1
                assert [terms_and_labels(row) for row in op.to_rows()] == [terms_and_labels(row) for row in g.data]
            else:
                assert op is g


def counted_search(monkeypatch):
    """Count the calls of the packed operator (the path of rational G) made
    for the images (outside _row_solution_chains) apart from the chain steps
    (inside it), and record the length of every chain returned."""
    counts = {"images": 0, "chains": 0, "chain_lengths": 0}
    inside = []
    apply, chains = functors._apply_packed_operator, functors._row_solution_chains

    def counted_apply(*args):
        counts["chains" if inside else "images"] += 1
        return apply(*args)

    def counted_chains(*args):
        inside.append(True)
        try:
            out = chains(*args)
        finally:
            inside.pop()
        counts["chain_lengths"] += sum(len(chain) for chain in out)
        return out

    monkeypatch.setattr(functors, "_apply_packed_operator", counted_apply)
    monkeypatch.setattr(functors, "_row_solution_chains", counted_chains)
    return counts


def sheared_module():
    """J(1/2, 2) + (1/3), hidden by a gauge with t^-1 and t^2 entries."""
    c = Matrix.block_diag([jordan_block(Cyclotomic.from_rat(Rat(1, 2)), 2), jordan_block(Cyclotomic.from_rat(Rat(1, 3)), 1)])
    t = LaurentPoly.t_power
    h = laurent_matrix([[1, t(-1), 0], [0, 1, 0], [t(2), 1, 1]])
    return base_change(DiffModule.from_constant(c), h)


class TestOperatorCalls:
    @pytest.mark.parametrize("bound", [3, 6])
    @pytest.mark.parametrize(
        "candidates",
        [[Rat(1, 2), Rat(1, 3)], [Rat(1, 2), Rat(1, 3), Rat(0), Rat(5, 12), Rat(1, 4)]],
        ids=["two-classes", "five-classes"],
    )
    def test_images_take_n_squared_calls(self, monkeypatch, bound, candidates):
        m = sheared_module()
        counts = counted_search(monkeypatch)
        cf = find_constant_form(m, exponent_candidates=candidates, laurent_degree_bound=bound)
        assert cf.constant.rows == 3
        assert counts["images"] == m.dim**2
        # one step per chain vector, plus the step that reaches zero
        assert counts["chains"] == counts["chain_lengths"] > 0

    def test_column_sections_take_n_squared_calls(self, monkeypatch):
        m = sheared_module()
        counts = counted_search(monkeypatch)
        space = horizontal_sections(m, exponent_candidates=[Rat(1, 2), Rat(1, 3), Rat(0)], laurent_degree_bound=4)
        assert len(space.basis) == 3
        assert counts["images"] == m.dim**2
        assert counts["chains"] == counts["chain_lengths"]


def perturbed(c, rng, coeff):
    i, j = rng.randrange(c.rows), rng.randrange(c.cols)
    rows = [list(row) for row in c.data]
    rows[i][j] = rows[i][j] + LaurentPoly.t_power(rng.randint(-2, 2), coeff)
    return Matrix(rows)


def packed_gauge_gives(module, h, c):
    """The gauge check in integers, as the library made it for a rational
    triple (H, G, C) before it compared in the Laurent ring alone:
    partial(H) + H G and C H packed, and compared by their lowest-terms
    (denominator, numerators)."""
    hp, gp, cp = (PackedMatrix.from_rows(m.data) for m in (h, module.matrix, c))
    left, right = hp.partial_plus(0) + hp * gp, cp * hp
    return (left.den, left.nums) == (right.den, right.nums)


class TestInverseFreeCheck:
    def test_agrees_with_base_change(self):
        # G of every kind; on a rational triple (H, G, C) the packed check
        # is the oracle of the Laurent one
        rng = random.Random("inverse-free-check")
        sizes = Sizes(max_dim=3)
        kinds = set()
        for trial in range(16):
            dim = 1 + trial % 3
            m = DiffModule(rand_connection(rng, dim, KINDS[trial % 4]))
            h = rand_shearing_gauge(rng, sizes, dim)
            if trial % 4 == 3:
                # a constant unipotent factor with a conductor-12 entry
                u = Matrix([[Cyclotomic.one() if r == s else (Z12 if s == r + 1 else Cyclotomic.zero())
                             for s in range(dim)] for r in range(dim)])
                h = u.map(LaurentPoly.from_scalar) * h
            assert diffmod.det_cofactor(h).is_unit
            c = base_change(m, h).matrix
            rational = is_rational(m.matrix, h, c)
            kinds.add(rational)
            assert _gauge_gives(m, h, c)
            if rational:
                assert packed_gauge_gives(m, h, c)
            # a rational perturbation keeps a rational triple rational
            bad = perturbed(c, rng, Cyclotomic.from_rat(Rat(1, 2)) if rational else Z12)
            assert base_change(m, h).matrix != bad
            assert not _gauge_gives(m, h, bad)
            if rational:
                assert not packed_gauge_gives(m, h, bad)
        # the draw holds rational triples, where the oracle compares, and others
        assert kinds == {True, False}

    def test_search_and_fuchs_take_no_inverse(self, monkeypatch):
        m = sheared_module()

        def refuse(_):
            raise AssertionError("a Laurent matrix was inverted")

        monkeypatch.setattr(diffmod, "laurent_matrix_inverse", refuse)
        opts = {"exponent_candidates": [Rat(1, 2), Rat(1, 3)], "laurent_degree_bound": 4}
        cf = find_constant_form(m, **opts)
        fd = fuchs_decomposition(m, **opts)
        monkeypatch.undo()
        assert base_change(m, cf.gauge).matrix == cf.constant.map(LaurentPoly.from_scalar)
        assert base_change(m, fd.gauge).matrix == fd.triangular.map(LaurentPoly.from_scalar)


def dense_chains(g, search_class, bound, powers):
    """_row_solution_chains as it was before the sparse kernel and the packed
    operator: the seed images written into a dense matrix, one row per
    (coordinate, degree) key, the kernel taken by dense Gauss-Jordan
    elimination, and the chain steps in the Laurent ring."""
    n = g.rows
    a_scalar = Cyclotomic.from_rat(search_class.value)
    images = [{(j, e): c for (e, j), c in img.items()} for img in _window_images(powers, search_class, bound, _normal)]
    keys = sorted(set().union(*images)) or [None]
    chains = []
    for combo in dense_nullspace(Matrix([[img.get(key, Cyclotomic.zero()) for img in images] for key in keys])):
        chain = [[LaurentPoly({d: combo[(d + bound) * n + i] for d in range(-bound, bound + 1)}) for i in range(n)]]
        for k in range(1, n + 1):
            img = _apply_row_operator(g, a_scalar, chain[-1])
            if all(f.is_zero for f in img):
                break
            chain.append([f * Cyclotomic.from_rat(Rat(-1, k)) for f in img])
        chains.append(chain)
    return chains


def chains_digest(chains):
    """sha256 of every coefficient of every chain, value and conductor label."""
    text = repr([[terms_and_labels(row) for row in chain] for chain in chains])
    return hashlib.sha256(text.encode()).hexdigest()


# the superdiagonal of the sheared constants: none, zeta_12, zeta_5, and
# zeta_3 and i in turn
SUPERDIAGONAL = {
    False: lambda r: Cyclotomic.zero(),
    True: lambda r: Z12,
    5: lambda r: Cyclotomic.root_of_unity(5),
    "mixed": lambda r: Cyclotomic.root_of_unity(3 if r % 2 else 4),
}


class TestAgainstDenseWindow:
    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_random_connections(self, kind):
        rng = random.Random(f"dense-window:{kind}")
        for trial in range(9):
            g = rand_connection(rng, 1 + trial % 3, kind)
            op = _search_operator(g)
            powers = _operator_powers(op)
            for a in (Rat(0), Rat(1, 2), Rat(2, 3)):
                for bound in (-1, 0, 3):
                    sc = ExponentClass(a)
                    if bound < 0:
                        assert _row_solution_chains(op, sc, bound, powers) == []
                        continue
                    expected = chains_digest(dense_chains(g, sc, bound, powers))
                    assert chains_digest(_row_solution_chains(op, sc, bound, powers)) == expected

    @pytest.mark.parametrize("kind", KINDS, ids=KIND_IDS)
    def test_sheared_modules(self, kind):
        # regular modules, so that the kernels are full
        rng = random.Random(f"dense-window-sheared:{kind}")
        sizes = Sizes(max_dim=3)
        found = 0
        for trial in range(6):
            dim = 1 + trial % 3
            exps = [Rat(rng.randint(0, 5), 6) for _ in range(dim)]
            c = Matrix.block_diag([jordan_block(Cyclotomic.from_rat(a), 1) for a in exps])
            c = c + Matrix([[SUPERDIAGONAL[kind](r) if s == r + 1 else Cyclotomic.zero() for s in range(dim)]
                            for r in range(dim)])
            g = base_change(DiffModule.from_constant(c), rand_shearing_gauge(rng, sizes, dim)).matrix
            op = _search_operator(g)
            powers = _operator_powers(op)
            for a in sorted({-ExponentClass(a) for a in exps}, key=lambda x: x.value):
                chains = _row_solution_chains(op, a, 4, powers)
                assert chains_digest(chains) == chains_digest(dense_chains(g, a, 4, powers))
                found += len(chains)
        assert found >= 12

    def test_builds_no_matrix(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the window search built a dense matrix")

        op = _search_operator(sheared_module().matrix)
        powers = _operator_powers(op)
        monkeypatch.setattr(functors, "Matrix", refuse)
        monkeypatch.setattr(linalg.Matrix, "rref", refuse)
        monkeypatch.setattr(linalg.Matrix, "nullspace", refuse)
        assert len(_row_solution_chains(op, ExponentClass(Rat(1, 2)), 6, powers)) == 2


_IRREGULAR_SETUP = """
from fuchskit.diffmod import DiffModule
from fuchskit.errors import NotFoundWithinBounds
from fuchskit.functors import find_constant_form
from fuchskit.laurent import LaurentPoly, PackedMatrix
from fuchskit.linalg import Matrix
from fuchskit.ratio import Rat
module = DiffModule(Matrix([[LaurentPoly({0: Rat(1, 2), 1: 1})]]))
bound = int(sys.argv[1])
"""

_IRREGULAR_WORK = """
try:
    find_constant_form(module, exponent_candidates=[Rat(1, 2)], laurent_degree_bound=bound)
except NotFoundWithinBounds:
    pass
else:
    raise AssertionError("1/2 + t is irregular at infinity")
"""


class TestWindowCliff:
    def test_irregular_search_at_bound_2000_stays_small(self):
        # a dense window matrix took 12.5 s and 122 MB at bound 800
        elapsed, rss_mb = run_child(_IRREGULAR_SETUP, _IRREGULAR_WORK, 2000, timeout=30)
        assert elapsed < 2, elapsed
        assert rss_mb < 100, rss_mb
