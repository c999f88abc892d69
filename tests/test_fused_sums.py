"""The sums of products behind Matrix products and Berkowitz's algorithm,
against the routes they replace.

linalg._dot takes a ring's sum_of_products when _fused_label finds one type
with a kernel (Cyclotomic or LaurentPoly) and at most one irrational label
among the coefficients; otherwise, as for every E_A sum, it folds acc + x*y
over the pairs without a zero factor.  Two oracles are kept here: the full
left fold, which adds every product, and the E_A kernel that E_A sums took
before (grouped Laurent kernels per ell-degree and class).  Each route must
give their bytes (jsonio, so value and conductor label) for sums of every
length 1-7: rational only, one label with rational factors, sums that cancel
to a rational (demoted to label 1) or to zero, zero first terms, sums whose
every pair has a zero factor, empty Laurent terms, and mixed Q(zeta_3)/Q(i)
labels, where the fold is the only route.  charpoly, det_cofactor,
det_and_adjugate, fundamental_matrix and trivialize are checked against the
permutation oracle or the oracles' runs on seeded input.
"""

import json
import random
from math import floor

import pytest

from conftest import charpoly_oracle, det_oracle

from fuchskit import jsonio, linalg
from fuchskit.diffmod import fundamental_matrix
from fuchskit.expring import ExpRingElem, GroupAlgElem
from fuchskit.generate import Sizes, rand_constant_module, rand_invertible_constant, rand_sigma_module
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix, _dot, _fused_label, charpoly, det_and_adjugate, det_cofactor, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, euler_phi, gamma
from fuchskit.sigmamod import SigmaModule, trivialize

LABELS = (1, 3, 4, 5, 12, 60, 84)
LENGTHS = range(1, 8)
CLASSES = (Rat(0), Rat(1, 2), Rat(1, 3), Rat(2, 3), Rat(3, 4))


def rand_scalar(rng, label):
    """Rational now and then (and zero now and then), else a value at label."""
    roll = rng.random()
    rat = lambda: Rat(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6)))  # noqa: E731
    if label == 1 or roll < 0.25:
        return Cyclotomic.from_rat(rat() if roll > 0.05 else 0)
    return Cyclotomic(label, [rat() for _ in range(euler_phi(label))])


def rand_laurent(rng, label):
    """Up to three terms in degrees -2..2; empty now and then."""
    return LaurentPoly({rng.randint(-2, 2): rand_scalar(rng, label) for _ in range(rng.randint(0, 3))})


def rand_expring(rng, label):
    """ell-degree up to 2, classes whose sums pass 1, zero now and then."""
    return ExpRingElem(
        [GroupAlgElem({rng.choice(CLASSES): rand_laurent(rng, label) for _ in range(rng.randint(0, 2))})
         for _ in range(rng.randint(0, 3))]
    )


RINGS = {
    "cyclotomic": (rand_scalar, jsonio.encode_cyclotomic, Cyclotomic.from_rat),
    "laurent": (rand_laurent, jsonio.encode_laurent, LaurentPoly.from_scalar),
    "expring": (rand_expring, jsonio.encode_expring, ExpRingElem.from_scalar),
}


def text(encode, x):
    return json.dumps(encode(x), sort_keys=True)


def fold(xs, ys):
    """The full left fold x0*y0 + x1*y1 + ..., every product added."""
    it = zip(xs, ys)
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def expring_labels(values):
    """The conductor labels of the coefficients of E_A values."""
    return LaurentPoly.labels(f for x in values for g in x.ell for f in g.parts.values())


def expring_kernel(xs, ys, n):
    """The E_A kernel that E_A sums took before they took the fold, for
    coefficient labels 1 and n only: the Laurent factor pairs grouped by
    (ell-degree, class), with a class sum past 1 carried as t^spill on the
    right factor as in GroupAlgElem.__mul__; one LaurentPoly.sum_of_products
    per group, zero sums dropped."""
    groups = {}
    for x, y in zip(xs, ys):
        if not x.ell:
            continue
        parts = [(k, b.value, g) for k, h in enumerate(y.ell) for b, g in h.parts.items()]
        for k1, h in enumerate(x.ell):
            for a, f in h.parts.items():
                for k2, b, g in parts:
                    s = a.value + b
                    spill = floor(s)
                    if spill:
                        s -= spill
                        g = LaurentPoly({d + spill: c for d, c in g.terms.items()})
                    pair = groups.get((k1 + k2, s))
                    if pair is None:
                        groups[k1 + k2, s] = [f], [g]
                    else:
                        pair[0].append(f)
                        pair[1].append(g)
    ell = {}
    for (k, a), (fs, gs) in groups.items():
        f = LaurentPoly.sum_of_products(fs, gs, n)
        if not f.is_zero:
            ell.setdefault(k, {})[a] = f
    return ExpRingElem([GroupAlgElem(ell.get(k)) for k in range(max(ell, default=-1) + 1)])


def parent_dot(xs, ys, label=None):
    """_dot as it was: the E_A kernel for E_A sums of one irrational label at
    most, a ring's kernel at the label _fused_label found, else the full
    fold."""
    values = list(xs) + list(ys)
    if len(xs) > 1 and set(map(type, values)) == {ExpRingElem}:
        labels = expring_labels(values) - {1}
        if len(labels) <= 1:
            return expring_kernel(xs, ys, labels.pop() if labels else 1)
    if label is not None and len(xs) > 1:
        return type(xs[0]).sum_of_products(xs, ys, label)
    return fold(xs, ys)


def assert_same(encode, got, expected):
    assert got == expected
    assert text(encode, got) == text(encode, expected)


def corpus(ring, seed):
    """(xs, ys) pairs of every length at every label, the same with a zero
    first term and with a zero factor in every pair, and sums that cancel:
    a last term minus the irrational part of the fold (a rational result) or
    minus the whole fold (zero)."""
    make, _, lift = RINGS[ring]
    zero = lift(0)
    rng = random.Random(seed)
    out = []
    for label in LABELS:
        for n in LENGTHS:
            for _ in range(3):
                xs = [make(rng, label) for _ in range(n)]
                ys = [make(rng, label) for _ in range(n)]
                out.append((label, xs, ys))
            out.append((label, [zero] + xs[1:], ys))
            out.append((label, [zero if i % 2 == 0 else x for i, x in enumerate(xs)],
                        [zero if i % 2 else y for i, y in enumerate(ys)]))
            if n > 1 and ring == "cyclotomic":
                s = fold(xs[:-1], ys[:-1])
                rational = Cyclotomic.from_rat(Rat(s._num[0], s._den))
                for last in (rational - s, -s):
                    out.append((label, xs[:-1] + [last], ys[:-1] + [Cyclotomic.one()]))
            if n > 1 and ring != "cyclotomic":
                s = fold(xs[:-1], ys[:-1])
                out.append((label, xs[:-1] + [-s], ys[:-1] + [lift(1)]))
    return out


def mixed_corpus(ring, seed):
    """Sums whose coefficients carry labels 3 and 4, each entry at one."""
    make = RINGS[ring][0]
    rng = random.Random(seed)
    return [([make(rng, rng.choice((3, 4))) for _ in range(n)], [make(rng, rng.choice((3, 4))) for _ in range(n)])
            for n in LENGTHS for _ in range(3)]


KERNEL_RINGS = ("cyclotomic", "laurent")


@pytest.mark.parametrize("ring", KERNEL_RINGS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_is_the_fold(ring, seed):
    encode = RINGS[ring][1]
    cancelled = 0
    for label, xs, ys in corpus(ring, seed):
        found = _fused_label([xs], [ys])
        assert found == (label if type(xs[0]).labels(xs + ys) - {1} else 1)
        got = type(xs[0]).sum_of_products(xs, ys, found) if len(xs) > 1 else _dot(xs, ys, found)
        expected = fold(xs, ys)
        assert_same(encode, got, expected)
        assert_same(encode, _dot(xs, ys, found), expected)
        cancelled += ring == "cyclotomic" and expected.n == 1 and label > 1
    if ring == "cyclotomic":
        assert cancelled  # demotion to label 1 occurs in the corpus


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_skipping_fold_is_the_full_fold(ring, seed):
    encode = RINGS[ring][1]
    skipped = 0
    for label, xs, ys in corpus(ring, seed):
        expected = fold(xs, ys)
        assert_same(encode, _dot(xs, ys), expected)
        if ring == "expring":
            assert _fused_label([xs], [ys]) is None
            assert_same(encode, expring_kernel(xs, ys, max(expring_labels(xs + ys), default=1)), expected)
        skipped += any(x.is_zero or y.is_zero for x, y in zip(xs, ys))
    assert skipped  # the corpus has pairs with a zero factor


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_mixed_labels_fold(ring):
    encode = RINGS[ring][1]
    mixed = 0
    for xs, ys in mixed_corpus(ring, 9):
        found = _fused_label([xs], [ys])
        labels = (expring_labels if ring == "expring" else type(xs[0]).labels)(xs + ys) - {1}
        assert (found is None) == (ring == "expring" or len(labels) > 1)
        mixed += len(labels) > 1
        assert_same(encode, _dot(xs, ys, found), fold(xs, ys))
    assert mixed


def test_cancellation_to_rational_and_zero():
    z = Cyclotomic.root_of_unity(12)
    xs = [z, Cyclotomic.from_rat(3), -z]
    ys = [Cyclotomic.from_rat(2), Cyclotomic.from_rat(Rat(1, 2)), Cyclotomic.from_rat(2)]
    got = Cyclotomic.sum_of_products(xs, ys, 12)
    assert (got.n, got) == (1, Cyclotomic.from_rat(Rat(3, 2)))
    got = Cyclotomic.sum_of_products([z, z], [Cyclotomic.one(), -Cyclotomic.one()], 12)
    assert got.is_zero and got.n == 1
    f = LaurentPoly({-1: z, 2: Cyclotomic.one()})
    got = LaurentPoly.sum_of_products([f, f], [LaurentPoly.one(), -LaurentPoly.one()], 12)
    assert got.is_zero
    assert LaurentPoly.sum_of_products([LaurentPoly(), f], [f, LaurentPoly()], 12).is_zero


def test_expring_carries_the_class_overflow():
    half = ExpRingElem.t_power(Rat(1, 2))
    third = ExpRingElem.t_power(Rat(2, 3))
    ell = ExpRingElem.ell_var()
    xs = ys = [half, third, ell]
    expected = ExpRingElem.t_power(1) + ExpRingElem.t_power(Rat(4, 3)) + ell * ell
    (got,) = (Matrix([xs]) * Matrix([[y] for y in ys])).data[0]
    for value in (_dot(xs, ys), got, expring_kernel(xs, ys, 1)):
        assert_same(jsonio.encode_expring, value, fold(xs, ys))
        assert value == expected


def test_mixed_labels_take_the_fold(monkeypatch):
    rng = random.Random(5)
    z3, i = Cyclotomic.root_of_unity(3), Cyclotomic.root_of_unity(4)
    rows = [[z3 * rand_scalar(rng, 1) + rand_scalar(rng, 1), i + rand_scalar(rng, 1)] for _ in range(2)]
    m = Matrix(rows)
    assert _fused_label(m.data) is None
    laurent = m.map(LaurentPoly.from_scalar)
    assert _fused_label(laurent.data) is None

    def refuse(*args):
        raise AssertionError("mixed labels must take the fold")

    for ring in (Cyclotomic, LaurentPoly):
        monkeypatch.setattr(ring, "sum_of_products", staticmethod(refuse))
    assert (m * m).data[0][0] == _dot(m.data[0], m.transpose().data[0])
    assert charpoly(m) == charpoly_oracle(m)
    assert det_and_adjugate(laurent)[0] == det_oracle(laurent)


def test_other_types_take_the_fold():
    m = Matrix([[LaurentPoly.t_power(1), LaurentPoly.one()], [LaurentPoly.one(), LaurentPoly.zero()]])
    assert _fused_label(m.data, [[Cyclotomic.one(), Cyclotomic.one()]]) is None
    assert _fused_label([[Rat(1), Rat(2)]]) is None
    assert m * [Cyclotomic.one(), Cyclotomic.from_rat(2)] == [LaurentPoly({1: 1, 0: 2}), LaurentPoly.one()]


def rand_matrix(rng, make, label, n):
    return Matrix([[make(rng, label) for _ in range(n)] for _ in range(n)])


def routed(monkeypatch, dot, fn, *args):
    """fn(*args) with every sum of products taken by dot."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_dot", dot)
        return fn(*args)


def fold_only(monkeypatch, fn, *args):
    return routed(monkeypatch, lambda xs, ys, label=None: fold(xs, ys), fn, *args)


def expring_text(m):
    return [[text(jsonio.encode_expring, x) for x in row] for row in m.data]


@pytest.mark.parametrize("label", LABELS)
def test_berkowitz_against_oracle_and_fold(monkeypatch, label):
    rng = random.Random(label)
    encode = jsonio.encode_cyclotomic
    for n in range(1, 5):
        m = rand_matrix(rng, rand_scalar, label, n)
        got = charpoly(m)
        assert got == charpoly_oracle(m)
        assert [text(encode, c) for c in got] == [text(encode, c) for c in fold_only(monkeypatch, charpoly, m)]
        assert det_cofactor(m) == det_oracle(m)
        assert_same(encode, det_cofactor(m), fold_only(monkeypatch, det_cofactor, m))


@pytest.mark.parametrize("label", [1, 12, 5])
def test_laurent_det_and_adjugate_against_oracle_and_fold(monkeypatch, label):
    rng = random.Random(100 + label)
    for n in range(1, 5):
        m = rand_matrix(rng, rand_laurent, label, n)
        det, adj = det_and_adjugate(m)
        assert det == det_oracle(m)
        assert adj * m == Matrix.identity(n, LaurentPoly).scale(det)
        fdet, fadj = fold_only(monkeypatch, det_and_adjugate, m)
        assert_same(jsonio.encode_laurent, det, fdet)
        assert [[text(jsonio.encode_laurent, x) for x in row] for row in adj.data] == [
            [text(jsonio.encode_laurent, x) for x in row] for row in fadj.data]


def test_expring_products_against_fold(monkeypatch):
    rng = random.Random(17)
    for label in (1, 12):
        for n in range(1, 4):
            a, b = rand_matrix(rng, rand_expring, label, n), rand_matrix(rng, rand_expring, label, n)
            got = expring_text(a * b)
            assert got == expring_text(fold_only(monkeypatch, Matrix.__mul__, a, b))
            assert got == expring_text(routed(monkeypatch, parent_dot, Matrix.__mul__, a, b))


def test_fundamental_matrix_and_trivialize_against_oracles(monkeypatch):
    rng = random.Random(26)
    cases = [(fundamental_matrix, rand_constant_module(rng, Sizes(max_dim=4))) for _ in range(4)]
    cases += [(trivialize, rand_sigma_module(rng, Sizes(max_dim=3))) for _ in range(4)]
    s = rand_invertible_constant(rng, 3)
    mixed = Matrix.block_diag([jordan_block(gamma(Rat(1, 3)), 2), jordan_block(gamma(Rat(1, 4)), 1)])
    cases.append((trivialize, SigmaModule(s * mixed * s.inverse())))
    for fn, arg in cases:
        got = expring_text(fn(arg))
        assert got == expring_text(fold_only(monkeypatch, fn, arg))
        assert got == expring_text(routed(monkeypatch, parent_dot, fn, arg))


def test_one_term_sum_is_the_product():
    z = Cyclotomic.root_of_unity(5)
    assert Cyclotomic.sum_of_products([z], [z], 5) == z * z
    assert _dot([LaurentPoly.t_power(2, z)], [LaurentPoly.t_power(-1)], 5) == LaurentPoly.t_power(1, z)
