"""The closed-form pieces of find_constant_form against the constructions
they replaced, value and conductor label.

_seed_block_inverse reads Z0^-1 off the binomial table binom(-ell, k)
(entry (j, i) is lam^(-i) j! (-1)^j [ell^j] binom(ell, i)); the reference
below builds Z0 from X = exp(-N) - I, its rows lam^i e_1^T X^i, and inverts
it.  _section_monodromy reads R off the E_A coordinates of the seed rows;
the reference wraps the ell^0 rows of the sections and of sigma of the
sections into ExpRingElem and calls match_left_factor.
"""

import json
import random
from math import factorial, gcd

import pytest

from test_cli import PINNED_MIXED_WINDOW_INPUT

from fuchskit import jsonio
from fuchskit.diffmod import DiffModule, base_change, match_left_factor
from fuchskit.expring import ExpRingElem, GroupAlgElem
from fuchskit.functors import _section_monodromy, _section_search, _seed_block_inverse
from fuchskit.generate import Sizes, rand_shearing_gauge
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic

CONDUCTORS = (3, 4, 5, 7, 8, 12, 15, 30, 60, 84)
# 1, -1, 2/3, every primitive root of unity at the conductors above, and
# three roots stored at a label above their own conductor
LAMBDAS = (
    [Cyclotomic.from_rat(x) for x in (1, -1, Rat(2, 3))]
    + [Cyclotomic.root_of_unity(n) ** k for n in CONDUCTORS for k in range(1, n) if gcd(k, n) == 1]
    + [Cyclotomic.root_of_unity(n) ** k for n, k in ((12, 4), (30, 5), (84, 12))]
)


def reference_block_inverse(lam, size):
    """t^(a+sc) Z0^-1 as it was built before the closed form: the rows
    lam^i e_1^T X^i of Z0, X = exp(-N) - I, and Matrix.inverse."""
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
    shift = 0 if lam == 1 else 1
    return Matrix(rows).inverse().map(lambda z: LaurentPoly({shift: z}))


def encoded(m):
    """Every entry of a Laurent matrix with the label of each coefficient."""
    return jsonio.encode_matrix(m, jsonio.encode_laurent)


class TestSeedBlockInverse:
    @pytest.mark.parametrize("size", range(1, 8))
    def test_matches_the_inverse_of_z0(self, size):
        for lam in LAMBDAS:
            assert encoded(_seed_block_inverse(lam, size)) == encoded(reference_block_inverse(lam, size)), (lam, size)

    def test_inverts_no_matrix(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("Z0 was inverted")

        monkeypatch.setattr(Matrix, "inverse", refuse)
        monkeypatch.setattr(Matrix, "rref", refuse)
        assert _seed_block_inverse(Cyclotomic.root_of_unity(12), 4).rows == 4


def wrapped_monodromy(sections):
    """R by match_left_factor on the ell^0 rows of W and sigma(W), each
    entry wrapped into ExpRingElem."""
    def section(sc, chain, j):
        return ExpRingElem([GroupAlgElem({sc: w[j]}) for w in chain])

    n = len(sections)
    w0 = Matrix([[ExpRingElem.from_groupalg(section(sc, chain, j).coeff(0)) for j in range(n)]
                 for sc, chain in sections])
    sigma_w0 = Matrix([[ExpRingElem.from_groupalg(section(sc, chain, j).sigma().coeff(0)) for j in range(n)]
                       for sc, chain in sections])
    return match_left_factor(w0, sigma_w0)


def sheared(rng, superdiagonal):
    """A regular module of dim 1-3 with exponents in (1/6)Z, one value on its
    superdiagonal, hidden by a shearing gauge; and its exponents."""
    dim = rng.randint(1, 3)
    exps = [Rat(rng.randint(0, 5), 6) for _ in range(dim)]
    c = Matrix.block_diag([jordan_block(Cyclotomic.from_rat(a), 1) for a in exps])
    c = c + Matrix([[superdiagonal if s == r + 1 else Cyclotomic.zero() for s in range(dim)] for r in range(dim)])
    return base_change(DiffModule.from_constant(c), rand_shearing_gauge(rng, Sizes(max_dim=3), dim)), exps


def assert_same_monodromy(module, candidates, bound):
    sections, _ = _section_search(module, module.matrix, candidates, bound)
    assert len(sections) == module.dim
    enc = jsonio.encode_cyclotomic
    got = jsonio.encode_matrix(_section_monodromy(sections), enc)
    assert got == jsonio.encode_matrix(wrapped_monodromy(sections), enc)


class TestSectionMonodromy:
    @pytest.mark.parametrize(
        "superdiagonal",
        [Cyclotomic.from_rat(1), Cyclotomic.root_of_unity(12), Cyclotomic.root_of_unity(5) + Rat(1, 2)],
        ids=["rational", "conductor12", "conductor5"],
    )
    def test_sheared_modules(self, superdiagonal):
        rng = random.Random(f"section-monodromy:{superdiagonal!r}")
        for _ in range(5):
            module, exps = sheared(rng, superdiagonal)
            assert_same_monodromy(module, exps, 4)

    def test_mixed_window_module(self):
        module = jsonio.decode_diffmodule(json.loads(PINNED_MIXED_WINDOW_INPUT))
        assert_same_monodromy(module, [Rat(0), Rat(1, 2), Rat(2, 3)], 3)
