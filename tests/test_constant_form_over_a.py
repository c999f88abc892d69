"""The constant-form search computes over A = K[t,1/t] and K only.

The monodromy R and the gauge H are read off the seeds of the horizontal
sections, so find_constant_form and fuchs_decomposition make no product or
sigma in the exponent ring and no determinant over A.  Invertibility of a
horizontal F (partial(F) = F G1 - G2 F) is decided by det F(1), by
Liouville's formula; here that test is compared with the determinant over A.
"""

import random

import pytest

from fuchskit import linalg
from fuchskit.diffmod import (
    DiffModule,
    base_change,
    det_cofactor,
    direct_sum,
    horizontal_hom,
    is_horizontal_morphism,
    laurent_matrix,
    rank_one,
    twist_derivation,
)
from fuchskit.errors import DerivationMismatch, NotFoundWithinBounds
from fuchskit.expring import ExpRingElem, GroupAlgElem
from fuchskit.functors import (
    _gauge_gives,
    _horizontal_is_invertible,
    find_constant_form,
    fuchs_decomposition,
    horizontal_isomorphism,
    horizontal_sections,
    mon,
    rm,
)
from fuchskit.generate import Sizes, rand_constant_module, rand_invertible_constant
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic

Z12 = Cyclotomic.root_of_unity(12)
C = Cyclotomic.from_rat


def conductor12_module(rng):
    """J(1/2, 2) + (5/12) (or + (1/3)), conjugated by a constant matrix with
    zeta_12 entries and sheared by a gauge with t^-1 and t entries."""
    third = Rat(5, 12) if rng.random() < 0.5 else Rat(1, 3)
    c = Matrix.block_diag([jordan_block(C(Rat(1, 2)), 2), jordan_block(C(third), 1)])
    u = Matrix([[C(1), Z12, C(0)], [C(0), C(1), C(0)], [Z12 * Z12 * Z12, C(rng.randint(-2, 2)), C(1)]])
    t = LaurentPoly.t_power
    shear = laurent_matrix([[1, t(-1, Z12), 0], [0, 1, 0], [t(rng.randint(1, 2)), 1, 1]])
    m = base_change(DiffModule.from_constant(c), u.map(LaurentPoly.from_scalar))
    return base_change(m, shear), [Rat(1, 2), third]


def hom_pairs(rng):
    """Pairs of constant modules of equal dimension with a nonzero Hom space:
    rm(mon(M)) against M, integer shifts of M, and M against itself."""
    sizes = Sizes(max_dim=3)
    for _ in range(6):
        m = rand_constant_module(rng, sizes)
        shift = rng.choice([-1, 1, 2])
        c = m.constant_matrix()
        yield m, rm(mon(m))
        yield m, DiffModule.from_constant(c + Matrix.identity(m.dim).scale(C(shift)))
        yield rank_one(Rat(1, 3)), rank_one(Rat(1, 3) + shift)
        yield m, m


class TestLiouvilleCertificate:
    def test_agrees_with_determinant_on_hom_bases_and_combinations(self):
        rng = random.Random("liouville-hom")
        seen = set()
        for m1, m2 in hom_pairs(rng):
            basis = horizontal_hom(m1, m2).basis
            combos = list(basis)
            for _ in range(3):
                coeffs = [C(rng.randint(-2, 2)) for _ in basis]
                combo = Matrix.zeros(m2.dim, m1.dim, LaurentPoly)
                for k, f in zip(coeffs, basis):
                    combo = combo + f.map(lambda x: x * k)
                combos.append(combo)
            for f in combos:
                assert is_horizontal_morphism(f, m1, m2)
                expected = det_cofactor(f).is_unit
                assert _horizontal_is_invertible(f) == expected
                seen.add(expected)
        assert seen == {True, False}

    def test_t_shifted_witness_has_singular_constant_term(self):
        # Hom(N(1/3), N(4/3)) is spanned by t^-1: a unit whose t^0 part is 0
        (f,) = horizontal_hom(rank_one(Rat(1, 3)), rank_one(Rat(4, 3))).basis
        assert f.data[0][0].constant_term.is_zero
        assert _horizontal_is_invertible(f)

    def test_agrees_with_determinant_on_conductor12_gauges(self):
        rng = random.Random("liouville-gauges")
        seen = set()
        for _ in range(4):
            m, candidates = conductor12_module(rng)
            cf = find_constant_form(m, exponent_candidates=candidates, laurent_degree_bound=4)
            c = cf.constant.map(LaurentPoly.from_scalar)
            # projecting onto the first Jordan block commutes with C, so
            # P H solves the same gauge equation and is singular
            p = Matrix([[C(1) if i == j and i < 2 else C(0) for j in range(3)] for i in range(3)])
            q = rand_invertible_constant(rng, 3)
            qcq = (q * cf.constant * q.inverse()).map(LaurentPoly.from_scalar)
            for h, target in (
                (cf.gauge, c),
                (p.map(LaurentPoly.from_scalar) * cf.gauge, c),
                (q.map(LaurentPoly.from_scalar) * cf.gauge, qcq),
            ):
                assert _gauge_gives(m, h, target)
                expected = det_cofactor(h).is_unit
                assert _horizontal_is_invertible(h) == expected
                seen.add(expected)
        assert seen == {True, False}


def refuse(*_args, **_kwargs):
    raise AssertionError("computation left A and K")


class TestNoExponentRingArithmetic:
    def test_search_and_fuchs_stay_in_a(self, monkeypatch):
        berkowitz = linalg._berkowitz

        def field_only(mat):
            if mat.ring is LaurentPoly:
                raise AssertionError("a determinant over A was taken")
            return berkowitz(mat)

        rng = random.Random("stay-in-a")
        for _ in range(2):
            m, candidates = conductor12_module(rng)
            opts = {"exponent_candidates": candidates, "laurent_degree_bound": 4}
            for cls, name in ((ExpRingElem, "sigma"), (ExpRingElem, "__mul__"), (ExpRingElem, "__rmul__"),
                              (GroupAlgElem, "sigma")):
                monkeypatch.setattr(cls, name, refuse)
            monkeypatch.setattr(linalg, "_berkowitz", field_only)
            cf = find_constant_form(m, **opts)
            fd = fuchs_decomposition(m, **opts)
            monkeypatch.undo()
            assert base_change(m, cf.gauge).matrix == cf.constant.map(LaurentPoly.from_scalar)
            assert base_change(m, fd.gauge).matrix == fd.triangular.map(LaurentPoly.from_scalar)


class TestEdgeCases:
    def test_isomorphism_between_different_dimensions_is_none(self):
        one, two = rank_one(0), direct_sum(rank_one(0), rank_one(0))
        assert horizontal_isomorphism(one, two) is None
        assert horizontal_isomorphism(two, one) is None

    def test_isomorphism_to_a_nonconstant_module_of_other_dimension_is_none(self):
        # no Hom basis is built, so a nonconstant module does not raise
        # NotConstant; mixed derivations still raise DerivationMismatch
        z, t = LaurentPoly.zero(), LaurentPoly.t_power(1)
        m = DiffModule(laurent_matrix([[z, t], [z, z]]))
        assert horizontal_isomorphism(rank_one(0), m) is None
        assert horizontal_isomorphism(m, rank_one(0)) is None
        with pytest.raises(DerivationMismatch):
            horizontal_isomorphism(twist_derivation(rank_one(0), LaurentPoly.from_scalar(-1)), m)

    def test_negative_window_holds_no_sections(self):
        m = DiffModule.from_constant(Matrix([[C(Rat(1, 2))]]))
        sheared = base_change(m, laurent_matrix([[LaurentPoly.t_power(1)]]))
        opts = {"exponent_candidates": [Rat(1, 2)]}
        # G = 3/2, so the one section is t^(-3/2) = t^(1/2) t^-2
        assert horizontal_sections(sheared, laurent_degree_bound=2, **opts).dimension == 1
        assert find_constant_form(sheared, laurent_degree_bound=2, **opts).constant.rows == 1
        assert horizontal_sections(sheared, laurent_degree_bound=-1, **opts).dimension == 0
        with pytest.raises(NotFoundWithinBounds):
            find_constant_form(sheared, laurent_degree_bound=-1, **opts)
