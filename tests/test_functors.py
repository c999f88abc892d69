"""The monodromy equivalence, exponents, constant forms, Fuchs decomposition."""

import pytest

from fuchskit.diffmod import (
    DiffModule,
    base_change,
    det_cofactor,
    dual,
    is_horizontal_morphism,
    laurent_matrix,
    laurent_matrix_inverse,
    rank_one,
    tensor,
)
from fuchskit.errors import MissingCandidates, NotFoundWithinBounds
from fuchskit.functors import (
    ExponentMultiset,
    _hom_report,
    _mon_of_blocks,
    default_exponent_candidates,
    ensure_constant_form,
    exponents,
    find_constant_form,
    fuchs_decomposition,
    horizontal_isomorphism,
    horizontal_sections,
    mon,
    mon_hom_compare,
    rm,
    verify_no_exp_no_log,
)
from fuchskit.generate import (
    Sizes,
    rand_constant_gauge,
    rand_constant_module,
    rand_shearing_gauge,
    rand_sigma_module,
)
from fuchskit.laurent import LaurentPoly
from fuchskit.linalg import Matrix, jordan_block, jordan_form
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, ExponentClass
from fuchskit.sigmamod import SigmaModule, hom_dim, isomorphism, rank_one as v_rank_one

C = Cyclotomic.from_rat


def multiset(*values):
    return ExponentMultiset.from_classes([ExponentClass(v) for v in values])


class TestMonRm:
    def test_mon_of_half(self):
        assert mon(rank_one(Rat(1, 2))) == v_rank_one(C(-1))

    def test_mon_of_unit(self):
        assert mon(rank_one(0)) == v_rank_one(C(1))

    def test_rm_of_minus_one(self):
        assert rm(v_rank_one(C(-1))) == rank_one(Rat(1, 2))

    def test_rm_of_unit(self):
        assert rm(v_rank_one(C(1))) == rank_one(0)

    def test_mon_of_nilpotent_is_unipotent(self):
        m = DiffModule.from_constant(Matrix([[C(0), C(1)], [C(0), C(0)]]))
        assert mon(m).monodromy == Matrix([[C(1), C(1)], [C(0), C(1)]])

    def test_rm_of_unipotent_is_nilpotent(self):
        v = SigmaModule(Matrix([[C(1), C(1)], [C(0), C(1)]]))
        assert rm(v).matrix == laurent_matrix([[0, 1], [0, 0]])

    def test_roundtrip_with_witness(self, rng):
        sizes = Sizes(max_dim=4)
        for _ in range(10):
            m = rand_constant_module(rng, sizes)
            m2 = rm(mon(m))
            f = horizontal_isomorphism(m, m2)
            assert f is not None
            assert is_horizontal_morphism(f, m, m2)
            assert det_cofactor(f).is_unit

    def test_mon_rm_roundtrip_conjugate(self, rng):
        sizes = Sizes(max_dim=4)
        for _ in range(10):
            v = rand_sigma_module(rng, sizes)
            v2 = mon(rm(v))
            t = isomorphism(v, v2)
            assert t is not None
            assert t * v.monodromy * t.inverse() == v2.monodromy


class TestExponents:
    def test_reduction_mod_z(self):
        assert exponents(rank_one(Rat(3, 2))) == multiset(Rat(1, 2))

    def test_direct_sum(self):
        m = DiffModule(Matrix.block_diag([rank_one(0).matrix, rank_one(Rat(1, 3)).matrix]))
        assert exponents(m) == multiset(0, Rat(1, 3))

    def test_nilpotent_all_zero(self):
        m = DiffModule.from_constant(Matrix([[C(0), C(1)], [C(0), C(0)]]))
        assert exponents(m) == multiset(0, 0)

    def test_invariance_under_gauges(self, rng):
        sizes = Sizes(max_dim=4)
        for _ in range(8):
            m = rand_constant_module(rng, sizes)
            before = exponents(m)
            assert exponents(base_change(m, rand_constant_gauge(rng, m.dim))) == before
            sheared = base_change(m, rand_shearing_gauge(rng, sizes, m.dim))
            cf = find_constant_form(
                sheared,
                exponent_candidates=list(dict.fromkeys(before.entries)),
                laurent_degree_bound=sizes.shear_bound + sizes.max_numerator + 2,
            )
            assert exponents(DiffModule.from_constant(cf.constant)) == before

    def test_tensor_dual_arithmetic(self, rng):
        sizes = Sizes(max_dim=3)
        for _ in range(8):
            m1 = rand_constant_module(rng, sizes)
            m2 = rand_constant_module(rng, sizes)
            e1, e2 = exponents(m1), exponents(m2)
            assert exponents(tensor(m1, m2)) == e1.pairwise_sums(e2)
            assert exponents(dual(m1)) == e1.negated()

    def test_coordinate_inversion_negates(self, rng):
        from fuchskit.diffmod import invert_coordinate

        sizes = Sizes(max_dim=4)
        for _ in range(8):
            m = rand_constant_module(rng, sizes)
            assert exponents(invert_coordinate(m)) == exponents(m).negated()


class TestConstantForm:
    def test_already_constant(self):
        cf = ensure_constant_form(rank_one(1))
        assert cf.gauge == Matrix.identity(1, LaurentPoly)
        assert cf.constant == Matrix([[C(1)]])

    def test_shearing_module(self):
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, 0]]))
        cf = find_constant_form(m)
        assert base_change(m, cf.gauge).matrix == cf.constant.map(LaurentPoly.from_scalar)
        assert exponents(m) == multiset(0, 0)

    def test_spec_shearing_gauge_value(self):
        # the stated gauge diag(1, t) produces exactly [[0,1],[0,1]]
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, 0]]))
        h = laurent_matrix([[1, 0], [0, LaurentPoly.t_power(1)]])
        assert base_change(m, h).matrix == laurent_matrix([[0, 1], [0, 1]])

    def test_one_plus_t_not_found(self):
        m = DiffModule(laurent_matrix([[LaurentPoly({0: 1, 1: 1})]]))
        with pytest.raises(NotFoundWithinBounds):
            find_constant_form(m, laurent_degree_bound=5)

    def test_gauge_invariant_verified(self, rng):
        sizes = Sizes(max_dim=3)
        for _ in range(6):
            m = rand_constant_module(rng, sizes)
            sheared = base_change(m, rand_shearing_gauge(rng, sizes, m.dim))
            cf = find_constant_form(
                sheared,
                exponent_candidates=list(dict.fromkeys(exponents(m).entries)),
                laurent_degree_bound=sizes.shear_bound + sizes.max_numerator + 2,
            )
            assert base_change(sheared, cf.gauge).matrix == cf.constant.map(
                LaurentPoly.from_scalar
            )

    def test_zero_module_in_the_one_seed_window(self):
        # T annihilates the only seed, so the whole seed space is the kernel
        cf = find_constant_form(rank_one(0), laurent_degree_bound=0)
        assert cf.gauge == Matrix([[LaurentPoly.one()]])
        assert cf.constant == Matrix([[C(0)]])
        assert horizontal_sections(rank_one(0), laurent_degree_bound=0).dimension == 1

    def test_default_candidates_require_entire_matrix(self):
        m = DiffModule(laurent_matrix([[LaurentPoly.t_power(-1)]]))
        with pytest.raises(MissingCandidates):
            default_exponent_candidates(m)

    def test_default_candidates_from_t0_coefficient(self):
        m = DiffModule(laurent_matrix([[LaurentPoly({0: Rat(1, 2), 1: 1})]]))
        assert ExponentClass(Rat(1, 2)) in default_exponent_candidates(m)


class TestTwoReadingsOfG:
    """The library reads a nonconstant G two ways (README, "Which reading of
    G"): base_change, find_constant_form and exponents act on rows w with
    partial(w) + w G = 0; is_horizontal_morphism on columns v with
    partial(v) + G v = 0.  The row module of G is the column module of G^T,
    and for nonconstant G the two differ.  These tests pin both readings as
    they are today."""

    TWELFTHS = [ExponentClass(Rat(k, 12)) for k in range(12)]

    def test_rows_find_a_constant_form_that_columns_do_not(self):
        t = LaurentPoly.t_power(1)
        g = base_change(DiffModule(laurent_matrix([[Rat(1, 3), 0], [0, Rat(1, 4)]])),
                        laurent_matrix([[1, t], [t, 1 + t * t]]))
        assert exponents(g, exponent_candidates=self.TWELFTHS, laurent_degree_bound=8) == multiset(
            Rat(1, 4), Rat(1, 3))
        with pytest.raises(NotFoundWithinBounds, match="found 0 independent horizontal sections"):
            find_constant_form(DiffModule(g.matrix.transpose()), exponent_candidates=self.TWELFTHS,
                               laurent_degree_bound=128)

    def test_gauge_is_a_column_morphism_only_after_transposing(self):
        t = LaurentPoly.t_power(1)
        h = laurent_matrix([[1, t, 1], [0, 1, t], [0, 0, 1]])
        assert h != h.transpose()
        c = DiffModule.from_constant(Matrix.block_diag([jordan_block(Rat(1, 2), 2), Matrix([[C(Rat(1, 3))]])]))
        g = base_change(c, h)
        assert is_horizontal_morphism(h.transpose(), DiffModule(g.matrix.transpose()),
                                      DiffModule(c.matrix.transpose()))
        h_inv = laurent_matrix_inverse(h)
        for f in (h, h_inv, h.transpose(), h_inv.transpose()):
            assert not is_horizontal_morphism(f, c, g)
            assert not is_horizontal_morphism(f, g, c)


class TestFuchsDecomposition:
    def test_rank_one(self):
        fd = fuchs_decomposition(rank_one(Rat(1, 3)))
        assert fd.factors == [C(Rat(1, 3))]
        assert fd.exponent_multiset == multiset(Rat(1, 3))

    def test_triangular_matrix_reads_off_diagonal(self):
        g = Matrix([[C(1), C(5)], [C(0), C(Rat(1, 2))]])
        fd = fuchs_decomposition(DiffModule.from_constant(g))
        assert sorted(x.sort_key() for x in fd.factors) == sorted(
            [C(1).sort_key(), C(Rat(1, 2)).sort_key()]
        )

    def test_shearing_module_factors(self):
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, 0]]))
        fd = fuchs_decomposition(m)
        assert fd.exponent_multiset == multiset(0, 0)
        # the gauge exactly triangularizes
        assert base_change(m, fd.gauge).matrix == fd.triangular.map(LaurentPoly.from_scalar)

    def test_gauge_exposes_flag(self, rng):
        sizes = Sizes(max_dim=4)
        for _ in range(6):
            m = rand_constant_module(rng, sizes)
            fd = fuchs_decomposition(m)
            tri = base_change(m, fd.gauge).matrix
            for i in range(m.dim):
                for j in range(i):
                    assert tri.data[i][j].is_zero


class TestMonHomCompare:
    def test_self_rank_one(self):
        rep = mon_hom_compare(rank_one(Rat(1, 4)), rank_one(Rat(1, 4)))
        assert rep["ok"] and rep["hom_dim"] == 1

    def test_distinct_rank_ones(self):
        rep = mon_hom_compare(rank_one(0), rank_one(Rat(1, 2)))
        assert rep["ok"] and rep["hom_dim"] == 0

    def test_unipotent_self(self):
        m = DiffModule.from_constant(Matrix([[C(0), C(1)], [C(0), C(0)]]))
        rep = mon_hom_compare(m, m)
        assert rep["ok"] and rep["hom_dim"] == 2

    def test_random_pairs(self, rng):
        sizes = Sizes(max_dim=3)
        for _ in range(8):
            rep = mon_hom_compare(
                rand_constant_module(rng, sizes), rand_constant_module(rng, sizes)
            )
            assert rep["ok"], rep

    def test_mon_preserves_tensor_and_dual_with_witness(self, rng):
        import fuchskit.sigmamod as sm

        sizes = Sizes(max_dim=2)
        for _ in range(6):
            m1 = rand_constant_module(rng, sizes)
            m2 = rand_constant_module(rng, sizes)
            left = mon(tensor(m1, m2))
            right = sm.tensor(mon(m1), mon(m2))
            t = isomorphism(left, right)
            assert t is not None
            assert t * left.monodromy * t.inverse() == right.monodromy
            dleft = mon(dual(m1))
            dright = sm.dual(mon(m1))
            t = isomorphism(dleft, dright)
            assert t is not None
            assert t * dleft.monodromy * t.inverse() == dright.monodromy


def _rand_blocks(rng, pool):
    """Jordan blocks (a, n) of total size 1-5, the a drawn from the pool and
    shifted by integers."""
    dim, blocks = rng.randint(1, 5), []
    while dim:
        size = rng.randint(1, dim)
        blocks.append((rng.choice(pool) + rng.choice([0, 0, 1, -2]), size))
        dim -= size
    return blocks


class TestMonHomDimension:
    def test_block_count_matches_the_sylvester_kernel(self, rng):
        # mon_hom_dim is read off the blocks; sigmamod.hom_dim, the kernel of
        # the Sylvester operator of the two monodromies, is the oracle.  Two
        # classes per pair make blocks repeat, and integer shifts change the
        # eigenvalue of the constant matrix but not that of the monodromy.
        for _ in range(400):
            q = rng.randint(1, 12)
            pool = [Rat(rng.randrange(q), q) for _ in range(2)]
            b1, b2 = _rand_blocks(rng, pool), _rand_blocks(rng, pool)
            c1, c2 = (DiffModule.from_constant(Matrix.block_diag([jordan_block(C(a), n) for a, n in b]))
                      for b in (b1, b2))
            report = _hom_report(c1, c2)[1]
            assert report["mon_hom_dim"] == hom_dim(_mon_of_blocks(b1), _mon_of_blocks(b2)), (b1, b2)
            assert report["ok"], (b1, b2, report)


class TestJordanEliminations:
    """A matrix that mon or rm builds from known blocks is read, not
    eliminated again."""

    @pytest.fixture
    def eliminations(self, monkeypatch):
        import fuchskit.linalg as linalg

        calls = []
        general = linalg._jordan_elimination
        monkeypatch.setattr(linalg, "_jordan_elimination", lambda m: calls.append(m) or general(m))
        return calls

    def test_round_trip_of_a_constant_module(self, rng, eliminations):
        for _ in range(4):
            m = rand_constant_module(rng, Sizes(max_dim=4))
            base = m.constant_matrix()
            before = len(eliminations)
            rm(mon(m))
            assert len(eliminations) - before <= 1
            shaped = jordan_form(base).jordan_matrix()
            before = len(eliminations)
            rm(mon(DiffModule.from_constant(shaped)))
            assert len(eliminations) == before

    def test_round_trip_of_a_sheared_module(self, eliminations):
        m = DiffModule(laurent_matrix([[0, LaurentPoly.t_power(1)], [0, 0]]))
        rm(mon(m))
        assert len(eliminations) <= 1

    def test_cli_hom_makes_at_most_six_root_searches(self, capsys, monkeypatch):
        import json
        import sys

        import fuchskit.linalg as linalg
        from fuchskit.cli import main

        calls = []
        search = linalg.poly_roots
        for module in [m for name, m in sys.modules.items() if name.startswith("fuchskit")]:
            if getattr(module, "poly_roots", None) is search:
                monkeypatch.setattr(module, "poly_roots", lambda p: calls.append(p) or search(p))
        # neither constant is triangular, so no spectrum is read off a diagonal
        left = {"dim": 2, "matrix": [["1", "1/2"], ["1", "1/2"]]}
        right = {"dim": 2, "matrix": [["0", "1"], ["1/4", "0"]]}
        assert main(["hom", "--json", json.dumps({"left": left, "right": right})]) == 0
        assert json.loads(capsys.readouterr().out)["mon_comparison"]["ok"]
        assert len(calls) <= 6

    def test_cli_hom_makes_at_most_four_root_searches(self, capsys, monkeypatch):
        # the Hom basis takes both spectra from the Jordan forms that mon and
        # the exponents use, so only the tensor and the dual search again
        import json
        import sys

        import fuchskit.linalg as linalg
        from fuchskit.cli import main

        calls = []
        search = linalg.poly_roots
        for module in [m for name, m in sys.modules.items() if name.startswith("fuchskit")]:
            if getattr(module, "poly_roots", None) is search:
                monkeypatch.setattr(module, "poly_roots", lambda p: calls.append(p) or search(p))
        left = {"dim": 2, "matrix": [["1", "1/2"], ["1", "1/2"]]}
        right = {"dim": 2, "matrix": [["0", "1"], ["1/4", "0"]]}
        assert main(["hom", "--json", json.dumps({"left": left, "right": right})]) == 0
        assert json.loads(capsys.readouterr().out)["mon_comparison"]["ok"]
        assert len(calls) <= 4


class TestConductorBound:
    """The eigenvalue search of the section monodromy inside the
    constant-form search reaches an order that G does not show."""

    @staticmethod
    def sheared_fifth():
        # the section monodromy has the eigenvalue zeta_5^4, of conductor 5
        t = LaurentPoly.t_power(1)
        c = DiffModule(laurent_matrix([["1/5", 1], [0, "1/5"]]))
        return base_change(c, laurent_matrix([[t, 1], [0, 1]]))

    def test_default_bound_finds_conductor_five(self):
        v = mon(self.sheared_fifth(), exponent_candidates=[ExponentClass(Rat(1, 5))])
        assert v.monodromy.data[0][0].n == 5


_DECISION_CHILD = """
import resource, sys, time
try:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
except (ValueError, OSError):
    pass
from fuchskit import rm
from fuchskit.errors import EigenvalueNotFound
from fuchskit.scalar import Cyclotomic
from fuchskit.sigmamod import rank_one
scale = int(sys.argv[1])
start = time.perf_counter()
try:
    m = rm(rank_one(Cyclotomic.root_of_unity(100003) * scale))
    outcome = "found " + repr(m.matrix.data[0][0].terms[0])
except EigenvalueNotFound:
    outcome = "EigenvalueNotFound"
elapsed = time.perf_counter() - start
try:
    # the peak of this address space; ru_maxrss survives exec
    with open("/proc/self/status") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024 if sys.platform == "darwin" else 1)
print(elapsed, kb / 1024)
print(outcome)
"""


class TestEigenvalueDecision:
    """Every root of unity is reached, and a factor with no root in Q or in
    the roots of unity is refused, both fast."""

    @pytest.mark.parametrize("q", [127, 211, 1009, 4006])
    def test_mon_rm_round_trip_beyond_order_120(self, q):
        v = v_rank_one(Cyclotomic.root_of_unity(q))
        m = rm(v)
        assert exponents(m) == multiset(Rat(q - 1, q))
        assert mon(m) == v

    @pytest.mark.parametrize("scale, outcome", [(1, "found 100002/100003"), (2, "EigenvalueNotFound")])
    def test_rank_one_at_100003_is_decided_small(self, scale, outcome):
        # in a child process under an address-space limit, timed and measured
        pytest.importorskip("resource")
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", _DECISION_CHILD, str(scale)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        measured, got = done.stdout.splitlines()
        elapsed, rss_mb = map(float, measured.split())
        assert got == outcome
        assert elapsed < 5, elapsed
        assert rss_mb < 50, rss_mb


class TestExtensionSplitting:
    def test_unit_self_extension_is_unipotent(self):
        from fuchskit.diffmod import block_extension

        e = block_extension(rank_one(0), rank_one(0), laurent_matrix([[1]]))
        v = mon(e)
        assert v.monodromy == Matrix([[C(1), C(1)], [C(0), C(1)]])

    def test_extension_with_distinct_classes_splits(self):
        from fuchskit.diffmod import block_extension, direct_sum, ext_dim

        assert ext_dim(rank_one(Rat(1, 2)), rank_one(0)) == 0
        e = block_extension(rank_one(0), rank_one(Rat(1, 2)), laurent_matrix([[1]]))
        v = mon(e)
        split = direct_sum(rank_one(0), rank_one(Rat(1, 2)))
        assert jordan_form(v.monodromy).blocks == jordan_form(mon(split).monodromy).blocks


class TestHorizontalSections:
    def test_rank_one_section(self):
        space = horizontal_sections(rank_one(Rat(1, 2)))
        assert space.dimension == 1
        from fuchskit.expring import ExpRingElem

        assert space.basis[0][0] == ExpRingElem.t_power(Rat(-1, 2))

    def test_full_solution_space_for_constant_modules(self, rng):
        sizes = Sizes(max_dim=3)
        for _ in range(6):
            m = rand_constant_module(rng, sizes)
            assert horizontal_sections(m).dimension == m.dim

    def test_sheared_module_sections(self, rng):
        sizes = Sizes(max_dim=3)
        m = rand_constant_module(rng, sizes)
        sheared = base_change(m, rand_shearing_gauge(rng, sizes, m.dim))
        space = horizontal_sections(
            sheared,
            exponent_candidates=list(dict.fromkeys(exponents(m).entries)),
            laurent_degree_bound=7,
        )
        assert space.dimension == m.dim


class TestNoExpNoLog:
    def test_report(self):
        rep = verify_no_exp_no_log(degree_bound=6)
        assert rep["ok"]
        assert rep["partial_square_kernel_dim"] == 1
