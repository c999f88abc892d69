"""Seeded property suite: every structural identity of the library, run on
randomized inputs, with failures reported as reproducer documents.

Each property function draws one random case and returns None on success or
a failure dict.  The runner aggregates a deterministic report (sorted by
property id).  Properties call gamma and friends through their modules so a
deliberately broken ("mutant") implementation is caught by the suite.
"""

import random
from math import floor

from . import jsonio
from . import scalar as _scalar
from .diffmod import (
    DiffModule,
    base_change,
    det_cofactor,
    dual,
    expring_matrix_is_horizontal,
    ext_dim,
    fundamental_matrix,
    invert_coordinate,
    is_horizontal_morphism,
    match_right_factor,
    rank_one,
    tensor,
)
from .expring import from_binomial_basis, kernel_checks, solve_dsigma, solve_partial, to_binomial_basis
from .functors import (
    exponents,
    find_constant_form,
    horizontal_isomorphism,
    mon,
    mon_hom_compare,
    rm,
    verify_no_exp_no_log,
)
from .generate import (
    Sizes,
    rand_class,
    rand_constant_gauge,
    rand_constant_module,
    rand_cyclotomic,
    rand_expring,
    rand_invertible_constant,
    rand_laurent,
    rand_rat,
    rand_shearing_gauge,
    rand_sigma_module,
)
from .laurent import LaurentPoly, solve_partial_plus_a
from .linalg import Matrix, charpoly, jordan_form
from .ratio import Rat
from .scalar import Cyclotomic
from .sigmamod import SigmaModule, is_trivializing, isomorphism, trivialize


def _fail(**info):
    return info


# -- scalar ------------------------------------------------------------------


def prop_gamma_homomorphism(rng, sizes):
    a, b = rand_class(rng, sizes), rand_class(rng, sizes)
    if _scalar.gamma(a + b) != _scalar.gamma(a) * _scalar.gamma(b):
        return _fail(a=str(a), b=str(b))


def prop_gamma_inverse_roundtrip(rng, sizes):
    a = rand_class(rng, sizes)
    if _scalar.gamma_inverse(_scalar.gamma(a)) != a:
        return _fail(a=str(a))


def prop_field_axioms(rng, sizes):
    x, y, z = (rand_cyclotomic(rng, sizes) for _ in range(3))
    checks = [
        (x + y) + z == x + (y + z),
        x + y == y + x,
        (x * y) * z == x * (y * z),
        x * y == y * x,
        x * (y + z) == x * y + x * z,
    ]
    if not x.is_zero:
        checks.append(x * x.inverse() == Cyclotomic.one())
    if not all(checks):
        return _fail(x=jsonio.encode_cyclotomic(x), y=jsonio.encode_cyclotomic(y), z=jsonio.encode_cyclotomic(z))


def prop_embedding_ring_map(rng, sizes):
    x, y = rand_cyclotomic(rng, sizes), rand_cyclotomic(rng, sizes)
    m = x.n * rng.choice((2, 3, 5))
    mm = m * y.n
    ok = x.embed(m) == x
    ok = ok and (x * x).embed(m) == x.embed(m) * x.embed(m)
    ok = ok and x.embed(m).is_zero == x.is_zero
    ok = ok and (x + y).embed(mm) == x.embed(mm) + y.embed(mm)
    if not ok:
        return _fail(x=jsonio.encode_cyclotomic(x), y=jsonio.encode_cyclotomic(y), m=m)


# -- laurent -----------------------------------------------------------------


def prop_leibniz(rng, sizes):
    f, g = rand_laurent(rng, sizes), rand_laurent(rng, sizes)
    if (f * g).partial() != f.partial() * g + f * g.partial():
        return _fail(f=jsonio.encode_laurent(f), g=jsonio.encode_laurent(g))


def prop_solve_partial_plus_a(rng, sizes):
    a = rand_class(rng, sizes)
    y = rand_laurent(rng, sizes)
    if a.is_zero:
        y = y - LaurentPoly.from_scalar(y.constant_term)
    x = solve_partial_plus_a(y, a)
    back = x.partial() + x * Cyclotomic.from_rat(a.value)
    if back != y:
        return _fail(a=str(a), y=jsonio.encode_laurent(y))


def prop_laurent_units(rng, sizes):
    f = LaurentPoly.t_power(rng.randint(-4, 4), Cyclotomic.from_rat(Rat(rng.randint(1, 9), rng.randint(1, 9))))
    if not f.is_unit or f * f.unit_inverse() != LaurentPoly.one():
        return _fail(f=jsonio.encode_laurent(f))


# -- exponent ring -----------------------------------------------------------


def prop_sigma_commutes_partial(rng, sizes):
    x = rand_expring(rng, sizes)
    if x.sigma().partial() != x.partial().sigma():
        return _fail(x=jsonio.encode_expring(x))


def prop_twisted_leibniz(rng, sizes):
    x, y = rand_expring(rng, sizes), rand_expring(rng, sizes)
    d = (x * y).dsigma()
    if d != x.dsigma() * y.sigma() + x * y.dsigma() or d != x.dsigma() * y + x.sigma() * y.dsigma():
        return _fail(x=jsonio.encode_expring(x), y=jsonio.encode_expring(y))


def prop_solve_dsigma_roundtrip(rng, sizes):
    y = rand_expring(rng, sizes)
    if solve_dsigma(y).dsigma() != y:
        return _fail(y=jsonio.encode_expring(y))


def prop_solve_partial_roundtrip(rng, sizes):
    y = rand_expring(rng, sizes)
    if solve_partial(y).partial() != y:
        return _fail(y=jsonio.encode_expring(y))


def prop_binomial_roundtrip(rng, sizes):
    x = rand_expring(rng, sizes)
    if from_binomial_basis(to_binomial_basis(x)) != x:
        return _fail(x=jsonio.encode_expring(x))


def prop_kernel_windows(rng, sizes):
    rep = kernel_checks(degree_bound=3, ell_bound=2)
    if not rep["ok"]:
        return _fail(report=rep)


def prop_no_exp_no_log(rng, sizes):
    rep = verify_no_exp_no_log(degree_bound=4)
    if not rep["ok"]:
        return _fail(report=rep)


# -- linear algebra ----------------------------------------------------------


def prop_cayley_hamilton(rng, sizes):
    n = rng.randint(1, 3)
    m = Matrix([[rand_cyclotomic(rng, sizes) for _ in range(n)] for _ in range(n)])
    p = charpoly(m)
    acc = Matrix.zeros(n, n)
    power = Matrix.identity(n)
    for c in p:
        acc = acc + power.scale(c)
        power = power * m
    if acc != Matrix.zeros(n, n):
        return _fail(matrix=jsonio.encode_matrix(m, jsonio.encode_cyclotomic))


def prop_jordan_reconstruction(rng, sizes):
    m = rand_constant_module(rng, sizes).constant_matrix()
    jd = jordan_form(m)
    ok = jd.transform.inverse() * m * jd.transform == jd.jordan_matrix()
    jd2 = jordan_form(jd.jordan_matrix())
    ok = ok and sorted(
        ((l.sort_key(), s) for l, s in jd.blocks)
    ) == sorted(((l.sort_key(), s) for l, s in jd2.blocks))
    if not ok:
        return _fail(matrix=jsonio.encode_matrix(m, jsonio.encode_cyclotomic))


# -- differential modules ----------------------------------------------------


def prop_base_change_cocycle(rng, sizes):
    m = rand_constant_module(rng, sizes)
    h1 = rand_shearing_gauge(rng, sizes, m.dim)
    h2 = rand_constant_gauge(rng, m.dim)
    once = base_change(base_change(m, h1), h2)
    composed = base_change(m, h2 * h1)
    if once != composed:
        return _fail(module=jsonio.encode_diffmodule(m))


def prop_fundamental_horizontal(rng, sizes):
    m = rand_constant_module(rng, sizes)
    u = fundamental_matrix(m)
    if not expring_matrix_is_horizontal(u, m.matrix):
        return _fail(module=jsonio.encode_diffmodule(m))
    sigma_u = u.map(lambda x: x.sigma())
    r = match_right_factor(u, sigma_u)
    v = mon(m)
    if jordan_form(r).blocks != jordan_form(v.monodromy).blocks:
        return _fail(module=jsonio.encode_diffmodule(m), reason="sigma factor not conjugate to monodromy")


def prop_ext_rank_one(rng, sizes):
    a, b = rand_rat(rng, sizes), rand_rat(rng, sizes)
    expected = 1 if floor(a - b) == a - b else 0
    if ext_dim(rank_one(a), rank_one(b)) != expected:
        return _fail(a=str(a), b=str(b))


# -- sigma modules -----------------------------------------------------------


def prop_trivialize_fixed(rng, sizes):
    v = rand_sigma_module(rng, sizes, dim=rng.randint(1, 3))
    b = trivialize(v)
    if not is_trivializing(v, b):
        return _fail(module=jsonio.encode_sigmamodule(v))


def prop_jordan_classifies(rng, sizes):
    v = rand_sigma_module(rng, sizes, dim=rng.randint(1, 4))
    t = rand_invertible_constant(rng, v.dim)
    w = SigmaModule(t * v.monodromy * t.inverse())
    witness = isomorphism(v, w)
    if witness is None or witness * v.monodromy * witness.inverse() != w.monodromy:
        return _fail(module=jsonio.encode_sigmamodule(v))


# -- functors ----------------------------------------------------------------


def prop_rm_mon_roundtrip(rng, sizes):
    m = rand_constant_module(rng, sizes)
    m2 = rm(mon(m))
    f = horizontal_isomorphism(m, m2)
    if f is None or not is_horizontal_morphism(f, m, m2) or not det_cofactor(f).is_unit:
        return _fail(module=jsonio.encode_diffmodule(m))


def prop_mon_rm_roundtrip(rng, sizes):
    v = rand_sigma_module(rng, sizes)
    v2 = mon(rm(v))
    witness = isomorphism(v, v2)
    if witness is None or witness * v.monodromy * witness.inverse() != v2.monodromy:
        return _fail(module=jsonio.encode_sigmamodule(v))


def prop_exponent_gauge_invariance(rng, sizes):
    m = rand_constant_module(rng, sizes)
    before = exponents(m)
    h_const = rand_constant_gauge(rng, m.dim)
    after_const = exponents(base_change(m, h_const))
    sheared = base_change(m, rand_shearing_gauge(rng, sizes, m.dim))
    bound = sizes.shear_bound + sizes.max_numerator + 2
    cf = find_constant_form(
        sheared,
        exponent_candidates=list(dict.fromkeys(before.entries)),
        laurent_degree_bound=bound,
    )
    after_shear = exponents(DiffModule.from_constant(cf.constant))
    if before != after_const or before != after_shear:
        return _fail(module=jsonio.encode_diffmodule(m))


def prop_hom_dim_match(rng, sizes):
    m1 = rand_constant_module(rng, sizes, dim=rng.randint(1, 3))
    m2 = rand_constant_module(rng, sizes, dim=rng.randint(1, 3))
    rep = mon_hom_compare(m1, m2)
    if not rep["ok"]:
        return _fail(left=jsonio.encode_diffmodule(m1), right=jsonio.encode_diffmodule(m2), report=rep)


def prop_tensor_dual_exponents(rng, sizes):
    m1 = rand_constant_module(rng, sizes, dim=rng.randint(1, 3))
    m2 = rand_constant_module(rng, sizes, dim=rng.randint(1, 3))
    e1, e2 = exponents(m1), exponents(m2)
    ok = exponents(tensor(m1, m2)) == e1.pairwise_sums(e2)
    ok = ok and exponents(dual(m1)) == e1.negated()
    if not ok:
        return _fail(left=jsonio.encode_diffmodule(m1), right=jsonio.encode_diffmodule(m2))


def prop_invert_coordinate_negates(rng, sizes):
    m = rand_constant_module(rng, sizes)
    if exponents(invert_coordinate(m)) != exponents(m).negated():
        return _fail(module=jsonio.encode_diffmodule(m))


PROPERTIES = [
    ("diffmod.base-change-cocycle", prop_base_change_cocycle),
    ("diffmod.ext-rank-one", prop_ext_rank_one),
    ("diffmod.fundamental-horizontal", prop_fundamental_horizontal),
    ("expring.binomial-roundtrip", prop_binomial_roundtrip),
    ("expring.kernel-windows", prop_kernel_windows),
    ("expring.sigma-commutes-partial", prop_sigma_commutes_partial),
    ("expring.solve-dsigma-roundtrip", prop_solve_dsigma_roundtrip),
    ("expring.solve-partial-roundtrip", prop_solve_partial_roundtrip),
    ("expring.twisted-leibniz", prop_twisted_leibniz),
    ("functors.exponent-gauge-invariance", prop_exponent_gauge_invariance),
    ("functors.hom-dim-match", prop_hom_dim_match),
    ("functors.invert-coordinate-negates", prop_invert_coordinate_negates),
    ("functors.mon-rm-roundtrip", prop_mon_rm_roundtrip),
    ("functors.rm-mon-roundtrip", prop_rm_mon_roundtrip),
    ("functors.tensor-dual-exponents", prop_tensor_dual_exponents),
    ("laurent.leibniz", prop_leibniz),
    ("laurent.no-exp-no-log", prop_no_exp_no_log),
    ("laurent.solve-partial-plus-a", prop_solve_partial_plus_a),
    ("laurent.units", prop_laurent_units),
    ("linalg.cayley-hamilton", prop_cayley_hamilton),
    ("linalg.jordan-reconstruction", prop_jordan_reconstruction),
    ("scalar.embedding-ring-map", prop_embedding_ring_map),
    ("scalar.field-axioms", prop_field_axioms),
    ("scalar.gamma-homomorphism", prop_gamma_homomorphism),
    ("scalar.gamma-inverse-roundtrip", prop_gamma_inverse_roundtrip),
    ("sigmamod.jordan-classifies", prop_jordan_classifies),
    ("sigmamod.trivialize-fixed", prop_trivialize_fixed),
]

_ONE_SHOT = {"expring.kernel-windows", "laurent.no-exp-no-log"}


def run_suite(seed=42, cases=8, sizes=None, only=None):
    """Run every registered property; deterministic for fixed seed/sizes.

    Returns a report with per-property case counts and failures (each
    failure carries a reproducer document).  Failures are report content,
    not exceptions.
    """
    sizes = sizes or Sizes()
    results = []
    total_failures = 0
    for prop_id, fn in sorted(PROPERTIES):
        if only and not prop_id.startswith(only):
            continue
        n_cases = 1 if prop_id in _ONE_SHOT else cases
        rng = random.Random(f"{seed}:{prop_id}")
        failures = []
        for case in range(n_cases):
            try:
                failure = fn(rng, sizes)
            except Exception as exc:  # a crash is a failing case with context
                failure = _fail(exception=type(exc).__name__, message=str(exc))
            if failure is not None:
                failure["case"] = case
                failures.append(failure)
        total_failures += len(failures)
        results.append({"id": prop_id, "cases": n_cases, "failures": failures})
    return {
        "seed": seed,
        "cases": cases,
        "properties": results,
        "failed": total_failures,
        "ok": total_failures == 0,
    }
