"""Seeded case lists for the three benchmark workloads, and the code that runs
and checks one case.

A workload is a fixed design of strata (case kind, dimension, conductor).
The structure inside a stratum (Jordan partition, eigenvalues, and for
shear_search the shearing gauge) comes from a stream keyed by the stratum
alone; the seed draws the gauge that hides the Jordan form (a signed
permutation in shear_search), the solver targets and the CLI fixtures.  The cost of a case is set mostly by its
structure, so one seed's run costs about what another's does, while every
seed gives new matrices.  Three cliff cases are explicit and do not depend
on the seed:

* ``shear_search`` always holds one dim-7 shear case (the O(n!) cofactor
  determinant and adjugate inside ``base_change``);
* ``wide_conductor`` always holds a module whose classes 1/7 and 5/12 force
  arithmetic in the compositum Q(zeta_84), and the rank-one ``mon`` of
  N(1/1009) and N(1/2003) (the ``_power_table`` memory cliff).  Larger
  primes are deliberately absent: they exhaust memory at this commit.  The
  rank-one cases check mon(N(a)) = V(gamma(-a)) and exponents(N(a)) = {a};
  ``rm`` back from Q(zeta_p) needs an eigenvalue search of degree p - 1 and
  a conductor bound above p, far beyond desk scale at this commit.

``run_case`` returns the outputs of a case as ``jsonio`` documents, which the
runner hashes; it raises ``CheckFailed`` when an exactness check fails.
Only public names of ``fuchskit`` are used.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from math import gcd

from fuchskit import jsonio
from fuchskit.diffmod import (
    DiffModule,
    base_change,
    det_cofactor,
    expring_matrix_is_horizontal,
    fundamental_matrix,
    is_horizontal_morphism,
    rank_one,
)
from fuchskit.expring import solve_dsigma, solve_partial
from fuchskit.functors import (
    ExponentMultiset,
    exponents,
    find_constant_form,
    fuchs_decomposition,
    horizontal_isomorphism,
    mon,
    rm,
)
from fuchskit.generate import (
    Sizes,
    rand_expring,
    rand_invertible_constant,
    rand_jordan_partition,
    rand_shearing_gauge,
)
from fuchskit.linalg import Matrix, jordan_block
from fuchskit.ratio import Rat
from fuchskit.scalar import Cyclotomic, ExponentClass, gamma
from fuchskit.sigmamod import SigmaModule, isomorphism
from fuchskit.sigmamod import rank_one as sigma_rank_one

# Criterion 1 and 4 of the acceptance suite use these sizes.
SIZES = Sizes(max_dim=5, max_denominator=12, max_numerator=3, shear_bound=2)
SHEAR_WINDOW = SIZES.shear_bound + SIZES.max_numerator + 2
LARGE_PRIMES = (1009, 2003)
CLIFF_SEED = 20241125


class CheckFailed(Exception):
    """An exactness check on a case's output failed."""


@dataclass(frozen=True)
class Case:
    """One unit of a workload's loop.

    kind: what ``run_case`` does; stratum: the design cell, e.g. "rt/d5/q11";
    inputs: a dict of library objects (or CLI argv and stdin for cli_mix).
    """

    kind: str
    stratum: str
    inputs: dict


def _check(ok, what):
    if not ok:
        raise CheckFailed(what)


def _units(q):
    return [p for p in range(q) if gcd(p, q) == 1]


# ---------------------------------------------------------------------------
# input builders (the shapes of generate.rand_constant_module and
# generate.rand_sigma_module, with the conductor fixed by the stratum)


def shape_rng(workload, stratum):
    """The stream that fixes a stratum's Jordan structure."""
    return random.Random(f"shape:{workload}:{stratum}")


def sign_gauge(rng, dim):
    """Unipotent lower times unipotent upper, every off-diagonal entry +-1:
    the seed picks the signs, and the size and sparsity of the entries (which
    drive the cost) stay the same from seed to seed."""
    one = Cyclotomic.one()

    def entry(i, j, below):
        if i == j:
            return one
        if (i > j) == below:
            return Cyclotomic.from_rat(rng.choice((-1, 1)))
        return Cyclotomic.zero()

    lo = Matrix([[entry(i, j, True) for j in range(dim)] for i in range(dim)])
    up = Matrix([[entry(i, j, False) for j in range(dim)] for i in range(dim)])
    return lo * up


def signed_permutation(rng, dim):
    """A signed permutation matrix drawn from rng: it reorders and negates
    the basis without changing the size or sparsity of any entry."""
    perm = list(range(dim))
    rng.shuffle(perm)
    return Matrix(
        [[Cyclotomic.from_rat(rng.choice((-1, 1))) if j == perm[i] else Cyclotomic.zero() for j in range(dim)]
         for i in range(dim)]
    )


def constant_module(shape, rng, dim, q, coprime=False, hide=sign_gauge):
    """Constant module of Jordan blocks J(p/q + k) (structure from shape),
    conjugated by the gauge hide(rng, dim).  With coprime=True every
    numerator is a unit mod q, so every eigenvalue has denominator q."""
    blocks = []
    for size in rand_jordan_partition(shape, dim):
        if coprime:
            p = shape.choice(_units(q)) + q * shape.randint(-SIZES.max_numerator, SIZES.max_numerator)
        else:
            p = shape.randint(-SIZES.max_numerator * q, SIZES.max_numerator * q)
        blocks.append(jordan_block(Cyclotomic.from_rat(Rat(p, q)), size))
    s = hide(rng, dim)
    return DiffModule.from_constant(s * Matrix.block_diag(blocks) * s.inverse())


def sigma_module(shape, rng, dim, q, coprime=False):
    """Representation with Jordan blocks J(gamma(p/q)) (structure from
    shape), conjugated by a rational gauge drawn from rng."""
    blocks = []
    for size in rand_jordan_partition(shape, dim):
        p = shape.choice(_units(q)) if coprime else shape.randint(0, q - 1)
        blocks.append(jordan_block(gamma(Rat(p, q)), size))
    s = sign_gauge(rng, dim)
    return SigmaModule(s * Matrix.block_diag(blocks) * s.inverse())


def compositum_case():
    """The explicit conductor-84 cliff: a constant module of dim 2 with
    classes 1/7 and 5/12, whose monodromy only lives in the compositum
    Q(zeta_84) (fixed input)."""
    rng = random.Random(CLIFF_SEED)
    s = rand_invertible_constant(rng, 2)
    diag = Matrix.block_diag([jordan_block(Cyclotomic.from_rat(a), 1) for a in (Rat(1, 7), Rat(5, 12))])
    return Case("rt", "rt/d2/q84", {"module": DiffModule.from_constant(s * diag * s.inverse())})


# ---------------------------------------------------------------------------
# case lists


def _shear_case(rng, dim, q):
    """Structure and shear fixed by the stratum, which is what sets the cost
    of the window search; rng draws a signed permutation of the basis and
    the solver targets.  The dense constant factor of the shearing gauge
    still hides the Jordan form."""
    stratum = f"shear/d{dim}/q{q}"
    shape = shape_rng("shear_search", stratum)
    return Case(
        "shear",
        stratum,
        {
            "module": constant_module(shape, rng, dim, q, hide=signed_permutation),
            "gauge": rand_shearing_gauge(shape, SIZES, dim),
            "targets": [rand_expring(rng, SIZES) for _ in range(4)],
        },
    )


def dim7_shear_case():
    """The explicit dim-7 cliff: fixed input, integer and half-integer
    exponents, so its cost is the dimension and not the conductor."""
    return _shear_case(random.Random(CLIFF_SEED), 7, 2)


def _shear_cases(rng):
    # Criterion 4's dims 1-5 at two conductors each (conductors 2-12), two
    # more dim-4 cases, one dim-6 case and the dim-7 cliff: 14 cases.  The
    # median is the mean of the two extra dim-4 cases, whose costs lie well
    # apart from their neighbours', so the median does not jump between
    # cases from run to run.  Their conductors are 4 and 6 because there the
    # cost hardly depends on the seed's signed permutation (at conductor 3 it
    # moves by a third).
    cases = [_shear_case(rng, dim, (dim + 6 * j) % 12 + 1) for j in range(2) for dim in range(1, SIZES.max_dim + 1)]
    return cases + [_shear_case(rng, 4, 4), _shear_case(rng, 4, 6), _shear_case(rng, 6, 4), dim7_shear_case()]


# (conductor, dims) cells of wide_conductor: larger dims at conductor 60 and
# 84 leave desk scale (a 4x4 representation at conductor 84 takes about
# 45 s on one core of a 2-core x86-64 VM).
WIDE_CELLS = ((24, (2, 3, 4)), (30, (2, 3, 4)), (36, (2, 3)), (60, (2,)))


def _wide_cases(rng):
    cases = []
    for q, dims in WIDE_CELLS:
        for dim in dims:
            rt, vr = f"rt/d{dim}/q{q}", f"vr/d{dim}/q{q}"
            cases.append(Case("rt", rt, {"module": constant_module(shape_rng("wide", rt), rng, dim, q, True)}))
            cases.append(Case("vr", vr, {"rep": sigma_module(shape_rng("wide", vr), rng, dim, q, True)}))
    cases.append(compositum_case())
    for p in LARGE_PRIMES:
        cases.append(Case("rank1", f"rank1/q{p}", {"class": Rat(1, p)}))
    return cases


def _cli_cases(rng):
    """Small fixtures, one CLI invocation each, every data command covered."""
    small = Sizes(max_dim=3, max_denominator=6, max_numerator=2, shear_bound=1)
    window = small.shear_bound + small.max_numerator + 2
    cases = []

    def add(command, doc, *extra):
        cases.append(Case("cli", f"cli/{command}", {"argv": [command, "--input", "-", *extra],
                                                    "stdin": json.dumps(doc, sort_keys=True)}))

    for j in range(2):
        dim, q = 2 + j, 4 + 2 * j
        m = constant_module(rng, rng, dim, q)
        add("exponents", jsonio.encode_diffmodule(m))
        add("mon", jsonio.encode_diffmodule(m))
        add("rm", jsonio.encode_sigmamodule(sigma_module(rng, rng, dim, q)))
        add("trivialize", jsonio.encode_sigmamodule(sigma_module(rng, rng, dim, q)))
        sheared_from = constant_module(rng, rng, dim, q)
        classes = list(dict.fromkeys(exponents(sheared_from).entries))
        sheared = base_change(sheared_from, rand_shearing_gauge(rng, small, dim))
        opts = ("--exponent-candidates", ",".join(jsonio.encode_exponent_class(a) for a in classes),
                "--degree-bound", str(window))
        add("constant-form", jsonio.encode_diffmodule(sheared), *opts)
        add("fuchs", jsonio.encode_diffmodule(sheared), *opts)
        pair = {"left": jsonio.encode_diffmodule(constant_module(rng, rng, 1 + j, q)),
                "right": jsonio.encode_diffmodule(constant_module(rng, rng, 2, q))}
        add("hom", pair)
        add("ext", pair)
        for op in ("dsigma", "partial"):
            add("solve", {"operator": op, "target": jsonio.encode_expring(rand_expring(rng, small))})
    return cases


_BUILDERS = {
    "shear_search": _shear_cases,
    "wide_conductor": _wide_cases,
    "cli_mix": _cli_cases,
}


def make_cases(workload, seed):
    """The workload's case list for this seed (same seed, same inputs)."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warmup_cases(workload, seed):
    """Cases from a separate seed stream; they fill per-conductor tables but
    share no input with the timed list."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    if workload == "shear_search":
        return [_shear_case(rng, 2, q) for q in (4, 7, 11)]
    if workload == "wide_conductor":
        cases = [Case("vr", "warm", {"rep": sigma_module(rng, rng, 1, q, True)}) for q in (24, 30, 36, 60, 84)]
        return cases + [Case("rank1", "warm", {"class": Rat(-1, p)}) for p in LARGE_PRIMES]
    return []


def input_documents(cases):
    """Canonical jsonio form of every case's inputs (for the determinism
    test: the same seed must give byte-identical inputs)."""
    docs = []
    for case in cases:
        doc = {}
        for key, value in sorted(case.inputs.items()):
            doc[key] = _encode(value)
        docs.append({"kind": case.kind, "stratum": case.stratum, "inputs": doc})
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()


def _encode(value):
    if isinstance(value, DiffModule):
        return jsonio.encode_diffmodule(value)
    if isinstance(value, SigmaModule):
        return jsonio.encode_sigmamodule(value)
    if isinstance(value, Matrix):
        return jsonio.encode_matrix(value, jsonio.encode_laurent)
    if isinstance(value, list):
        return [_encode(x) for x in value]
    if isinstance(value, (str, int)):
        return value
    if hasattr(value, "ell"):
        return jsonio.encode_expring(value)
    return jsonio.encode_rat(value)


# ---------------------------------------------------------------------------
# running and checking one case


def digest(docs):
    """Short hash of the canonical JSON of a case's outputs."""
    text = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(case, scope=None, cli=None):
    """Run one case and check it exactly; return its output documents.

    scope(name) is a context manager the traced run uses to mark the
    rm(mon(M)) round trip; cli(argv, stdin) runs one CLI invocation and
    returns (exit code, stdout bytes)."""
    kind, inp = case.kind, case.inputs
    if kind == "rt":
        m = inp["module"]
        if scope is None:
            m2 = rm(mon(m))
        else:
            with scope("roundtrip"):
                m2 = rm(mon(m))
        f = horizontal_isomorphism(m, m2)
        _check(f is not None, "no horizontal witness")
        _check(is_horizontal_morphism(f, m, m2), "witness not horizontal")
        _check(det_cofactor(f).is_unit, "witness not invertible over A")
        return [jsonio.encode_diffmodule(m2), jsonio.encode_matrix(f, jsonio.encode_laurent)]
    if kind == "vr":
        v = inp["rep"]
        v2 = mon(rm(v))
        t = isomorphism(v, v2)
        _check(t is not None, "no conjugacy witness")
        _check(t * v.monodromy * t.inverse() == v2.monodromy, "conjugation fails")
        return [jsonio.encode_sigmamodule(v2), jsonio.encode_matrix(t, jsonio.encode_cyclotomic)]
    if kind == "shear":
        return _run_shear(inp)
    if kind == "rank1":
        a = inp["class"]
        v = mon(rank_one(a))
        _check(v == sigma_rank_one(gamma(-ExponentClass(a))), "mon(N(a)) != V(gamma(-a))")
        e = exponents(rank_one(a))
        _check(e == ExponentMultiset.from_classes([ExponentClass(a)]), "exponents(N(a)) != {a}")
        return [jsonio.encode_sigmamodule(v), jsonio.encode_exponent_multiset(e)]
    if kind == "cli":
        code, out = cli(inp["argv"], inp["stdin"])
        _check(code == 0, f"exit code {code}")
        _check(out == inp.get("expected", out), "stdout differs from the in-process result")
        return [out.decode()]
    raise ValueError(f"unknown case kind {kind!r}")


def _run_shear(inp):
    m, gauge = inp["module"], inp["gauge"]
    sheared = base_change(m, gauge)
    before = exponents(m)
    opts = {"exponent_candidates": list(dict.fromkeys(before.entries)), "laurent_degree_bound": SHEAR_WINDOW}
    cf = find_constant_form(sheared, **opts)
    fd = fuchs_decomposition(sheared, **opts)
    c = DiffModule.from_constant(cf.constant)
    _check(exponents(c) == before, "exponents changed by the shear")
    _check(fd.exponent_multiset == before, "Fuchs factors disagree with the exponents")
    u = fundamental_matrix(c)
    _check(expring_matrix_is_horizontal(u, c.matrix), "fundamental matrix not horizontal")
    ys = inp["targets"]
    xs = [solve_dsigma(y) for y in ys[:2]] + [solve_partial(y) for y in ys[2:]]
    for x, y in zip(xs[:2], ys[:2]):
        _check(x.dsigma() == y, "d_sigma round trip")
    for x, y in zip(xs[2:], ys[2:]):
        _check(x.partial() == y, "partial round trip")
    return [
        jsonio.encode_constant_form(cf),
        jsonio.encode_matrix(fd.gauge, jsonio.encode_laurent),
        jsonio.encode_exponent_multiset(fd.exponent_multiset),
        jsonio.encode_matrix(u, jsonio.encode_expring),
        [jsonio.encode_expring(x) for x in xs],
    ]
