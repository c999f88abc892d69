"""Seeded pseudo-random generation of scalars, modules and representations.

Generation lives outside the core so the algebra stays pure; all generators
take an explicit random.Random and a Sizes record, and every invertible
matrix is built as (unipotent lower) * (unipotent upper) so invertibility is
by construction rather than by retry.
"""

from dataclasses import dataclass

from .diffmod import DiffModule
from .expring import ExpRingElem, GroupAlgElem
from .laurent import LaurentPoly
from .linalg import Matrix, jordan_block
from .ratio import Rat
from .scalar import Cyclotomic, ExponentClass, euler_phi, gamma


@dataclass(frozen=True)
class Sizes:
    max_dim: int = 5
    max_denominator: int = 12
    max_numerator: int = 3
    max_degree: int = 4
    max_ell_degree: int = 3
    shear_bound: int = 2
    conductors: tuple = (1, 3, 4, 5, 8, 12)


def rand_rat(rng, sizes):
    return Rat(rng.randint(-sizes.max_numerator, sizes.max_numerator), rng.randint(1, sizes.max_denominator))


def rand_class(rng, sizes):
    return ExponentClass(Rat(rng.randint(0, sizes.max_denominator - 1), rng.randint(1, sizes.max_denominator)))


def rand_cyclotomic(rng, sizes):
    n = rng.choice(sizes.conductors)
    return Cyclotomic(n, [rand_rat(rng, sizes) for _ in range(euler_phi(n))])


def rand_laurent(rng, sizes):
    out = {}
    for _ in range(rng.randint(0, 3)):
        out[rng.randint(-sizes.max_degree, sizes.max_degree)] = Cyclotomic.from_rat(rand_rat(rng, sizes))
    return LaurentPoly(out)


def rand_groupalg(rng, sizes):
    parts = {}
    for _ in range(rng.randint(0, 2)):
        parts[rand_class(rng, sizes)] = rand_laurent(rng, sizes)
    return GroupAlgElem(parts)


def rand_expring(rng, sizes):
    return ExpRingElem([rand_groupalg(rng, sizes) for _ in range(rng.randint(0, sizes.max_ell_degree))])


def rand_invertible_constant(rng, dim):
    """Unipotent lower times unipotent upper: determinant exactly 1."""
    lo = [
        [Cyclotomic.from_rat(1 if i == j else (rng.randint(-2, 2) if i > j else 0)) for j in range(dim)]
        for i in range(dim)
    ]
    up = [
        [Cyclotomic.from_rat(1 if i == j else (rng.randint(-2, 2) if i < j else 0)) for j in range(dim)]
        for i in range(dim)
    ]
    return Matrix(lo) * Matrix(up)


def rand_jordan_partition(rng, dim):
    sizes = []
    total = 0
    while total < dim:
        s = rng.randint(1, dim - total)
        sizes.append(s)
        total += s
    return sizes


def rand_constant_module(rng, sizes, dim=None):
    """A constant-matrix module: random Jordan blocks with rational
    eigenvalues, conjugated by a rational gauge.

    One base denominator q is drawn per module (each block gets p/q, so the
    divisors of q still mix), keeping every cyclotomic computation inside
    Q(zeta_q) instead of a huge compositum."""
    dim = dim or rng.randint(1, sizes.max_dim)
    q = rng.randint(1, sizes.max_denominator)
    blocks = []
    for s in rand_jordan_partition(rng, dim):
        a = Rat(rng.randint(-sizes.max_numerator * q, sizes.max_numerator * q), q)
        blocks.append(jordan_block(Cyclotomic.from_rat(a), s))
    c = Matrix.block_diag(blocks)
    s_mat = rand_invertible_constant(rng, dim)
    return DiffModule.from_constant(s_mat * c * s_mat.inverse())


def rand_sigma_module(rng, sizes, dim=None):
    """A representation of Z with root-of-unity eigenvalues gamma(p/q),
    conjugated by a rational gauge (conductor stays the single q chosen)."""
    dim = dim or rng.randint(1, sizes.max_dim)
    q = rng.randint(1, sizes.max_denominator)
    blocks = []
    for s in rand_jordan_partition(rng, dim):
        lam = gamma(Rat(rng.randint(0, q - 1), q))
        blocks.append(jordan_block(lam, s))
    m = Matrix.block_diag(blocks)
    s_mat = rand_invertible_constant(rng, dim)
    from .sigmamod import SigmaModule

    return SigmaModule(s_mat * m * s_mat.inverse())


def rand_constant_gauge(rng, dim):
    return rand_invertible_constant(rng, dim).map(LaurentPoly.from_scalar)


def rand_shearing_gauge(rng, sizes, dim):
    """diag(t^k_i) * P with |k_i| <= shear_bound and P constant invertible."""
    p = rand_invertible_constant(rng, dim)
    d = Matrix.block_diag(
        [Matrix([[LaurentPoly.t_power(rng.randint(-sizes.shear_bound, sizes.shear_bound))]]) for _ in range(dim)]
    )
    return d * p.map(LaurentPoly.from_scalar)
