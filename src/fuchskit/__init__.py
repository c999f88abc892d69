"""fuchs-kit: exact arithmetic for regular singular differential modules
over the Laurent polynomial ring, their exponents, and the monodromy
equivalence with representations of Z."""

from .errors import (
    DerivationMismatch,
    DimensionMismatch,
    DivisionByZero,
    EigenvalueNotFound,
    FuchsKitError,
    InputError,
    LogObstruction,
    MissingCandidates,
    NonRationalExponent,
    NonSquare,
    NotAUnit,
    NotConstant,
    NotFoundWithinBounds,
    NotInvertibleOverA,
    NotRegularWithinBounds,
    NotRootOfUnity,
    ZeroEigenvalue,
)
from .ratio import BACKEND, Rat
from .scalar import Cyclotomic, ExponentClass, gamma, gamma_inverse
from .laurent import LaurentPoly, kernel_partial, kernel_partial_plus, kernel_partial_square, partial, solve_partial_plus_a
from .linalg import Matrix, JordanData, charpoly, eigenvalues, jordan_block, jordan_form
from .expring import (
    ExpRingElem,
    GroupAlgElem,
    binom_ell,
    from_binomial_basis,
    kernel_checks,
    solve_dsigma,
    solve_partial,
    to_binomial_basis,
)
from .diffmod import (
    DiffModule,
    HorizontalSpace,
    base_change,
    block_extension,
    direct_sum,
    dual,
    ext_dim,
    fundamental_matrix,
    h1_dimension,
    hom_module,
    horizontal_hom,
    invert_coordinate,
    rank_one,
    tensor,
    twist_derivation,
)
from .sigmamod import SigmaModule, hom_dim, isomorphism, trivialize
from . import sigmamod
from .functors import (
    ConstantForm,
    ExponentMultiset,
    FuchsDecomposition,
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

__version__ = "0.1.0"


def __getattr__(name):
    # the seeded property suites import verify and generate, which no data
    # command needs: load them on first use (PEP 562)
    if name == "run_suite":
        from .verify import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
