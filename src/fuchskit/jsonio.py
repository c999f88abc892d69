"""JSON encodings for every public type.

Exact values only: rationals travel as "p/q" strings, never as floats.
Decoders are strict (unknown fields rejected, lengths checked) and raise
InputError, which the CLI maps to exit code 2.  For convenience a Cyclotomic
may be written as a bare "p/q" string and a Laurent entry as a bare rational
or Cyclotomic; encoders always emit the full canonical form.
"""

import re
from math import gcd

from .diffmod import DiffModule
from .errors import InputError
from .expring import ExpRingElem, GroupAlgElem
from .laurent import LaurentPoly
from .linalg import Matrix
from .ratio import rat_from_str, rat_str
from .scalar import Cyclotomic, ExponentClass, euler_phi
from .sigmamod import SigmaModule

_DEGREE_RE = re.compile(r"^(0|-?[1-9]\d*)$")


def _expect_dict(doc, name, required, optional=()):
    if not isinstance(doc, dict):
        raise InputError(f"{name}: expected an object, got {type(doc).__name__}")
    keys = set(doc)
    missing = set(required) - keys
    unknown = keys - set(required) - set(optional)
    if missing:
        raise InputError(f"{name}: missing fields {sorted(missing)}")
    if unknown:
        raise InputError(f"{name}: unknown fields {sorted(unknown)}")
    return doc


def _expect_int(value, name, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name}: expected an integer")
    if minimum is not None and value < minimum:
        raise InputError(f"{name}: must be >= {minimum}")
    return value


def decode_rat(doc, name="rational"):
    try:
        return rat_from_str(doc)
    except (ValueError, TypeError):
        raise InputError(f'{name}: expected a "p/q" string, got {doc!r}') from None


def encode_rat(x):
    return rat_str(x)


# -- Cyclotomic --------------------------------------------------------------


def encode_cyclotomic(c):
    """Each coordinate as the reduced "p/q" (or "p") of its integer numerator
    over the common denominator, with one gcd."""
    den = c._den
    coeffs = []
    for x in c._num:
        g = gcd(x, den)
        coeffs.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return {"conductor": c.n, "coeffs": coeffs}


def decode_cyclotomic(doc, name="cyclotomic"):
    if isinstance(doc, str):
        return Cyclotomic.from_rat(decode_rat(doc, name))
    _expect_dict(doc, name, ("conductor", "coeffs"))
    n = _expect_int(doc["conductor"], f"{name}.conductor", 1)
    coeffs = doc["coeffs"]
    size = len(coeffs) if isinstance(coeffs, list) else 0
    if n > 2 * max(size, 1) ** 2:  # phi(n) >= sqrt(n / 2) > size: refuse before factoring n
        raise InputError(f"{name}.coeffs: expected a list of phi({n}) rationals, more than {size}")
    if not isinstance(coeffs, list) or size != euler_phi(n):
        raise InputError(f"{name}.coeffs: expected a list of {euler_phi(n)} rationals")
    return Cyclotomic(n, [decode_rat(x, f"{name}.coeffs[{i}]") for i, x in enumerate(coeffs)], _reduced=True)


# -- ExponentClass -----------------------------------------------------------


def encode_exponent_class(a):
    return rat_str(a.value)


def decode_exponent_class(doc, name="exponent class"):
    v = decode_rat(doc, name)
    if not (0 <= v < 1):
        raise InputError(f"{name}: representative must lie in [0,1), got {doc!r}")
    return ExponentClass(v)


# -- LaurentPoly -------------------------------------------------------------


def encode_laurent(f):
    return {str(d): encode_cyclotomic(c) for d, c in f.terms.items()}


def decode_laurent(doc, name="laurent"):
    if isinstance(doc, str):
        return LaurentPoly.from_scalar(Cyclotomic.from_rat(decode_rat(doc, name)))
    if not isinstance(doc, dict):
        raise InputError(f"{name}: expected an object of degree -> coefficient")
    if set(doc) == {"conductor", "coeffs"}:
        # a bare Cyclotomic document: accept as a constant coefficient
        return LaurentPoly.from_scalar(decode_cyclotomic(doc, name))
    terms = {}
    for key, value in doc.items():
        if not isinstance(key, str) or not _DEGREE_RE.match(key):
            raise InputError(f"{name}: degree keys must be canonical integers, got {key!r}")
        terms[int(key)] = decode_cyclotomic(value, f"{name}[{key}]")
    return LaurentPoly(terms)


# -- exponent ring -----------------------------------------------------------


def encode_groupalg(g):
    return {encode_exponent_class(a): encode_laurent(f) for a, f in g.parts.items()}


def decode_groupalg(doc, name="group algebra element"):
    if not isinstance(doc, dict):
        raise InputError(f"{name}: expected an object of class -> laurent")
    parts = {}
    for key, value in doc.items():
        a = decode_exponent_class(key, f"{name} key")
        if rat_str(a.value) != key:
            raise InputError(f"{name}: class key {key!r} is not in canonical p/q form")
        parts[a] = decode_laurent(value, f"{name}[{key}]")
    return GroupAlgElem(parts)


def encode_expring(x):
    return {"ell_coeffs": [encode_groupalg(g) for g in x.ell]}


def decode_expring(doc, name="exponent-ring element"):
    _expect_dict(doc, name, ("ell_coeffs",))
    coeffs = doc["ell_coeffs"]
    if not isinstance(coeffs, list):
        raise InputError(f"{name}.ell_coeffs: expected a list")
    return ExpRingElem(
        [decode_groupalg(g, f"{name}.ell_coeffs[{k}]") for k, g in enumerate(coeffs)]
    )


# -- matrices ----------------------------------------------------------------


def encode_matrix(m, encode_entry):
    return [[encode_entry(x) for x in row] for row in m.data]


def decode_matrix(doc, decode_entry, name="matrix"):
    if not isinstance(doc, list) or not doc:
        raise InputError(f"{name}: expected a nonempty array of rows")
    rows = []
    width = None
    for i, row in enumerate(doc):
        if not isinstance(row, list) or not row:
            raise InputError(f"{name}: row {i} must be a nonempty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{name}: ragged rows")
        rows.append([decode_entry(x, f"{name}[{i}][{j}]") for j, x in enumerate(row)])
    return Matrix(rows)


# -- modules -----------------------------------------------------------------


def encode_diffmodule(m):
    doc = {
        "dim": m.dim,
        "matrix": encode_matrix(m.matrix, encode_laurent),
        "derivation": "t d/dt" if m.twist is None else {"twist": encode_laurent(m.twist)},
    }
    return doc


def decode_diffmodule(doc, name="differential module"):
    _expect_dict(doc, name, ("dim", "matrix"), optional=("derivation",))
    dim = _expect_int(doc["dim"], f"{name}.dim", 1)
    matrix = decode_matrix(doc["matrix"], decode_laurent, f"{name}.matrix")
    if matrix.rows != dim or matrix.cols != dim:
        raise InputError(f"{name}: dim is {dim} but matrix is {matrix.rows}x{matrix.cols}")
    twist = None
    derivation = doc.get("derivation", "t d/dt")
    if derivation != "t d/dt":
        _expect_dict(derivation, f"{name}.derivation", ("twist",))
        twist = decode_laurent(derivation["twist"], f"{name}.derivation.twist")
        if twist == LaurentPoly.one():
            twist = None
    return DiffModule(matrix, twist=twist)


def encode_sigmamodule(v):
    return {"dim": v.dim, "monodromy": encode_matrix(v.monodromy, encode_cyclotomic)}


def decode_sigmamodule(doc, name="sigma module"):
    _expect_dict(doc, name, ("dim", "monodromy"))
    dim = _expect_int(doc["dim"], f"{name}.dim", 1)
    matrix = decode_matrix(doc["monodromy"], decode_cyclotomic, f"{name}.monodromy")
    if matrix.rows != dim or matrix.cols != dim:
        raise InputError(f"{name}: dim is {dim} but monodromy is {matrix.rows}x{matrix.cols}")
    return SigmaModule(matrix)


# -- results -----------------------------------------------------------------


def encode_constant_form(cf):
    return {
        "gauge": encode_matrix(cf.gauge, encode_laurent),
        "constant": encode_matrix(cf.constant, encode_cyclotomic),
    }


def encode_exponent_multiset(ms):
    return [encode_exponent_class(a) for a in ms.entries]
