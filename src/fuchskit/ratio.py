"""Rational arithmetic backend.

All coefficients in the package are exact rationals.  When gmpy2 is
installed its C-implemented ``mpq`` is used for speed; otherwise the stdlib
``fractions.Fraction`` is a drop-in replacement (same str() format, same
hashing, cross-type equality).  Set FUCHS_KIT_PURE_PYTHON=1 to force the
pure-Python backend even where gmpy2 is installed.
"""

import os
import re
from fractions import Fraction

if os.environ.get("FUCHS_KIT_PURE_PYTHON"):
    Rat = Fraction
    BACKEND = "fractions"
else:
    try:
        from gmpy2 import mpq as Rat

        BACKEND = "gmpy2"
    except ImportError:  # pragma: no cover
        Rat = Fraction
        BACKEND = "fractions"

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def rat_from_str(s):
    """Parse the canonical "p/q" (or "p") wire form. Raises ValueError."""
    if not isinstance(s, str) or not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Rat(Fraction(s))


def rat_str(x):
    """Canonical reduced "p/q" (or "p") form."""
    return str(Rat(x))


def is_int(x):
    return x.denominator == 1


def rat_floor(x):
    # int() truncates toward zero; floor division on the parts is exact.
    return int(x.numerator) // int(x.denominator)
