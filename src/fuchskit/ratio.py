"""Rational arithmetic.

All coefficients in the package are exact rationals, the stdlib
``fractions.Fraction``.  ``BACKEND`` names it in benchmark records.
"""

import re
from fractions import Fraction as Rat

BACKEND = "fractions"

_RAT_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def rat_from_str(s):
    """Parse the canonical "p/q" (or "p") wire form. Raises ValueError."""
    if not isinstance(s, str) or not _RAT_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Rat(s)


def rat_str(x):
    """Canonical reduced "p/q" (or "p") form."""
    return str(Rat(x))


def is_int(x):
    return x.denominator == 1


def rat_floor(x):
    # int() truncates toward zero; floor division on the parts is exact.
    return int(x.numerator) // int(x.denominator)
