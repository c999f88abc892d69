"""Laurent polynomials A = K[t, 1/t] with the derivation t*d/dt.

Sparse representation: a map from integer degree to a nonzero Cyclotomic
coefficient.  The derivation acts diagonally on monomials, so kernel and
solvability questions are degree-wise exact linear algebra.
"""

from math import gcd, lcm

from .errors import LogObstruction, NotAUnit
from .linalg import column_kernel
from .ratio import Rat
from .scalar import Cyclotomic, ExponentClass, _common_numerators, _rat, as_cyclotomic


def _coerce_scalar(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Rat)):
        return Cyclotomic.from_rat(x)
    return None


class LaurentPoly:
    """Element of K[t, 1/t]; immutable, no stored zero coefficients."""

    __slots__ = ("terms",)
    __hash__ = None

    def __init__(self, terms=None):
        data = {}
        if terms:
            for d, c in terms.items():
                c = as_cyclotomic(c)
                if not c.is_zero:
                    data[int(d)] = c
        object.__setattr__(self, "terms", data)

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: Cyclotomic.one()})

    @classmethod
    def from_scalar(cls, c):
        return cls({0: as_cyclotomic(c)})

    @classmethod
    def t_power(cls, m, coeff=1):
        return cls({m: as_cyclotomic(coeff)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, d):
        return self.terms.get(d, Cyclotomic.zero())

    @property
    def constant_term(self):
        return self.coeff(0)

    @property
    def min_degree(self):
        return min(self.terms) if self.terms else None

    @property
    def is_constant(self):
        return not self.terms or set(self.terms) == {0}

    @property
    def is_unit(self):
        """Units of K[t,1/t] are exactly the monomials c*t^m, c != 0."""
        return len(self.terms) == 1

    def unit_inverse(self):
        if not self.is_unit:
            raise NotAUnit(f"{self!r} is not a unit of K[t,1/t]")
        ((d, c),) = self.terms.items()
        return LaurentPoly({-d: c.inverse()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            c = _coerce_scalar(other)
            if c is None:
                return NotImplemented
            other = LaurentPoly({0: c})
        out = dict(self.terms)
        for d, c in other.terms.items():
            s = out.get(d)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(d, None)
            else:
                out[d] = s
        return _make(out)

    __radd__ = __add__

    def __neg__(self):
        return _make({d: -c for d, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            c = _coerce_scalar(other)
            if c is None:
                return NotImplemented
            if c.is_zero:
                return LaurentPoly()
            return _make({d: x * c for d, x in self.terms.items()})
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                d = d1 + d2
                p = c1 * c2
                s = out.get(d)
                s = p if s is None else s + p
                if s.is_zero:
                    out.pop(d, None)
                else:
                    out[d] = s
        return _make(out)

    __rmul__ = __mul__

    @staticmethod
    def labels(values):
        """The conductor labels of the coefficients of the values."""
        return {c._n for f in values for c in f.terms.values()}

    @staticmethod
    def sum_of_products(xs, ys, n):
        """sum x*y over the pairs, for coefficient labels 1 and n only: the
        coefficient products bucketed by degree, one Cyclotomic
        sum_of_products per degree, zero sums dropped."""
        buckets = {}
        for x, y in zip(xs, ys):
            for d1, c1 in x.terms.items():
                for d2, c2 in y.terms.items():
                    pair = buckets.get(d1 + d2)
                    if pair is None:
                        buckets[d1 + d2] = [c1], [c2]
                    else:
                        pair[0].append(c1)
                        pair[1].append(c2)
        out = {}
        for d, (cs1, cs2) in buckets.items():
            c = Cyclotomic.sum_of_products(cs1, cs2, n)
            if not c.is_zero:
                out[d] = c
        return _make(out)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        c = _coerce_scalar(other)
        if c is None:
            return NotImplemented
        return self.terms == LaurentPoly({0: c}).terms

    # -- the derivation ----------------------------------------------------

    def partial(self):
        """t*d/dt, acting as multiplication by the degree on each mode."""
        return LaurentPoly({d: c * Rat(d) for d, c in self.terms.items()})

    def substitute_inverse(self):
        """t -> 1/t."""
        return _make({-d: c for d, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            c = self.terms[d]
            if d == 0:
                parts.append(f"({c!r})")
            else:
                parts.append(f"({c!r})*t^{d}")
        return " + ".join(parts)


def _make(terms):
    """LaurentPoly of terms already in normal form (no validation)."""
    result = object.__new__(LaurentPoly)
    object.__setattr__(result, "terms", terms)
    return result


class PackedMatrix:
    """A rational Laurent matrix in integers: one positive denominator D and,
    keyed by (degree, row, column), the integer numerators of its nonzero
    coefficients, so entry (i, j) is sum_e nums[e, i, j] t^e / D, in lowest
    terms.  A row vector is a matrix with one row.

    Sums, products and the derivation make no Cyclotomic: they work on plain
    ints, a sum over one denominator.  Only rational matrices are packed;
    anything with an irrational coefficient stays in the Laurent ring, whose
    arithmetic gives the labels the library prints.  Unpacking is
    scalar._rat, so every value comes back at label 1.
    """

    __slots__ = ("den", "nums", "rows", "cols")

    def __init__(self, den, nums, rows, cols):
        self.den, self.nums, self.rows, self.cols = den, nums, rows, cols

    @classmethod
    def from_rows(cls, rows):
        """Pack rows of LaurentPoly with rational coefficients."""
        entries = {(e, i, j): c for i, row in enumerate(rows) for j, f in enumerate(row) for e, c in f.terms.items()}
        _, den, nums = _common_numerators(list(entries.values()))
        return cls(den, {k: x for k, (x,) in zip(entries, nums)}, len(rows), len(rows[0]))

    def to_rows(self):
        """The rows of LaurentPoly."""
        terms = [[{} for _ in range(self.cols)] for _ in range(self.rows)]
        for (e, i, j), x in self.nums.items():
            terms[i][j][e] = _rat(x, self.den)
        return [[LaurentPoly(t) for t in row] for row in terms]

    def _reduced(self, den, nums, cols=None):
        """With cols columns (default: as self): zero entries dropped, the
        content divided out."""
        nums = {k: x for k, x in nums.items() if x}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: x // g for k, x in nums.items()}
        return PackedMatrix(den, nums, self.rows, self.cols if cols is None else cols)

    @property
    def is_zero(self):
        return not self.nums

    def partial_plus(self, a):
        """(partial + a) entrywise, for a rational a."""
        p, q = a.numerator, a.denominator
        return self._reduced(self.den * q, {k: (k[0] * q + p) * x for k, x in self.nums.items()})

    def scaled(self, p, q):
        """Times the rational p/q, q > 0."""
        return self._reduced(self.den * q, {k: p * x for k, x in self.nums.items()})

    def __add__(self, other):
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        nums = {k: sa * x for k, x in self.nums.items()}
        for k, x in other.nums.items():
            nums[k] = nums.get(k, 0) + sb * x
        return self._reduced(den, nums)

    def __mul__(self, other):
        by_row = {}
        for (f, k, j), y in other.nums.items():
            by_row.setdefault(k, []).append((f, j, y))
        nums = {}
        for (e, i, k), x in self.nums.items():
            for f, j, y in by_row.get(k, ()):
                key = e + f, i, j
                nums[key] = nums.get(key, 0) + x * y
        return self._reduced(self.den * other.den, nums, other.cols)

    def __eq__(self, other):
        # both are in lowest terms, so equal values are stored alike
        return (self.den, self.nums) == (other.den, other.nums)


def partial(f):
    """The derivation t*d/dt on K[t,1/t]."""
    return f.partial()


def solve_partial_plus_a(y, a):
    """Solve (partial + a)(x) = y for x in K[t,1/t], a a class in [0,1).

    Mode n scales by n + a, which vanishes only for a = 0, n = 0.  For a = 0
    the equation is solvable iff the constant term of y vanishes; the solution
    is normalized by setting the constant term of x to zero.  A nonzero
    constant term c raises LogObstruction(c).
    """
    a = ExponentClass(a).value
    out = {}
    for d, c in y.terms.items():
        scale = Rat(d) + a
        if scale == 0:
            raise LogObstruction(c)
        out[d] = c / Cyclotomic.from_rat(scale)
    return LaurentPoly(out)


def _windowed_kernel(lo, hi, diag_scalars):
    """Exact kernel of a degree-diagonal operator on span{t^lo..t^hi}.

    The operator multiplies mode d by diag_scalars(d); computed as honest
    linear algebra (the kernel of the operator's columns) rather than by the
    shortcut, so the windowed theorems are checked, not assumed.
    """
    degrees = range(lo, hi + 1)
    return [LaurentPoly(dict(zip(degrees, vec))) for vec in column_kernel([{d: diag_scalars(d)} for d in degrees])]


def kernel_partial(lo, hi):
    """Basis of ker(partial) on the degree window [lo, hi]."""
    return _windowed_kernel(lo, hi, lambda d: Cyclotomic.from_rat(d))


def kernel_partial_square(lo, hi):
    """Basis of ker(partial^2) on the degree window [lo, hi]."""
    return _windowed_kernel(lo, hi, lambda d: Cyclotomic.from_rat(Rat(d) * Rat(d)))


def kernel_partial_plus(lo, hi, a):
    """Basis of ker(partial + a) on the degree window [lo, hi]."""
    a = ExponentClass(a).value
    return _windowed_kernel(lo, hi, lambda d: Cyclotomic.from_rat(Rat(d) + a))
