"""Exact scalars: cyclotomic numbers and exponent classes.

The algebraically closed coefficient field is realized computably as the
union of the fields Q(zeta_N).  A Cyclotomic is stored by its conductor N
and its coordinates in the power basis 1, z, ..., z^(phi(N)-1), always
reduced modulo the N-th cyclotomic polynomial.  Zero tests are exact; there
is no floating point anywhere.

gamma is the concrete exponential isomorphism on torsion exponents:
gamma(p/q) = zeta_q^p, a group homomorphism Q/Z -> roots of unity, with
gamma_inverse reading p/q off the coordinates: the roots of unity in
Q(zeta_N) are the +-zeta_N^j.
"""

from math import gcd, lcm

from .errors import DivisionByZero, NonRationalExponent, NotRootOfUnity
from .ratio import Rat, rat_floor, rat_from_str, rat_str

# ---------------------------------------------------------------------------
# integer/polynomial utilities

_PHI_CACHE = {}
_CYCLO_CACHE = {}
_POWER_CACHE = {}


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin witnesses for n < 3.3 * 10^24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n):
    if n % 2 == 0:
        return 2
    import random as _random

    rng = _random.Random(n)
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n):
    """Prime factorization of n >= 1 as a dict; small trial division then
    Pollard rho."""
    factors = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 17
    while d * d <= n and d < 100000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return factors


def euler_phi(n):
    if n not in _PHI_CACHE:
        result = n
        for p in _factorize(n):
            result -= result // p
        _PHI_CACHE[n] = result
    return _PHI_CACHE[n]


def divisors(n):
    """Positive divisors of n >= 1, ascending."""
    result = [1]
    for p, e in _factorize(n).items():
        result = [d * p**k for d in result for k in range(e + 1)]
    return sorted(result)


def _divmod_monic(num, den):
    """Quotient and remainder of num by the monic integer polynomial den
    (ascending coefficients; num over ints or rationals).  The remainder has
    at most deg den coefficients."""
    k = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den[:k]) if d]
    r = list(num)
    q = [0] * max(len(r) - k, 0)
    for i in range(len(r) - 1, k - 1, -1):
        c = r[i]
        if c:
            q[i - k] = c
            for j, d in terms:
                r[i - k + j] -= c * d
    return q, r[:k]


def cyclotomic_polynomial(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial, as ints."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n)[:-1]:
        poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
        if any(rem):
            raise AssertionError("Phi_d does not divide x^n - 1; this is a bug")
    poly = tuple(poly)
    _CYCLO_CACHE[n] = poly
    return poly


def _reduce_mod_cyclo(coeffs, n):
    """Reduce a rational polynomial modulo Phi_n; return exactly phi(n) coords."""
    cs = _divmod_monic(coeffs, cyclotomic_polynomial(n))[1]
    cs.extend(Rat(0) for _ in range(euler_phi(n) - len(cs)))
    return cs


def _power_table(n):
    """z^k mod Phi_n for 0 <= k < n (z of conductor n)."""
    if n in _POWER_CACHE:
        return _POWER_CACHE[n]
    k = euler_phi(n)
    table = []
    for e in range(n):
        v = [Rat(0)] * (e + 1)
        v[e] = Rat(1)
        table.append(tuple(_reduce_mod_cyclo(v, n)) if e >= k else tuple(v + [Rat(0)] * (k - e - 1)))
    _POWER_CACHE[n] = table
    return table


def _poly_xgcd(a, b):
    """Extended gcd of rational polynomials (ascending lists): g, s with
    s*a = g mod b and g the monic gcd."""
    r0, r1 = [Rat(c) for c in a], [Rat(c) for c in b]
    s0, s1 = [Rat(1)], [Rat(0)]

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    def sub_scaled(p, q, c, shift):
        for i, qc in enumerate(q):
            if qc:
                while len(p) <= i + shift:
                    p.append(Rat(0))
                p[i + shift] -= c * qc
        return trim(p)

    trim(r0), trim(r1)
    while r1:
        while len(r0) >= len(r1) and r0:
            c = r0[-1] / r1[-1]
            shift = len(r0) - len(r1)
            sub_scaled(r0, r1, c, shift)
            sub_scaled(s0, s1, c, shift)
            if not r0:
                break
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r0:
        raise DivisionByZero("gcd of zero polynomials")
    lead = r0[-1]
    return [c / lead for c in r0], [c / lead for c in s0]


# ---------------------------------------------------------------------------


_RAT_TYPE = type(Rat(0))


class Cyclotomic:
    """Exact element of Q(zeta_N) in the power basis modulo Phi_N.

    Immutable.  Values that turn out rational are demoted to conductor 1, so
    plain rational arithmetic stays on a fast path.
    """

    __slots__ = ("n", "c")
    __hash__ = None

    def __init__(self, conductor, coeffs, _reduced=False):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        cs = [x if isinstance(x, _RAT_TYPE) else Rat(x) for x in coeffs]
        if not _reduced:
            cs = _reduce_mod_cyclo(cs, conductor)
        elif len(cs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        if conductor > 1 and not any(cs[1:]):
            conductor, cs = 1, cs[:1]
        object.__setattr__(self, "n", conductor)
        object.__setattr__(self, "c", tuple(cs))

    @staticmethod
    def _make(conductor, coeffs):
        """Internal: wrap an already-reduced, already-demoted coefficient
        tuple without re-validating (hot-path constructor)."""
        self = object.__new__(Cyclotomic)
        object.__setattr__(self, "n", conductor)
        object.__setattr__(self, "c", coeffs)
        return self

    def __setattr__(self, *_):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rat(cls, x):
        return cls(1, (Rat(x),), _reduced=True)

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def root_of_unity(cls, q, p=1):
        """zeta_q^p."""
        if q < 1:
            raise ValueError("order must be positive")
        return cls(q, _power_table(q)[p % q], _reduced=True)

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not any(self.c)

    @property
    def rational_value(self):
        """The value as a Rat when the element lies in Q, else None."""
        return self.c[0] if self.n == 1 else None

    def _embed_vec(self, m):
        """Coordinate vector in Q(zeta_m), length phi(m); requires n | m."""
        if self.n == m:
            return list(self.c)
        if m % self.n:
            raise ValueError("can only embed into a multiple conductor")
        acc = [Rat(0)] * euler_phi(m)
        if self.n == 1:
            acc[0] = self.c[0]
            return acc
        table = _power_table(m)
        step = m // self.n
        for i, ci in enumerate(self.c):
            if ci:
                for j, pj in enumerate(table[(step * i) % m]):
                    if pj:
                        acc[j] += ci * pj
        return acc

    def embed(self, m):
        """Image in Q(zeta_m) (the value is unchanged)."""
        return Cyclotomic(m, self._embed_vec(m), _reduced=True)

    def _pair(self, other):
        """Common conductor and raw coordinate vectors of both operands."""
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rat(other)
        if self.n == other.n:
            return self.n, self.c, other.c
        m = lcm(self.n, other.n)
        return m, self._embed_vec(m), other._embed_vec(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyclotomic) and other.n == 1 and self.n == 1:
            return Cyclotomic._make(1, (self.c[0] + other.c[0],))
        m, a, b = self._pair(other)
        cs = tuple(x + y for x, y in zip(a, b))
        if m > 1 and not any(cs[1:]):
            return Cyclotomic._make(1, cs[:1])
        return Cyclotomic._make(m, cs)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Cyclotomic) and other.n == 1 and self.n == 1:
            return Cyclotomic._make(1, (self.c[0] - other.c[0],))
        m, a, b = self._pair(other)
        cs = tuple(x - y for x, y in zip(a, b))
        if m > 1 and not any(cs[1:]):
            return Cyclotomic._make(1, cs[:1])
        return Cyclotomic._make(m, cs)

    def __rsub__(self, other):
        return Cyclotomic.from_rat(other) - self

    def __neg__(self):
        return Cyclotomic._make(self.n, tuple(-x for x in self.c))

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rat(other)
        if other.n == 1 or self.n == 1:
            # a rational factor scales the other's coordinates: no embedding,
            # no convolution, and the same demotion as the general product
            r, x = (other.c[0], self) if other.n == 1 else (self.c[0], other)
            if r == 1:
                return x
            cs = tuple(ci * r if ci else ci for ci in x.c)
            if x.n > 1 and not any(cs[1:]):
                return Cyclotomic._make(1, cs[:1])
            return Cyclotomic._make(x.n, cs)
        m, a, b = self._pair(other)
        prod = [Rat(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic(m, prod)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        if self.n == 1:
            return Cyclotomic(1, (Rat(1) / self.c[0],), _reduced=True)
        g, s = _poly_xgcd(list(self.c), list(cyclotomic_polynomial(self.n)))
        if len(g) != 1:  # Phi_n is irreducible, so gcd is 1 unless self == 0
            raise DivisionByZero("inverse of zero")
        return Cyclotomic(self.n, [c / g[0] for c in s])

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rat(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rat(other) * self.inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result, base = _ONE, self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, type(Rat(0)))):
            return self.n == 1 and self.c[0] == other
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        _, a, b = self._pair(other)
        return list(a) == list(b)

    # -- roots of unity ----------------------------------------------------

    def as_root_of_unity(self):
        """Minimal (q, p) with self = zeta_q^p and gcd(p, q) = 1, or None.

        The roots of unity in Q(zeta_n) are the +-zeta_n^j, 0 <= j < n, and
        +-zeta_n^j = zeta_2n^k with k = 2j, or 2j + n for the negated one.
        """
        n = self.n
        neg = tuple(-x for x in self.c)
        for j, row in enumerate(_power_table(n)):
            if row == self.c:
                k = 2 * j
                break
            if row == neg:
                k = (2 * j + n) % (2 * n)
                break
        else:
            return None
        g = gcd(k, 2 * n)
        return (2 * n // g, k // g)

    def sort_key(self):
        """Total order used for canonical eigenvalue ordering: rationals by
        value, then roots of unity by (order, exponent), then the rest."""
        rv = self.rational_value
        if rv is not None:
            return (0, rv, 0)
        ru = self.as_root_of_unity()
        if ru is not None:
            return (1, Rat(ru[0]), ru[1])
        return (2, Rat(self.n), tuple((int(x.numerator), int(x.denominator)) for x in self.c))

    def __repr__(self):
        if self.n == 1:
            return rat_str(self.c[0])
        terms = []
        for i, ci in enumerate(self.c):
            if ci:
                if i == 0:
                    terms.append(rat_str(ci))
                elif ci == 1:
                    terms.append(f"z{self.n}^{i}" if i > 1 else f"z{self.n}")
                else:
                    terms.append(f"{rat_str(ci)}*z{self.n}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(terms) if terms else "0"


_ZERO = Cyclotomic(1, (Rat(0),), _reduced=True)
_ONE = Cyclotomic(1, (Rat(1),), _reduced=True)


def as_cyclotomic(x):
    """Coerce int/Rat/str/ExponentClass to Cyclotomic."""
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, ExponentClass):
        return Cyclotomic.from_rat(x.value)
    if isinstance(x, str):
        return Cyclotomic.from_rat(rat_from_str(x))
    return Cyclotomic.from_rat(x)


# ---------------------------------------------------------------------------


class ExponentClass:
    """A rational representative in [0, 1) of a coset in K/Z.

    The class of 0 is represented by 0; addition and negation act modulo 1.
    """

    __slots__ = ("value",)

    def __init__(self, x):
        if isinstance(x, ExponentClass):
            v = x.value
        elif isinstance(x, str):
            v = rat_from_str(x)
        else:
            v = Rat(x)
        v = v - rat_floor(v)
        object.__setattr__(self, "value", v)

    def __setattr__(self, *_):
        raise AttributeError("ExponentClass is immutable")

    @classmethod
    def from_scalar(cls, c):
        """Class of a Cyclotomic that must be rational."""
        c = as_cyclotomic(c)
        rv = c.rational_value
        if rv is None:
            raise NonRationalExponent(f"exponent {c!r} is not rational")
        return cls(rv)

    def __add__(self, other):
        return ExponentClass(self.value + ExponentClass(other).value)

    def __sub__(self, other):
        return ExponentClass(self.value - ExponentClass(other).value)

    def __neg__(self):
        return ExponentClass(-self.value)

    def __eq__(self, other):
        if isinstance(other, ExponentClass):
            return self.value == other.value
        if isinstance(other, (int, type(Rat(0)))):
            return self == ExponentClass(other)
        return NotImplemented

    def __lt__(self, other):
        return self.value < ExponentClass(other).value

    def __hash__(self):
        return hash(self.value)

    @property
    def is_zero(self):
        return self.value == 0

    def as_cyclotomic(self):
        return Cyclotomic.from_rat(self.value)

    def __repr__(self):
        return rat_str(self.value)


# ---------------------------------------------------------------------------
# the exponential isomorphism on torsion


def gamma(a):
    """gamma(p/q) = zeta_q^p; a group homomorphism on Q/Z with kernel Z."""
    a = ExponentClass(a)
    p, q = int(a.value.numerator), int(a.value.denominator)
    return Cyclotomic.root_of_unity(q, p)


def gamma_inverse(lam):
    """The unique class p/q in [0,1) with gamma(p/q) = lam.

    Raises NotRootOfUnity when lam has infinite multiplicative order (or is
    zero), i.e. lies outside the computable image of gamma.
    """
    lam = as_cyclotomic(lam)
    ru = lam.as_root_of_unity()
    if ru is None:
        raise NotRootOfUnity(f"{lam!r} is not a root of unity")
    q, p = ru
    return ExponentClass(Rat(p) / Rat(q))
