"""Exact scalars: cyclotomic numbers and exponent classes.

The algebraically closed coefficient field is realized computably as the
union of the fields Q(zeta_N).  A Cyclotomic is stored by its conductor
label N, the integer numerators of its coordinates in the power basis
1, z, ..., z^(phi(N)-1), always reduced modulo the N-th cyclotomic
polynomial, and one positive common denominator, coprime to them (the form
of FLINT/Antic's fmpq_poly and nf_elem).  A product is an integer
convolution reduced by the monic integer Phi_N and normalised by one gcd,
and a sum of products (sum_of_products) is reduced and normalised once; an
inverse is an integer pseudo-remainder extended gcd.  Zero tests are
exact and O(1); there is no floating point anywhere.

Labels are not minimal: the label of a sum, difference or product is the
lcm of the operands' labels, demoted only to 1 for a rational value.  This
rule fixes every encoded output, so it is part of the behaviour.

z^e is a unit vector for e < phi(N), and z^(N/2) = -1 folds e for even N;
any other power is the remainder of x^e by Phi_N, read off power series
through the factors (1 - x^d)^mu(r/d) of Phi_N, and an embedding is one
polynomial reduced modulo Phi_N.
as_root_of_unity finds its exponent from the element's image in F_l,
l = 1 (mod N), and confirms that one candidate exactly.  Per conductor only
phi(N), Phi_N and the pairs (l, w) are cached.

gamma is the concrete exponential isomorphism on torsion exponents:
gamma(p/q) = zeta_q^p, a group homomorphism Q/Z -> roots of unity, with
gamma_inverse reading p/q off the coordinates: the roots of unity in
Q(zeta_N) are the +-zeta_N^j.
"""

from functools import cache
from math import floor, gcd, lcm, prod
from operator import add, attrgetter, sub

from .errors import DivisionByZero, NonRationalExponent, NotRootOfUnity
from .ratio import Rat, rat_from_str, rat_str

# ---------------------------------------------------------------------------
# integer/polynomial utilities


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
    factors, d = {}, 2
    while d * d <= n and d < 100000:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return factors


@cache
def euler_phi(n):
    result = n
    for p in _factorize(n):
        result -= result // p
    return result


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
    if len(num) <= k:
        return [], list(num)
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


def _cyclotomic_factors(primes):
    """Phi_r, for r > 1 the product of the given primes, as a product of power
    series (1 - x^d)^(-1 or 1): pairs (d, whether it divides).
    Phi_r = prod_{d | r} (1 - x^d)^mu(r/d) (Arnold and Monagan 2011)."""
    factors = [(1, len(primes) % 2 == 1)]
    for p in primes:
        for d, divide in factors[:]:
            factors.append((d * p, not divide))
    return factors


def _times_cyclotomic(series, factors, inverse=False):
    """The power series (ascending coefficients, a list changed in place) times
    Phi_r, or divided by it, cut at its length, one pass per factor of
    _cyclotomic_factors."""
    size = len(series)
    for d, divide in factors:
        if d >= size:
            continue
        if divide == inverse:
            for i in range(size - 1, d - 1, -1):
                series[i] -= series[i - d]
        else:
            for i in range(d, size):
                series[i] += series[i - d]
    return series


@cache
def cyclotomic_polynomial(n):
    """Coefficients (ascending) of the n-th cyclotomic polynomial, as ints.

    Phi_n(x) = Phi_r(x^(n/r)) for r the product of the primes of n, and for
    r > 1, Phi_r is a power series cut at degree phi(r) (_times_cyclotomic).
    """
    primes = list(_factorize(n))
    r = prod(primes)
    poly = [-1, 1] if r == 1 else _times_cyclotomic([1] + [0] * euler_phi(r), _cyclotomic_factors(primes))
    full = [0] * (n // r * (len(poly) - 1) + 1)
    full[:: n // r] = poly
    return tuple(full)


@cache
def _prime_root(n, after=0):
    """The least prime l > after with l = 1 (mod n), and an element w of
    order n in F_l.  Callers pass after positionally, so that each (n, after)
    is one cache entry."""
    ell, primes = after + 1 + -after % n, _factorize(n)
    while not _is_probable_prime(ell):
        ell += n
    h = 1  # w = h^((l - 1)/n) has order n when no w^(n/r) is 1
    while any(pow(h, (ell - 1) // r, ell) == 1 for r in primes):
        h += 1
    return ell, pow(h, (ell - 1) // n, ell)


def _value_mod(p, x, m):
    """p(x) mod m by Horner's rule, for an integer polynomial p (ascending)."""
    acc = 0
    for c in reversed(p):
        acc = (acc * x + c) % m
    return acc


def _poly_xgcd(a, b):
    """Extended gcd of integer polynomials (ascending coefficients): g, s with
    s*a = g modulo b and g a gcd of a and b over Q, both over the integers.

    A pseudo-remainder sequence: each step scales by the leading coefficient
    instead of dividing by it, and divides the content shared by the
    remainder and its cofactor back out, so no rational is ever formed.
    """

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0, s0 = trim(list(b)), []
    r1, s1 = trim(list(a)), [1]
    while r1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            c, shift = r0[-1], len(r0) - len(r1)
            r0 = [lead * x for x in r0]
            s0 = [lead * x for x in s0] + [0] * (len(s1) + shift - len(s0))
            for i, y in enumerate(r1, shift):
                r0[i] -= c * y
            for i, y in enumerate(s1, shift):
                s0[i] -= c * y
            trim(r0), trim(s0)
        g = gcd(*r0, *s0)
        if g > 1:
            r0, s0 = [x // g for x in r0], [x // g for x in s0]
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r0:
        raise DivisionByZero("gcd of zero polynomials")
    return r0, s0


def _normal(n, num, den):
    """The Cyclotomic of integer numerators num (phi(n) of them, reduced
    modulo Phi_n) over den > 0: a rational value is demoted to conductor 1,
    and one gcd makes numerators and denominator coprime."""
    if n > 1 and not any(num[1:]):
        n, num = 1, num[:1]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
    return _make(n, tuple(num), den)


def _common_numerators(values):
    """The lcm N of the labels of values, the lcm D of their denominators,
    and the integer numerators of each value at label N over D."""
    n, den = lcm(*(c._n for c in values)), lcm(*(c._den for c in values))
    return n, den, [[x * (den // c._den) for x in c._embed_num(n)] for c in values]


def _rat(num, den):
    """The rational num / den, den > 0, as a Cyclotomic of conductor 1."""
    if den != 1:
        g = gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
    return _make(1, (num,), den)


class Cyclotomic:
    """Exact element of Q(zeta_N) in the power basis modulo Phi_N.

    Immutable.  Stored as the conductor label n, a tuple of integer
    numerators (the coordinates of z^0, ..., z^(phi(n)-1), reduced modulo
    Phi_n) and one positive integer denominator, with no common factor
    across them, so a value has one normal form at each label.  The label
    of a sum, difference or product is the lcm of the operands' labels,
    demoted only to 1: a value that turns out rational is stored at
    conductor 1, so zero is always the conductor-1 zero and rational
    arithmetic stays on a fast path, but a value of Q(zeta_15) computed at
    label 30 keeps the label 30.  ``c`` gives the coordinates as Rats.
    """

    __slots__ = ("_n", "_num", "_den")
    __hash__ = None

    n = property(attrgetter("_n"), doc="The conductor label N.")

    def __init__(self, conductor, coeffs):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        qs = [x if isinstance(x, Rat) else Rat(x) for x in coeffs]
        den = lcm(*(q.denominator for q in qs))
        num = [q.numerator * (den // q.denominator) for q in qs]
        num = _divmod_monic(num, cyclotomic_polynomial(conductor))[1]
        num += [0] * (euler_phi(conductor) - len(num))
        x = _normal(conductor, num, den)
        self._n, self._num, self._den = x._n, x._num, x._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rat(cls, x):
        if not isinstance(x, (int, Rat)):
            x = Rat(x)
        return _make(1, (int(x.numerator),), int(x.denominator))

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def root_of_unity(cls, q, p=1):
        """zeta_q^p: for e = p mod q, folded by z^(q/2) = -1 for even q, a unit
        vector when e < phi(q), else the remainder of x^e by Phi_q.

        Phi_q(x) = Phi_r(y) for y = x^s, r = q/s the product of the primes of
        q (Phi_r has -mu(r) != 0 at y, so s is the first degree past 0 in
        Phi_q), and x^e = x^b y^a for e = a s + b, b < s: the remainder is
        x^b times that of y^a by Phi_r, spread to every s-th coordinate.  For
        a >= phi(r), Phi_r is palindromic, so the quotient of y^a, read
        backwards, is the power series 1/Phi_r cut at degree a - phi(r), and
        the remainder is minus the low phi(r) coefficients of the quotient
        times Phi_r: two runs of _times_cyclotomic, (a + phi(r)) d(r) steps,
        where a long division takes (e - phi(q)) nnz(Phi_q).  Its first case,
        a = phi(r), has quotient 1: minus the lower coefficients of Phi_r."""
        if q < 1:
            raise ValueError("order must be positive")
        e, sign, phi = p % q, 1, euler_phi(q)
        if q % 2 == 0 and e >= q // 2:
            e, sign = e - q // 2, -1
        if e < phi:
            return _normal(q, [0] * e + [sign] + [0] * (phi - e - 1), 1)
        cyclo, s = cyclotomic_polynomial(q), 1
        while not cyclo[s]:
            s += 1
        (a, b), phi_r = divmod(e, s), phi // s
        factors = _cyclotomic_factors(list(_factorize(q)))
        # the quotient times -sign, backwards
        backwards = _times_cyclotomic([-sign] + [0] * (a - phi_r), factors, inverse=True)
        low = _times_cyclotomic((backwards[::-1] + [0] * phi_r)[:phi_r], factors)
        num = [0] * phi
        num[b::s] = low
        return _normal(q, num, 1)

    # -- structure ---------------------------------------------------------

    @property
    def c(self):
        """Coordinates in the power basis, as a tuple of Rat."""
        den = self._den
        return tuple(Rat(x, den) for x in self._num)

    @property
    def is_zero(self):
        return self._n == 1 and not self._num[0]

    @property
    def rational_value(self):
        """The value as a Rat when the element lies in Q, else None."""
        return Rat(self._num[0], self._den) if self._n == 1 else None

    def _embed_num(self, m):
        """Integer numerators in Q(zeta_m), over the same denominator, length
        phi(m); requires n | m.  z_n = z_m^(m/n) is substituted into one
        polynomial, reduced once modulo Phi_m; a rational needs no reduction."""
        n = self._n
        if n == m:
            return self._num
        if m % n:
            raise ValueError("can only embed into a multiple conductor")
        if n == 1:
            return [self._num[0]] + [0] * (euler_phi(m) - 1)
        step = m // n
        poly = [0] * (step * (len(self._num) - 1) + 1)
        poly[::step] = self._num
        num = _divmod_monic(poly, cyclotomic_polynomial(m))[1]
        return num + [0] * (euler_phi(m) - len(num))

    def _image(self, m, ell, w):
        """The image in F_ell under zeta_m -> w, for w of order m, n | m and
        ell prime to the denominator."""
        return _value_mod(self._num, pow(w, m // self._n, ell), ell) * pow(self._den, -1, ell) % ell

    def embed(self, m):
        """Image in Q(zeta_m) (the value is unchanged)."""
        return _normal(m, self._embed_num(m), self._den)

    def _pair(self, other):
        """Common conductor and the integer numerators of both operands."""
        if self._n == other._n:
            return self._n, self._num, other._num
        m = lcm(self._n, other._n)
        return m, self._embed_num(m), other._embed_num(m)

    # -- arithmetic --------------------------------------------------------

    def _add(self, other, op):
        """op(self, other) for op in (add, sub): numerators over a common
        denominator, normalised by one gcd."""
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rat(other)
        da, db = self._den, other._den
        if self._n == 1 and other._n == 1:
            if da == db == 1:
                return _make(1, (op(self._num[0], other._num[0]),), 1)
            return _rat(op(self._num[0] * db, other._num[0] * da), da * db)
        m, a, b = self._pair(other)
        if da == db:
            return _normal(m, list(map(op, a, b)), da)
        g = gcd(da, db)
        sa, sb = db // g, da // g
        return _normal(m, [op(x * sa, y * sb) for x, y in zip(a, b)], da * sa)

    def __add__(self, other):
        return self._add(other, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, sub)

    def __rsub__(self, other):
        return Cyclotomic.from_rat(other) - self

    def __neg__(self):
        return _make(self._n, tuple(-x for x in self._num), self._den)

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rat(other)
        if other._n == 1 or self._n == 1:
            # a rational factor scales the other's numerators: no embedding,
            # no convolution, and the same demotion as the general product
            r, x = (other, self) if other._n == 1 else (self, other)
            rn, rd = r._num[0], r._den
            if rn == 0:
                return _ZERO
            if x._n == 1:
                return _rat(rn * x._num[0], rd * x._den)
            if rn == 1 and rd == 1:
                return x
            return _normal(x._n, [c * rn for c in x._num], x._den * rd)
        m, a, b = self._pair(other)
        prod = [0] * (2 * len(a) - 1)
        bs = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in bs:
                    prod[i + j] += x * y
        num = _divmod_monic(prod, cyclotomic_polynomial(m))[1]
        return _normal(m, num, self._den * other._den)

    __rmul__ = __mul__

    @staticmethod
    def labels(values):
        """The conductor labels of the values."""
        return {x._n for x in values}

    @staticmethod
    def sum_of_products(xs, ys, n):
        """sum x*y over the pairs, for labels 1 and n only (n = 1: all
        rational): the convolutions, unreduced, go into one integer list over
        one denominator, with one reduction modulo Phi_n (when there was a
        convolution) and one gcd at the end, and a rational factor scales the
        other factor's numerators, as in __mul__.  It is the left fold's value
        at the fold's label, since each partial sum of the fold is at label 1
        or n, 1 exactly when it is rational; a one-term sum is the product
        itself."""
        if len(xs) == 1:
            return xs[0] * ys[0]
        if n == 1:
            num, den = 0, 1
            for x, y in zip(xs, ys):
                a, b = x._num[0] * y._num[0], x._den * y._den
                if b != den:
                    g = gcd(den, b)
                    num, a, den = num * (b // g), a * (den // g), den // g * b
                num += a
            return _rat(num, den)
        phi = euler_phi(n)
        acc, den = [0] * phi, 1
        for x, y in zip(xs, ys):
            scale, b = 1, x._den * y._den
            if b != den:
                g = gcd(den, b)
                if b != g:
                    acc = [c * (b // g) for c in acc]
                scale, den = den // g, den // g * b
            if x._n == 1 or y._n == 1:
                r, v = (x, y) if x._n == 1 else (y, x)
                c = r._num[0] * scale
                if c:
                    for i, a in enumerate(v._num):
                        acc[i] += a * c
                continue
            if len(acc) == phi:
                acc += [0] * (phi - 1)  # room for unreduced convolutions
            bs = [(j, b * scale) for j, b in enumerate(y._num) if b]
            for i, a in enumerate(x._num):
                if a:
                    for j, b in bs:
                        acc[i + j] += a * b
        if len(acc) > phi:
            acc = _divmod_monic(acc, cyclotomic_polynomial(n))[1]
        return _normal(n, acc, den)

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        if self._n == 1:
            num, den = self._num[0], self._den
            return _make(1, (den,), num) if num > 0 else _make(1, (-den,), -num)
        # s * num = g modulo Phi_n for an integer g, so the inverse of
        # num / den is den * s / g; deg s < phi(n)
        g, s = _poly_xgcd(self._num, cyclotomic_polynomial(self._n))
        if len(g) != 1:  # Phi_n is irreducible, so gcd is 1 unless self == 0
            raise DivisionByZero("inverse of zero")
        scale = self._den if g[0] > 0 else -self._den
        s = [c * scale for c in s] + [0] * (euler_phi(self._n) - len(s))
        return _normal(self._n, s, abs(g[0]))

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
        if isinstance(other, (int, Rat)):
            return self._n == 1 and self._num[0] == other.numerator and self._den == other.denominator
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self._n == other._n:
            return self._num == other._num and self._den == other._den
        _, a, b = self._pair(other)
        da, db = self._den, other._den
        return all(x * db == y * da for x, y in zip(a, b))

    # -- roots of unity ----------------------------------------------------

    def as_root_of_unity(self):
        """Minimal (q, p) with self = zeta_q^p and gcd(p, q) = 1, or None.

        The roots of unity in Q(zeta_n) are the +-zeta_n^j, 0 <= j < n.  A
        single +-1 coordinate is one; otherwise z goes to w of order n in
        F_l, l = 1 (mod n), whose powers w^j, j < n, are distinct, so the
        first j with +-w^j equal to the image is the one candidate, and
        +-z^j is confirmed exactly at this label.
        +-zeta_n^j = zeta_2n^k with k = 2j, or 2j + n for the negated one.
        """
        if self._den != 1:
            return None
        n, num = self._n, self._num
        nonzero = [i for i, x in enumerate(num) if x]
        if len(nonzero) == 1 and num[nonzero[0]] in (1, -1):
            j, negated = nonzero[0], num[nonzero[0]] < 0
        else:
            ell, w = _prime_root(n, 0)
            y = self._image(n, ell, w)
            minus_y, power = ell - y, 1
            for j in range(n):
                if power == y or power == minus_y:
                    break
                power = power * w % ell
            else:
                return None
            negated = power != y
            if Cyclotomic.root_of_unity(n, j) != (-self if negated else self):
                return None
        k = (2 * j + n) % (2 * n) if negated else 2 * j
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
        return (2, Rat(self._n), tuple((x.numerator, x.denominator) for x in self.c))

    def __repr__(self):
        if self._n == 1:
            return rat_str(self.rational_value)
        terms = []
        for i, ci in enumerate(self.c):
            if ci:
                if i == 0:
                    terms.append(rat_str(ci))
                elif ci == 1:
                    terms.append(f"z{self._n}^{i}" if i > 1 else f"z{self._n}")
                else:
                    terms.append(f"{rat_str(ci)}*z{self._n}" + (f"^{i}" if i > 1 else ""))
        return " + ".join(terms) if terms else "0"


def _make(n, num, den):
    """Wrap numerators and a denominator already in normal form (hot-path
    constructor, no validation)."""
    self = _new(Cyclotomic)
    self._n, self._num, self._den = n, num, den
    return self


_new = object.__new__
_ZERO = _make(1, (0,), 1)
_ONE = _make(1, (1,), 1)


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
        v = v - floor(v)
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
        if isinstance(other, (int, Rat)):
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
