"""The ring of exponents E_A = A[t^K][ell] over A = K[t,1/t].

Elements carry symbolic powers t^a for rational classes a in [0,1) (the
integer part of an exponent folds into the Laurent coefficient) and a
symbolic logarithm ell with partial(ell) = 1.  The monodromy automorphism
sigma fixes A, scales t^a by gamma(a) and shifts ell by one; d_sigma =
sigma - id is a left shift in the binomial basis binom(ell, k).

Both partial and d_sigma are surjective here; the solvers below follow the
constructive proofs level by level, fixing every free constant to zero so
results are reproducible.
"""

from math import comb, factorial

from .errors import DivisionByZero
from .laurent import LaurentPoly, solve_partial_plus_a
from .linalg import column_kernel
from .ratio import Rat, rat_floor
from .scalar import Cyclotomic, ExponentClass, as_cyclotomic

from . import scalar as _scalar  # gamma looked up at call time (see verify suite)


class GroupAlgElem:
    """Element of A[t^K]: a finite sum of f_a(t) * t^a over classes a in [0,1)."""

    __slots__ = ("parts",)
    __hash__ = None

    def __init__(self, parts=None):
        data = {}
        if parts:
            for a, f in parts.items():
                a = a if isinstance(a, ExponentClass) else ExponentClass(a)
                if not isinstance(f, LaurentPoly):
                    f = LaurentPoly.from_scalar(f)
                if not f.is_zero:
                    data[a] = f
        object.__setattr__(self, "parts", data)

    def __setattr__(self, *_):
        raise AttributeError("GroupAlgElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({ExponentClass(0): LaurentPoly.one()})

    @classmethod
    def from_laurent(cls, f):
        return cls({ExponentClass(0): f})

    @classmethod
    def from_scalar(cls, c):
        return cls.from_laurent(LaurentPoly.from_scalar(c))

    @classmethod
    def t_power(cls, r):
        """t^r for rational r: class (r mod 1) with Laurent part t^floor(r)."""
        r = Rat(r)
        m = rat_floor(r)
        return cls({ExponentClass(r - m): LaurentPoly.t_power(m)})

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.parts

    def component(self, a):
        return self.parts.get(ExponentClass(a), LaurentPoly.zero())

    @property
    def laurent_part(self):
        """The a = 0 component (an element of A)."""
        return self.component(0)

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, GroupAlgElem):
            return other
        if isinstance(other, LaurentPoly):
            return GroupAlgElem.from_laurent(other)
        if isinstance(other, (int, Rat, Cyclotomic)):
            return GroupAlgElem.from_scalar(as_cyclotomic(other))
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = dict(self.parts)
        for a, f in other.parts.items():
            s = out.get(a)
            s = f if s is None else s + f
            if s.is_zero:
                out.pop(a, None)
            else:
                out[a] = s
        return _make(out)

    __radd__ = __add__

    def __neg__(self):
        return _make({a: -f for a, f in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        out = {}
        for a, f in self.parts.items():
            for b, g in other.parts.items():
                s = a.value + b.value
                spill = rat_floor(s)
                key = ExponentClass(s - spill)
                prod = f * g
                if spill:
                    prod = prod * LaurentPoly.t_power(spill)
                acc = out.get(key)
                acc = prod if acc is None else acc + prod
                if acc.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = acc
        return _make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.parts == other.parts

    # -- derivation and monodromy -------------------------------------------

    def partial(self):
        """partial(f_a t^a) = (partial(f_a) + a f_a) t^a, componentwise."""
        out = {}
        for a, f in self.parts.items():
            g = f.partial() + f * Cyclotomic.from_rat(a.value)
            if not g.is_zero:
                out[a] = g
        return GroupAlgElem(out)

    def sigma(self):
        """sigma(f_a t^a) = gamma(a) f_a t^a; fixes A."""
        out = {}
        for a, f in self.parts.items():
            g = f * _scalar.gamma(a)
            if not g.is_zero:
                out[a] = g
        return GroupAlgElem(out)

    def dsigma_preimage(self):
        """Componentwise inverse of d_sigma on the classes a != 0 (where it
        scales by gamma(a) - 1).  d_sigma is zero on class 0, so a nonzero
        class-0 part raises DivisionByZero."""
        if not self.laurent_part.is_zero:
            raise DivisionByZero("d_sigma is zero on class 0, so a nonzero class-0 part has no preimage")
        out = {}
        for a, f in self.parts.items():
            scale = _scalar.gamma(a) - Cyclotomic.one()
            out[a] = f * scale.inverse()
        return GroupAlgElem(out)

    def __repr__(self):
        if not self.parts:
            return "0"
        return " + ".join(
            f"({f!r})*t^({a!r})" if not a.is_zero else f"({f!r})"
            for a, f in sorted(self.parts.items(), key=lambda kv: kv[0].value)
        )


def _make(parts):
    """GroupAlgElem of parts already in normal form (no validation)."""
    result = object.__new__(GroupAlgElem)
    object.__setattr__(result, "parts", parts)
    return result


class ExpRingElem:
    """Element of E_A: a polynomial in ell with coefficients in A[t^K]."""

    __slots__ = ("ell",)
    __hash__ = None

    def __init__(self, ell_coeffs=()):
        cs = []
        for x in ell_coeffs:
            if not isinstance(x, GroupAlgElem):
                raise TypeError("ell coefficients must be GroupAlgElem")
            cs.append(x)
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "ell", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("ExpRingElem is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((GroupAlgElem.one(),))

    @classmethod
    def ell_var(cls):
        return cls((GroupAlgElem.zero(), GroupAlgElem.one()))

    @classmethod
    def from_groupalg(cls, g):
        return cls((g,))

    @classmethod
    def from_laurent(cls, f):
        return cls((GroupAlgElem.from_laurent(f),))

    @classmethod
    def from_scalar(cls, c):
        return cls((GroupAlgElem.from_scalar(c),))

    @classmethod
    def t_power(cls, r):
        return cls((GroupAlgElem.t_power(r),))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.ell

    def coeff(self, k):
        return self.ell[k] if 0 <= k < len(self.ell) else GroupAlgElem.zero()

    # -- arithmetic --------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, ExpRingElem):
            return other
        if isinstance(other, GroupAlgElem):
            return ExpRingElem((other,))
        if isinstance(other, LaurentPoly):
            return ExpRingElem.from_laurent(other)
        if isinstance(other, (int, Rat, Cyclotomic)):
            return ExpRingElem.from_scalar(as_cyclotomic(other))
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        n = max(len(self.ell), len(other.ell))
        return ExpRingElem([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return ExpRingElem([-x for x in self.ell])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ExpRingElem()
        out = [GroupAlgElem.zero()] * (len(self.ell) + len(other.ell) - 1)
        for i, a in enumerate(self.ell):
            if not a.is_zero:
                for j, b in enumerate(other.ell):
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
        return ExpRingElem(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self.ell == other.ell

    # -- derivation and monodromy -------------------------------------------

    def partial(self):
        """Unique derivation with partial(t^a) = a t^a and partial(ell) = 1."""
        n = len(self.ell)
        out = []
        for k in range(n):
            term = self.ell[k].partial()
            if k + 1 < n:
                term = term + self.ell[k + 1] * Cyclotomic.from_rat(k + 1)
            out.append(term)
        return ExpRingElem(out)

    def sigma(self):
        """Ring automorphism: identity on A, gamma(a) on t^a, ell -> ell + 1."""
        n = len(self.ell)
        out = [GroupAlgElem.zero()] * n
        for k in range(n):
            s = self.ell[k].sigma()
            if s.is_zero:
                continue
            for j in range(k + 1):
                out[j] = out[j] + s * Cyclotomic.from_rat(comb(k, j))
        return ExpRingElem(out)

    def dsigma(self):
        return self.sigma() - self

    def __repr__(self):
        if not self.ell:
            return "0"
        parts = []
        for k, g in enumerate(self.ell):
            if g.is_zero:
                continue
            parts.append(f"[{g!r}]" + (f"*l^{k}" if k > 1 else "*l" if k == 1 else ""))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# binomial basis


_BINOM_POLY_CACHE = {0: (Rat(1),)}


def binom_ell_poly(k):
    """Coefficients (ascending, in ell) of binom(ell, k) = ell(ell-1)...(ell-k+1)/k!."""
    if k < 0:
        return ()
    if k not in _BINOM_POLY_CACHE:
        prev = binom_ell_poly(k - 1)
        # multiply by (ell - (k-1)) then divide by k
        raised = (Rat(0),) + prev
        shifted = tuple(c * Rat(-(k - 1)) for c in prev) + (Rat(0),)
        _BINOM_POLY_CACHE[k] = tuple((a + b) / Rat(k) for a, b in zip(raised, shifted))
    return _BINOM_POLY_CACHE[k]


def binom_ell(k):
    """binom(ell, k) as an element of E_A (zero for k < 0)."""
    if k < 0:
        return ExpRingElem.zero()
    return ExpRingElem([GroupAlgElem.from_scalar(Cyclotomic.from_rat(c)) for c in binom_ell_poly(k)])


def to_binomial_basis(x):
    """Coefficients x_k with x = sum x_k * binom(ell, k); exact round trip."""
    cs = list(x.ell)
    out = [GroupAlgElem.zero()] * len(cs)
    for k in range(len(cs) - 1, -1, -1):
        bk = cs[k] * Cyclotomic.from_rat(factorial(k))
        out[k] = bk
        if not bk.is_zero:
            poly = binom_ell_poly(k)
            for j in range(k + 1):
                if poly[j]:
                    cs[j] = cs[j] - bk * Cyclotomic.from_rat(poly[j])
    while out and out[-1].is_zero:
        out.pop()
    return out


def from_binomial_basis(coeffs):
    acc = ExpRingElem.zero()
    for k, g in enumerate(coeffs):
        if not g.is_zero:
            acc = acc + binom_ell(k) * ExpRingElem.from_groupalg(g)
    return acc


# ---------------------------------------------------------------------------
# constructive surjectivity


def solve_dsigma(y):
    """An x with d_sigma(x) = y, following the proof's recursion in the
    binomial basis.

    Writing y = sum y_k binom(ell,k), the system is
    d_sigma(x_k) + sigma(x_{k+1}) = y_k with d_sigma(x_top) = 0.  At each
    level the free A-component of x_{k+1} is the one d_sigma kills; it is
    chosen so the next right-hand side has zero A-part (the image condition
    f_0 = 0), and the final free component is set to zero.
    """
    ys = to_binomial_basis(y)
    if not ys:
        return ExpRingElem.zero()
    m = len(ys) - 1
    xs = [GroupAlgElem.zero()] * (m + 2)
    xs[m + 1] = GroupAlgElem.from_laurent(ys[m].laurent_part)
    for k in range(m, 0, -1):
        rhs = ys[k] - xs[k + 1].sigma()
        x_nonzero = rhs.dsigma_preimage()
        free = (ys[k - 1] - x_nonzero.sigma()).laurent_part
        xs[k] = x_nonzero + GroupAlgElem.from_laurent(free)
    rhs0 = ys[0] - xs[1].sigma()
    xs[0] = rhs0.dsigma_preimage()  # final free component: zero
    return from_binomial_basis(xs)


def solve_partial(y):
    """An x with partial(x) = y; total on E_A over K[t,1/t].

    Works down from the top ell-degree.  On the class-0 component partial
    misses exactly the constants; each constant-term obstruction c at level k
    is absorbed by adding c/(k+1) to the next-higher ell coefficient, which
    is how ell plays the role of log t.  Free constants are set to zero.
    """
    ys = list(y.ell)
    if not ys:
        return ExpRingElem.zero()
    m = len(ys) - 1
    xs = [GroupAlgElem.zero()] * (m + 2)
    for k in range(m, -1, -1):
        rhs = ys[k] - xs[k + 1] * Cyclotomic.from_rat(k + 1)
        c = rhs.laurent_part.constant_term
        if not c.is_zero:
            xs[k + 1] = xs[k + 1] + GroupAlgElem.from_scalar(c / Cyclotomic.from_rat(k + 1))
            rhs = rhs - GroupAlgElem.from_scalar(c)
        parts = {}
        for a, f in rhs.parts.items():
            g = solve_partial_plus_a(f, a)
            if not g.is_zero:
                parts[a] = g
        xs[k] = GroupAlgElem(parts)
    return ExpRingElem(xs)


# ---------------------------------------------------------------------------
# coordinates and windowed kernel computations


def coordinates(x):
    """The coefficients of x in E_A's monomial basis t^d t^a ell^k, as
    {(class value a, ell-degree k, t-degree d): coefficient}."""
    return {(a.value, k, d): c for k, g in enumerate(x.ell) for a, f in g.parts.items() for d, c in f.terms.items()}


def _monomial(a, k, d):
    g = GroupAlgElem({a: LaurentPoly.t_power(d)})
    return ExpRingElem([GroupAlgElem.zero()] * k + [g])


def kernel_checks(degree_bound=4, ell_bound=2, exponent_samples=(Rat(1, 2), Rat(1, 3))):
    """Exact kernels of partial and d_sigma on bounded slices of A, A[t^K],
    A[ell] and E_A, compared against their theoretical values (K, K, A, A).

    Returns a report dict; every check is exact linear algebra on the slice:
    the kernel is the column_kernel of the operator's images of the slice's
    monomials, and a set of vectors has rank its size minus the dimension of
    its own column_kernel.
    """
    classes = [ExponentClass(0)] + [ExponentClass(a) for a in exponent_samples]
    classes = list(dict.fromkeys(classes))
    lo, hi = -degree_bound, degree_bound
    unit = [coordinates(ExpRingElem.one())]
    a_slice = [coordinates(_monomial(ExponentClass(0), 0, d)) for d in range(lo, hi + 1)]

    def rank(vectors):
        return len(vectors) - len(column_kernel(vectors))

    report = {}

    def run(name, op, classes, lo, hi, ell_bound, expected):
        monos = [(a.value, k, d) for a in classes for k in range(ell_bound + 1) for d in range(lo, hi + 1)]
        images = [coordinates(op(_monomial(*m))) for m in monos]
        if not set().union(*images) <= set(monos):
            raise AssertionError("operator image leaves the slice")
        kernel = [{monos[i]: x for i, x in enumerate(vec) if not x.is_zero} for vec in column_kernel(images)]
        # a kernel basis is independent: it spans what the expected vectors
        # span exactly when they add nothing to it and span as much
        ok = rank(expected) == len(kernel) == rank(kernel + expected)
        report[name] = {"dim": len(kernel), "expected_dim": len(expected), "ok": ok}

    class_0 = [ExponentClass(0)]
    run("partial_on_EA", lambda x: x.partial(), classes, lo, hi, ell_bound, unit)
    run("partial_on_AtK", lambda x: x.partial(), classes, lo, hi, 0, unit)
    run("partial_on_Kell", lambda x: x.partial(), class_0, 0, 0, ell_bound, unit)
    run("dsigma_on_EA", lambda x: x.dsigma(), classes, lo, hi, ell_bound, a_slice)
    run("dsigma_on_AtK", lambda x: x.dsigma(), classes, lo, hi, 0, a_slice)
    run("dsigma_on_Aell", lambda x: x.dsigma(), class_0, lo, hi, ell_bound, a_slice)
    run("dsigma_on_Kell", lambda x: x.dsigma(), class_0, 0, 0, ell_bound, unit)
    report["ok"] = all(v["ok"] for v in report.values() if isinstance(v, dict))
    return report
