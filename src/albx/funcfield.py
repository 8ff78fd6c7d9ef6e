"""Exact function-field arithmetic on projective-line components.

Everything is over Q.  A rational function lives on a named component of
the smooth model and is stored as a reduced fraction of dense
polynomials with monic denominator.  Local computations use truncated
Laurent series in the coordinate t - a at a finite place a, and in
s = 1/t at infinity; each series carries an explicit truncation order N
meaning "coefficients are exact for all exponents <= N".  Operations
propagate the worst truncation of their inputs and raise
InsufficientTruncationError instead of ever returning a coefficient
they cannot certify.

Design choices worth knowing:
  * places with irrational coordinates do not exist here; an operation
    that would need one raises NonSplitError,
  * the residue at infinity folds in dt = -s^(-2) ds, so
    residue(dlog(f, p)) equals the valuation of f at p at every place
    including infinity,
  * products, multiplicities and Taylor shifts of polynomials run on
    integer numerators over one common denominator; series inverses
    follow the linear recurrence of their coefficients, and a residue
    of a product is one convolution, not a product,
  * rational roots are found p-adically (Hensel lifting and rational
    reconstruction), so no integer is ever factored.
"""

from fractions import Fraction
import itertools
import math

from .arith import common_denominator, format_rat, is_probable_prime, parse_rat
from .errors import (
    InputError,
    InsufficientTruncationError,
    NonSplitError,
    UndefinedValuationError,
)


class _Infinity:
    """The coordinate of the place at infinity (a unique sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __deepcopy__(self, memo):
        return self

    def __copy__(self):
        return self


INF = _Infinity()


def parse_coordinate(text):
    text = str(text).strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INF
    return parse_rat(text)


def format_coordinate(coord):
    return "inf" if coord is INF else format_rat(coord)


class Place:
    """A Q-rational point of one projective-line component."""

    __slots__ = ("component", "coordinate")

    def __init__(self, component, coordinate):
        object.__setattr__(self, "component", str(component))
        if coordinate is not INF:
            coordinate = Fraction(coordinate)
        object.__setattr__(self, "coordinate", coordinate)

    def __setattr__(self, *args):
        raise AttributeError("Place is immutable")

    def is_infinite(self):
        return self.coordinate is INF

    def sort_key(self):
        if self.coordinate is INF:
            return (self.component, 1, Fraction(0))
        return (self.component, 0, self.coordinate)

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.component == other.component
            and self.coordinate == other.coordinate
        )

    def __hash__(self):
        return hash((self.component, self.coordinate))

    def __repr__(self):
        return f"{self.component}:{format_coordinate(self.coordinate)}"

    def to_json(self):
        return {"component": self.component, "point": format_coordinate(self.coordinate)}

    @classmethod
    def from_json(cls, data):
        try:
            return cls(data["component"], parse_coordinate(data["point"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad place object {data!r}: {exc}") from None


class Poly:
    """Dense polynomial over Q; the zero polynomial has no coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def linear(cls, root):
        """The monic factor t - root."""
        return cls([-Fraction(root), 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        out = list(a) + [Fraction(0)] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        a, da = common_denominator(self.coeffs)
        b, db = common_denominator(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        d = da * db
        return Poly([Fraction(c, d) for c in out])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = Poly.const(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d, lc = other.degree, other.leading()
        while len(rem) - 1 >= d and rem:
            k = len(rem) - 1 - d
            c = rem[-1] / lc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(q), Poly(rem)

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        return Poly([c / lc for c in self.coeffs])

    def primitive_int(self):
        """Integer coefficient list with content 1 (positive leading)."""
        if self.is_zero():
            return []
        ints = common_denominator(self.coeffs)[0]
        g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
        return [x // g for x in ints]

    def gcd(self, other):
        """Monic gcd by Euclid; remainders kept primitive to tame growth."""
        a, b = self, other
        while not b.is_zero():
            _, r = a.divmod(b)
            if not r.is_zero():
                r = Poly(r.primitive_int())
            a, b = b, r
        return a.monic()

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted_coefficients(self, a, upto):
        """First upto+1 coefficients of p(a + u) as a series in u.

        With a = r/q and p = P/d, P integral of degree n, the integer
        polynomial h(x) = q^n P(x/q) gives p(a + u) = h(r + q u) / (d q^n);
        h is Taylor-shifted by r in integers, and pass i of the shift
        fixes coefficient i, so only upto + 1 passes run.
        """
        a = Fraction(a)
        r, q = a.numerator, a.denominator
        h, d = common_denominator(self.coeffs)
        n = len(h) - 1
        h = [c * q ** (n - i) for i, c in enumerate(h)]
        for i in range(min(upto + 1, n)):
            for j in range(n - 1, i - 1, -1):
                h[j] += r * h[j + 1]
        d *= q**n
        return [Fraction(h[k] * q**k, d) if k <= n else Fraction(0) for k in range(upto + 1)]

    def multiplicity_at(self, a):
        """Order of vanishing at the finite point a."""
        if self.is_zero():
            raise UndefinedValuationError("zero polynomial")
        a = Fraction(a)
        m, cur = 0, self.primitive_int()
        while (cur := _divide_linear(cur, a.numerator, a.denominator)) is not None:
            m += 1
        return m

    def to_json(self):
        return [format_rat(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([parse_rat(c) for c in data])

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                bits.append(format_rat(c))
            elif i == 1:
                bits.append(f"{format_rat(c)}*t" if c != 1 else "t")
            else:
                bits.append(f"{format_rat(c)}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(reversed(bits))


def _divide_linear(ints, r, q):
    """Quotient of an integer polynomial by q*t - r, or None if it does not divide.

    For coprime r, q an exact quotient is integral (Gauss's lemma), so the
    synthetic division runs in integers and stops at the first inexact step.
    """
    out, s = [], 0
    for c in reversed(ints[1:]):
        s, rem = divmod(c + r * s, q)
        if rem:
            return None
        out.append(s)
    if ints[0] + r * s:
        return None
    return out[::-1]


class RatFunc:
    """Reduced ratio of polynomials on a named component, denominator monic."""

    __slots__ = ("num", "den", "component")

    def __init__(self, num, den=None, component="C0"):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = Poly.const(1) if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        lc = den.leading()
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "component", str(component))

    def __setattr__(self, *args):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def _raw(cls, num, den, component):
        """Skip gcd reduction; caller guarantees num, den coprime, den monic."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "component", str(component))
        return obj

    @classmethod
    def constant(cls, c, component="C0"):
        return cls(Poly.const(c), None, component)

    @classmethod
    def variable(cls, component="C0"):
        return cls(Poly([0, 1]), None, component)

    @classmethod
    def from_factors(cls, factors, scale=1, component="C0"):
        """Build scale * prod (t - a)^e from (a, e) pairs with distinct a."""
        num, den = Poly.const(1), Poly.const(1)
        seen = set()
        for a, e in factors:
            a = Fraction(a)
            if a in seen:
                raise ValueError("repeated root in from_factors")
            seen.add(a)
            if e > 0:
                num = num * Poly.linear(a) ** e
            elif e < 0:
                den = den * Poly.linear(a) ** (-e)
        return cls._raw(num * Fraction(scale), den, component)

    def is_zero(self):
        return self.num.is_zero()

    def _check(self, other):
        if self.component != other.component:
            raise InputError(
                f"component mismatch: {self.component} vs {other.component}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.component == other.component
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.component, self.num, self.den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.constant(other, self.component)
        self._check(other)
        return RatFunc(
            self.num * other.den + other.num * self.den,
            self.den * other.den,
            self.component,
        )

    __radd__ = __add__

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den, self.component)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc.constant(other, self.component)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num * other, self.den, self.component)
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den, self.component)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num, self.den * other, self.component)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num, self.component)

    def __pow__(self, n):
        if n == 0:
            return RatFunc.constant(1, self.component)
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            inv = RatFunc(self.den, self.num, self.component)
            return inv ** (-n)
        return RatFunc(self.num**n, self.den**n, self.component)

    def derivative(self):
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RatFunc(num, self.den * self.den, self.component)

    def dlog_ratfunc(self):
        """f'/f as a rational function (zero for constants)."""
        if self.is_zero():
            raise UndefinedValuationError("dlog of the zero function")
        return self.derivative() / self

    def __repr__(self):
        if self.den.degree == 0:
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


def val_at(f, p):
    """Order of vanishing of f at the place p (negative at a pole)."""
    if f.is_zero():
        raise UndefinedValuationError("valuation of the zero function")
    if p.component != f.component:
        raise InputError(f"place {p!r} not on component {f.component}")
    if p.is_infinite():
        return f.den.degree - f.num.degree
    return f.num.multiplicity_at(p.coordinate) - f.den.multiplicity_at(p.coordinate)


class LaurentSeries:
    """Finitely many exact coefficients of a local Laurent expansion.

    coeffs maps exponent -> nonzero Fraction; every exponent is <= the
    truncation order; all exponents below the smallest stored one are
    known to be zero, everything above the truncation is unknown.
    """

    __slots__ = ("place", "truncation", "coeffs")

    def __init__(self, place, truncation, coeffs=()):
        object.__setattr__(self, "place", place)
        object.__setattr__(self, "truncation", int(truncation))
        data = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for e, c in items:
            c = Fraction(c)
            if c and e <= truncation:
                data[int(e)] = c
        object.__setattr__(self, "coeffs", dict(sorted(data.items())))

    def __setattr__(self, *args):
        raise AttributeError("LaurentSeries is immutable")

    @classmethod
    def zero(cls, place, truncation):
        return cls(place, truncation, {})

    @classmethod
    def monomial(cls, place, exponent, coeff, truncation):
        return cls(place, truncation, {exponent: coeff})

    def is_zero(self):
        """All stored coefficients vanish (says nothing past truncation)."""
        return not self.coeffs

    def lead_bound(self):
        """Exponent below which every coefficient is certainly zero."""
        return min(self.coeffs) if self.coeffs else self.truncation + 1

    def leading_exponent(self):
        if not self.coeffs:
            raise UndefinedValuationError("series is zero through truncation")
        return min(self.coeffs)

    def coefficient(self, e):
        if e > self.truncation:
            raise InsufficientTruncationError(
                f"coefficient at exponent {e} beyond truncation {self.truncation}"
            )
        return self.coeffs.get(e, Fraction(0))

    def residue(self):
        """Coefficient a_(-1), the series read as coefficients of g in g dt."""
        return self.coefficient(-1)

    def _check(self, other):
        if self.place != other.place:
            raise InputError(f"series at different places: {self.place!r}, {other.place!r}")

    def __eq__(self, other):
        return (
            isinstance(other, LaurentSeries)
            and self.place == other.place
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries(self.place, self.truncation, {0: other})
        self._check(other)
        n = min(self.truncation, other.truncation)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentSeries(self.place, n, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.place, self.truncation, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries(self.place, self.truncation, {0: other})
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return LaurentSeries(self.place, self.truncation, {e: c * x for e, x in self.coeffs.items()})

    def _product_truncation(self, other):
        self._check(other)
        return min(self.truncation + other.lead_bound(), other.truncation + self.lead_bound())

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        n = self._product_truncation(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= n:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentSeries(self.place, n, out)

    __rmul__ = __mul__

    def product_coefficient(self, other, e):
        """Coefficient at exponent e of self * other, as one convolution."""
        n = self._product_truncation(other)
        if e > n:
            raise InsufficientTruncationError(
                f"coefficient at exponent {e} beyond truncation {n}"
            )
        b = other.coeffs
        return sum((c * b[e - k] for k, c in self.coeffs.items() if e - k in b), Fraction(0))

    def shift(self, k):
        """Multiply by u^k."""
        return LaurentSeries(
            self.place, self.truncation + k, {e + k: c for e, c in self.coeffs.items()}
        )

    def truncate(self, n):
        if n > self.truncation:
            raise InsufficientTruncationError(
                f"cannot extend truncation {self.truncation} to {n}"
            )
        return LaurentSeries(self.place, n, self.coeffs)

    def derivative(self):
        return LaurentSeries(
            self.place,
            self.truncation - 1,
            {e - 1: e * c for e, c in self.coeffs.items() if e},
        )

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert a series that is zero through truncation")
        m = self.leading_exponent()
        c = self.coeffs[m]
        n = self.truncation - m
        # u^(-m) self / c = 1 + w, and b = 1/(1 + w) solves b_k = -sum_j w_j b_(k-j)
        w = [(e - m, x / c) for e, x in self.coeffs.items() if e != m]
        b = [Fraction(1)]
        for k in range(1, n + 1):
            b.append(-sum((x * b[k - j] for j, x in w if j <= k), Fraction(0)))
        return LaurentSeries(self.place, n - m, {k - m: x / c for k, x in enumerate(b)})

    def log1p(self):
        """log(1 + u) for a series u of positive order, exact through truncation."""
        if self.lead_bound() < 1:
            raise ValueError("log1p needs a series with positive leading exponent")
        n = self.truncation
        acc = LaurentSeries.zero(self.place, n)
        term = LaurentSeries(self.place, n, {0: 1})
        k = 0
        while True:
            term = term * self
            k += 1
            if term.lead_bound() > n or term.is_zero():
                break
            acc = acc + term.scale(Fraction((-1) ** (k - 1), k))
        return acc

    def exp(self):
        """exp(u) - includes the constant term 1."""
        if self.lead_bound() < 1:
            raise ValueError("exp needs a series with positive leading exponent")
        n = self.truncation
        acc = LaurentSeries(self.place, n, {0: 1})
        term = LaurentSeries(self.place, n, {0: 1})
        fact = 1
        k = 0
        while True:
            term = term * self
            k += 1
            fact *= k
            if term.lead_bound() > n or term.is_zero():
                break
            acc = acc + term.scale(Fraction(1, fact))
        return acc

    def to_json(self):
        return {str(e): format_rat(c) for e, c in self.coeffs.items()}

    def __repr__(self):
        if not self.coeffs:
            return f"O(u^{self.truncation + 1})"
        bits = []
        for e, c in self.coeffs.items():
            if e == 0:
                bits.append(format_rat(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else format_rat(c) + "*")
                bits.append(f"{head}u^{e}")
        return " + ".join(bits) + f" + O(u^{self.truncation + 1})"


def residue(series):
    """Coefficient a_(-1) of a Laurent series (as differential g dt)."""
    return series.residue()


def _poly_series_finite(poly, place, n):
    if poly.is_zero():
        return LaurentSeries.zero(place, n)
    upto = min(n, poly.degree) if n >= 0 else -1
    if upto < 0:
        return LaurentSeries.zero(place, n)
    cs = poly.shifted_coefficients(place.coordinate, upto)
    return LaurentSeries(place, n, {e: c for e, c in enumerate(cs)})


def _poly_series_infinite(poly, place, n):
    # p(1/s) is a finite Laurent polynomial in s, exact at every order
    return LaurentSeries(place, n, {-k: c for k, c in enumerate(poly.coeffs)})


def expand_at(f, p, n):
    """Laurent expansion of f at p, exact through exponent n."""
    if f.is_zero():
        raise UndefinedValuationError("cannot expand the zero function")
    if p.component != f.component:
        raise InputError(f"place {p!r} not on component {f.component}")
    if p.is_infinite():
        dn, dd = f.num.degree, f.den.degree
        num_s = _poly_series_infinite(f.num, p, n - dd)
        den_s = _poly_series_infinite(f.den, p, max(n - 2 * dd + dn, -dd))
        return (num_s * den_s.inverse()).truncate(n)
    a = p.coordinate
    vn = f.num.multiplicity_at(a)
    vd = f.den.multiplicity_at(a)
    num_s = _poly_series_finite(f.num, p, n + vd)
    den_s = _poly_series_finite(f.den, p, max(n + 2 * vd - vn, vd))
    return (num_s * den_s.inverse()).truncate(n)


def leading_coefficient(f, p):
    """Leading Laurent coefficient of f at p (nonzero)."""
    v = val_at(f, p)
    return expand_at(f, p, v).coefficient(v)


def evaluate(f, p):
    """Value f(p) in Q; requires f finite at p (0 allowed)."""
    v = val_at(f, p)
    if v < 0:
        raise ZeroDivisionError(f"{f!r} has a pole at {p!r}")
    if v > 0:
        return Fraction(0)
    return leading_coefficient(f, p)


def dlog(f, p, n):
    """Series g with df/f = g du in the local coordinate u at p.

    At infinity the chain rule for u = 1/t is already folded in, so
    residue(dlog(f, p, n)) = val_at(f, p) holds at every place.
    """
    if f.is_zero():
        raise UndefinedValuationError("dlog of the zero function")
    g = f.dlog_ratfunc()
    if g.is_zero():
        return LaurentSeries.zero(p, n)
    if p.is_infinite():
        h = expand_at(g, p, n + 2)
        return (-h.shift(-2)).truncate(n)
    return expand_at(g, p, n)


def _horner(ints, x, m):
    acc = 0
    for c in reversed(ints):
        acc = (acc * x + c) % m
    return acc


def _squarefree_mod(ints, p):
    """Is the integer polynomial squarefree, of unchanged degree, mod the prime p?"""
    if ints[-1] % p == 0:
        return False
    a = [c % p for c in ints]
    b = [i * c % p for i, c in enumerate(ints)][1:]
    while True:  # Euclid on (a, a') over F_p
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) == 1
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f = a[-1] * inv % p
            for i, y in enumerate(b, len(a) - len(b)):
                a[i] = (a[i] - f * y) % p
            a.pop()
        a, b = b, a


def _reconstruct(x, m, bound):
    """The r/q == x mod m with |r| <= bound, from the first Euclidean remainder <= bound."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1)


def rational_roots(poly):
    """Rational roots with multiplicity, plus the rootless cofactor.

    Returns (roots, cofactor) where roots is a list of (Fraction, mult)
    sorted by root and cofactor has no rational root.  The roots are
    found p-adically, without factoring any integer: the primitive
    squarefree part s stays squarefree modulo the smallest prime p that
    divides neither its leading coefficient nor its discriminant.  Every
    root r/q of s has |r| <= |s(0)| and 0 < q <= |lc(s)|, so its
    reduction mod p, Hensel-lifted until p^K > 2 |s(0)| |lc(s)|, gives
    it back by rational reconstruction.  Each candidate is confirmed,
    and its multiplicity counted, by exact integer synthetic division.
    """
    if poly.is_zero():
        raise UndefinedValuationError("roots of the zero polynomial")
    roots = []
    cur = poly.primitive_int()
    k = next(i for i, c in enumerate(cur) if c)
    if k:
        roots.append((Fraction(0), k))
        cur = cur[k:]
    if len(cur) == 1:
        return roots, Poly.const(1)
    full = Poly(cur)
    sf = full.divmod(full.gcd(full.derivative()))[0].primitive_int()
    p = next(q for q in itertools.count(2) if is_probable_prime(q) and _squarefree_mod(sf, q))
    xs = [x for x in range(p) if _horner(sf, x, p) == 0]
    dsf = [i * c for i, c in enumerate(sf)][1:]
    bound, m = abs(sf[0]), p
    while m <= 2 * bound * abs(sf[-1]):
        m *= m  # one Newton step doubles the p-adic precision
        xs = [(x - _horner(sf, x, m) * pow(_horner(dsf, x, m), -1, m)) % m for x in xs]
    for a in sorted({_reconstruct(x, m, bound) for x in xs}):
        mult = 0
        while (q := _divide_linear(cur, a.numerator, a.denominator)) is not None:
            cur, mult = q, mult + 1
        if mult:
            roots.append((a, mult))
    return sorted(roots), Poly(cur).monic()


def split_divisor(f):
    """Zero/pole places of f with multiplicities, infinity included.

    Raises NonSplitError when a zero or pole is irrational.
    """
    if f.is_zero():
        raise UndefinedValuationError("divisor of the zero function")
    out = {}
    for poly, sign in ((f.num, 1), (f.den, -1)):
        if poly.degree <= 0:
            continue
        roots, cofactor = rational_roots(poly)
        if cofactor.degree > 0:
            raise NonSplitError(f"{poly!r} has an irrational factor {cofactor!r}")
        for a, m in roots:
            p = Place(f.component, a)
            out[p] = out.get(p, 0) + sign * m
    v_inf = f.den.degree - f.num.degree
    if v_inf:
        p = Place(f.component, INF)
        out[p] = out.get(p, 0) + v_inf
    return {p: m for p, m in out.items() if m}
