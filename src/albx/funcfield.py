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
  * products, powers, multiplicities and Taylor shifts of polynomials
    run on integer numerators over one common denominator, a power by
    J.C.P. Miller's recurrence, and a residue of a product is one
    convolution, not a product,
  * every local fact about a function at a place (valuation, leading
    coefficient, expansion) comes from one local form, _local: at a
    finite point one synthetic-division sweep per polynomial (the one
    that also counts rational roots) and a Taylor shift of the unit
    cofactor only, at infinity the degrees and the coefficients read
    from the top, then one division of unit series over the
    denominator's nonzero terms; expand_at and leading_term read it,
  * RatFunc runs Euclid only on a quotient of two polynomials of
    positive degree; constants, scalar multiples and integer powers of
    a reduced ratio are reduced already,
  * rational roots are found p-adically (Hensel lifting and rational
    reconstruction), so no integer is ever factored; the squarefree
    part they start from and from_factors' products run in integers,
  * a function built by from_factors is held as (scale, roots,
    exponents) and nothing else: its numerator and denominator are
    multiplied out on each read and not kept, and dense() gives the
    multiplied-out function for a caller that reads them repeatedly;
    is_zero, split_divisor (infinity included) and _local read the
    factors, so valuations, values and jets of a sampled unit need no
    dense polynomial.  A parsed or computed function is dense and goes
    through rational_roots.
"""

import enum
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
from .frozen import Frozen


class _Infinity(enum.Enum):
    """The coordinate of the place at infinity, the same after any copy."""

    INF = "inf"

    def __repr__(self):
        return "inf"

    __str__ = __repr__  # verify._random_modulus sorts coordinates by str


INF = _Infinity.INF


def parse_coordinate(text):
    text = str(text).strip()
    if text in ("inf", "Inf", "INF", "oo"):
        return INF
    return parse_rat(text)


def format_coordinate(coord):
    return "inf" if coord is INF else format_rat(coord)


class Place(Frozen):
    """A Q-rational point of one projective-line component.  A finite
    place hashes as (component, numerator, denominator), and sort_key
    gives an integral coordinate as an int, so neither runs Fraction's
    pure-Python methods; the order is (component, is infinite, coordinate).
    """

    __slots__ = ("component", "coordinate", "_hash")
    _cached = ("_hash",)  # str hashes are salted per process

    def __init__(self, component, coordinate):
        component = str(component)
        if coordinate is INF:
            key = component, INF
        else:
            if type(coordinate) is not Fraction:
                coordinate = Fraction(coordinate)  # a Fraction is kept, not copied
            key = component, coordinate.numerator, coordinate.denominator
        object.__setattr__(self, "component", component)
        object.__setattr__(self, "coordinate", coordinate)
        object.__setattr__(self, "_hash", hash(key))

    def is_infinite(self):
        return self.coordinate is INF

    def sort_key(self):
        a = self.coordinate
        if a is INF:
            return (self.component, 1, 0)
        return (self.component, 0, a.numerator if a.denominator == 1 else a)

    def __eq__(self, other):
        return (
            isinstance(other, Place)
            and self.component == other.component
            and self.coordinate == other.coordinate
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:  # a copied or unpickled place
            object.__setattr__(self, "_hash", Place(self.component, self.coordinate)._hash)
            return self._hash

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


class Poly(Frozen):
    """Dense polynomial over Q; the zero polynomial has no coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def __pow__(self, n):
        """self^n by J.C.P. Miller's recurrence (Knuth, TAOCP 2, 4.7).

        With self = t^v b(t) / d, b integral and b_0 != 0, the coefficients
        of c = b^n satisfy k b_0 c_k = sum_j (j (n + 1) - k) b_j c_(k-j),
        and the division is exact, so each c_k costs deg b integer steps.
        """
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if self.is_zero():
            return Poly.const(1) if n == 0 else Poly()
        a, d = common_denominator(self.coeffs)
        v = next(i for i, x in enumerate(a) if x)
        b0, tail = a[v], [(j, x) for j, x in enumerate(a[v + 1 :], 1) if x]
        c = [b0**n]
        for k in range(1, n * (len(a) - 1 - v) + 1):
            s = sum((j * (n + 1) - k) * x * c[k - j] for j, x in tail if j <= k)
            c.append(s // (k * b0))
        dn = d**n
        return Poly([0] * (v * n) + [Fraction(x, dn) for x in c])

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
        return _primitive(common_denominator(self.coeffs)[0])

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


def _strip_linear(ints, r, q):
    """(m, b) with ints = (q t - r)^m b, b integral and not divisible by q t - r.

    ints is a nonzero integer polynomial and r, q are coprime, so each exact
    quotient is integral (Gauss's lemma): every synthetic division runs in
    integers and stops at its first inexact step.
    """
    m = 0
    while len(ints) > 1:
        out, s = [], 0
        for c in reversed(ints[1:]):
            s, rem = divmod(c + r * s, q)
            if rem:
                return m, ints
            out.append(s)
        if ints[0] + r * s:
            return m, ints
        ints, m = out[::-1], m + 1
    return m, ints


def _multiply_out(scale, roots, exponents):
    """Dense (num, den) of scale * prod (t - a)^e, den monic.

    With a = r/q the numerator and the denominator are integer products
    of (q t - r)^|e|, one linear pass per unit of |e|; each is made
    monic, by its leading coefficient prod q^|e|, in one Fraction per
    coefficient at the end.
    """
    num, den = [1], [1]
    for a, e in zip(roots, exponents):
        r, q = a.numerator, a.denominator
        for _ in range(e):
            num = [q * x - r * y for x, y in zip([0, *num], [*num, 0])]
        for _ in range(-e):
            den = [q * x - r * y for x, y in zip([0, *den], [*den, 0])]
    n, d = scale.numerator, scale.denominator * num[-1]
    return Poly([Fraction(c * n, d) for c in num]), Poly([Fraction(c, den[-1]) for c in den])


class RatFunc(Frozen):
    """Reduced ratio of polynomials on a named component, denominator monic.

    The constructor runs Euclid only when numerator and denominator both
    have positive degree; otherwise nothing can cancel.  Scalar products
    and quotients and integer powers of a reduced ratio are reduced
    already and skip the constructor.  factors is None, except on a
    function built by from_factors: there it is (scale, roots, exponents),
    the finite zeros and poles with their nonzero orders, the num and den
    slots stay unset, and each read of num or den multiplies them out
    (__getattr__); dlog_ratfunc, __eq__, __hash__ and __repr__, which
    read them repeatedly, take dense() once.
    """

    __slots__ = ("num", "den", "component", "factors")

    def __init__(self, num, den=None, component="C0"):
        num = num if isinstance(num, Poly) else Poly.const(num)
        den = Poly.const(1) if den is None else (den if isinstance(den, Poly) else Poly.const(den))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.degree > 0 and den.degree > 0:
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
        object.__setattr__(self, "factors", None)

    def __getattr__(self, name):
        """num or den of a factored function, multiplied out and not kept;
        every other read of a missing attribute fails as usual.  A dense
        function's num and den are plain slots and never come here."""
        if name not in ("num", "den") or self.factors is None:
            raise AttributeError(name)
        return _multiply_out(*self.factors)[name == "den"]

    def dense(self):
        """The same function held as its num and den: self when dense, a
        new dense function when factored."""
        if self.factors is None:
            return self
        return RatFunc._raw(*_multiply_out(*self.factors), self.component)

    @classmethod
    def _raw(cls, num, den, component):
        """Skip gcd reduction; caller guarantees num, den coprime, den monic."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "num", num)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "component", str(component))
        object.__setattr__(obj, "factors", None)
        return obj

    @classmethod
    def constant(cls, c, component="C0"):
        return cls(Poly.const(c), None, component)

    @classmethod
    def variable(cls, component="C0"):
        return cls(Poly([0, 1]), None, component)

    @classmethod
    def from_factors(cls, factors, scale=1, component="C0"):
        """scale * prod (t - a)^e from (a, e) pairs with distinct a, held
        factored: the roots with nonzero e, the caller's Fraction objects
        themselves, and their exponents.  Nothing is multiplied out here."""
        seen, roots, exponents = set(), [], []
        for a, e in factors:
            if type(a) is not Fraction:
                a = Fraction(a)
            key = a.numerator, a.denominator  # hashed faster than the Fraction
            if key in seen:
                raise ValueError("repeated root in from_factors")
            seen.add(key)
            if e:
                roots.append(a)
                exponents.append(e)
        obj = object.__new__(cls)
        object.__setattr__(obj, "component", str(component))
        object.__setattr__(obj, "factors", (Fraction(scale), tuple(roots), tuple(exponents)))
        return obj

    def is_zero(self):
        if self.factors is not None:
            return not self.factors[0]
        return self.num.is_zero()

    def _check(self, other):
        if self.component != other.component:
            raise InputError(
                f"component mismatch: {self.component} vs {other.component}"
            )

    def __eq__(self, other):
        if not isinstance(other, RatFunc) or self.component != other.component:
            return False
        a, b = self.dense(), other.dense()
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        f = self.dense()
        return hash((self.component, f.num, f.den))

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
            return RatFunc._raw(self.num * other, self.den, self.component)
        self._check(other)
        return RatFunc(self.num * other.num, self.den * other.den, self.component)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc._raw(self.num * (1 / Fraction(other)), self.den, self.component)
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num, self.component)

    def __pow__(self, n):
        """Powers of coprime polynomials stay coprime, so no Euclid runs."""
        if n == 0:
            return RatFunc.constant(1, self.component)
        num, den = self.num, self.den
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            lc = num.leading()
            num, den, n = den * (1 / lc), num * (1 / lc), -n
        return RatFunc._raw(num**n, den**n, self.component)

    def derivative(self):
        num = self.num.derivative() * self.den - self.num * self.den.derivative()
        return RatFunc(num, self.den * self.den, self.component)

    def dlog_ratfunc(self):
        """f'/f as a rational function (zero for constants)."""
        if self.is_zero():
            raise UndefinedValuationError("dlog of the zero function")
        self = self.dense()
        return self.derivative() / self

    def __repr__(self):
        self = self.dense()
        if self.den.degree == 0:
            return f"({self.num!r})"
        return f"({self.num!r})/({self.den!r})"


class LaurentSeries(Frozen):
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

    @classmethod
    def monomial(cls, place, exponent, coeff, truncation):
        return cls(place, truncation, {exponent: coeff})

    def recast(self, place, truncation):
        """LaurentSeries(place, truncation, self.coeffs): self when it is that."""
        same = self.truncation == truncation and self.place == place
        return self if same else LaurentSeries(place, truncation, self.coeffs)

    def lead_bound(self):
        """Exponent below which every coefficient is certainly zero."""
        return min(self.coeffs) if self.coeffs else self.truncation + 1

    def coefficient(self, e):
        if e > self.truncation:
            raise InsufficientTruncationError(
                f"coefficient at exponent {e} beyond truncation {self.truncation}"
            )
        return self.coeffs.get(e, Fraction(0))

    def _check(self, other):
        if self.place != other.place:
            raise InputError(f"series at different places: {self.place!r}, {other.place!r}")

    def __add__(self, other):
        self._check(other)
        n = min(self.truncation, other.truncation)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentSeries(self.place, n, out)

    def __neg__(self):
        return LaurentSeries(self.place, self.truncation, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries(self.place, self.truncation, {0: other})
        return self + (-other)

    def _product_truncation(self, other):
        self._check(other)
        return min(self.truncation + other.lead_bound(), other.truncation + self.lead_bound())

    def __mul__(self, other):
        n = self._product_truncation(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= n:
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentSeries(self.place, n, out)

    def product_coefficient(self, other, e):
        """Coefficient at exponent e of self * other, as one convolution."""
        n = self._product_truncation(other)
        if e > n:
            raise InsufficientTruncationError(
                f"coefficient at exponent {e} beyond truncation {n}"
            )
        b = other.coeffs
        return sum((c * b[e - k] for k, c in self.coeffs.items() if e - k in b), Fraction(0))

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
    return series.coefficient(-1)


def _unit_series(m, b, d, r, q, k):
    """Coefficients of u^0 .. u^min(k, deg b) of q^m b(a + u) / d at a = r/q, b integral.

    With n = deg b, h(x) = q^n b(x/q) is integral and q^n b(a + u) =
    h(r + q u).  For k = 0 that is h(r), one homogeneous Horner sum;
    otherwise pass j of the Taylor shift of h by r fixes its coefficient
    j, so only k + 1 passes run.
    """
    n = len(b) - 1
    if k == 0:
        acc, qn = b[-1], 1
        for c in reversed(b[:-1]):
            qn *= q
            acc = acc * r + c * qn
        return [Fraction(acc * q**m, d * qn)]
    h, qi = list(b), 1
    for i in range(n, -1, -1):
        h[i] *= qi
        qi *= q
    for j in range(min(k + 1, n)):
        for i in range(n - 1, j - 1, -1):
            h[i] += r * h[i + 1]
    out, qj, dq = [], q**m, d * q**n
    for x in h[: k + 1]:
        out.append(Fraction(x * qj, dq))
        qj *= q
    return out


def _factored_local(scale, roots, exponents, a, n):
    """_local of scale * prod (t - b)^e, read off the factors in integers.

    In the local coordinate u at a finite a, t - a is u and every other
    t - b is (a - b)(1 + w u) with w = 1/(a - b); at infinity every t - b
    is u^(-1) (1 + w u) with w = -b.  So v is a's exponent (-sum e at
    infinity), c_0 is scale prod (a - b)^e over b != a (scale at
    infinity), and with the w over one common denominator W, w = m / W,
    prod (1 + m x)^e = sum d_k x^k has integer coefficients and c_k =
    c_0 d_k / W^k.  Newton's identity gives them from the power sums
    P_i = sum e m^i: k d_k = sum_(i<=k) (-1)^(i+1) P_i d_(k-i), exactly.
    When only the value is asked for (n None), the (a - b, e) pairs that
    the jets need are not kept.
    """
    if a is INF:
        v, c0 = -sum(exponents), scale
    else:
        r, q = a.numerator, a.denominator
        v, top, bottom, others = 0, scale.numerator, scale.denominator, []
        for (bn, bd), e in zip(map(Fraction.as_integer_ratio, roots), exponents):
            x, y = r * bd - bn * q, q * bd  # a - b = x / y
            if not x:
                v = e
                continue
            if e > 0:
                top, bottom = top * x**e, bottom * y**e
            else:
                top, bottom = top * y**-e, bottom * x**-e
            if n is not None:
                others.append((x, y, e))
        c0 = Fraction(top, bottom)
    k = 0 if n is None else max(n - v, 0)
    if k == 0:
        return v, [c0]
    if a is INF:
        ws, es = [-b for b in roots], exponents
    else:
        ws, es = [Fraction(y, x) for x, y, _ in others], [e for _, _, e in others]
    ms, w = common_denominator(ws)
    sums = [sum(e * m**i for e, m in zip(es, ms)) for i in range(1, k + 1)]  # P_1 .. P_k
    d, c, wj = [1], [c0], 1
    for j in range(1, k + 1):
        d.append(sum((-1) ** i * sums[i] * d[j - 1 - i] for i in range(j)) // j)
        wj *= w
        c.append(c0 * Fraction(d[j], wj))
    return v, c


def _local(f, p, n=None):
    """(v, [c_0, ..., c_k]) with f = u^v (c_0 + c_1 u + ... + c_k u^k + O(u^(k+1)))
    in the local coordinate u at p and c_0 != 0, where k = n - v reaches
    exponent n (k = 0 when n is None or below v).

    Each polynomial is read once.  At infinity, u = 1/t, a polynomial of
    degree m is u^(-m) times its coefficients from the top.  At a = r/q a
    polynomial I/d, I integral, is swept once by _strip_linear into
    I = (q t - r)^m b = (q u)^m b(a + u) with b(a) != 0, and only b is
    expanded (_unit_series).  The unit part of f is one division of the
    numerator's unit series by the denominator's, over the denominator's
    nonzero terms.  A factored function is read off its factors instead
    (_factored_local).
    """
    if f.is_zero():
        raise UndefinedValuationError("valuation of the zero function")
    if p.component != f.component:
        raise InputError(f"place {p!r} not on component {f.component}")
    a = p.coordinate
    if f.factors is not None:
        return _factored_local(*f.factors, a, n)
    if a is INF:
        v = f.den.degree - f.num.degree
        k = 0 if n is None else max(n - v, 0)
        num = f.num.coeffs[: -k - 2 : -1]
        den = f.den.coeffs[: -k - 2 : -1]
    else:
        r, q = a.numerator, a.denominator
        ints, dn = common_denominator(f.num.coeffs)
        vn, bn = _strip_linear(ints, r, q)
        ints, dd = common_denominator(f.den.coeffs)
        vd, bd = _strip_linear(ints, r, q)
        v = vn - vd
        k = 0 if n is None else max(n - v, 0)
        num = _unit_series(vn, bn, dn, r, q, k)
        den = _unit_series(vd, bd, dd, r, q, k)
    if k == 0:
        return v, [num[0] / den[0]]
    tail = [(i, y) for i, y in enumerate(den[1:], 1) if y]
    c = []
    for j in range(k + 1):
        x = num[j] if j < len(num) else 0
        for i, y in tail:
            if i > j:
                break
            x -= y * c[j - i]
        c.append(x / den[0])
    return v, c


def expand_at(f, p, n):
    """Laurent expansion of f at p, exact through exponent n."""
    v, c = _local(f, p, n)
    return LaurentSeries(p, n, {v + j: x for j, x in enumerate(c)})


def leading_term(f, p):
    """(v, c) with f = c u^v + O(u^(v + 1)) in the local coordinate u at p, c != 0."""
    v, (c,) = _local(f, p)
    return v, c


def dlog(f, p, n):
    """Series g with df/f = g du in the local coordinate u at p.

    At infinity the chain rule for u = 1/t, dt = -u^(-2) du, is already
    folded in, so residue(dlog(f, p, n)) is the valuation of f at p at
    every place.
    """
    if f.is_zero():
        raise UndefinedValuationError("dlog of the zero function")
    g = f.dlog_ratfunc()
    if g.is_zero():
        return LaurentSeries(p, n)
    if p.is_infinite():
        v, c = _local(g, p, n + 2)
        return LaurentSeries(p, n, {v + j - 2: -x for j, x in enumerate(c)})
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


def _pseudo_divide(a, b):
    """(q, r) with s a = q b + r in Z[t], deg r < deg b, for an integer s > 0; lc(b) > 0.

    Each step scales by lc(b) / gcd(lc(b), top) only, so s = 1, and q is
    a / b, when b is primitive and divides a (q is integral by Gauss's lemma).
    """
    a, lb, n, q = list(a), b[-1], len(b) - 1, []
    while len(a) > n:
        c = a.pop()
        g = math.gcd(c, lb)
        if g != lb:
            a, q = [lb // g * x for x in a], [lb // g * x for x in q]
        c //= g
        for i, y in enumerate(b[:-1], len(a) - n):
            a[i] -= c * y
        q.append(c)
    while a and not a[-1]:
        a.pop()
    return q[::-1], a


def _primitive(ints):
    """ints over its content, top entry positive."""
    g = math.gcd(*ints)
    return [x // g for x in ints] if ints and ints[-1] > 0 else [-x // g for x in ints]


def _squarefree_part(ints):
    """Primitive squarefree part of a primitive integer polynomial, lc > 0.

    gcd(f, f') comes from the primitive polynomial remainder sequence
    (Knuth, TAOCP 2, 4.6.1, Algorithm E), all in integers; f is then
    divided by it exactly.
    """
    a, b = ints, _primitive([i * c for i, c in enumerate(ints)][1:])
    while len(b) > 1:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    return ints if b else _pseudo_divide(ints, a)[0]


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
    found p-adically, without factoring any integer.  The primitive
    squarefree part s, f over gcd(f, f') from an integer remainder
    sequence (_squarefree_part, no Fraction arithmetic), stays
    squarefree modulo the smallest prime p that divides neither its
    leading coefficient nor its discriminant.  Every
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
    sf = _squarefree_part(cur)
    p = next(q for q in itertools.count(2) if is_probable_prime(q) and _squarefree_mod(sf, q))
    xs = [x for x in range(p) if _horner(sf, x, p) == 0]
    dsf = [i * c for i, c in enumerate(sf)][1:]
    bound, m = abs(sf[0]), p
    while m <= 2 * bound * abs(sf[-1]):
        m *= m  # one Newton step doubles the p-adic precision
        xs = [(x - _horner(sf, x, m) * pow(_horner(dsf, x, m), -1, m)) % m for x in xs]
    for a in sorted({_reconstruct(x, m, bound) for x in xs}):
        mult, cur = _strip_linear(cur, a.numerator, a.denominator)
        if mult:
            roots.append((a, mult))
    return sorted(roots), Poly(cur).monic()


def split_divisor(f):
    """Zero/pole places of f with multiplicities, infinity included.

    A factored function's divisor is read off its factors, infinity
    included; a dense one's finite part is found by rational_roots.
    Raises NonSplitError when a zero or pole is irrational.
    """
    if f.is_zero():
        raise UndefinedValuationError("divisor of the zero function")
    if f.factors is not None:
        _, roots, exponents = f.factors
        out = {Place(f.component, a): e for a, e in zip(roots, exponents)}
        v_inf = -sum(exponents)
    else:
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
