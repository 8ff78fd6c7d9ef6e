"""Local symbols on the projective line, for the two building-block groups.

The multiplicative symbol (tame symbol) of psi and f at p is
(-1)^(mn) psi^m / f^n evaluated at p, with m the valuation of f and n
the valuation of psi there; the additive symbol is Res_p(psi df/f).
Both satisfy the value, bilinearity, congruence, and reciprocity laws,
and the sum/product of the local symbols over every place of the line
vanishes identically.

A modulus check has two halves: a proved-sufficient local criterion
(any multiplicity for the tame symbol, pole order + 1 for the residue
symbol) and a randomized exactness certificate which pairs psi against
seeded random functions congruent to 1 along the modulus.  The
certificate evaluates psi(div f) through the local symbols at the bad
places, which keeps everything exact even when f itself has irrational
zeros; minimality of a modulus is never claimed.
"""

from fractions import Fraction
import random

from .arith import format_rat
from .errors import InputError, NonSplitError
from .funcfield import (
    INF,
    Place,
    Poly,
    RatFunc,
    dlog,
    expand_at,
    leading_coefficient,
    rational_roots,
    split_divisor,
    val_at,
)


class SymbolValue:
    """Tagged value of a local symbol; multiplicative values are nonzero."""

    __slots__ = ("tag", "value")

    def __init__(self, tag, value):
        tag = str(tag).lower()
        if tag not in ("gm", "ga"):
            raise InputError(f"unknown symbol tag {tag!r}")
        value = Fraction(value)
        if tag == "gm" and value == 0:
            raise ValueError("multiplicative symbol value cannot be zero")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *args):
        raise AttributeError("SymbolValue is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SymbolValue)
            and self.tag == other.tag
            and self.value == other.value
        )

    def __repr__(self):
        return f"SymbolValue({self.tag}, {format_rat(self.value)})"


class Modulus:
    """Effective divisor with multiplicities >= 1 (possibly empty)."""

    __slots__ = ("support",)

    def __init__(self, support=()):
        data = {}
        items = support.items() if isinstance(support, dict) else support
        for place, n in items:
            n = int(n)
            if n < 1:
                raise InputError("modulus multiplicities must be >= 1")
            data[place] = n
        object.__setattr__(self, "support", data)

    def __setattr__(self, *args):
        raise AttributeError("Modulus is immutable")

    def places(self):
        return sorted(self.support, key=Place.sort_key)

    def multiplicity(self, place):
        return self.support.get(place, 0)

    def __repr__(self):
        if not self.support:
            return "Modulus(0)"
        return "Modulus(" + " + ".join(f"{n}[{p!r}]" for p, n in sorted(self.support.items(), key=lambda kv: kv[0].sort_key())) + ")"


def tame_symbol(psi, f, p):
    """Multiplicative local symbol at p, always a nonzero rational.

    The combination psi^m / f^n has valuation zero at p, so its value is
    the ratio of leading Laurent coefficients.
    """
    m = val_at(f, p)
    n = val_at(psi, p)
    sign = -1 if (m * n) % 2 else 1
    value = leading_coefficient(psi, p) ** m / leading_coefficient(f, p) ** n
    return sign * value


def residue_symbol(psi, f, p):
    """Additive local symbol Res_p(psi df/f)."""
    if psi.is_zero():
        return Fraction(0)
    v = val_at(psi, p)
    k = max(0, -v)
    return expand_at(psi, p, k + 1).product_coefficient(dlog(f, p, k + 1), -1)


def _pole_places(f):
    """Rational poles of f, infinity included; the denominator must split."""
    out = []
    if f.den.degree > 0:
        roots, cofactor = rational_roots(f.den)
        if cofactor.degree > 0:
            raise NonSplitError(f"denominator has an irrational factor {cofactor!r}")
        out = [Place(f.component, a) for a, _ in roots]
    if f.den.degree - f.num.degree < 0:
        out.append(Place(f.component, INF))
    return sorted(set(out), key=Place.sort_key)


def reciprocity_check(psi, f, tag):
    """Local symbols at every relevant place, plus the global aggregate.

    Both functions must have rational zeros and poles.  The place list
    is the union of their supports together with infinity; the aggregate
    (a product for gm, a sum for ga) is checked to be the identity.
    """
    if psi.component != f.component:
        raise InputError("functions live on different components")
    if psi.is_zero() or f.is_zero():
        raise InputError("local symbols need nonzero functions")
    tag = str(tag).lower()
    places = set(split_divisor(psi)) | set(split_divisor(f))
    places.add(Place(psi.component, INF))
    values = {}
    if tag == "gm":
        aggregate = Fraction(1)
        for p in sorted(places, key=Place.sort_key):
            values[p] = tame_symbol(psi, f, p)
            aggregate *= values[p]
        expected = Fraction(1)
    elif tag == "ga":
        aggregate = Fraction(0)
        for p in sorted(places, key=Place.sort_key):
            values[p] = residue_symbol(psi, f, p)
            aggregate += values[p]
        expected = Fraction(0)
    else:
        raise InputError(f"unknown symbol tag {tag!r}")
    if aggregate != expected:
        raise ArithmeticError(
            f"reciprocity violated for tag {tag}: aggregate {aggregate}"
        )
    return values, aggregate


def random_congruent_function(modulus, rng, component="C0", degree=3, height=5):
    """Seeded random f with f congruent to 1 along the modulus.

    Built as 1 + g * prod (t-s)^(n_s) for a random small-height
    polynomial g; when infinity carries multiplicity the product is
    divided down by a power of a fresh linear factor so the congruence
    holds there too.
    """
    coeffs = [Fraction(rng.randint(-height, height)) for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = Fraction(rng.randint(1, height))
    g = Poly(coeffs)
    finite = Poly.const(1)
    n_inf = 0
    taken = set()
    for p in modulus.places():
        if p.is_infinite():
            n_inf = modulus.multiplicity(p)
            continue
        taken.add(p.coordinate)
        finite = finite * Poly.linear(p.coordinate) ** modulus.multiplicity(p)
    num = g * finite
    if n_inf:
        b = Fraction(rng.randint(height + 1, 3 * height + 10))
        while b in taken:
            b += 1
        den = Poly.linear(b) ** (num.degree + n_inf)
        return RatFunc(num, den, component) + 1
    return RatFunc(num, None, component) + 1


def symbol_sum_over_divisor(psi, f, tag):
    """psi evaluated on div(f), computed through the bad-place symbols.

    Reciprocity turns the sum over the (possibly irrational) support of
    div(f) into a finite exact computation at the rational bad places of
    psi: poles for the additive symbol, zeros and poles for the
    multiplicative one.  Galois orbits enter through their traces and
    norms, which is exactly what a group-valued map does to conjugate
    points.
    """
    tag = str(tag).lower()
    if tag == "ga":
        total = Fraction(0)
        for s in _pole_places(psi):
            total -= residue_symbol(psi, f, s)
        return total
    if tag == "gm":
        total = Fraction(1)
        for s in sorted(split_divisor(psi), key=Place.sort_key):
            total /= tame_symbol(psi, f, s)
        return total
    raise InputError(f"unknown symbol tag {tag!r}")


def is_modulus(psi, modulus, tag, trials=20, rng=None):
    """Does the modulus kill psi on divisors of congruent-to-1 functions?

    Combines the sufficient local criterion with a randomized exactness
    certificate over seeded trials.  The result never asserts
    minimality.  Raises if psi is singular away from the support.
    """
    tag = str(tag).lower()
    rng = rng if rng is not None else random.Random(0)
    if psi.is_zero():
        raise InputError("psi must be nonzero")
    if tag == "gm":
        bad = sorted(split_divisor(psi), key=Place.sort_key)
    elif tag == "ga":
        bad = _pole_places(psi)
    else:
        raise InputError(f"unknown symbol tag {tag!r}")
    for s in bad:
        if tag == "ga" and val_at(psi, s) >= 0:
            continue
        if modulus.multiplicity(s) == 0:
            raise InputError(f"psi is singular at {s!r}, outside the modulus support")

    criterion = True
    if tag == "ga":
        for s in modulus.places():
            pole = max(0, -val_at(psi, s))
            if modulus.multiplicity(s) < pole + 1:
                criterion = False
                break
    # for gm any multiplicity >= 1 suffices, which the Modulus type enforces

    certificate = True
    identity = Fraction(1) if tag == "gm" else Fraction(0)
    for _ in range(trials):
        f = random_congruent_function(modulus, rng, component=psi.component)
        if symbol_sum_over_divisor(psi, f, tag) != identity:
            certificate = False
            break
    return criterion and certificate
