"""Local symbols on the projective line, for the two building-block groups.

The multiplicative symbol (tame symbol) of psi and f at p is
(-1)^(mn) psi^m / f^n evaluated at p, with m the valuation of f and n
the valuation of psi there.  Since psi^m / f^n is a unit at p, its value
is a ratio of powers of leading coefficients, so tame_symbol reads one
leading_term per function and expands no series.  The additive symbol
is Res_p(psi df/f), one coefficient of the product of psi's expansion
with dlog f.  Both are exact rationals.  Over all places of the line
their product (multiplicative) or sum (additive) is the identity, and
reciprocity_check raises when a table breaks that law.

A modulus kills psi when psi(div f) is the identity for every f
congruent to 1 along it.  Serre's local criterion decides this exactly
(Algebraic Groups and Class Fields, ch. III): the tame symbol needs
multiplicity >= 1 at every zero and pole of psi, the residue symbol
multiplicity >= pole order + 1 at every pole.  is_modulus returns that
criterion and never claims the modulus is minimal.
"""

from fractions import Fraction

from .curve import modulus_multiplicities
from .errors import InputError, NonSplitError
from .funcfield import (
    INF,
    Place,
    dlog,
    expand_at,
    leading_term,
    rational_roots,
    split_divisor,
)


def tame_symbol(psi, f, p):
    """Multiplicative local symbol at p, always a nonzero rational.

    The combination psi^m / f^n has valuation zero at p, so its value is
    the ratio of leading Laurent coefficients; leading_term gives each
    function's valuation and leading coefficient together.
    """
    m, a = leading_term(f, p)
    n, b = leading_term(psi, p)
    sign = -1 if (m * n) % 2 else 1
    return sign * (b**m / a**n)


def residue_symbol(psi, f, p):
    """Additive local symbol Res_p(psi df/f).

    df/f has at most a simple pole, so the residue reads psi through
    exponent 0 and df/f through exponent -1 - v, v = min(ord_p psi, 0).
    """
    if psi.is_zero():
        return Fraction(0)
    s = expand_at(psi, p, 0)
    return s.product_coefficient(dlog(f, p, -1 - min(s.lead_bound(), 0)), -1)


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


def is_modulus(psi, modulus, tag):
    """Does the modulus kill psi on the divisors of functions congruent to 1?

    modulus is a list of (Place, n) pairs, possibly empty, validated like
    curve_from_modulus's.  Serre's local criterion, which is necessary
    and sufficient.  Raises if psi is singular away from the support.
    """
    multiplicity = modulus_multiplicities(modulus)
    tag = str(tag).lower()
    if psi.is_zero():
        raise InputError("psi must be nonzero")
    if tag == "gm":
        bad = sorted(split_divisor(psi), key=Place.sort_key)
    elif tag == "ga":
        bad = _pole_places(psi)
    else:
        raise InputError(f"unknown symbol tag {tag!r}")
    for s in bad:
        if s not in multiplicity:
            raise InputError(f"psi is singular at {s!r}, outside the modulus support")
    if tag == "gm":
        return True  # any multiplicity >= 1 suffices
    for s in bad:
        pole = -leading_term(psi, s)[0]
        if multiplicity[s] < pole + 1:
            return False
    return True
