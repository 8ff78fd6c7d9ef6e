"""Local symbols on the projective line, for the two building-block groups.

The multiplicative symbol (tame symbol) of psi and f at p is
(-1)^(mn) psi^m / f^n evaluated at p, with m the valuation of f and n
the valuation of psi there.  Since psi^m / f^n is a unit at p, its value
is a ratio of powers of leading coefficients, so tame_symbol reads one
leading_term per function and expands no series.  The additive symbol
is Res_p(psi df/f), one coefficient of the product of psi's expansion
with dlog f.  Both are exact rationals.  Over all places of the line
their product (multiplicative) or sum (additive) is the identity;
reciprocity_check reports the table and its aggregate, and its caller
judges the law, which symbol_law holds for each tag.

A modulus kills psi when psi(div f) is the identity for every f
congruent to 1 along it.  Serre's local criterion decides this exactly
(Algebraic Groups and Class Fields, ch. III): the tame symbol needs
multiplicity >= 1 at every zero and pole of psi, the residue symbol
multiplicity >= pole order + 1 at every pole.  is_modulus returns that
criterion and never claims the modulus is minimal.
"""

from fractions import Fraction
import operator

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


def symbol_law(tag):
    """(symbol, identity, group operation) of tag gm or ga, in any case.
    The symbol is this module's global as bound at the call, so a
    wrapper installed over it sees every call."""
    tag = str(tag).lower()
    if tag == "gm":
        return tame_symbol, Fraction(1), operator.mul
    if tag == "ga":
        return residue_symbol, Fraction(0), operator.add
    raise InputError(f"unknown symbol tag {tag!r}")


def reciprocity_check(psi, f, tag):
    """Local symbols at every relevant place, plus the global aggregate.

    Both functions must have rational zeros and poles.  The place list
    is the union of their supports together with infinity, in order; the
    aggregate (a product for gm, a sum for ga) is returned, not judged.
    """
    if psi.component != f.component:
        raise InputError("functions live on different components")
    if psi.is_zero() or f.is_zero():
        raise InputError("local symbols need nonzero functions")
    places = set(split_divisor(psi)) | set(split_divisor(f))
    places.add(Place(psi.component, INF))
    symbol, aggregate, combine = symbol_law(tag)
    values = {}
    for p in sorted(places, key=Place.sort_key):
        values[p] = symbol(psi, f, p)
        aggregate = combine(aggregate, values[p])
    return values, aggregate


def is_modulus(psi, modulus, tag):
    """Does the modulus kill psi on the divisors of functions congruent to 1?

    modulus is a list of (Place, n) pairs, possibly empty, validated like
    curve_from_modulus's.  Serre's local criterion, which is necessary
    and sufficient.  Raises if psi is singular away from the support.
    """
    multiplicity = modulus_multiplicities(modulus)
    if psi.is_zero():
        raise InputError("psi must be nonzero")
    symbol_law(tag)  # raises on an unknown tag
    tame = str(tag).lower() == "gm"
    bad = sorted(split_divisor(psi), key=Place.sort_key) if tame else _pole_places(psi)
    for s in bad:
        if s not in multiplicity:
            raise InputError(f"psi is singular at {s!r}, outside the modulus support")
    # any multiplicity >= 1 kills the tame symbol, the residue symbol needs pole order + 1
    return tame or all(multiplicity[s] > -leading_term(psi, s)[0] for s in bad)
