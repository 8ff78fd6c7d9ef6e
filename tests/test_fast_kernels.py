"""Differential tests: funcfield's integer kernels against the dense references.

The references in oracles.py are the plain Fraction algorithms; the
rational roots are compared with sympy.  Every case is seeded.
"""

from fractions import Fraction as F
import math
import random

import pytest
import sympy

from albx.errors import InsufficientTruncationError
from albx.funcfield import (
    INF,
    LaurentSeries,
    Place,
    Poly,
    RatFunc,
    dlog,
    expand_at,
    rational_roots,
    val_at,
)
from albx.symbols import residue_symbol
from oracles import (
    multiplicity_reference,
    poly_mul_reference,
    product_coefficient_reference,
    series_inverse_reference,
    shifted_coefficients_reference,
)

CASES = 1000
P0 = Place("C0", 0)


def _rational(rng):
    """Often zero, with small, mixed and 64-bit denominators."""
    kind = rng.random()
    if kind < 0.25:
        return F(0)
    if kind < 0.6:
        return F(rng.randint(-9, 9))
    if kind < 0.9:
        return F(rng.randint(-99, 99), rng.randint(1, 30))
    return F(rng.randint(-(2**64), 2**64), rng.randint(1, 2**64))


def _poly(rng, max_degree):
    return Poly([_rational(rng) for _ in range(rng.randint(0, max_degree + 1))])


def _point(rng):
    if rng.random() < 0.3:
        return F(rng.randint(-(2**40), 2**40), rng.randint(1, 2**40))
    return F(rng.randint(-20, 20), rng.randint(1, 12))


def _series(rng):
    """Series at 0, sometimes zero through truncation, sometimes with a pole."""
    trunc = rng.randint(-4, 10)
    lo = rng.randint(trunc - 8, trunc + 1)
    return LaurentSeries(P0, trunc, {e: _rational(rng) for e in range(lo, trunc + 1)})


def test_poly_product_matches_reference():
    rng = random.Random(1)
    for _ in range(CASES):
        a, b = _poly(rng, 12), _poly(rng, 12)
        assert a * b == poly_mul_reference(a, b)


def test_poly_power_matches_reference():
    rng = random.Random(8)
    for _ in range(CASES):
        # low zero coefficients make p = t^v g with g(0) != 0
        p, k = _poly(rng, 3) * Poly([0, 1]) ** rng.randint(0, 2), rng.randint(0, 9)
        expected = Poly.const(1)
        for _ in range(k):
            expected = poly_mul_reference(expected, p)
        assert p**k == expected
    for _ in range(20):
        a, k = _point(rng), rng.randint(100, 300)
        binomial = [math.comb(k, i) * (-a) ** (k - i) for i in range(k + 1)]
        assert Poly.linear(a) ** k == Poly(binomial)


def test_multiplicity_matches_reference():
    rng = random.Random(2)
    high = 0
    for _ in range(CASES):
        a = _point(rng)
        e = rng.choice([0, 1, 2, 3, rng.randint(4, 30)])
        high += e >= 4
        cofactor = _poly(rng, 6)
        if cofactor.is_zero():
            cofactor = Poly.const(_point(rng) or 1)
        p = Poly.linear(a) ** e * cofactor
        for x in (a, _point(rng)):
            assert p.multiplicity_at(x) == multiplicity_reference(p, x)
    assert high > 100


def test_shifted_coefficients_match_reference():
    rng = random.Random(3)
    for _ in range(CASES):
        p, a = _poly(rng, 12), _point(rng)
        upto = rng.randint(0, max(p.degree, 0) + 3)
        assert p.shifted_coefficients(a, upto) == shifted_coefficients_reference(p, a, upto)


def test_series_inverse_matches_reference():
    rng = random.Random(4)
    inverted = 0
    for _ in range(CASES):
        s = _series(rng)
        if s.is_zero():
            with pytest.raises(ZeroDivisionError):
                s.inverse()
            continue
        inverted += 1
        # equality covers the truncation order as well as the coefficients
        assert s.inverse() == series_inverse_reference(s)
    assert inverted > 800


def test_product_coefficient_matches_reference():
    rng = random.Random(5)
    raised = 0
    for _ in range(CASES):
        x, y, e = _series(rng), _series(rng), rng.randint(-10, 12)
        try:
            expected = product_coefficient_reference(x, y, e)
        except InsufficientTruncationError:
            raised += 1
            with pytest.raises(InsufficientTruncationError):
                x.product_coefficient(y, e)
        else:
            assert x.product_coefficient(y, e) == expected
    assert 100 < raised < 900


def test_residue_symbol_matches_full_product():
    rng = random.Random(6)
    for _ in range(200):
        num, den = _poly(rng, 5), _poly(rng, 4)
        if num.is_zero() or den.is_zero():
            continue
        psi = RatFunc(num, den)
        zero, pole = Poly.linear(_point(rng)), Poly.linear(_point(rng))
        f = RatFunc(zero ** rng.randint(1, 3) * rng.randint(1, 5), pole)
        p = Place("C0", rng.choice([INF, _point(rng), F(0)]))
        k = max(0, -val_at(psi, p))
        expected = (expand_at(psi, p, k + 1) * dlog(f, p, k + 1)).residue()
        assert residue_symbol(psi, f, p) == expected


def _eisenstein(rng):
    """Integer polynomial of degree 2-4, irreducible by Eisenstein at 2."""
    degree = rng.randint(2, 4)
    coeffs = [2 * rng.randint(-50, 50) for _ in range(degree - 1)]
    return Poly([2 * (2 * rng.randint(-50, 50) + 1), *coeffs, 2 * rng.randint(-50, 50) + 1])


def test_rational_roots_match_sympy():
    rng = random.Random(7)
    t = sympy.symbols("t")
    for _ in range(500):
        poly = _eisenstein(rng) if rng.random() < 0.9 else Poly.const(rng.randint(1, 9))
        for _ in range(rng.randint(1, 3)):
            bits = rng.randint(8, 64)
            p = rng.choice([-1, 1]) * rng.randint(2 ** (bits - 1), 2**bits - 1)
            q = rng.randint(1, 2 ** rng.randint(1, bits))
            poly = poly * Poly([-p, q]) ** rng.randint(1, 4)
        if rng.random() < 0.1:
            poly = poly * Poly([0, 1]) ** rng.randint(1, 3)
        roots, cofactor = rational_roots(poly)
        coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)]
        oracle = sympy.Poly(coeffs, t)
        expected = sorted((F(int(r.p), int(r.q)), m) for r, m in oracle.ground_roots().items())
        assert roots == expected
        rebuilt = cofactor
        for r, m in roots:
            rebuilt = rebuilt * Poly.linear(r) ** m
        assert rebuilt == poly.monic()
