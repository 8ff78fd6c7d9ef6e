"""Differential tests: funcfield's integer kernels, the local form read
off a factored function, and chow's unit certificate against the dense
references.

The references in oracles.py are the plain Fraction algorithms; the
rational roots are compared with sympy, a kept divisor with the root
finder's.  Every case is seeded.
"""

from collections import Counter
from fractions import Fraction as F
import math
import random

import pytest
import sympy

from albx import fixtures
from albx.chow import certify_cartier
from albx.errors import InsufficientTruncationError, NotCartierError, UndefinedValuationError
from albx.funcfield import (
    INF,
    LaurentSeries,
    Place,
    Poly,
    RatFunc,
    _local,
    _squarefree_part,
    expand_at,
    leading_term,
    rational_roots,
    residue,
    split_divisor,
)
from albx.symbols import residue_symbol
from oracles import (
    certify_cartier_reference,
    dlog_reference,
    expand_at_reference,
    from_factors_reference,
    leading_term_reference,
    multiplicity_reference,
    poly_mul_reference,
    poly_pow_reference,
    product_coefficient_reference,
    reduced_reference,
    residue_symbol_reference,
    series_inverse_reference,
    shifted_coefficients_reference,
    squarefree_part_reference,
    val_at_reference,
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


def _power_case(rng):
    """(base, n): zero, constants, or degree 1-8 with low zero coefficients.

    Exponents run over 0..300.  Past 40 the base has degree at most 2 and
    height at most 9, and 64-bit heights appear only while n * degree <= 40,
    so the squaring reference stays quick.
    """
    kind = rng.random()
    if kind < 0.25:
        n = rng.choice([0, 1, 2, rng.randint(3, 9)])
    elif kind < 0.9:
        n = rng.randint(3, 40)
    else:
        n = rng.randint(41, 300)
    kind = rng.random()
    if kind < 0.03:
        return Poly(), n
    if kind < 0.12:
        return Poly.const(_rational(rng) or 1), n
    degree = rng.randint(1, 8 if n <= 40 else 2)

    def coeff():
        c = _rational(rng)
        limit = 10 if n > 40 else 2**32
        if n * degree > 40 and max(abs(c.numerator), c.denominator) >= limit:
            return F(rng.randint(-9, 9), rng.randint(1, 5))
        return c

    v = rng.choice([0, 0, 1, rng.randint(1, degree)])
    coeffs = [F(0)] * v + [coeff() for _ in range(v, degree)] + [coeff() or F(1)]
    return Poly(coeffs), n


def test_poly_power_matches_reference():
    rng = random.Random(8)
    seen = {"zero": 0, "constant": 0, "shifted": 0, "64-bit": 0, "n<=2": 0, "n>100": 0}
    for _ in range(CASES):
        p, k = _power_case(rng)
        seen["zero"] += p.is_zero()
        seen["constant"] += p.degree == 0
        seen["shifted"] += p.degree > 0 and p.coeffs[0] == 0
        seen["64-bit"] += any(c.denominator > 2**32 for c in p.coeffs)
        seen["n<=2"] += k <= 2
        seen["n>100"] += k > 100
        assert p**k == poly_pow_reference(p, k)
    assert min(seen.values()) >= 20, seen
    shifted = Poly([0, F(-9, 2**64 + 1), 0, 1])
    for k in (0, 1, 2, 30):
        assert shifted**k == poly_pow_reference(shifted, k)
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
            assert leading_term(RatFunc(p), Place("C0", x))[0] == multiplicity_reference(p, x)
    assert high > 100


def _local_case(rng):
    """f = (t - a)^e g / h, |e| <= 30, at a (half the time), another point or infinity."""
    a = _point(rng)
    e = rng.choice([0, 1, -1, 2, -2, rng.randint(3, 30), -rng.randint(3, 30)])
    g, h = _poly(rng, 4), _poly(rng, 3)
    if g.is_zero():
        g = Poly.const(_rational(rng) or 1)
    if h.is_zero():
        h = Poly.const(1)
    power = Poly.linear(a) ** abs(e)
    f = RatFunc(g * power, h) if e >= 0 else RatFunc(g, h * power)
    return f, Place("C0", rng.choice([a, a, _point(rng), INF]))


def _count_case(seen, f, p, v):
    seen["zero" if v > 0 else "pole" if v < 0 else "unit"] += 1
    seen["inf"] += p.is_infinite()
    seen["|v|>=10"] += abs(v) >= 10
    seen["64-bit"] += any(x.denominator > 2**32 for x in f.num.coeffs + f.den.coeffs)
    seen["40-bit point"] += not p.is_infinite() and p.coordinate.denominator > 2**20


def test_leading_term_matches_reference():
    rng = random.Random(11)
    seen = {"zero": 0, "pole": 0, "unit": 0, "inf": 0, "|v|>=10": 0, "64-bit": 0, "40-bit point": 0}
    for _ in range(CASES):
        f, p = _local_case(rng)
        v, c = leading_term(f, p)
        assert (v, c) == leading_term_reference(f, p)
        _count_case(seen, f, p, v)
    assert min(seen.values()) >= 50, seen


def test_expand_at_matches_old_path():
    """Expansions through n from v - 3 to v + 8, and the residue symbol of each
    function against df/f for a simple f, compared with the old path."""
    rng = random.Random(13)
    seen = {"zero": 0, "pole": 0, "unit": 0, "inf": 0, "|v|>=10": 0, "64-bit": 0, "40-bit point": 0}
    seen["empty"] = seen["residue raised"] = 0
    for _ in range(CASES):
        psi, p = _local_case(rng)
        v = val_at_reference(psi, p)
        n = v + rng.randint(-3, 8)
        expected = expand_at_reference(psi, p, n)
        # equality covers the truncation order as well as the coefficients
        assert expand_at(psi, p, n) == expected
        _count_case(seen, psi, p, v)
        seen["empty"] += n < v
        b = p.coordinate if not p.is_infinite() and rng.random() < 0.5 else _point(rng)
        f = RatFunc(Poly.linear(b) ** rng.randint(1, 3) * rng.randint(1, 5), Poly.linear(b + 1))
        try:
            expected = residue_symbol_reference(psi, f, p)
        except InsufficientTruncationError:
            seen["residue raised"] += 1
            with pytest.raises(InsufficientTruncationError):
                residue_symbol(psi, f, p)
        else:
            assert residue_symbol(psi, f, p) == expected
    # the old path never runs out of truncation, so neither may the new one
    assert seen.pop("residue raised") == 0
    assert min(seen.values()) >= 50, seen


def test_ratfunc_shortcuts_match_euclid():
    """Scalar products and quotients, integer powers and constant numerators
    or denominators skip Euclid; the normal form must not change."""
    rng = random.Random(12)
    seen = {"constant den": 0, "constant num": 0, "power < 0": 0, "power > 0": 0}
    for _ in range(CASES):
        kind = rng.random()
        num = Poly.const(_rational(rng)) if kind < 0.2 else _poly(rng, 4)
        den = Poly.const(_rational(rng) or 1) if kind > 0.7 else _poly(rng, 3)
        if den.is_zero():
            den = Poly.linear(_point(rng))
        seen["constant num"] += num.degree == 0
        seen["constant den"] += den.degree == 0
        f = RatFunc(num, den)
        assert f == reduced_reference(num, den)
        c = _rational(rng)
        assert f * c == c * f == reduced_reference(f.num * c, f.den)
        if c:
            assert f / c == reduced_reference(f.num, f.den * c)
        else:
            with pytest.raises(ZeroDivisionError):
                f / c
        k = rng.randint(-6, 6)
        if f.is_zero() and k < 0:
            with pytest.raises(ZeroDivisionError):
                f**k
            continue
        seen["power < 0"] += k < 0
        seen["power > 0"] += k > 0
        top, bottom = (f.num, f.den) if k >= 0 else (f.den, f.num)
        assert f**k == reduced_reference(top ** abs(k), bottom ** abs(k))
    assert min(seen.values()) >= 100, seen


def test_shifted_coefficients_match_reference():
    rng = random.Random(3)
    for _ in range(CASES):
        p, a = _poly(rng, 12), _point(rng)
        upto = rng.randint(0, max(p.degree, 0) + 3)
        expected = shifted_coefficients_reference(p, a, upto)
        if p.is_zero():
            with pytest.raises(UndefinedValuationError):
                expand_at(RatFunc(p), Place("C0", a), upto)
            continue
        series = expand_at(RatFunc(p), Place("C0", a), upto)
        assert series.coeffs == {e: c for e, c in enumerate(expected) if c}


def test_series_inverse_matches_reference():
    """The unit-series division behind expand_at(1/f) against the Neumann
    series of f's expansion."""
    rng = random.Random(4)
    for _ in range(CASES):
        f, p = _local_case(rng)
        s = expand_at_reference(f, p, val_at_reference(f, p) + rng.randint(0, 8))
        inverse = series_inverse_reference(s)
        # equality covers the truncation order as well as the coefficients
        assert expand_at(RatFunc.constant(1) / f, p, inverse.truncation) == inverse


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
        k = max(0, -val_at_reference(psi, p))
        expected = residue(expand_at_reference(psi, p, k + 1) * dlog_reference(f, p, k + 1))
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


def _unit_root(rng):
    """Mostly an integer, like the sampler's pool points, else r/q with q <= 6."""
    return F(rng.randint(-30, 30) or 1, 1 if rng.random() < 0.7 else rng.randint(2, 6))


def test_squarefree_part_matches_euclid():
    """The integer remainder sequence against Fraction Euclid on polynomials
    shaped like sampled units: 2-30 distinct roots r/q with exponents up to
    12, sometimes a 32-bit root, a repeated Eisenstein factor or a power of t."""
    rng = random.Random(13)
    seen = {"t^k": 0, "eisenstein": 0, "eisenstein^2": 0, "e >= 8": 0, "k >= 20": 0, "32-bit": 0}
    for _ in range(CASES):
        k = rng.randint(2, 30)
        roots = set()
        while len(roots) < k:
            roots.add(_unit_root(rng))
        if rng.random() < 0.1:
            roots.pop()
            roots.add(F(rng.randint(-(2**32), 2**32), rng.randint(1, 2**32)))
            seen["32-bit"] += 1
        poly, degree = Poly.const(1), k
        for a in roots:
            e = rng.randint(1, min(12, 36 // k))
            poly = poly * Poly([-a.numerator, a.denominator]) ** e
            seen["e >= 8"] += e >= 8
        if rng.random() < 0.3:
            e = rng.randint(1, 2)
            eis = _eisenstein(rng)
            poly, degree = poly * eis**e, degree + eis.degree
            seen["eisenstein" if e == 1 else "eisenstein^2"] += 1
        if rng.random() < 0.2:
            poly, degree = poly * Poly([0, 1]) ** rng.randint(1, 3), degree + 1
            seen["t^k"] += 1
        seen["k >= 20"] += k >= 20
        ints = poly.primitive_int()
        sf = _squarefree_part(ints)
        assert sf == squarefree_part_reference(ints)
        assert len(sf) - 1 == degree
    assert min(seen.values()) >= 50, seen


def test_from_factors_matches_products():
    """The lazily multiplied-out numerator and denominator against the eager
    integer products of (q t - r)^e and against Fraction products of powers
    of t - a, bit for bit."""
    rng = random.Random(14)
    seen = {"non-integer root": 0, "e < 0": 0, "e = 0": 0, "scale != 1": 0, "scale = 0": 0}
    for _ in range(CASES):
        k, roots = rng.randint(0, 10), set()
        while len(roots) < k:
            roots.add(_point(rng) if rng.random() < 0.2 else _unit_root(rng))
        factors = [(a, rng.choice([rng.randint(-12, 12), rng.randint(-3, 3)])) for a in roots]
        scale = _rational(rng) if rng.random() < 0.8 else 1
        num, den = Poly.const(scale), Poly.const(1)
        for a, e in factors:
            power = poly_pow_reference(Poly.linear(a), abs(e))
            if e > 0:
                num = poly_mul_reference(num, power)
            else:
                den = poly_mul_reference(den, power)
            seen["non-integer root"] += a.denominator > 1
            seen["e < 0"] += e < 0
            seen["e = 0"] += e == 0
        seen["scale != 1"] += scale != 1
        seen["scale = 0"] += scale == 0
        f = RatFunc.from_factors(factors, scale=scale, component="C1")
        # num and den are multiplied out on each read, as the eager products
        eager = from_factors_reference(factors, scale, "C1")
        assert (f.num, f.den, f.component) == (eager.num, eager.den, "C1")
        assert (f.num, f.den) == (num, den)
        assert all(type(c) is F for c in f.num.coeffs + f.den.coeffs)
        if factors:
            with pytest.raises(ValueError):
                RatFunc.from_factors(factors + [factors[0]])
    assert min(seen.values()) >= 100, seen


def test_kept_divisor_matches_rational_roots():
    """split_divisor off from_factors' kept roots against the same num/den
    through rational_roots; the kept roots are the caller's objects."""
    rng = random.Random(15)
    seen = Counter()
    for _ in range(CASES):
        roots = {F(0)} if rng.random() < 0.2 else set()
        k = rng.randint(0, 6)
        while len(roots) < k:
            roots.add(_point(rng) if rng.random() < 0.2 else _unit_root(rng))
        sign = rng.choice([1, -1, 0, 0])  # a pure numerator, a pure denominator, or mixed
        factors = [(a, sign * rng.randint(0, 4) if sign else rng.randint(-4, 4)) for a in roots]
        scale = (_rational(rng) or 3) if rng.random() < 0.7 else 1
        f = RatFunc.from_factors(factors, scale=scale, component="C1")
        kept = split_divisor(f)
        assert kept == split_divisor(RatFunc._raw(f.num, f.den, f.component))
        nonzero = [(a, e) for a, e in factors if e]
        assert len(f.factors[1]) == len(nonzero)
        assert all(x is a for x, (a, _) in zip(f.factors[1], nonzero))
        assert all(p.coordinate is a for p, (a, _) in zip(kept, nonzero))
        v_inf = kept.get(Place("C1", INF), 0)
        seen["non-integer root"] += any(a.denominator > 1 for a, e in nonzero)
        seen["root 0"] += any(a == 0 for a, e in nonzero)
        seen["e = 0"] += len(nonzero) < len(factors)
        seen["scale != 1"] += scale != 1
        seen["pure numerator"] += f.den.degree == 0 < f.num.degree
        seen["pure denominator"] += f.num.degree == 0 < f.den.degree
        seen["v_inf > 0"] += v_inf > 0
        seen["v_inf < 0"] += v_inf < 0
    assert min(seen.values()) >= 100 and len(seen) == 8, seen


def test_factored_local_matches_dense():
    """_local and expand_at read off the factors against the same
    function multiplied out (from_factors_reference), at its zeros and
    poles, at other points, integer or not, and at infinity; jets through
    v + 0 .. v + 5, and expansions through 0 .. 5."""
    rng = random.Random(18)
    seen = Counter()
    for _ in range(CASES + 200):
        k, roots = rng.randint(0, 8), set()
        while len(roots) < k:
            roots.add(_point(rng) if rng.random() < 0.2 else _unit_root(rng))
        factors = [(a, rng.choice([rng.randint(-6, 6), rng.randint(-2, 2)])) for a in roots]
        scale = _rational(rng) or F(rng.randint(1, 9), rng.randint(1, 9))
        f = RatFunc.from_factors(factors, scale=scale)
        dense = from_factors_reference(factors, scale)
        nonzero = [a for a, e in factors if e]
        kind = rng.random()
        if kind < 0.25:
            a = INF
        elif kind < 0.6 and nonzero:
            a = rng.choice(sorted(nonzero))
        else:
            a = _unit_root(rng) if rng.random() < 0.5 else _point(rng)
        p = Place("C0", a)
        v = _local(dense, p)[0]
        for j in range(6):
            assert _local(f, p, v + j) == _local(dense, p, v + j)
            assert expand_at(f, p, j) == expand_at(dense, p, j)
        assert _local(f, p) == _local(dense, p)
        seen["zero" if v > 0 else "pole" if v < 0 else "unit"] += 1
        seen["inf"] += a is INF
        seen["non-integer place"] += a is not INF and a.denominator > 1
        seen["scale != 1"] += scale != 1
    assert min(seen.values()) >= 100 and len(seen) == 6, seen


def _value(poly, x):
    acc = F(0)
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _with_values(rng, comp, targets):
    """A function on comp taking the value c at each (coordinate, c) of
    targets, infinity allowed: (L + P A) / B, with P the product of the
    finite t - b, L the Lagrange interpolant of c B(b), and A chosen so
    that the degrees give the value at infinity."""
    finite = [(b, c) for b, c in targets if b is not INF]
    at_inf = [c for b, c in targets if b is INF]
    k = len(finite)
    degree = k + rng.randint(0, 2)
    while True:
        den = Poly([_unit_root(rng) for _ in range(degree)] + [rng.randint(1, 5)])
        if all(_value(den, b) for b, _ in finite):
            break
    lagrange, product = Poly(), Poly.const(1)
    for i, (b, c) in enumerate(finite):
        term = Poly.const(c * _value(den, b))
        for j, (x, _) in enumerate(finite):
            if j != i:
                term = term * Poly([-x, 1]) * (1 / (b - x))
        lagrange = lagrange + term
        product = product * Poly.linear(b)
    if not at_inf:
        top = [_unit_root(rng) for _ in range(rng.randint(0, 3))]
    elif at_inf[0]:
        top = [_unit_root(rng) for _ in range(degree - k)] + [at_inf[0] * den.leading()]
    else:
        top = [_unit_root(rng) for _ in range(rng.randint(0, degree - k))]
    return RatFunc(lagrange + product * Poly(top), den, comp)


def _certificate(certify, funcs, cfg):
    try:
        certify(funcs, cfg)
    except NotCartierError as exc:
        return str(exc)
    return "unit"


CARTIER_CURVES = {
    "node": fixtures.node(),
    "triple": fixtures.rfold(3),
    "fourfold": fixtures.rfold(4),
    "5-fold": fixtures.rfold(5),
    "chain": fixtures.line_chain(3, ["ordinary", "ordinary"]),
    "node-tacnode cycle": fixtures.line_chain(2, ["ordinary", "tacnode"]),
}


def test_certify_cartier_matches_full_expansion():
    """An ordinary point certified by its values against the certificate
    that expands every branch through the truncation: the same verdict and
    the same message, on units and on non-units of every kind."""
    rng = random.Random(16)
    seen = Counter()
    names = sorted(CARTIER_CURVES)
    for i in range(CASES + 200):
        cfg = CARTIER_CURVES[names[i % len(names)]]
        kind = rng.choice(["unit", "unit", "disagree", "zero", "pole", "split"])
        values = {sp.name: _rational(rng) or 1 for sp in cfg.singular_points}
        targets = {comp: [] for comp in cfg.components}
        for sp in cfg.singular_points:
            for q in sp.branches:
                targets[q.component].append([q, values[sp.name]])
        odd = rng.choice([t for ts in targets.values() for t in ts])
        if kind == "disagree":
            odd[1] += rng.choice([-1, 1])
        elif kind == "zero":
            odd[1] = F(0)
        funcs = {
            comp: _with_values(rng, comp, [(q.coordinate, c) for q, c in ts])
            for comp, ts in targets.items()
        }
        q = odd[0]
        if kind == "pole":
            f, t = funcs[q.component], RatFunc.variable(q.component)
            funcs[q.component] = f * t if q.is_infinite() else f / (t - q.coordinate)
        elif kind == "split":
            roots = {_unit_root(rng) for _ in range(rng.randint(1, 4))}
            funcs[q.component] = RatFunc.from_factors(
                [(a, rng.choice([-2, -1, 1, 2])) for a in roots], component=q.component
            )
        verdict = _certificate(certify_cartier, funcs, cfg)
        assert verdict == _certificate(certify_cartier_reference, funcs, cfg)
        seen[verdict.split(" at ")[0]] += 1
    reasons = ["unit", "function has a zero or pole", "branch values", "centered jets"]
    assert min(seen[r] for r in reasons) >= 40, seen


def _bump(cfg, q, j, r):
    """A function on q's component with a zero of order j at q, one just past
    the conductor at every other branch there, and its only pole at r."""
    factors, pole = [], 0
    for sp in cfg.singular_points:
        for p, c in zip(sp.branches, sp.conductors):
            if p.component == q.component:
                e = j if p == q else c + 1
                pole += e
                if e and not p.is_infinite():
                    factors.append((p.coordinate, e))
    if pole:
        factors.append((r, -pole))
    return RatFunc.from_factors(factors, component=q.component)


def _times(funcs, comp, m):
    """funcs[comp] *= m, left unreduced: RatFunc's product runs Euclid, seconds
    at degree 60, and a common factor of numerator and denominator changes
    no expansion, the one thing either certificate reads."""
    f = funcs[comp]
    funcs[comp] = RatFunc._raw(f.num * m.num, f.den * m.den, comp)


def _times_one_plus(funcs, q, a, g):
    _times(funcs, q.component, RatFunc.constant(1, q.component) + g * a)


def _basis_units(sampler):
    """The units of the sampler's kernel basis vectors and their negatives,
    of degree at most 65: a draw can reach degree 500."""
    out = []
    for b in sampler.basis:
        for sign in (1, -1):
            out.append(
                {
                    comp: RatFunc.from_factors(
                        [(x, sign * e) for (c, x), e in zip(sampler.columns, b) if c == comp and e],
                        component=comp,
                    )
                    for comp in sampler.config.components
                }
            )
    return out


def _spoilt_unit(rng, cfg, units, kind):
    """A kernel-basis unit times a constant and jets past the conductors, then
    changed at one branch q of one point as kind says:
      tangent - equal first jets on every branch of the point;
      jet - 1 + a u^j at q, 1 <= j <= c_q, nothing else through a conductor
        (tangent where every c_q is 0);
      value - q's value times 1 + a, nothing else through a conductor;
      zero, pole - a simple zero or pole at q;
      split - a random split function on q's component."""
    scale = _rational(rng) or F(1)
    funcs = {comp: f * scale for comp, f in rng.choice(units).items()}

    def pool_point():  # never a branch, nor a sampled unit's integer root
        return F(-2 * rng.randint(1, 30) - 1, 2)

    for _ in range(rng.randint(0, 2)):
        sp = rng.choice(cfg.singular_points)
        i = rng.randrange(len(sp.branches))
        q, j = sp.branches[i], sp.conductors[i] + rng.randint(1, 3)
        _times_one_plus(funcs, q, _rational(rng), _bump(cfg, q, j, pool_point()))
    explicit = [
        (q, c) for sp in cfg.singular_points for q, c in zip(sp.branches, sp.conductors) if c
    ]
    if kind == "jet" and explicit:
        q, c = rng.choice(explicit)
        a = _rational(rng) or F(1)
        _times_one_plus(funcs, q, a, _bump(cfg, q, rng.randint(1, c), pool_point()))
        return funcs
    sp = rng.choice(cfg.singular_points)
    q = rng.choice(sp.branches)
    a = _rational(rng) or F(1)
    if kind in ("tangent", "jet"):
        for p in sp.branches:
            g = _bump(cfg, p, 1, pool_point())
            _times_one_plus(funcs, p, a / leading_term(g, p)[1], g)
    elif kind == "value":
        g = _bump(cfg, q, 0, pool_point())
        _times_one_plus(funcs, q, (a if a != -1 else F(1)) / leading_term(g, q)[1], g)
    elif kind in ("zero", "pole"):
        r, e = pool_point(), 1 if kind == "zero" else -1
        factors = [(r, -e)] if q.is_infinite() else [(q.coordinate, e), (r, -e)]
        _times(funcs, q.component, RatFunc.from_factors(factors, component=q.component))
    elif kind == "split":
        roots = {_unit_root(rng) for _ in range(rng.randint(1, 4))}
        funcs[q.component] = RatFunc.from_factors(
            [(x, rng.choice([-2, -1, 1, 2])) for x in roots], component=q.component
        )
    return funcs


def test_conductor_rule_matches_full_expansion(unit_samplers):
    """Each branch read through its conductor against the certificate that
    expands every branch through the truncation: the same verdict and the
    same message, on sampled units spoilt in every way, jets through a
    conductor included."""
    rng = random.Random(17)
    units = {name: _basis_units(s) for name, s in unit_samplers.items()}
    names = sorted(unit_samplers)
    kinds = ["unit", "tangent", "jet", "jet", "value", "zero", "pole", "split"]
    seen = Counter()
    for i in range(CASES + 200):
        name = names[i % len(names)]
        cfg, kind = unit_samplers[name].config, rng.choice(kinds)
        funcs = _spoilt_unit(rng, cfg, units[name], kind)
        verdict = _certificate(certify_cartier, funcs, cfg)
        assert verdict == _certificate(certify_cartier_reference, funcs, cfg), (name, kind)
        reason = verdict.split(" at ")[0]
        seen[reason] += 1
        seen["jet", reason] += kind == "jet"
    reasons = ["unit", "function has a zero or pole", "branch values", "centered jets"]
    assert min(seen[r] for r in reasons) >= 40, seen
    assert seen["jet", "centered jets"] >= 40, seen
