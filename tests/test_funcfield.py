import copy
from fractions import Fraction as F
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from albx.errors import (
    InputError,
    InsufficientTruncationError,
    NonSplitError,
    UndefinedValuationError,
)
from albx import funcfield
from albx.funcfield import (
    INF,
    LaurentSeries,
    Place,
    Poly,
    RatFunc,
    dlog,
    expand_at,
    format_coordinate,
    leading_term,
    parse_coordinate,
    rational_roots,
    residue,
    split_divisor,
)

T = RatFunc.variable()
P0 = Place("C0", 0)
P1 = Place("C0", 1)
PINF = Place("C0", INF)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=10
)


def ratfunc_from_roots(zeros, poles, scale=F(1)):
    factors = {}
    for a in zeros:
        factors[a] = factors.get(a, 0) + 1
    for a in poles:
        factors[a] = factors.get(a, 0) - 1
    num, den = Poly.const(1), Poly.const(1)
    for a, e in factors.items():
        if e > 0:
            num = num * Poly.linear(a) ** e
        elif e < 0:
            den = den * Poly.linear(a) ** (-e)
    return RatFunc(num * scale, den)


# --- places and polynomials -------------------------------------------------


def test_place_identity_and_order():
    assert Place("C0", F(1, 2)) == Place("C0", F(2, 4))
    assert Place("C0", INF).is_infinite()
    ordered = sorted([PINF, P1, P0], key=Place.sort_key)
    assert ordered == [P0, P1, PINF]
    assert repr(PINF) == "C0:inf"


def seeded_places(rng, count):
    """count places on three components: a coordinate is inf, an integer
    (negative ones too) or n + j/k with 0 < j < k, so many share a floor."""
    out = []
    for _ in range(count):
        comp = rng.choice(("C0", "C1", "L2"))
        n, kind = rng.randint(-6, 6), rng.randrange(8)
        if kind == 0:
            a = INF
        elif kind < 4:
            a = F(n)
        else:
            k = rng.randint(2, 7)
            a = n + F(rng.randint(1, k - 1), k)
        out.append(Place(comp, a))
    return out


def test_place_hash_and_order_on_seeded_places():
    rng = random.Random(2601)
    places = seeded_places(rng, 1000)
    assert {p.is_infinite() for p in places} == {True, False}
    assert {p.coordinate.denominator for p in places if not p.is_infinite()} > {1, 2}

    # sort_key orders as (component, is infinite, Fraction coordinate)
    def plain(p):
        return p.component, p.is_infinite(), F(0) if p.is_infinite() else p.coordinate

    assert sorted(places, key=Place.sort_key) == sorted(places, key=plain)
    for p in places:
        integral = not p.is_infinite() and p.coordinate.denominator == 1
        assert type(p.sort_key()[2]) is (int if integral or p.is_infinite() else F)

    # one place built from an int, an unreduced Fraction and a parsed literal
    for p in places:
        a, k = p.coordinate, rng.randint(2, 9)
        twins = [Place(p.component, parse_coordinate(format_coordinate(a)))]
        if not p.is_infinite():
            twins.append(Place(p.component, F(a.numerator * k, a.denominator * k)))
            if a.denominator == 1:
                twins.append(Place(p.component, a.numerator))
        for twin in twins:
            assert twin == p and hash(twin) == hash(p)
    distinct = {(p.component, p.coordinate) for p in places}
    assert len(set(places)) == len(distinct)

    # copies keep equality and hash
    for copied in (
        [copy.copy(p) for p in places],
        copy.deepcopy(places),
        pickle.loads(pickle.dumps(places)),
    ):
        assert copied == places
        assert [hash(p) for p in copied] == [hash(p) for p in places]
        assert set(copied) == set(places)


def test_poly_arithmetic():
    p = Poly([1, 2, 1])
    q = Poly([1, 1])
    assert q * q == p
    quo, rem = p.divmod(q)
    assert quo == q and rem.is_zero()
    assert p.derivative() == Poly([2, 2])
    assert Poly([0, 0, 0]).is_zero()
    assert (Poly([1, 1]) * 0).is_zero()


def test_poly_gcd():
    a = Poly.linear(1) ** 2 * Poly.linear(2)
    b = Poly.linear(1) * Poly.linear(3)
    assert a.gcd(b) == Poly.linear(1)
    assert a.gcd(Poly.const(5)).degree == 0


def test_ratfunc_reduction_and_monic_denominator():
    f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2t / 4t^2 = 1/(2t)
    assert f.num == Poly.const(F(1, 2)) and f.den == Poly([0, 1])
    g = (T - 1) / (2 * T - 2)
    assert g == RatFunc.constant(F(1, 2))


def test_component_mismatch_rejected():
    other = RatFunc.variable("C1")
    with pytest.raises(InputError):
        T + other
    with pytest.raises(InputError):
        leading_term(T, Place("C1", 0))


# --- valuations (contract examples) ----------------------------------------


def test_val_at_examples():
    f = T**2 / (T - 1)
    assert leading_term(f, P0)[0] == 2
    assert leading_term(f, P1)[0] == -1
    assert leading_term(f, PINF)[0] == -1


def test_val_at_zero_function():
    with pytest.raises(UndefinedValuationError):
        leading_term(RatFunc.constant(0), P0)


# --- expansions (contract examples) -----------------------------------------


def test_expand_geometric_series():
    f = RatFunc.constant(1) / (T - 1)
    s = expand_at(f, P0, 2)
    assert s.coeffs == {0: F(-1), 1: F(-1), 2: F(-1)}
    # oracle: multiply back by (t - 1), must be 1 through the shared order
    check = s * expand_at(T - 1, P0, 2)
    assert check.coefficient(0) == 1
    assert all(check.coefficient(e) == 0 for e in range(1, check.truncation + 1))


def test_expand_at_infinity():
    s = expand_at(T, PINF, 1)
    assert s.coeffs == {-1: F(1)}
    assert expand_at(RatFunc.constant(1), PINF, 0).coeffs == {0: F(1)}


def test_expand_leading_exponent_is_valuation():
    f = T**2 / (T - 1)
    for p in (P0, P1, PINF):
        v = leading_term(f, p)[0]
        s = expand_at(f, p, v + 3)
        assert min(s.coeffs) == v


# --- residues ----------------------------------------------------------------


def test_residue_examples():
    assert residue(LaurentSeries(P0, 1, {-1: 1})) == 1
    assert residue(LaurentSeries(P0, 1, {-2: 1})) == 0
    assert residue(LaurentSeries(P0, 1, {-1: F(3, 2), 0: 5, 1: 1})) == F(3, 2)


def test_residue_requires_truncation():
    with pytest.raises(InsufficientTruncationError):
        residue(LaurentSeries(P0, -2, {-3: 1}))


# --- dlog ---------------------------------------------------------------------


def test_dlog_examples():
    assert dlog(T, P0, 0).coeffs == {-1: F(1)}
    assert dlog(T - 1, P0, 1).coeffs == {0: F(-1), 1: F(-1)}
    assert dlog(RatFunc.constant(7), P0, 2).coeffs == {}


def test_dlog_residue_is_valuation():
    f = T**3 * (T - 1) / (T + 2) ** 2
    for p in (P0, P1, Place("C0", -2), PINF, Place("C0", 5)):
        assert residue(dlog(f, p, 0)) == leading_term(f, p)[0]


# --- series arithmetic --------------------------------------------------------


def test_series_mul_truncation_rule():
    a = LaurentSeries(P0, 3, {1: 1})
    b = LaurentSeries(P0, 3, {-1: 1})
    assert (a * b).truncation == 2  # min(3 + (-1), 3 + 1) = 2
    c = LaurentSeries(P0, 3, {})
    assert (a * c).truncation == 4  # min(3 + 4, 3 + 1): zero-through-truncation bound


def test_series_inverse():
    s = expand_at(T - 1, P0, 4)
    inv = expand_at(RatFunc.constant(1) / (T - 1), P0, 4)
    prod = s * inv
    assert prod.coefficient(0) == 1
    assert all(prod.coefficient(e) == 0 for e in range(1, prod.truncation + 1))


# --- roots and divisors --------------------------------------------------------


def test_rational_roots_with_multiplicity():
    p = Poly.linear(F(1, 2)) ** 3 * Poly.linear(-2) * Poly([1, 0, 1])
    roots, cofactor = rational_roots(p)
    assert roots == [(F(-2), 1), (F(1, 2), 3)]
    assert cofactor == Poly([1, 0, 1])


def test_rational_roots_high_multiplicity_smooth():
    # smooth constants with huge divisor counts must not blow up
    p = Poly.linear(-2) ** 13 * Poly.linear(-3) ** 11 * Poly.linear(-5) ** 9
    roots, cofactor = rational_roots(p)
    assert roots == [(F(-5), 9), (F(-3), 11), (F(-2), 13)]
    assert cofactor.degree == 0


def test_factored_function_keeps_no_dense_copy():
    f = RatFunc.from_factors([(0, 2), (F(1, 2), -1), (5, 0)], F(-3, 4), "C1")
    factors = f.factors
    assert (f.num, f.den) == (Poly([0, 0, F(-3, 4)]), Poly([F(-1, 2), 1]))
    # the reads multiplied num and den out and kept neither
    for slot in (RatFunc.num, RatFunc.den):
        with pytest.raises(AttributeError):
            slot.__get__(f)
    assert f.factors is factors
    g = f.dense()
    assert g.factors is None and (g.num, g.den, g.component) == (f.num, f.den, "C1")
    assert g.dense() is g and g == f


def test_factored_hash_multiplies_out_once(monkeypatch):
    f = RatFunc.from_factors([(0, 2), (F(1, 2), -1)], F(-3, 4), "C1")
    dense, multiply_out, calls = f.dense(), funcfield._multiply_out, []

    def counted(*args):
        calls.append(args)
        return multiply_out(*args)

    monkeypatch.setattr(funcfield, "_multiply_out", counted)
    assert hash(f) == hash(dense)
    assert len(calls) == 1


def test_split_divisor():
    f = T**2 / (T - 1)
    assert split_divisor(f) == {P0: 2, P1: -1, PINF: -1}
    assert sum(split_divisor(f).values()) == 0
    with pytest.raises(NonSplitError):
        split_divisor(RatFunc(Poly([1, 0, 1])))


def test_evaluate_and_leading_coefficient():
    h = (T - 1) * (T - 4) / (T - 2) ** 2
    assert leading_term(h, P0) == (0, 1)
    assert leading_term(h, PINF) == (0, 1)
    assert leading_term(T, P0) == (1, 1)
    assert leading_term(RatFunc.constant(1) / T, P0) == (-1, 1)
    assert leading_term(RatFunc.constant(1) / T**2, P0) == (-2, 1)
    assert leading_term((2 * T + 1) / T, PINF) == (0, 2)


# --- property tests -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    zeros=st.lists(rationals, min_size=0, max_size=3),
    poles=st.lists(rationals, min_size=0, max_size=3),
    scale=rationals.filter(lambda x: x != 0),
)
def test_principal_divisor_has_degree_zero(zeros, poles, scale):
    f = ratfunc_from_roots(zeros, poles, scale)
    if f.num.degree == 0 and f.den.degree == 0:
        assert split_divisor(f) == {}
    else:
        assert sum(split_divisor(f).values()) == 0


@settings(max_examples=60, deadline=None)
@given(
    zeros=st.lists(rationals, min_size=1, max_size=3),
    poles=st.lists(rationals, min_size=0, max_size=3),
    at=st.one_of(rationals, st.just(INF)),
)
def test_dlog_residue_matches_valuation(zeros, poles, at):
    f = ratfunc_from_roots(zeros, poles)
    p = Place("C0", at)
    assert residue(dlog(f, p, 0)) == leading_term(f, p)[0]


@settings(max_examples=40, deadline=None)
@given(
    z1=st.lists(rationals, min_size=1, max_size=2),
    z2=st.lists(rationals, min_size=1, max_size=2),
    at=rationals,
    order=st.integers(min_value=0, max_value=5),
)
def test_expansion_is_multiplicative(z1, z2, at, order):
    f = ratfunc_from_roots(z1, [])
    g = ratfunc_from_roots([], z2)
    p = Place("C0", at)
    prod = expand_at(f, p, order) * expand_at(g, p, order)
    direct = expand_at(f * g, p, prod.truncation)
    assert prod.coeffs == direct.coeffs
