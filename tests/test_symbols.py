import random
from fractions import Fraction as F

import pytest

from albx.errors import InputError, NonSplitError
from albx.funcfield import INF, Place, Poly, RatFunc, leading_term
from albx.sampling import random_split_ratfunc
from albx.symbols import is_modulus, reciprocity_check, residue_symbol, tame_symbol
from oracles import random_congruent_function, symbol_sum_over_divisor

T = RatFunc.variable()
ONE = RatFunc.constant(1)
P0 = Place("C0", 0)
P1 = Place("C0", 1)
PINF = Place("C0", INF)


# --- tame symbol ------------------------------------------------------------


def test_tame_symbol_examples():
    assert tame_symbol(T, T - 1, P0) == -1
    assert tame_symbol(T - 2, T - 1, P0) == 1  # both units
    assert tame_symbol(T, T, P0) == -1


def test_tame_symbol_value_property():
    # where psi is regular: symbol = psi(c)^val_c(f)
    psi = T + 3
    f = (T - 1) ** 2
    assert tame_symbol(psi, f, P1) == 4**2
    assert tame_symbol(psi, ONE / f, P1) == F(1, 16)


def test_tame_symbol_bilinear():
    rng = random.Random(1)
    for _ in range(15):
        psi = random_split_ratfunc(rng, max_factors=3, height=6)
        f = random_split_ratfunc(rng, max_factors=3, height=6)
        g = random_split_ratfunc(rng, max_factors=3, height=6)
        p = Place("C0", F(rng.randint(-4, 4)))
        lhs = tame_symbol(psi, f * g, p)
        assert lhs == tame_symbol(psi, f, p) * tame_symbol(psi, g, p)
        # multiplicativity in psi as well
        assert tame_symbol(psi * g, f, p) == tame_symbol(psi, f, p) * tame_symbol(
            g, f, p
        )


# --- residue symbol -----------------------------------------------------------


def test_residue_symbol_examples():
    assert residue_symbol(ONE / T, T - 1, P0) == -1
    assert residue_symbol(T + 5, T - 1, P0) == 0
    assert residue_symbol(ONE / T, T, P0) == 0


def test_residue_symbol_value_property():
    psi = ONE / (T - 9)
    f = T**3
    assert residue_symbol(psi, f, P0) == 3 * F(1, -9)


def test_residue_symbol_additive():
    rng = random.Random(2)
    for _ in range(15):
        phi = random_split_ratfunc(rng, max_factors=3, height=6)
        f = random_split_ratfunc(rng, max_factors=3, height=6)
        psi = random_split_ratfunc(rng, max_factors=3, height=6)
        p = Place("C0", F(rng.randint(-4, 4)))
        lhs = residue_symbol(phi + psi, f, p) if not (phi + psi).is_zero() else None
        if lhs is None:
            continue
        assert lhs == residue_symbol(phi, f, p) + residue_symbol(psi, f, p)
        assert residue_symbol(psi, f * phi, p) == residue_symbol(
            psi, f, p
        ) + residue_symbol(psi, phi, p)


# --- reciprocity -----------------------------------------------------------------


def test_reciprocity_gm_example():
    values, aggregate = reciprocity_check(T, T - 1, "gm")
    assert values == {P0: F(-1), P1: F(1), PINF: F(-1)}
    assert aggregate == 1


def test_reciprocity_ga_example():
    values, aggregate = reciprocity_check(ONE / T, T - 1, "ga")
    assert values == {P0: F(-1), P1: F(1), PINF: F(0)}
    assert aggregate == 0


def test_reciprocity_constant_f():
    values, aggregate = reciprocity_check(T, RatFunc.constant(7), "gm")
    assert aggregate == 1
    values, aggregate = reciprocity_check(T, RatFunc.constant(7), "ga")
    assert aggregate == 0 and set(values.values()) == {F(0)}


def test_reciprocity_random_pairs():
    rng = random.Random(3)
    for _ in range(25):
        psi, f = random_split_ratfunc(rng), random_split_ratfunc(rng)
        _, agg = reciprocity_check(psi, f, "gm")
        assert agg == 1
        _, agg = reciprocity_check(psi, f, "ga")
        assert agg == 0


def test_reciprocity_rejects_nonsplit():
    irr = RatFunc(Poly([1, 0, 1]))
    with pytest.raises(NonSplitError):
        reciprocity_check(irr, T, "gm")


# --- moduli ------------------------------------------------------------------------


def test_is_modulus_examples():
    psi = ONE / T
    assert is_modulus(psi, [(P0, 2)], "ga")
    assert not is_modulus(psi, [(P0, 1)], "ga")
    assert is_modulus(RatFunc.constant(3), [], "gm")


def test_is_modulus_gm_needs_support():
    with pytest.raises(InputError):
        is_modulus(T, [(P1, 1)], "gm")


def random_modulus_case(rng):
    """Seeded (psi, modulus, tag) with psi split and singular only on the support."""
    tag = rng.choice(("gm", "ga"))
    finite = [Place("C0", F(c)) for c in rng.sample(range(-4, 5), rng.randint(1, 3))]
    places = finite + ([PINF] if rng.random() < 0.4 else [])
    modulus = [(p, rng.randint(1, 3)) for p in places]
    psi = RatFunc.constant(rng.choice((-3, -1, 2, 5)))
    if tag == "gm":
        exps = [rng.randint(-3, 3) for _ in finite]
        if PINF not in places:
            exps[-1] = -sum(exps[:-1])  # no zero or pole at infinity
        for p, e in zip(finite, exps):
            psi = psi * (T - p.coordinate) ** e
        return psi, modulus, tag
    den_degree = 0
    for p in finite:
        k = rng.randint(0, 3)
        psi = psi / (T - p.coordinate) ** k
        den_degree += k
    top = den_degree + (rng.randint(0, 3) if PINF in places else 0)
    for _ in range(rng.randint(0, top)):
        psi = psi * (T - rng.randint(-6, 6))
    return psi, modulus, tag


def test_is_modulus_matches_certificate():
    # the local criterion is necessary and sufficient, so it agrees with
    # psi(div f) on seeded f congruent to 1 along the modulus
    rng = random.Random(7)
    refuted, tags, with_inf = 0, set(), 0
    for _ in range(320):
        psi, modulus, tag = random_modulus_case(rng)
        identity = 1 if tag == "gm" else 0
        certified = all(
            symbol_sum_over_divisor(psi, random_congruent_function(modulus, rng), tag)
            == identity
            for _ in range(3)
        )
        assert is_modulus(psi, modulus, tag) == certified, (psi, modulus, tag)
        refuted += not certified
        tags.add(tag)
        with_inf += PINF in dict(modulus)
    assert refuted >= 50 and tags == {"gm", "ga"} and with_inf >= 50


def test_is_modulus_counterexample_direct():
    # f = 1 + t is congruent to 1 only to first order at 0
    assert symbol_sum_over_divisor(ONE / T, T + 1, "ga") == -1


def test_modulus_vanishing_randomized():
    # once a modulus is accepted, psi(div f) vanishes for congruent f
    rng = random.Random(4)
    psi = (T + 1) / (T**2 * (T - 1))
    mod = [(P0, 3), (P1, 2)]
    assert is_modulus(psi, mod, "ga")
    for _ in range(40):
        f = random_congruent_function(mod, rng)
        assert symbol_sum_over_divisor(psi, f, "ga") == 0


def test_modulus_with_infinity():
    # psi = t has a simple pole at infinity
    mod = [(PINF, 2), (P0, 1)]
    assert is_modulus(T, mod, "ga")
    rng = random.Random(5)
    for _ in range(20):
        f = random_congruent_function(mod, rng)
        assert leading_term(f - 1, PINF)[0] >= 2
        assert symbol_sum_over_divisor(T, f, "ga") == 0


def test_gm_modulus_always_sufficient():
    # any multiplicity kills the tame symbol on congruent functions
    rng = random.Random(6)
    psi = T * (T - 1) / (T + 2)
    mod = [(P0, 1), (P1, 1), (Place("C0", -2), 1), (PINF, 1)]
    assert is_modulus(psi, mod, "gm")
    for _ in range(30):
        f = random_congruent_function(mod, rng)
        assert symbol_sum_over_divisor(psi, f, "gm") == 1


def test_modulus_type_guards():
    # is_modulus validates its pairs as curve_from_modulus does
    for bad in ([(P0, 0)], [(P0, 2), (PINF, -1)], [(P0, 1), (P0, 2)]):
        with pytest.raises(InputError):
            is_modulus(T, bad, "gm")
    assert is_modulus(ONE / T**2, [(PINF, 1), (P0, 3)], "ga")
    assert not is_modulus(ONE / T**2, [(PINF, 1), (P0, 2)], "ga")
