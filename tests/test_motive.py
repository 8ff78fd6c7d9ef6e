import random
from fractions import Fraction as F

import pytest

from albx.curve import CurveConfig, Divisor, SingularPoint, validate
from albx.funcfield import INF, LaurentSeries, Place
from albx.infdiv import FormalGroupData, InfinitesimalDivisor, divisor_group
from albx.motive import (
    OneMotive,
    albanese,
    base_points_for,
    double_dual_check,
    dualize,
    linear_group,
    one_motive,
)
from oracles import base_points_reference


def synthetic_formal(t, v, rng=None):
    places = [Place("C0", k) for k in range(t + 1)]
    etale = tuple(Divisor({places[i + 1]: 1, places[0]: -1}) for i in range(t))
    lie = []
    for i in range(v):
        q = Place("C0", 100 + i)
        c = F(rng.randint(1, 5)) if rng else F(1)
        lie.append(InfinitesimalDivisor({q: LaurentSeries(q, -1, {-1: c})}))
    return FormalGroupData(etale, tuple(lie))


# --- Cartier duality -----------------------------------------------------------


def test_cartier_dual_examples():
    assert linear_group(1, 0) == "Gm"
    assert linear_group(0, 1) == "Ga"
    assert linear_group(0, 0) == "1"
    assert linear_group(2, 3) == "Gm^2 x Ga^3"
    assert linear_group(2, 4) == "Gm^2 x Ga^4"


# --- dualization ------------------------------------------------------------------


def test_dualize_lattice_motive():
    m = OneMotive(synthetic_formal(1, 0))
    d = dualize(m)
    assert repr(m) == "[Z^1 (+) k^0 -> 1]"
    assert repr(d) == "[Z^0 (+) k^0 -> Gm]"
    # pairing bases retained on the dual side
    assert d.dual and d.formal == m.formal
    assert d != m


def test_dualize_trivial_motive():
    d = dualize(OneMotive(FormalGroupData()))
    assert repr(d) == "[Z^0 (+) k^0 -> 1]"


def test_dualize_mixed_motive():
    m = OneMotive(synthetic_formal(1, 1))
    assert repr(dualize(m)) == "[Z^0 (+) k^0 -> Gm x Ga]"


def test_double_dual_zoo(whole_zoo):
    for name, cfg in whole_zoo.items():
        assert double_dual_check(one_motive(cfg)), name


def test_double_dual_random_shapes():
    rng = random.Random(3)
    for _ in range(50):
        m = OneMotive(synthetic_formal(rng.randint(0, 5), rng.randint(0, 5), rng))
        assert double_dual_check(m)
        assert dualize(dualize(m)) == m


# --- albanese ------------------------------------------------------------------------


def test_albanese_zoo_groups(whole_zoo):
    expected = {
        "node": (1, 0),
        "cusp": (0, 1),
        "tacnode": (1, 1),
        "triple": (2, 0),
        "fourfold": (3, 0),
    }
    for name, cfg in whole_zoo.items():
        alb = albanese(cfg)
        assert (alb.rank, alb.dim) == expected[name], name


def test_albanese_base_point_rule(node, tacnode):
    # smallest nonnegative integer coordinate avoiding the branch places
    assert base_points_for(node)["C0"] == Place("C0", 1)  # 0 is a branch
    assert base_points_for(tacnode)["C0"] == Place("C0", 2)  # 0 and 1 taken


def _ordinary_curve(components, fibers):
    points = [
        SingularPoint(f"p{k}", tuple(Place(c, x) for c, x in fiber))
        for k, fiber in enumerate(fibers)
    ]
    return validate(CurveConfig(components, points, 2))


@pytest.mark.parametrize(
    "components, fibers, expected",
    [
        (["C0"], [[("C0", 0), ("C0", F(1, 2)), ("C0", 1), ("C0", INF)]], {"C0": 2}),
        (["C0", "C1"], [[("C0", 0), ("C0", 1)]], {"C0": 2, "C1": 0}),
        (["C0"], [[("C0", x) for x in range(6)]], {"C0": 6}),
        (["C0", "C1"], [[("C0", 0), ("C1", 0)], [("C0", 1), ("C1", 2)]], {"C0": 2, "C1": 1}),
    ],
)
def test_base_points_edge_cases(components, fibers, expected):
    cfg = _ordinary_curve(components, fibers)
    got = base_points_for(cfg)
    assert got == base_points_reference(cfg)
    assert got == {c: Place(c, k) for c, k in expected.items()}
    assert list(got) == list(cfg.components)


def test_base_points_match_probing_reference():
    rng = random.Random(3131)
    pool = [*range(8), F(1, 2), F(-3, 4), F(7, 3), INF]
    seen = set()
    for _ in range(500):
        components = [f"C{k}" for k in range(rng.randint(1, 4))]
        free = [(c, x) for c in components for x in pool]
        rng.shuffle(free)
        fibers = []
        for _ in range(rng.randint(1, 4)):
            r = rng.randint(1, 6)
            if len(free) >= r:
                fibers.append(free[:r])
                free = free[r:]
        cfg = _ordinary_curve(components, fibers)
        got = base_points_for(cfg)
        assert got == base_points_reference(cfg), cfg
        seen.update(p.coordinate for p in got.values())
    assert seen >= set(range(6)), seen


def test_albanese_json(node):
    data = albanese(node).to_json()
    assert data["lie_basis"] == []
    assert data["etale_basis"] == [
        [
            {"component": "C0", "point": "0", "coeff": 1},
            {"component": "C0", "point": "inf", "coeff": -1},
        ]
    ]


def test_albanese_matches_divisor_group(whole_zoo):
    for cfg in whole_zoo.values():
        alb = albanese(cfg)
        g = divisor_group(cfg)
        assert alb.etale_basis == g.etale_basis
        assert alb.lie_basis == g.lie_basis
