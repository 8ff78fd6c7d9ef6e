import random
from fractions import Fraction as F

import pytest

from albx.chow import (
    AJPoint,
    ZeroCycle,
    abel_jacobi,
    albanese_pairing,
    certify_cartier,
    div_C,
    interpolate_divisor,
    is_cartier_unit,
    rationally_equivalent,
)
from albx.curve import degree_per_component
from albx.errors import DegreeError, InputError, NotCartierError
from albx.funcfield import INF, Place, Poly, RatFunc, dlog, expand_at
from albx.motive import albanese
from albx.sampling import CartierUnitSampler, random_rational, random_zero_cycle

T = RatFunc.variable()
P0 = Place("C0", 0)


def cyc(text):
    return ZeroCycle.from_string(text)


# --- cycle syntax ------------------------------------------------------------


def test_cycle_parse_and_format():
    c = cyc("C0:2=+1,C0:3=-1")
    assert c.coeff(Place("C0", 2)) == 1 and c.coeff(Place("C0", 3)) == -1
    assert c.to_string() == "C0:2=+1,C0:3=-1"
    assert cyc("C0:inf=-2").coeff(Place("C0", INF)) == -2
    assert cyc("C0:1/2=+3").coeff(Place("C0", F(1, 2))) == 3
    assert cyc("") == ZeroCycle()
    with pytest.raises(InputError):
        cyc("C0:2")
    with pytest.raises(InputError):
        cyc("2=+1")
    with pytest.raises(InputError):
        cyc("C0:2=x")


def test_cycle_support_guard(node):
    from albx.chow import check_cycle_support

    with pytest.raises(InputError):
        check_cycle_support(cyc("C0:0=+1"), node)  # branch place
    with pytest.raises(InputError):
        check_cycle_support(ZeroCycle({Place("C9", 1): 1}), node)


# --- Cartier units ------------------------------------------------------------


def test_cartier_unit_node_examples(node):
    h = (T - 1) * (T - 4) / (T - 2) ** 2
    assert is_cartier_unit({"C0": h}, node)
    assert not is_cartier_unit({"C0": (T - 1) / (T + 1)}, node)
    assert is_cartier_unit({"C0": RatFunc.constant(1)}, node)


def test_cartier_unit_cusp_needs_flat_jet(cusp):
    # value matching is trivial (one branch) but the first jet must vanish
    good = (T + 2) ** 2 / (T + 3) ** 3 * RatFunc.constant(F(27, 4)) ** 0
    # (log f)'(0) = 2/2 - 3/3 = 0
    assert is_cartier_unit({"C0": good}, cusp)
    assert not is_cartier_unit({"C0": T + 2}, cusp)


def test_cartier_certificate_reports_reason(node):
    with pytest.raises(NotCartierError, match="zero or pole"):
        certify_cartier({"C0": T}, node)
    with pytest.raises(NotCartierError, match="disagree"):
        certify_cartier({"C0": (T - 1) / (T + 1)}, node)
    with pytest.raises(NotCartierError, match="component"):
        certify_cartier({}, node)


def test_div_C_examples(node):
    h = (T - 1) * (T - 4) / (T - 2) ** 2
    assert div_C({"C0": h}, node) == cyc("C0:1=+1,C0:4=+1,C0:2=-2")
    assert div_C({"C0": RatFunc.constant(1)}, node) == ZeroCycle()


def test_div_C_degree_zero_per_component(node):
    rng = random.Random(11)
    sampler = CartierUnitSampler(node)
    for _ in range(5):
        h = sampler.draw(rng)
        d = div_C(h, node)
        assert not any(degree_per_component(d).values())


def test_div_C_rejects_non_units(node):
    with pytest.raises(NotCartierError):
        div_C({"C0": T - 1}, node)


def test_div_C_on_cusp_unit(cusp):
    # congruent to a constant to second order at the cusp branch
    good = (T + 2) ** 2 / (T + 3) ** 3
    assert is_cartier_unit({"C0": good}, cusp)
    assert div_C({"C0": good}, cusp) == cyc("C0:-2=+2,C0:-3=-3,C0:inf=+1")


# --- interpolation ---------------------------------------------------------------


def test_interpolate_examples():
    assert interpolate_divisor(cyc("C0:2=+1,C0:3=-1"), "C0") == (T - 2) / (T - 3)
    assert interpolate_divisor(ZeroCycle(), "C0") == RatFunc.constant(1)
    assert interpolate_divisor(cyc("C0:0=+1,C0:1=+1,C0:inf=-2"), "C0") == T * (T - 1)


def test_interpolate_degree_guard():
    with pytest.raises(DegreeError):
        interpolate_divisor(cyc("C0:2=+1"), "C0")


# --- Abel-Jacobi -------------------------------------------------------------------


def test_aj_node_example(node):
    alb = albanese(node)
    point = abel_jacobi(cyc("C0:2=+1,C0:3=-1"), node, alb)
    assert point.torus == (F(2, 3),) and point.vectorial == ()
    assert not point.is_identity()


def test_aj_cusp_formula(cusp):
    alb = albanese(cusp)
    rng = random.Random(0)
    for _ in range(10):
        a = random_rational(rng, 9, nonzero=True)
        b = random_rational(rng, 9, nonzero=True)
        if a == b:
            continue
        point = abel_jacobi(
            ZeroCycle({Place("C0", a): 1, Place("C0", b): -1}), cusp, alb
        )
        assert point.vectorial == (F(1) / b - F(1) / a,)


def test_aj_zero_cycle_is_identity(whole_zoo):
    for cfg in whole_zoo.values():
        alb = albanese(cfg)
        assert abel_jacobi(ZeroCycle(), cfg, alb).is_identity()


def test_aj_degree_guard(node):
    alb = albanese(node)
    with pytest.raises(DegreeError):
        abel_jacobi(cyc("C0:2=+1"), node, alb)


def test_aj_support_guard(node):
    alb = albanese(node)
    with pytest.raises(InputError):
        abel_jacobi(cyc("C0:0=+1,C0:5=-1"), node, alb)


def test_aj_homomorphism(whole_zoo):
    rng = random.Random(7)
    for cfg in whole_zoo.values():
        alb = albanese(cfg)
        for _ in range(5):
            c1 = random_zero_cycle(cfg, rng)
            c2 = random_zero_cycle(cfg, rng)
            lhs = abel_jacobi(c1 + c2, cfg, alb)
            rhs = abel_jacobi(c1, cfg, alb).combine(abel_jacobi(c2, cfg, alb))
            assert lhs == rhs


def test_aj_kernel_property(whole_zoo):
    rng = random.Random(9)
    for name, cfg in whole_zoo.items():
        alb = albanese(cfg)
        sampler = CartierUnitSampler(cfg)
        for _ in range(5):
            h = sampler.draw(rng)
            assert abel_jacobi(div_C(h, cfg), cfg, alb).is_identity(), name


def test_aj_lie_pairing_vanishes_on_units(cusp, tacnode):
    # the Lie-kernel elements annihilate dlog of every Cartier unit
    rng = random.Random(13)
    for cfg in (cusp, tacnode):
        sampler = CartierUnitSampler(cfg)
        deltas = albanese(cfg).lie_basis
        for _ in range(5):
            h = sampler.draw(rng)
            for delta in deltas:
                total = F(0)
                for q in delta.places():
                    part = delta.parts[q]
                    nu = -min(part.coeffs)
                    g = dlog(h[q.component], q, nu - 1)
                    for e, c in part.coeffs.items():
                        total += c * g.coefficient(-e - 1)
                assert total == 0


def test_scaling_invariance(whole_zoo):
    rng = random.Random(21)
    for cfg in whole_zoo.values():
        alb = albanese(cfg)
        cycle = random_zero_cycle(cfg, rng)
        funcs = {c: interpolate_divisor(cycle, c) for c in cfg.components}
        scaled = {
            c: f * random_rational(rng, 9, nonzero=True) for c, f in funcs.items()
        }
        assert albanese_pairing(funcs, alb) == albanese_pairing(scaled, alb)


# --- equivalence decision -------------------------------------------------------------


def test_equivalence_examples(node):
    alb = albanese(node)
    assert rationally_equivalent(cyc("C0:1=+1,C0:4=+1,C0:2=-2"), node, alb)
    assert not rationally_equivalent(cyc("C0:2=+1,C0:3=-1"), node, alb)
    assert rationally_equivalent(ZeroCycle(), node, alb)


def test_equivalence_nonzero_degree_is_false(node):
    assert not rationally_equivalent(cyc("C0:2=+1"), node)


def test_equivalence_node_cross_ratio(node):
    alb = albanese(node)
    rng = random.Random(5)
    for _ in range(10):
        a = random_rational(rng, 9, nonzero=True)
        b = random_rational(rng, 9, nonzero=True)
        cycle = ZeroCycle({Place("C0", a): 1, Place("C0", b): -1})
        point = abel_jacobi(cycle, node, alb) if a != b else None
        if point is not None:
            assert point.torus == (a / b,)
        assert rationally_equivalent(cycle, node, alb) == (a == b)


# --- multi-component configurations -----------------------------------------------------


def test_banana_curve_two_components():
    # two lines glued at two ordinary points: the receptor is Gm and the
    # Abel-Jacobi coordinate mixes both components
    from albx.curve import CurveConfig, SingularPoint, validate
    from albx.infdiv import divisor_group
    from albx.sampling import CartierUnitSampler

    p = SingularPoint("p", (Place("C0", 0), Place("C1", 0)), "ordinary")
    q = SingularPoint("q", (Place("C0", INF), Place("C1", INF)), "ordinary")
    banana = validate(CurveConfig(["C0", "C1"], [p, q], 2))
    g = divisor_group(banana)
    assert (g.rank, g.dim) == (1, 0)
    alb = albanese(banana)
    cycle = cyc("C0:2=+1,C0:3=-1,C1:5=+1,C1:7=-1")
    point = abel_jacobi(cycle, banana, alb)
    assert point.torus in ((F(14, 15),), (F(15, 14),))  # basis sign convention
    assert not rationally_equivalent(cycle, banana, alb)
    rng = random.Random(1)
    sampler = CartierUnitSampler(banana)
    for _ in range(3):
        h = sampler.draw(rng)
        assert abel_jacobi(div_C(h, banana), banana, alb).is_identity()


def test_two_lines_one_point_trivial_receptor():
    from albx.curve import CurveConfig, SingularPoint, validate
    from albx.infdiv import divisor_group

    single = validate(
        CurveConfig(
            ["C0", "C1"],
            [SingularPoint("p", (Place("C0", 0), Place("C1", 0)), "ordinary")],
            2,
        )
    )
    g = divisor_group(single)
    assert (g.rank, g.dim) == (0, 0)


# --- AJPoint group ---------------------------------------------------------------------


def test_ajpoint_group_laws():
    p = AJPoint((F(2),), (F(1, 2),))
    q = AJPoint((F(3),), (F(1, 3),))
    assert p.combine(q) == AJPoint((F(6),), (F(5, 6),))
    assert p.combine(p.inverse()).is_identity()
    with pytest.raises(ValueError):
        AJPoint((F(0),), ())
