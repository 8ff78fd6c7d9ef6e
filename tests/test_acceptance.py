"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every check is equality on Fractions; the
only tolerance anywhere is the wall-clock limit of criterion 1.  Each
test prints a single PASS line (visible with -s or -rP) after its
assertions went through.
"""

import random
import time
from fractions import Fraction as F

import pytest

from oracles import as_primitive_int, integer_combination, oracle_formal_group

from albx.chow import ZeroCycle, abel_jacobi, albanese_pairing, div_C, interpolate_divisor, rationally_equivalent
from albx.curve import curve_from_modulus, validate
from albx.fixtures import zoo
from albx.funcfield import INF, LaurentSeries, Place
from albx.infdiv import InfinitesimalDivisor, divisor_group, residue_pairing
from albx.linalg import rational_kernel_basis
from albx.motive import OneMotive, albanese, double_dual_check, one_motive
from albx.infdiv import FormalGroupData
from albx.curve import Divisor
from albx.sampling import (
    CartierUnitSampler,
    random_rational,
    random_split_ratfunc,
    random_zero_cycle,
)
from albx.symbols import reciprocity_check


@pytest.fixture(scope="module")
def the_zoo():
    return zoo()


@pytest.fixture(scope="module")
def samplers(the_zoo):
    return {name: CartierUnitSampler(cfg) for name, cfg in the_zoo.items()}


def test_criterion_1_reciprocity_suite():
    """200 seeded random split pairs: Gm product 1 and Ga sum 0, in < 10 s."""
    rng = random.Random(0)
    start = time.time()
    for _ in range(200):
        psi, f = random_split_ratfunc(rng), random_split_ratfunc(rng)
        _, gm = reciprocity_check(psi, f, "gm")
        assert gm == 1
        _, ga = reciprocity_check(psi, f, "ga")
        assert ga == 0
    elapsed = time.time() - start
    assert elapsed < 10.0, f"reciprocity suite took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: reciprocity, 200 pairs in {elapsed:.1f}s")


def test_criterion_2_singularity_zoo(the_zoo):
    """Zoo shapes against the stated values and the independent oracle."""
    expected = {
        "node": (1, 0),
        "cusp": (0, 1),
        "tacnode": (1, 1),
        "triple": (2, 0),
        "fourfold": (3, 0),
    }
    import sympy

    for name, cfg in the_zoo.items():
        g = divisor_group(cfg)
        assert (g.rank, g.dim) == expected[name], name
        etale_null, lie_dims, lie_vectors = oracle_formal_group(cfg)
        assert len(etale_null) == g.rank, name
        assert sum(lie_dims) == g.dim, name
        cols = cfg.branch_places()
        basis = [[d.coeff(q) for q in cols] for d in g.etale_basis]
        for v in etale_null:
            assert integer_combination(basis, as_primitive_int(list(v))), name
        # Lie side: same Q-span as the dense pairing matrix nullspace
        offset = 0
        for sp, (cols_sp, null) in zip(cfg.singular_points, lie_vectors):
            mine = g.lie_basis[offset : offset + len(null)]
            offset += len(null)
            rows = []
            for delta in mine:
                row = []
                for (i, j) in cols_sp:
                    part = delta.part(sp.branches[i])
                    row.append(part.coeffs.get(-j, F(0)) if part else F(0))
                rows.append(row)
            if null:
                a = sympy.Matrix(rows)
                b = sympy.Matrix([list(v.T) for v in null])
                assert a.rank() == b.rank() == a.col_join(b).rank(), name
    print("\nPASS criterion 2: singularity zoo shapes match the oracle")


def test_criterion_3_modulus_formula():
    """dim Lie = sum(n_i - 1) and lattice rank = #support - 1, 20 random moduli."""
    rng = random.Random(1)
    for k in range(20):
        npts = rng.randint(1, 4)
        coords = set()
        while len(coords) < npts:
            if rng.random() < 0.25:
                coords.add(INF)
            else:
                coords.add(random_rational(rng, 8))
        points = [(Place("C0", c), rng.randint(1, 4)) for c in sorted(coords, key=str)]
        cfg = validate(curve_from_modulus(points))
        g = divisor_group(cfg)
        assert g.rank == len(points) - 1, points
        assert g.dim == sum(n - 1 for _, n in points), points
    print("\nPASS criterion 3: modulus formula on 20 random moduli")


def test_criterion_4_abel_jacobi_kernel(the_zoo, samplers):
    """100 seeded random Cartier units per fixture map to the identity."""
    for name, cfg in the_zoo.items():
        rng = random.Random(2)
        alb = albanese(cfg)
        sampler = samplers[name]
        for k in range(100):
            h = sampler.draw(rng)
            point = abel_jacobi(div_C(h, cfg), cfg, alb)
            assert point.is_identity(), (name, k)
    print("\nPASS criterion 4: Abel-Jacobi kernel, 100 units x 5 fixtures")


def test_criterion_5_nodal_cross_ratio(the_zoo):
    """On the node, AJ([a]-[b]) = a/b and equivalence is a = b."""
    cfg = the_zoo["node"]
    alb = albanese(cfg)
    rng = random.Random(3)
    pairs = []
    while len(pairs) < 17:
        a = random_rational(rng, 10, nonzero=True)
        b = random_rational(rng, 10, nonzero=True)
        pairs.append((a, b))
    pairs += [(F(5), F(5)), (F(-3, 7), F(-3, 7)), (F(2), F(3))]  # forced cases
    for a, b in pairs:
        cycle = ZeroCycle([(Place("C0", a), 1), (Place("C0", b), -1)])
        if a != b:
            assert abel_jacobi(cycle, cfg, alb).torus == (a / b,)
        assert rationally_equivalent(cycle, cfg, alb) == (a == b)
    print("\nPASS criterion 5: nodal cross-ratio on 20 pairs")


def test_criterion_6_perfect_pairing():
    """Residue pairing matrices are invertible for orders 1..6."""
    place = Place("C0", 0)
    for nu in range(1, 7):
        rows = []
        for i in range(1, nu + 1):
            f = LaurentSeries(place, -1, {-i: 1})
            rows.append(
                [
                    residue_pairing(f, LaurentSeries(place, nu, {j: 1}))
                    for j in range(1, nu + 1)
                ]
            )
        assert rational_kernel_basis(rows, nu) == [], nu
    print("\nPASS criterion 6: perfect pairing, orders 1..6")


def test_criterion_7_duality_involution(the_zoo):
    """Double dual is the identity on zoo motives and 50 random shapes."""
    for name, cfg in the_zoo.items():
        assert double_dual_check(one_motive(cfg)), name
    rng = random.Random(4)
    for _ in range(50):
        t, v = rng.randint(0, 5), rng.randint(0, 5)
        places = [Place("C0", k) for k in range(t + 1)]
        etale = tuple(Divisor({places[i + 1]: 1, places[0]: -1}) for i in range(t))
        lie = tuple(
            InfinitesimalDivisor(
                {
                    Place("C0", 50 + i): LaurentSeries(
                        Place("C0", 50 + i), -1, {-1: F(rng.randint(1, 9))}
                    )
                }
            )
            for i in range(v)
        )
        assert double_dual_check(OneMotive(FormalGroupData(etale, lie)))
    print("\nPASS criterion 7: duality involution, zoo + 50 random shapes")


def test_criterion_8_scaling_invariance(the_zoo):
    """50 random cycles: AJ coordinates unchanged after rescaling f."""
    rng = random.Random(5)
    names = sorted(the_zoo)
    for k in range(50):
        cfg = the_zoo[names[k % len(names)]]
        alb = albanese(cfg)
        cycle = random_zero_cycle(cfg, rng)
        funcs = {c: interpolate_divisor(cycle, c) for c in cfg.components}
        scaled = {
            c: f * random_rational(rng, 9, nonzero=True) for c, f in funcs.items()
        }
        assert albanese_pairing(funcs, alb) == albanese_pairing(scaled, alb)
        assert abel_jacobi(cycle, cfg, alb) == albanese_pairing(scaled, alb)
    print("\nPASS criterion 8: scaling invariance on 50 cycles")
