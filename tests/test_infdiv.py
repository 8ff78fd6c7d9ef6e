"""Kernels and pairings, cross-checked against independent oracles.

The oracles (tests/oracles.py) recompute everything from scratch with
sympy: span closures by rational row reduction on dense matrices,
kernels as nullspaces.  They share no code path with the package's
own elimination routines.
"""

from collections import Counter
import itertools
from fractions import Fraction as F
import random
import sys

import pytest
import sympy

from oracles import (
    as_primitive_int,
    etale_kernel_reference,
    integer_combination,
    oracle_formal_group,
)

from albx import linalg
from albx.curve import CurveConfig, Divisor, SingularPoint, validate
from albx.errors import InputError, InsufficientTruncationError
from albx.fixtures import line_chain, rfold
from albx.funcfield import INF, LaurentSeries, Place
from albx.infdiv import (
    FormalGroupData,
    InfinitesimalDivisor,
    divisor_group,
    etale_kernel,
    lie_kernel,
    residue_pairing,
)

P0 = Place("C0", 0)


def principal(coeffs, place=P0):
    return LaurentSeries(place, -1, coeffs)


# --- residue pairing -----------------------------------------------------------


def test_residue_pairing_examples():
    g1 = LaurentSeries(P0, 3, {1: 1})
    g2 = LaurentSeries(P0, 3, {2: 1})
    assert residue_pairing(principal({-1: 1}), g1) == 1
    assert residue_pairing(principal({-1: 1}), g2) == 0
    assert residue_pairing(principal({-2: 1}), g2) == 2


def test_residue_pairing_truncation_guard():
    g = LaurentSeries(P0, 1, {1: 1})
    with pytest.raises(InsufficientTruncationError):
        residue_pairing(principal({-2: 1}), g)


def test_residue_pairing_rejects_negative_order():
    with pytest.raises(InputError):
        residue_pairing(principal({-1: 1}), LaurentSeries(P0, 2, {-1: 1}))


def test_perfect_pairing_matrices():
    # the matrix of Res(u^-i d(u^j)) on 1..nu is invertible for each nu
    for nu in range(1, 7):
        m = sympy.Matrix(
            nu,
            nu,
            lambda i, j: residue_pairing(
                principal({-(i + 1): 1}), LaurentSeries(P0, nu, {j + 1: 1})
            ),
        )
        assert m.det() != 0


# --- independent oracles (tests/oracles.py) -----------------------------------


ZOO_EXPECTED = {
    "node": (1, 0),
    "cusp": (0, 1),
    "tacnode": (1, 1),
    "triple": (2, 0),
    "fourfold": (3, 0),
}


def test_zoo_kernels_match_oracle(whole_zoo):
    for name, cfg in whole_zoo.items():
        g = divisor_group(cfg)
        assert (g.rank, g.dim) == ZOO_EXPECTED[name], name
        etale_null, lie_dims, lie_vectors = oracle_formal_group(cfg)
        assert len(etale_null) == g.rank, name
        assert sum(lie_dims) == g.dim, name
        # lattice equality: oracle vectors are integer combinations of the
        # computed basis and conversely
        cols = cfg.branch_places()
        basis_vectors = [[d.coeff(q) for q in cols] for d in g.etale_basis]
        for v in etale_null:
            prim = as_primitive_int(list(v))
            assert integer_combination(basis_vectors, prim), name
        oracle_prims = [as_primitive_int(list(v)) for v in etale_null]
        for b in basis_vectors:
            assert integer_combination(oracle_prims, b) or not oracle_prims, name


def test_zoo_lie_bases_match_oracle(whole_zoo):
    for name, cfg in whole_zoo.items():
        n = cfg.truncation
        computed = lie_kernel(cfg)
        _, _, lie_vectors = oracle_formal_group(cfg)
        # per point, compare Q-spans on the candidate pole coordinates
        offset = 0
        for sp, (cols_sp, null) in zip(cfg.singular_points, lie_vectors):
            mine = computed[offset : offset + len(null)]
            offset += len(null)
            my_rows = []
            for delta in mine:
                row = []
                for (i, j) in cols_sp:
                    part = delta.part(sp.branches[i])
                    row.append(part.coeffs.get(-j, F(0)) if part else F(0))
                my_rows.append(row)
            if null:
                a = sympy.Matrix(my_rows)
                b = sympy.Matrix([list(v.T) for v in null])
                assert a.rank() == b.rank() == a.col_join(b).rank(), name
        assert offset == len(computed), name


def test_node_etale_basis_exact(node):
    assert etale_kernel(node) == [
        Divisor({Place("C0", 0): 1, Place("C0", INF): -1})
    ]
    assert lie_kernel(node) == []


def test_cusp_lie_basis_exact(cusp):
    assert etale_kernel(cusp) == []
    assert lie_kernel(cusp) == [InfinitesimalDivisor({P0: principal({-1: 1})})]


def test_tacnode_bases_exact(tacnode):
    q1, q2 = tacnode.singular_points[0].branches
    assert etale_kernel(tacnode) == [Divisor({q1: 1, q2: -1})]
    assert lie_kernel(tacnode) == [
        InfinitesimalDivisor(
            {q1: principal({-1: 1}, q1), q2: principal({-1: -1}, q2)}
        )
    ]


def test_etale_kernel_brute_force(node, triple):
    # exhaustive small-box check: every admissible vector is in the lattice
    for cfg, rank in ((node, 1), (triple, 2)):
        cols = cfg.branch_places()
        basis = [[d.coeff(q) for q in cols] for d in etale_kernel(cfg)]
        assert len(basis) == rank
        for vec in itertools.product(range(-2, 3), repeat=len(cols)):
            degrees = {}
            for q, m in zip(cols, vec):
                degrees[q.component] = degrees.get(q.component, 0) + m
            point_sums = {}
            for sp in cfg.singular_points:
                point_sums[sp.name] = sum(
                    m for q, m in zip(cols, vec) if q in set(sp.branches)
                )
            admissible = not any(degrees.values()) and not any(point_sums.values())
            assert admissible == integer_combination(basis, list(vec))


def test_modulus_curve_group(cusp):
    from albx.fixtures import modulus_curve

    cfg = modulus_curve([(Place("C0", 0), 2), (Place("C0", INF), 1)])
    g = divisor_group(cfg)
    assert (g.rank, g.dim) == (1, 1)
    assert g.etale_basis[0] == Divisor({Place("C0", 0): 1, Place("C0", INF): -1})
    delta = g.lie_basis[0]
    assert delta.part(Place("C0", 0)).coeffs == {-1: F(1)}


def test_formal_group_data_shape():
    g = FormalGroupData()
    assert (g.rank, g.dim) == (0, 0)
    h = FormalGroupData((Divisor({P0: 1, Place("C0", 1): -1}),), ())
    assert (h.rank, h.dim) == (1, 0)


def test_unvalidated_config_rejected():
    from albx.curve import CurveConfig, SingularPoint

    cfg = CurveConfig(
        ["C0"], [SingularPoint("p", (P0, Place("C0", INF)), "ordinary")], 2
    )
    from albx.errors import ValidationError

    with pytest.raises(ValidationError):
        etale_kernel(cfg)


def _random_dual_graph(rng):
    """1-6 lines and 1-6 ordinary points of 2-5 branches each, on distinct
    places drawn from 0..9 and infinity of random lines."""
    comps = [f"C{k}" for k in range(rng.randint(1, 6))]
    free = [Place(c, x) for c in comps for x in [*range(10), INF]]
    rng.shuffle(free)
    points = []
    for k in range(rng.randint(1, 6)):
        r = rng.randint(2, 5)
        if len(free) < r:
            break
        branches, free = free[:r], free[r:]
        points.append(SingularPoint(f"p{k}", branches))
    return validate(CurveConfig(comps, points, 2))


def test_etale_kernel_matches_integer_kernel():
    # the fundamental cycles in Hermite form are the Hermite form of the
    # integer kernel of the degree and fiber rows
    rng = random.Random(1919)
    vectors = cyclic = 0
    for _ in range(2000):
        cfg = _random_dual_graph(rng)
        got = etale_kernel(cfg)
        assert got == etale_kernel_reference(cfg), cfg
        vectors += len(got)
        cyclic += bool(got)
    assert vectors > 10000 and cyclic > 1800


def test_etale_kernel_runs_no_elimination(monkeypatch, whole_zoo):
    # the forest's cycles are the Hermite form, so no elimination runs:
    # hnf_rows and integer_kernel_basis are wrapped in every albx module
    # that holds them, as `from .linalg import ...` copies the reference
    curves = [*whole_zoo.values(), *(rfold(r) for r in range(2, 9))]
    curves += [line_chain(k, ["ordinary"] * n) for k in range(2, 7) for n in (k - 1, k)]
    expected = [etale_kernel_reference(cfg) for cfg in curves]
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    wrapped = 0
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "albx":
            for name in ("hnf_rows", "integer_kernel_basis"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
                    wrapped += 1
    assert wrapped >= 4  # linalg and sampling hold both
    got = [etale_kernel(cfg) for cfg in curves]
    assert calls == Counter()
    assert got == expected
    # the wrappers count: integer_kernel_basis calls hnf_rows through linalg
    linalg.integer_kernel_basis([[1, 1]], 2)
    assert calls == Counter({"integer_kernel_basis": 1, "hnf_rows": 1})


def test_principal_parts_kept_at_their_place():
    # a part at truncation -1 at its own place is kept as built; any other
    # is rebuilt there at -1
    kept = principal({-2: 1, -1: 3})
    moved = LaurentSeries(Place("C0", 1), -1, {-1: 1})
    deep = LaurentSeries(P0, 4, {-1: 2, 3: 1})
    delta = InfinitesimalDivisor({P0: kept, Place("C0", 2): moved})
    assert delta.part(P0) is kept
    assert delta.part(Place("C0", 2)) == principal({-1: 1}, Place("C0", 2))
    with pytest.raises(InputError, match="nonnegative exponent"):
        InfinitesimalDivisor({P0: deep})
    assert InfinitesimalDivisor({P0: LaurentSeries(P0, 4, {-1: 2})}).part(P0) == principal({-1: 2})
