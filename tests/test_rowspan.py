"""Differential tests: the sparse RowSpan against the dense reference.

DenseRowSpan in oracles.py is the plain dense Fraction elimination.  The
reduced row echelon form is unique, so both must agree on every return
value and every row.  Every case is seeded.
"""

from fractions import Fraction as F
import random

from albx.curve import CurveConfig, SingularPoint, curve_from_modulus, validate
from albx.fixtures import line_chain, tacnode_point, zoo
from albx.funcfield import INF, LaurentSeries, Place
from albx.linalg import RowSpan, rational_kernel_basis
from oracles import (
    DenseRowSpan,
    dense_closure_rows,
    dense_rows,
    lift_to_truncation,
    rational_kernel_basis_reference,
)

CASES = 1000


def _entry(rng, fractions):
    if not fractions or rng.random() < 0.3:
        return rng.randint(-6, 6)
    return F(rng.randint(-40, 40), rng.randint(1, 12))


def _row(rng, ncols, fractions, density):
    return [_entry(rng, fractions) if rng.random() < density else 0 for _ in range(ncols)]


def _combination(rng, rows, ncols):
    out = [F(0)] * ncols
    for row in rows:
        coef = F(rng.randint(-5, 5), rng.randint(1, 4))
        out = [a + coef * b for a, b in zip(out, row)]
    return out


def _case(rng):
    """Up to 12 rows of up to 16 columns: sparse or dense, often rank-deficient,
    with repeated, rescaled and zero rows."""
    ncols = rng.randint(1, 16)
    nrows = rng.randint(0, 12)
    fractions = rng.random() < 0.6
    density = rng.choice((0.15, 0.3, 1.0))
    base = [_row(rng, ncols, fractions, density) for _ in range(rng.randint(1, 6))]
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.1:
            rows.append([0] * ncols)
        elif pick < 0.25 and rows:
            k = rng.choice((1, -1, 3, F(1, 2)))
            rows.append([k * x for x in rng.choice(rows)])
        elif pick < 0.6:
            rows.append(_combination(rng, rng.sample(base, rng.randint(1, len(base))), ncols))
        else:
            rows.append(_row(rng, ncols, fractions, density))
    return ncols, rows


def test_row_span_matches_dense_reference():
    rng = random.Random(20260)
    outside = 0
    for _ in range(CASES):
        ncols, rows = _case(rng)
        sparse, dense = RowSpan(ncols), DenseRowSpan(ncols)
        for row in rows:
            assert sparse.add(row) == dense.add(row)
            assert sparse.rank == dense.rank
        assert dense_rows(sparse) == dense.rows()
        assert all(type(x) is F for row in dense_rows(sparse) for x in row)
        inserted = [r for r in rows if any(r)]
        for _ in range(4):
            if inserted:
                some = rng.sample(inserted, rng.randint(1, len(inserted)))
                probe = _combination(rng, some, ncols)
                assert sparse.contains(probe) and dense.contains(probe)
            probe = _row(rng, ncols, True, rng.choice((0.2, 1.0)))
            inside = dense.contains(probe)
            assert sparse.contains(probe) == inside
            outside += not inside
        assert rational_kernel_basis(rows, ncols) == rational_kernel_basis_reference(rows, ncols)
    assert outside > CASES  # the outside probes are mostly outside


def _mapping(rng, row):
    """A dense row as a {column: value} mapping: every nonzero entry, and
    some of the zero ones written out."""
    return {c: x for c, x in enumerate(row) if x or rng.random() < 0.3}


def test_row_span_takes_mappings():
    # the same seeded rows, given as mappings and as dense lists
    rng = random.Random(20261)
    zeros = 0
    for _ in range(CASES // 4):
        ncols, rows = _case(rng)
        by_mapping, by_list = RowSpan(ncols), RowSpan(ncols)
        for row in rows:
            mapping = _mapping(rng, row)
            zeros += sum(not x for x in mapping.values())
            assert by_mapping.add(mapping) == by_list.add(row)
        assert by_mapping.sparse_rows() == by_list.sparse_rows()
        assert by_mapping.rank == by_list.rank
        for _ in range(4):
            probe = _row(rng, ncols, True, rng.choice((0.2, 1.0)))
            if rows and rng.random() < 0.5:
                probe = _combination(rng, rng.sample(rows, rng.randint(1, len(rows))), ncols)
            inside = by_list.contains(probe)
            assert by_mapping.contains(_mapping(rng, probe)) == inside
            assert by_list.contains(_mapping(rng, probe)) == inside
    assert zeros > CASES  # explicit zero entries were offered


def _rfold(r, n=2):
    branches = tuple(Place("C0", k) for k in range(r - 1)) + (Place("C0", INF),)
    return CurveConfig(["C0"], [SingularPoint("p", branches)], n)


def _lines(rng):
    """Chains and cycles of 2 to 6 lines: nodes only, and seeded mixes with tacnodes."""
    out = []
    for k in range(2, 7):
        for closed in (0, 1):
            out.append(line_chain(k, ["ordinary"] * (k - 1 + closed)))
            kinds = [rng.choice(("ordinary", "tacnode")) for _ in range(k - 1 + closed)]
            out.append(line_chain(k, kinds))
    return out


def _explicit(kind, n):
    mono = LaurentSeries.monomial
    q1, q2 = Place("C0", 0), Place("C0", 1)
    if kind == "cusp":
        gens = ((mono(q1, 2, 1, n),), (mono(q1, 3, 1, n),))
        sp = SingularPoint("p", (q1,), "explicit", (1,), gens)
    else:
        sp = tacnode_point("p", q1, q2, n)
    return CurveConfig(["C0"], [sp], n)


def _moduli(count):
    rng = random.Random(4811)
    out = []
    for _ in range(count):
        coords = set()
        for _ in range(rng.randint(1, 4)):
            coords.add(INF if rng.random() < 0.25 else F(rng.randint(-99, 99), rng.randint(1, 9)))
        out.append(curve_from_modulus([(Place("C0", a), rng.randint(1, 4)) for a in coords]))
    return out


def test_mhat_span_matches_dense_closure():
    configs = [_rfold(r) for r in range(2, 17)]
    configs += [_rfold(r, n) for r in range(2, 13) for n in range(3, 9)]
    configs += [_explicit(kind, n) for kind in ("cusp", "tacnode") for n in (10, 20, 40, 80)]
    configs += _moduli(48)
    checked = [validate(cfg) for cfg in configs] + list(zoo().values()) + _lines(random.Random(7))
    for cfg in checked:
        for sp in cfg.singular_points:
            expected = dense_closure_rows(sp, cfg.truncation)
            lifted = lift_to_truncation(cfg.mhat_span(sp.name), sp, cfg.truncation)
            assert dense_rows(lifted) == expected, (cfg, sp.name)
