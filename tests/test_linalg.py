import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from oracles import as_primitive_int, integer_combination

from albx.linalg import (
    RowSpan,
    clear_denominators,
    hnf_rows,
    integer_kernel_basis,
    lll_reduce,
    rational_kernel_basis,
)


def mat_vec(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    # primitive with positive first nonzero entry
    assert clear_denominators([Fraction(-2), Fraction(4)]) == [1, -2]
    assert clear_denominators([0, 0]) == [0, 0]


def test_rational_kernel():
    basis = rational_kernel_basis([[1, 1, 1]], 3)
    assert all(sum(v) == 0 for v in basis)
    assert len(basis) == 2
    # primitive, first nonzero positive
    for v in basis:
        assert max(v) > 0


def test_rational_kernel_empty_and_full():
    assert rational_kernel_basis([[1, 0], [0, 1]], 2) == []
    assert rational_kernel_basis([], 2) == [[1, 0], [0, 1]]


def gcd_of_maximal_minors(basis):
    """1 exactly when the lattice spanned by the rows is saturated."""
    k, n = len(basis), len(basis[0])
    g = 0
    for cols in itertools.combinations(range(n), k):
        g = gcd(g, int(sympy.Matrix([[row[c] for c in cols] for row in basis]).det()))
    return g


@pytest.mark.parametrize(
    "rows,ncols",
    [
        ([[1, 1]], 2),
        ([[1, 1, 1], [1, 1, 1]], 3),
        ([[2, 4], [1, 2]], 2),
        ([[3, 0, -3, 6]], 4),
        ([[1, 2, 3], [4, 5, 6]], 3),
    ],
)
def test_integer_kernels_agree(rows, ncols):
    # the integer kernel agrees with the rational one: a canonical
    # (Hermite) basis of the saturated lattice in the same Q-span
    basis = integer_kernel_basis(rows, ncols)
    for v in basis:
        assert not any(mat_vec(rows, v))
    assert basis == hnf_rows(basis, ncols)
    assert len(basis) == len(rational_kernel_basis(rows, ncols))
    assert gcd_of_maximal_minors(basis) == 1


def test_integer_kernel_saturated():
    # kernel of [[2, -2]] over Z must contain (1, 1), not just (2, 2)
    assert integer_kernel_basis([[2, -2]], 2) == [[1, 1]]


def test_hnf_rows_canonical():
    # above-pivot entries are reduced into [0, pivot)
    rows = hnf_rows([[2, 1, 0], [4, 3, 1]], 3)
    assert rows == [[2, 0, -1], [0, 1, 1]]
    assert hnf_rows([[0, 0]], 2) == []


def test_row_span():
    span = RowSpan(3)
    assert span.add([1, 2, 3])
    assert not span.add([2, 4, 6])
    assert span.add([0, 1, 1])
    assert span.contains([1, 3, 4])
    assert not span.contains([0, 0, 1])
    assert span.rank == 2
    assert len(span.rows()) == 2


def test_int_echelon_rank():
    # a repeated row does not raise the rank; pivots land in columns 0, 1
    span = RowSpan(3)
    added = [span.add(row) for row in ([1, 1, 1], [1, 1, 1], [0, 1, 2])]
    assert added == [True, False, True]
    assert span.rank == 2
    pivots = [next(i for i, x in enumerate(r) if x) for r in span.rows()]
    assert pivots == [0, 1]
    assert span.rows() == [[1, 0, -1], [0, 1, 2]]


def random_matrix(rng):
    """Small matrix with int or Fraction entries, zero rows and mostly zero
    entries, so ranks range from zero to full."""
    m, n = rng.randint(0, 5), rng.randint(1, 5)
    fractions = rng.random() < 0.5
    rows = []
    for _ in range(m):
        if rng.random() < 0.15:
            rows.append([0] * n)
            continue
        row = []
        for _ in range(n):
            if rng.random() < 0.4:
                row.append(0)
            elif fractions:
                row.append(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
            else:
                row.append(rng.randint(-4, 4))
        rows.append(row)
    return rows, n


def canonical(vec):
    """Primitive integer vector with first nonzero entry positive."""
    v = as_primitive_int(vec)
    lead = next((x for x in v if x), 0)
    return [-x for x in v] if lead < 0 else v


def test_kernels_match_sympy_nullspace():
    rng = random.Random(20061)
    seen = {"fraction": 0, "zero_row": 0, "full_rank": 0, "trivial_kernel": 0}
    for _ in range(240):
        rows, n = random_matrix(rng)
        null = sympy.Matrix(len(rows), n, [x for r in rows for x in r]).nullspace()
        oracle = [canonical(list(v)) for v in null]
        assert rational_kernel_basis(rows, n) == oracle, rows

        integer_rows = [as_primitive_int(r) for r in rows]
        lattice = integer_kernel_basis(integer_rows, n)
        assert len(lattice) == len(oracle), rows
        for v in lattice:
            assert not any(mat_vec(rows, v)), rows
        for v in oracle:
            assert integer_combination(lattice, v), rows

        seen["fraction"] += any(isinstance(x, Fraction) for r in rows for x in r)
        seen["zero_row"] += any(not any(r) for r in rows)
        seen["full_rank"] += bool(rows) and n - len(null) == min(len(rows), n)
        seen["trivial_kernel"] += not null
    assert all(count >= 10 for count in seen.values()), seen


def test_lll_preserves_lattice_and_shrinks():
    basis = [[1, 0, 0, 1345], [0, 1, 0, 35], [0, 0, 1, 154]]
    red = lll_reduce(basis)
    assert max(abs(x) for v in red for x in v) < 50
    # same lattice: mutual integer membership via Hermite forms
    assert hnf_rows(basis, 4) == hnf_rows(red, 4)


def test_lll_rejects_dependent():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])
