import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from oracles import (
    as_primitive_int,
    dense_rows,
    hnf_rows_reference,
    integer_combination,
    integer_kernel_reference,
    lll_reduce_reference,
)

from albx.linalg import (
    RowSpan,
    clear_denominators,
    hnf_rows,
    integer_kernel_basis,
    lll_reduce,
    rational_kernel_basis,
)
from albx.sampling import _joint_kernel


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


def _mixed_rows(rng, ncols, count, bits, zeros=0.3):
    """count rows of ncols entries, each zero with probability zeros, the
    rest odd, of bit lengths drawn from bits, with random signs."""
    return [
        [0 if rng.random() < zeros else rng.choice((1, -1)) * (rng.getrandbits(rng.randint(*bits)) | 1)
         for _ in range(ncols)]
        for _ in range(count)
    ]


def test_kernels_match_one_pass_reference():
    """The kernel that eliminates its small rows first, and the sampler's
    kernel of the small rows and then the large ones, against one Hermite
    pass in the given row order, on rows of 1-3 bits mixed with rows of
    40-180 bits."""
    rng = random.Random(21)
    seen = {"rank-deficient": 0, "empty kernel": 0, "no large rows": 0, "large rows": 0}
    for case in range(600):
        ncols = rng.randint(1, 9)
        small = _mixed_rows(rng, ncols, rng.randint(0, 4), (1, 3))
        large = _mixed_rows(rng, ncols, rng.randint(0, 3), (40, 180))
        if case % 4 == 1 and small + large:
            # a combination of the rows already drawn
            weights = [rng.randint(-2, 2) for _ in small + large]
            extra = [sum(w * row[i] for w, row in zip(weights, small + large)) for i in range(ncols)]
            (large if any(abs(x) > 7 for x in extra) else small).append(extra)
        elif case % 4 == 2:
            small += _mixed_rows(rng, ncols, ncols, (1, 3))
        rows = small + large
        rng.shuffle(rows)
        expected = integer_kernel_reference(rows, ncols)
        assert integer_kernel_basis(rows, ncols) == expected, rows
        assert _joint_kernel(small, large, ncols) == expected, (small, large)
        seen["rank-deficient"] += len(rows) > ncols - len(expected)
        seen["empty kernel"] += not expected
        seen["large rows" if large else "no large rows"] += 1
    assert min(seen.values()) >= 100, seen


def _as_mappings(rows):
    return [{i: x for i, x in enumerate(row) if x} for row in rows]


def test_kernels_match_dense_reference_at_sampler_shape():
    """integer_kernel_basis and hnf_rows, given dense rows and given
    {column: value} mappings, against the dense one-pass references at
    the sampler's shape: up to 80 columns, 70% of the entries zero, rows
    of 1-3 bits mixed with rows of 40-180 bits."""
    rng = random.Random(25)
    seen = {"rank-deficient": 0, "empty kernel": 0, "large rows": 0, "over 40 columns": 0}
    entries = zeros = 0
    for case in range(1000):
        ncols = rng.randint(41, 80) if case % 4 == 2 else rng.randint(1, 14 if case % 4 == 0 else 40)
        wide = ncols > 40
        small = _mixed_rows(rng, ncols, rng.randint(0, 6), (1, 3), zeros=0.7)
        large = _mixed_rows(rng, ncols, rng.randint(0, 1 if wide else 2), (40, 180), zeros=0.7)
        rows = small + large
        if case % 4 == 0:
            # an empty kernel: a triangular block with an odd diagonal, its
            # columns shuffled, under the rows already drawn
            order = rng.sample(range(ncols), ncols)
            for k, c in enumerate(order):
                row = _mixed_rows(rng, ncols, 1, rng.choice(((1, 3), (40, 180))), zeros=0.7)[0]
                for d in order[:k]:
                    row[d] = 0
                row[c] = rng.choice((1, -1)) * (rng.getrandbits(rng.randint(1, 3)) | 1)
                rows.append(row)
        elif case % 4 == 1 and rows:
            # one or two combinations of the rows already drawn
            for _ in range(rng.randint(1, 2)):
                weights = [rng.randint(-2, 2) for _ in rows]
                rows.append([sum(w * row[i] for w, row in zip(weights, rows)) for i in range(ncols)])
        rng.shuffle(rows)
        expected = integer_kernel_reference(rows, ncols)
        assert integer_kernel_basis(rows, ncols) == expected, rows
        assert integer_kernel_basis(_as_mappings(rows), ncols) == expected, rows
        hermite = hnf_rows_reference(rows, ncols)
        assert hnf_rows(rows, ncols) == hermite, rows
        assert hnf_rows(_as_mappings(rows), ncols) == hermite, rows
        seen["rank-deficient"] += len(rows) > ncols - len(expected)
        seen["empty kernel"] += not expected
        seen["large rows"] += any(abs(x).bit_length() > 3 for row in rows for x in row)
        seen["over 40 columns"] += wide
        entries += ncols * len(rows)
        zeros += sum(row.count(0) for row in rows)
    assert min(seen.values()) >= 100, seen
    assert zeros >= 0.6 * entries


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
    assert len(dense_rows(span)) == 2


def test_int_echelon_rank():
    # a repeated row does not raise the rank; pivots land in columns 0, 1
    span = RowSpan(3)
    added = [span.add(row) for row in ([1, 1, 1], [1, 1, 1], [0, 1, 2])]
    assert added == [True, False, True]
    assert span.rank == 2
    pivots = [next(i for i, x in enumerate(r) if x) for r in dense_rows(span)]
    assert pivots == [0, 1]
    assert dense_rows(span) == [[1, 0, -1], [0, 1, 2]]


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
        assert lattice == hnf_rows(lattice, n), rows
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


def test_lll_matches_fraction_reference():
    """Integral LLL returns the basis that LLL over Fraction returns.

    Small entries make exact half-integer mu frequent, so a rounding
    other than half to even shows; n <= 1 is returned as given, and
    dependent input raises on both sides.
    """
    # mu = 1/2 rounds to 0, mu = 3/2 to 2
    assert lll_reduce([[2, 0], [1, 1]]) == [[1, 1], [1, -1]]
    assert lll_reduce([[2, 0], [3, 1]]) == [[-1, 1], [1, 1]]
    assert lll_reduce([]) == [] and lll_reduce([[0, 3]]) == [[0, 3]]
    rng = random.Random(9)
    seen = {"reduced": 0, "dependent": 0, "n<=1": 0}
    for _ in range(1200):
        n = rng.randint(0, 6)
        m = rng.randint(max(n, 1), 8)
        h = rng.choice((1, 2, 5, 100, 10**6))
        basis = [[rng.randint(-h, h) for _ in range(m)] for _ in range(n)]
        if n >= 2 and rng.random() < 0.1:
            basis[-1] = [x - 2 * y for x, y in zip(basis[0], basis[-2])]
        try:
            want = lll_reduce_reference(basis)
        except ValueError:
            with pytest.raises(ValueError):
                lll_reduce(basis)
            seen["dependent"] += 1
            continue
        assert lll_reduce(basis) == want, basis
        seen["n<=1" if n <= 1 else "reduced"] += 1
    assert min(seen.values()) >= 50, seen
