"""Exact linear algebra over the rationals and the integers.

There is one rational elimination (RowSpan, a sparse reduced row
echelon form maintained incrementally) and one integer elimination
(Euclid column by column on sparse rows, under hnf_rows, the row
Hermite normal form).  Rational kernels are read off the reduced row
space; integer (lattice) kernels come from clearing A's columns of
[A^T | I].  All bases are canonicalized (Hermite form, positive leading
entries, fixed column order) so repeated runs print identical output.
"""

from fractions import Fraction
from math import gcd

from .arith import common_denominator


def clear_denominators(row):
    """Scale a row of rationals to a primitive integer row, first nonzero entry > 0."""
    ints = common_denominator(row)[0]
    g = gcd(*ints)
    if g and next(x for x in ints if x) < 0:
        g = -g
    return [x // g for x in ints] if g else ints


def rational_kernel_basis(rows, ncols):
    """Basis of {x : A x = 0} over Q, one vector per free column.

    Rows may hold ints or Fractions.  The reduced row echelon form of the
    row space gives, for each free column f, the vector with x[f] = 1 and
    x[p] = -row_p[f] at every pivot p.  Basis vectors come back as
    primitive integer vectors, ordered by free column, first nonzero
    entry positive.
    """
    span = RowSpan(ncols)
    for row in rows:
        span.add(row)
    basis = []
    for free in range(ncols):
        if free in span._rows:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for p, row in span._rows.items():
            x[p] = -row.get(free, 0)
        basis.append(clear_denominators(x))
    return basis


def _sparse(vec, kind):
    """A {column: value} mapping or a dense sequence as {column: kind(value)}
    without its zero entries."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    return {c: kind(x) for c, x in items if x}


def _subtract(v, coef, row):
    """v -= coef * row in place, on sparse rows {column: nonzero entry}."""
    for c, b in row.items():
        x = v.get(c, 0) - coef * b
        if x:
            v[c] = x
        else:
            del v[c]


class RowSpan:
    """Incrementally maintained reduced row space over Q, stored sparsely.

    Rows are {column: nonzero Fraction} with pivot entry 1, fully reduced
    (no row has a nonzero entry at another row's pivot), so reducing a
    vector costs only the nonzeros of the rows whose pivots it touches.
    """

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}  # pivot column -> sparse row

    @property
    def rank(self):
        return len(self._rows)

    def _reduce(self, vec):
        """Remainder of a vector modulo the span, as a sparse row; vec is a
        {column: value} mapping, whose zero entries are dropped, or dense."""
        v = _sparse(vec, Fraction)
        # No row has an entry at another pivot, so each pivot in v's
        # support is cleared exactly once, by its own row.
        for p in [p for p in v if p in self._rows]:
            _subtract(v, v[p], self._rows[p])
        return v

    def add(self, vec):
        """Insert a {column: value} row or a dense vector; True iff it enlarged the span."""
        v = self._reduce(vec)
        if not v:
            return False
        p = min(v)
        inv = v[p]
        if inv != 1:
            v = {c: x / inv for c, x in v.items()}
        for row in self._rows.values():
            if p in row:
                _subtract(row, row[p], v)
        self._rows[p] = v
        return True

    def contains(self, vec):
        return not self._reduce(vec)

    def sparse_rows(self):
        """(pivot, sparse row) pairs in pivot order; the rows are the span's
        own, not copies."""
        return sorted(self._rows.items())


def _pivot_on(rows, c):
    """Euclid on column c of sparse integer rows, in place: the rows with an
    entry there are reduced, to the nearest remainder, by the one with the
    smallest entry (then fewest entries) until one is left.  Returns it, or
    None, and the nonzero rows without an entry at c."""
    hit, rest = [r for r in rows if c in r], [r for r in rows if c not in r]
    while len(hit) > 1:
        hit.sort(key=lambda r: (abs(r[c]), len(r)))
        base, *others = hit
        hit = [base]
        for r in others:
            q, rem = divmod(r[c], base[c])
            _subtract(r, q + (2 * abs(rem) > abs(base[c])), base)
            if c in r:
                hit.append(r)
            elif r:
                rest.append(r)
    return (hit[0] if hit else None), rest


def _hermite(rows):
    """Row Hermite normal form of nonzero sparse integer rows, in pivot
    order: each pivot positive, the entries above it in [0, pivot)."""
    out = []
    while rows:
        c = min(map(min, rows))
        p, rows = _pivot_on(rows, c)
        if p[c] < 0:
            p = {k: -x for k, x in p.items()}
        for h in out:
            q = h.get(c, 0) // p[c]
            if q:
                _subtract(h, q, p)
        out.append(p)
    return out


def integer_kernel_basis(rows, ncols):
    """Canonical basis of the saturated lattice {x in Z^n : A x = 0}.

    [A^T | I] is kept as sparse rows, one per column of A, with I in
    columns 0..n-1 and A's rows after it.  Each of A's rows is cleared by
    Euclid on the rows with an entry there, and the row left holding it
    is dropped; the rest lie in I's columns, and hnf_rows brings them to
    Hermite form.  A's rows go smallest entries first, since a large
    one eliminated early blows up the identity block.  The kernel, and so
    its Hermite form, does not depend on the order (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).
    """
    rows = sorted((_sparse(r, int) for r in rows), key=lambda r: max(map(abs, r.values()), default=0))
    aug = [{i: 1} for i in range(ncols)]
    for k, row in enumerate(rows, ncols):
        for i, x in row.items():
            aug[i][k] = x
    for k in range(ncols, ncols + len(rows)):
        aug = _pivot_on(aug, k)[1]
    return hnf_rows(aug, ncols)


# Former name of the routine above, kept because the benchmark's layer
# trace (perfbench/layers.py) looks it up by name.
integer_kernel_hnf = integer_kernel_basis


def hnf_rows(vectors, ncols):
    """Row Hermite normal form, as dense rows of length ncols, of integer
    rows given dense or as {column: value} mappings (zero rows dropped)."""
    rows = [r for r in (_sparse(v, int) for v in vectors) if r]
    return [[h.get(c, 0) for c in range(ncols)] for h in _hermite(rows)]


# Lovasz constant of lll_reduce, as numerator and denominator of 99/100
_LOVASZ_NUM, _LOVASZ_DEN = 99, 100


def _round_half_even(num, den):
    """round(num / den) for den > 0, ties to even like round(Fraction)."""
    q, r = divmod(2 * num + den, 2 * den)
    return q - 1 if r == 0 and q % 2 else q


def lll_reduce(basis):
    """Lattice-reduce linearly independent integer vectors (integral LLL).

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7:
    the Gram-Schmidt data is kept as integers, d[i] the Gram determinant
    of the first i vectors and lam[k][j] = d[j+1] mu[k][j], updated by
    exact division on size reductions and swaps.  The Lovasz test with
    constant 99/100 and the half-even rounding of mu are the rational
    algorithm's, so the output is the same basis.  Dependent input
    raises ValueError.
    """
    b = [list(map(int, v)) for v in basis]
    n = len(b)
    if n <= 1:
        return b

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = dot(b[k], b[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("lll_reduce requires independent vectors")
            else:
                d[k + 1] = u

    def size_reduce(k, j):
        q = _round_half_even(lam[k][j], d[j + 1])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= q * d[j + 1]
            for i in range(j):
                lam[k][i] -= q * lam[j][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        t = lam[k][k - 1]
        if _LOVASZ_DEN * d[k + 1] * d[k - 1] < _LOVASZ_NUM * d[k] ** 2 - _LOVASZ_DEN * t * t:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            pivot = (d[k - 1] * d[k + 1] + t * t) // d[k]
            for i in range(k + 1, n):
                s = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - t * s) // d[k]
                lam[i][k - 1] = (pivot * s + t * lam[i][k]) // d[k + 1]
            d[k] = pivot
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return b
