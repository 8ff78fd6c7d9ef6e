"""Exact linear algebra over the rationals and the integers.

There is one rational elimination (RowSpan, a reduced row echelon form
maintained incrementally) and one integer elimination (hnf_rows, the
row Hermite normal form).  Rational kernels are read off the reduced
row space; integer (lattice) kernels come from Hermite reduction of
[A^T | I].  All bases are canonicalized (Hermite form, positive leading
entries, fixed column order) so repeated runs print identical output.
"""

from fractions import Fraction
from math import gcd


def _content(row):
    g = 0
    for x in row:
        g = gcd(g, abs(x))
    return g


def make_primitive(row):
    """Divide an integer row by its content; first nonzero entry > 0."""
    g = _content(row)
    if g == 0:
        return list(row)
    row = [x // g for x in row]
    for x in row:
        if x:
            if x < 0:
                row = [-y for y in row]
            break
    return row


def clear_denominators(row):
    """Scale a row of rationals to a primitive integer row."""
    lcm = 1
    fr = [Fraction(x) for x in row]
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return make_primitive([int(x * lcm) for x in fr])


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
            x[p] = -row[free]
        basis.append(clear_denominators(x))
    return basis


class RowSpan:
    """Incrementally maintained reduced row space over Q."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}  # pivot column -> fully reduced row, pivot entry 1

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, vec):
        v = [Fraction(x) for x in vec]
        for p, row in self._rows.items():
            if v[p]:
                coef = v[p]
                v = [a - coef * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Insert a vector; True iff it enlarged the span."""
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = v[p]
        v = [x / inv for x in v]
        for q, row in self._rows.items():
            if row[p]:
                coef = row[p]
                self._rows[q] = [a - coef * b for a, b in zip(row, v)]
        self._rows[p] = v
        return True

    def contains(self, vec):
        return not any(self.reduce(vec))

    def rows(self):
        """Reduced basis rows ordered by pivot column (deterministic)."""
        return [self._rows[p] for p in sorted(self._rows)]


def integer_kernel_basis(rows, ncols):
    """Canonical basis of the saturated lattice {x in Z^n : A x = 0}.

    Row-reduce [A^T | I] unimodularly; rows whose left block vanishes
    carry a basis of the kernel in their right block.  A second Hermite
    reduction of that basis makes the result unique.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    aug = []
    for i in range(ncols):
        aug.append([rows[k][i] for k in range(m)] + [int(i == j) for j in range(ncols)])
    reduced = hnf_rows(aug, m + ncols)
    kernel = [row[m:] for row in reduced if not any(row[:m])]
    return hnf_rows(kernel, ncols)


# Former name of the routine above, kept because the benchmark's layer
# trace (perfbench/layers.py) looks it up by name.
integer_kernel_hnf = integer_kernel_basis


def hnf_rows(vectors, ncols):
    """Row Hermite normal form of an integer row set (zero rows dropped)."""
    rows = [list(map(int, v)) for v in vectors]
    r = 0
    for c in range(ncols):
        while True:
            nz = [i for i in range(r, len(rows)) if rows[i][c]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(rows[i][c]))
            base = nz[0]
            for i in nz[1:]:
                q = rows[i][c] // rows[base][c]
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[base])]
        nz = [i for i in range(r, len(rows)) if rows[i][c]]
        if not nz:
            continue
        rows[r], rows[nz[0]] = rows[nz[0]], rows[r]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def lll_reduce(basis, delta=Fraction(99, 100)):
    """Lattice-reduce linearly independent integer vectors (exact LLL).

    Classical incremental formulation: Gram-Schmidt data is updated in
    place on size reductions and swaps instead of being recomputed.
    Exactness of callers only depends on the output being another basis
    of the same lattice.
    """
    b = [list(map(int, v)) for v in basis]
    n = len(b)
    if n <= 1:
        return b

    def dot(u, v):
        return sum(Fraction(x) * y for x, y in zip(u, v))

    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n
    star = []
    for i in range(n):
        v = [Fraction(x) for x in b[i]]
        for j in range(i):
            if norms[j] == 0:
                raise ValueError("lll_reduce requires independent vectors")
            mu[i][j] = dot(b[i], star[j]) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
        star.append(v)
        norms[i] = dot(v, v)
    del star

    def size_reduce(k, j):
        q = round(mu[k][j])
        if q:
            b[k] = [x - q * y for x, y in zip(b[k], b[j])]
            mu[k][j] -= q
            for i in range(j):
                mu[k][i] -= q * mu[j][i]

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if norms[k] < (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            b[k], b[k - 1] = b[k - 1], b[k]
            old = mu[k][k - 1]
            pivot = norms[k] + old * old * norms[k - 1]
            if pivot == 0:
                raise ValueError("lll_reduce requires independent vectors")
            mu[k][k - 1] = old * norms[k - 1] / pivot
            norms[k] = norms[k - 1] * norms[k] / pivot
            norms[k - 1] = pivot
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - old * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return b
