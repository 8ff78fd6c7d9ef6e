"""Independent brute-force oracles used by the kernel and acceptance tests.

Everything here recomputes results from raw configuration data with
sympy row reduction (exhaustive row reduction for the integer side,
dense pairing matrices for the Lie side).  No code is shared with the
package's own elimination routines, except where a reference says so:
etale_kernel_reference runs linalg.integer_kernel_basis, which the
linalg tests check against sympy.  The dense Fraction kernels at the
end are the reference the integer polynomial and series kernels of
funcfield are tested against, repeated squaring is the reference for
the power recurrence, expand_at_reference is the reference for
funcfield.expand_at, leading_term and (through residue_symbol_reference)
symbols.residue_symbol: the valuation by repeated division, each
polynomial's shifted coefficients by repeated Horner division, the
denominator inverted by its coefficient recurrence, and one full
product.  reduced_reference (Euclid on every quotient) is the reference for
RatFunc's shortcuts past Euclid, and DenseRowSpan is the reference for
the sparse RowSpan of linalg.  random_congruent_function and
symbol_sum_over_divisor make the randomized certificate that the local
modulus criterion of symbols.is_modulus is tested against.
hnf_rows_reference (the dense Hermite pass, column by column) is the
reference for linalg.hnf_rows, which eliminates on sparse rows, and
integer_kernel_reference (one dense Hermite pass over [A^T | I] with A's
rows in the order given, through hnf_rows_reference) is the reference
for linalg.integer_kernel_basis, which eliminates the small rows first
on sparse rows, and for the sampler's kernel of its small rows and then
its jet rows.
lll_reduce_reference (LLL over Fraction Gram-Schmidt data) and
l1_sweep_reference (the unpruned sweep) are the reference path for
linalg.lll_reduce and the sampler's kernel basis.
from_factors_reference (the eager integer products) is the reference for
the dense numerator and denominator that RatFunc.from_factors multiplies
out on each read, and, as a dense function, for the local form that
funcfield reads off a factored function.
closure_verdict_reference (the closure through the truncation order,
probed at every power) is the reference for curve.validate, which
closes an explicit point only through 2c + 1, and etale_kernel_reference
(the integer kernel of the degree and fiber rows) is the reference for
the fundamental cycles of infdiv.etale_kernel.
certify_cartier_reference expands every branch through the truncation
and tests the centered jets against the maximal ideal through the
truncation at every point, ordinary ones included, closed by its own
call of the package's closure: the reference for chow.certify_cartier,
which reads each branch only through its conductor, against the span
that validate keeps modulo the conductor.  lift_to_truncation carries
that span back to the truncation order, for the tests written against
the span through N.  torus_reference evaluates dense interpolants at the
branch places: the reference for the integer torus coordinates of
chow.abel_jacobi.  lie_coordinates_reference expands dlog by
dlog_reference anew for every (Lie vector, place) pair, through that
vector's own pole order: the reference for the Lie coordinates of
chow.abel_jacobi and chow.albanese_pairing, which expand dlog once per
branch place.  is_cartier_unit is chow.certify_cartier as a
predicate, for the tests.  parse_rat_reference (the full literal grammar
for every literal, with arith's parse_int and abbreviate) is the reference
for arith.parse_rat, which reads the plain forms a and a/b by int alone.
base_points_reference (probe 0, 1, 2, ... with a Place each, against the
set of branch places) is the reference for motive.base_points_for, which
reads each component's branch coordinates as one set.
"""

from fractions import Fraction as F
from math import gcd
import re

import sympy

from albx.arith import MAX_HEIGHT, abbreviate, format_rat, parse_int
from albx.chow import certify_cartier
from albx.curve import Divisor, _closure_span, validate
from albx.errors import InputError, NotCartierError, UndefinedValuationError
from albx.funcfield import LaurentSeries, Place, Poly, RatFunc, expand_at, split_divisor
from albx.linalg import RowSpan, integer_kernel_basis
from albx.symbols import residue_symbol, tame_symbol


def jet_vector(tup, r, n):
    """Flatten a branch tuple of {exponent: coeff} (None = 0) onto u^1..u^n per branch."""
    out = [F(0)] * (r * n)
    for i, series in enumerate(tup):
        for e, c in (series or {}).items():
            if e <= n:
                out[i * n + e - 1] = c
    return out


def point_generators(sp):
    """A point's ideal generators as branch tuples of {exponent: coeff} (None = 0);
    at an ordinary point, u on each branch."""
    if sp.kind == "ordinary":
        r = len(sp.branches)
        return [tuple({1: F(1)} if j == i else None for j in range(r)) for i in range(r)]
    return [tuple(None if s is None else dict(s.coeffs) for s in tup) for tup in sp.generators]


def jet_product(t1, t2, n):
    """Branchwise product of two branch tuples, truncated above u^n."""
    out = []
    for s1, s2 in zip(t1, t2):
        if s1 is None or s2 is None:
            out.append(None)
            continue
        prod = {}
        for e1, c1 in s1.items():
            for e2, c2 in s2.items():
                if e1 + e2 <= n:
                    prod[e1 + e2] = prod.get(e1 + e2, F(0)) + c1 * c2
        out.append(prod)
    return out


def oracle_formal_group(cfg):
    """(etale nullspace, per-point Lie dims, per-point Lie nullspaces)."""
    n = cfg.truncation
    cols = cfg.branch_places()
    rows = []
    for comp in cfg.components:
        rows.append([1 if q.component == comp else 0 for q in cols])
    for sp in cfg.singular_points:
        rows.append([1 if q in set(sp.branches) else 0 for q in cols])
    etale_null = sympy.Matrix(rows).nullspace() if cols else []

    lie_dims = []
    lie_vectors = []
    for sp in cfg.singular_points:
        r = len(sp.branches)
        gens = point_generators(sp)
        closure = list(gens)
        frontier = list(gens)
        while frontier:
            new = []
            for g in gens:
                for m in frontier:
                    prod = jet_product(g, m, n)
                    mat = sympy.Matrix([jet_vector(t, r, n) for t in closure])
                    cand = sympy.Matrix([jet_vector(prod, r, n)])
                    if mat.rank() < mat.col_join(cand).rank():
                        closure.append(prod)
                        new.append(prod)
            frontier = new
        span_rows = [jet_vector(t, r, n) for t in closure]
        cols_sp = [(i, j) for i in range(r) for j in range(1, sp.conductors[i] + 1)]
        if not cols_sp:
            lie_dims.append(0)
            lie_vectors.append((cols_sp, []))
            continue
        pairing = sympy.Matrix(
            [[j * row[i * n + j - 1] for (i, j) in cols_sp] for row in span_rows]
        )
        null = pairing.nullspace()
        lie_dims.append(len(null))
        lie_vectors.append((cols_sp, null))
    return etale_null, lie_dims, lie_vectors


def as_primitive_int(vec):
    fr = [F(x) for x in vec]
    lcm = 1
    for x in fr:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in fr]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return [x // g for x in ints] if g else ints


def integer_combination(basis, target):
    """Is target an integer combination of the basis vectors?"""
    if not basis:
        return not any(target)
    mat = sympy.Matrix(basis).T
    sol = mat.solve_least_squares(sympy.Matrix(target))
    if list(mat * sol) != list(sympy.Matrix(target)):
        return False
    return all(x.is_integer for x in sol)


# --- dense Fraction kernels, the reference for funcfield's integer kernels ---


def poly_mul_reference(a, b):
    """a * b by the Fraction schoolbook product."""
    if a.is_zero() or b.is_zero():
        return Poly()
    out = [F(0)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return Poly(out)


def poly_pow_reference(p, n):
    """p^n by repeated squaring through Poly products."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    out, base = Poly.const(1), p
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def from_factors_reference(factors, scale=1, component="C0"):
    """scale * prod (t - a)^e as a dense RatFunc, multiplied out at once:
    integer products of (q t - r)^|e| for a = r/q, one linear pass per unit
    of |e|, each made monic in one Fraction per coefficient at the end."""
    num, den = [1], [1]
    for a, e in factors:
        a = F(a)
        r, q = a.numerator, a.denominator
        for _ in range(e):
            num = [q * x - r * y for x, y in zip([0, *num], [*num, 0])]
        for _ in range(-e):
            den = [q * x - r * y for x, y in zip([0, *den], [*den, 0])]
    scale = F(scale)
    n, d = scale.numerator, scale.denominator * num[-1]
    return RatFunc._raw(
        Poly([F(c * n, d) for c in num]), Poly([F(c, den[-1]) for c in den]), component
    )


def squarefree_part_reference(ints):
    """Primitive squarefree part f / gcd(f, f') by Euclid over Fractions."""
    full = Poly(ints)
    return full.divmod(full.gcd(full.derivative()))[0].primitive_int()


def multiplicity_reference(poly, a):
    """Order of vanishing at a by repeated Fraction division by t - a."""
    m, cur = 0, poly
    while True:
        q, r = cur.divmod(Poly.linear(a))
        if not r.is_zero():
            return m
        m, cur = m + 1, q


def shifted_coefficients_reference(poly, a, upto):
    """First upto+1 coefficients of p(a + u), one Horner division per coefficient."""
    cs = list(poly.coeffs)
    out = []
    a = F(a)
    for _ in range(upto + 1):
        if not cs:
            out.append(F(0))
            continue
        quotient = []
        acc = cs[-1]
        for c in reversed(cs[:-1]):
            quotient.append(acc)
            acc = c + a * acc
        out.append(acc)
        cs = list(reversed(quotient))
    return out


def val_at_reference(f, p):
    """Order of f at p: the degrees at infinity, repeated division elsewhere."""
    if f.is_zero():
        raise UndefinedValuationError("valuation of the zero function")
    if p.is_infinite():
        return f.den.degree - f.num.degree
    a = p.coordinate
    return multiplicity_reference(f.num, a) - multiplicity_reference(f.den, a)


def series_inverse_recurrence(series):
    """1/series through its coefficients' linear recurrence: with
    u^(-m) series / c = 1 + w, b = 1/(1 + w) solves b_k = -sum_j w_j b_(k-j)."""
    m = min(series.coeffs)
    c = series.coeffs[m]
    n = series.truncation - m
    w = [(e - m, x / c) for e, x in series.coeffs.items() if e != m]
    b = [F(1)]
    for k in range(1, n + 1):
        b.append(-sum((x * b[k - j] for j, x in w if j <= k), F(0)))
    return LaurentSeries(series.place, n - m, {k - m: x / c for k, x in enumerate(b)})


def _poly_series_reference(poly, p, n):
    """poly at p as a series exact through n; at infinity p(1/s) is a
    Laurent polynomial in s, exact at every order."""
    if p.is_infinite():
        return LaurentSeries(p, n, {-k: c for k, c in enumerate(poly.coeffs)})
    if poly.is_zero() or n < 0:
        return LaurentSeries(p, n)
    cs = shifted_coefficients_reference(poly, p.coordinate, min(n, poly.degree))
    return LaurentSeries(p, n, dict(enumerate(cs)))


def expand_at_reference(f, p, n):
    """Laurent expansion of f at p through n: numerator and denominator
    expanded as far as the quotient needs, the denominator inverted by
    series_inverse_recurrence, one full product."""
    if f.is_zero():
        raise UndefinedValuationError("cannot expand the zero function")
    if p.is_infinite():
        dn, dd = f.num.degree, f.den.degree
        num = _poly_series_reference(f.num, p, n - dd)
        den = _poly_series_reference(f.den, p, max(n - 2 * dd + dn, -dd))
    else:
        vn = multiplicity_reference(f.num, p.coordinate)
        vd = multiplicity_reference(f.den, p.coordinate)
        num = _poly_series_reference(f.num, p, n + vd)
        den = _poly_series_reference(f.den, p, max(n + 2 * vd - vn, vd))
    prod = num * series_inverse_recurrence(den)
    assert prod.truncation >= n
    return LaurentSeries(p, n, prod.coeffs)


def dlog_reference(f, p, n):
    """df/f in the local coordinate at p through n, by expand_at_reference."""
    g = f.dlog_ratfunc()
    if g.is_zero():
        return LaurentSeries(p, n)
    if p.is_infinite():
        h = expand_at_reference(g, p, n + 2)
        return LaurentSeries(p, n, {e - 2: -c for e, c in h.coeffs.items()})
    return expand_at_reference(g, p, n)


def lie_coordinates_reference(funcs, lie_basis):
    """Sum of Res_q(delta_q dlog f) for each Lie vector delta, with dlog f
    expanded at q by dlog_reference for this vector alone, through its own
    pole order at q less one."""
    out = []
    for delta in lie_basis:
        total = F(0)
        for q, part in delta.parts.items():
            g = dlog_reference(funcs[q.component], q, -min(part.coeffs) - 1)
            total += sum(c * g.coefficient(-e - 1) for e, c in part.coeffs.items())
        out.append(total)
    return out


def leading_term_reference(f, p):
    """(valuation, leading coefficient) of f at p: val_at_reference, then a
    Laurent expansion exact through the valuation."""
    v = val_at_reference(f, p)
    return v, expand_at_reference(f, p, v).coefficient(v)


def residue_symbol_reference(psi, f, p):
    """Res_p(psi df/f) from both expansions taken through k + 1, k the pole
    order of psi."""
    if psi.is_zero():
        return F(0)
    k = max(0, -val_at_reference(psi, p))
    return expand_at_reference(psi, p, k + 1).product_coefficient(dlog_reference(f, p, k + 1), -1)


def reduced_reference(num, den, component="C0"):
    """num/den in RatFunc's normal form by Euclid, whatever the degrees."""
    if not num.is_zero():
        g = num.gcd(den)
        num, den = num.divmod(g)[0], den.divmod(g)[0]
    scale = 1 / den.leading()
    return RatFunc._raw(num * scale, den * scale, component)


def series_inverse_reference(series):
    """1/series as the Neumann series 1 - w + w^2 - ... of full products,
    with u^(-m) series / c = 1 + w."""
    if not series.coeffs:
        raise ZeroDivisionError("cannot invert a series that is zero through truncation")
    m = min(series.coeffs)
    c = series.coeffs[m]
    n = series.truncation - m
    w = {e - m: x / c for e, x in series.coeffs.items() if e != m}
    acc, term = {0: F(1)}, {0: F(1)}
    while term:
        nxt = {}
        for e1, x in term.items():
            for e2, y in w.items():
                if e1 + e2 <= n:
                    nxt[e1 + e2] = nxt.get(e1 + e2, F(0)) - x * y
        term = {e: x for e, x in nxt.items() if x}
        for e, x in term.items():
            acc[e] = acc.get(e, F(0)) + x
    return LaurentSeries(series.place, n - m, {e - m: x / c for e, x in acc.items()})


def product_coefficient_reference(x, y, e):
    """Coefficient e of the full product x * y."""
    return (x * y).coefficient(e)


# --- dense reduced row echelon form, the reference for linalg.RowSpan ---


class DenseRowSpan:
    """Incrementally maintained reduced row space over Q, dense Fraction rows."""

    def __init__(self, ncols):
        self.ncols = ncols
        self._rows = {}  # pivot column -> fully reduced row, pivot entry 1

    @property
    def rank(self):
        return len(self._rows)

    def reduce(self, vec):
        v = [F(x) for x in vec]
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
        return [self._rows[p] for p in sorted(self._rows)]


def dense_rows(span):
    """A linalg.RowSpan's reduced rows as dense Fraction lists, in pivot
    order: the form DenseRowSpan.rows() returns."""
    zero = F(0)
    return [[row.get(c, zero) for c in range(span.ncols)] for _, row in span.sparse_rows()]


def rational_kernel_basis_reference(rows, ncols):
    """Kernel basis read off DenseRowSpan: primitive, first nonzero entry > 0."""
    span = DenseRowSpan(ncols)
    for row in rows:
        span.add(row)
    basis = []
    for free in range(ncols):
        if free in span._rows:
            continue
        x = [F(0)] * ncols
        x[free] = F(1)
        for p, row in span._rows.items():
            x[p] = -row[free]
        x = as_primitive_int(x)
        if next(c for c in x if c) < 0:
            x = [-c for c in x]
        basis.append(x)
    return basis


def dense_closure_rows(sp, truncation):
    """Reduced rows of the span of all generator products of a validated point.

    Every product is flattened to a dense vector and offered to
    DenseRowSpan, including products that vanish modulo the truncation
    order.
    """
    n, r = truncation, len(sp.branches)
    gens = point_generators(sp)
    span = DenseRowSpan(r * n)
    frontier = [g for g in gens if span.add(jet_vector(g, r, n))]
    while frontier:
        new = []
        for g in gens:
            for m in frontier:
                prod = jet_product(g, m, n)
                if span.add(jet_vector(prod, r, n)):
                    new.append(prod)
        frontier = new
    return span.rows()


def closure_verdict_reference(sp, truncation):
    """curve.validate's verdict at one explicit point, as it was before the
    window lemma: close the generators through the truncation (the
    package's own closure, which test_mhat_span_matches_dense_closure
    checks against the dense one), then probe u^e on each branch for
    every e past its conductor, branch by branch.  Returns the dense
    reduced rows of the closure, or the ValidationError text naming the
    first (branch, power) it misses."""
    n = truncation
    span = _closure_span(sp, sp.generators, n)
    for i, q in enumerate(sp.branches):
        for e in range(sp.conductors[i] + 1, n + 1):
            probe = [0] * span.ncols
            probe[i * n + e - 1] = 1
            if not span.contains(probe):
                return f"{sp.name}: conductor condition fails at branch {q!r}, u^{e} not generated"
    return dense_rows(span)


def hnf_rows_reference(vectors, ncols):
    """Row Hermite normal form on dense rows (zero rows dropped), the
    reference for linalg.hnf_rows: column by column, Euclid on the rows
    below the pivots, the pivot made positive and the rows above it
    reduced into [0, pivot)."""
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
    return rows[:r]


def integer_kernel_reference(rows, ncols):
    """Hermite basis of {x in Z^n : A x = 0}: the dense [A^T | I] reduced in
    one pass by hnf_rows_reference, A's rows in the order given; the rows
    whose left block vanishes."""
    m = len(rows)
    aug = [[row[i] for row in rows] + [int(i == j) for j in range(ncols)] for i in range(ncols)]
    return [row[m:] for row in hnf_rows_reference(aug, m + ncols) if not any(row[:m])]


def etale_kernel_reference(config):
    """infdiv.etale_kernel as the integer kernel of its system: one degree
    row per component and one incidence row per singular point, reduced
    through the Hermite form of [A^T | I] (linalg.integer_kernel_basis)."""
    cols = config.branch_places()
    if not cols:
        return []
    rows = [[1 if q.component == comp else 0 for q in cols] for comp in config.components]
    for sp in config.singular_points:
        fiber = set(sp.branches)
        rows.append([1 if q in fiber else 0 for q in cols])
    basis = integer_kernel_basis(rows, len(cols))
    return [Divisor(zip(cols, vec)) for vec in basis]


# --- the modulus certificate, the reference for symbols.is_modulus -----------


def random_congruent_function(modulus, rng, component="C0", degree=3, height=5):
    """Seeded random f with f congruent to 1 along the modulus, (Place, n) pairs.

    Built as 1 + g * prod (t-s)^(n_s) for a random small-height
    polynomial g; when infinity carries multiplicity the product is
    divided down by a power of a fresh linear factor so the congruence
    holds there too.
    """
    coeffs = [F(rng.randint(-height, height)) for _ in range(degree + 1)]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = F(rng.randint(1, height))
    g = Poly(coeffs)
    finite = Poly.const(1)
    n_inf = 0
    taken = set()
    for p, n in modulus:
        if p.is_infinite():
            n_inf = n
            continue
        taken.add(p.coordinate)
        finite = finite * Poly.linear(p.coordinate) ** n
    num = g * finite
    if n_inf:
        b = F(rng.randint(height + 1, 3 * height + 10))
        while b in taken:
            b += 1
        den = Poly.linear(b) ** (num.degree + n_inf)
        return RatFunc(num, den, component) + 1
    return RatFunc(num, None, component) + 1


def symbol_sum_over_divisor(psi, f, tag):
    """psi evaluated on div(f), computed through the bad-place symbols.

    Reciprocity turns the sum over the (possibly irrational) support of
    div(f) into a finite exact computation at the rational bad places of
    psi: poles for the additive symbol, zeros and poles for the
    multiplicative one.  psi must split; f need not.
    """
    bad = split_divisor(psi)
    if tag == "ga":
        return -sum((residue_symbol(psi, f, s) for s, m in bad.items() if m < 0), F(0))
    total = F(1)
    for s in bad:
        total /= tame_symbol(psi, f, s)
    return total


def lll_reduce_reference(basis):
    """LLL over Fraction Gram-Schmidt data, the reference for linalg.lll_reduce.

    Classical incremental formulation with Lovasz constant 99/100: mu and
    the squared norms are updated in place on size reductions and swaps,
    and mu is rounded with round(Fraction), half to even.
    """
    delta = F(99, 100)
    b = [list(map(int, v)) for v in basis]
    n = len(b)
    if n <= 1:
        return b

    def dot(u, v):
        return sum(F(x) * y for x, y in zip(u, v))

    mu = [[F(0)] * n for _ in range(n)]
    norms = [F(0)] * n
    star = []
    for i in range(n):
        v = [F(x) for x in b[i]]
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


def l1_sweep_reference(basis):
    """The sampler's greedy L1 sweep without pruning: every pair, both signs."""

    def l1(v):
        return sum(abs(x) for x in v)

    changed = True
    while changed:
        changed = False
        for i in range(len(basis)):
            for j in range(len(basis)):
                if i == j:
                    continue
                for sign in (1, -1):
                    cand = [a + sign * b for a, b in zip(basis[i], basis[j])]
                    if any(cand) and l1(cand) < l1(basis[i]):
                        basis[i] = cand
                        changed = True
    return basis


def span_through(sp, n):
    """A validated point's maximal ideal through n, closed anew: the
    package's closure of the generators at an explicit point, every unit
    vector at an ordinary one."""
    if sp.kind == "explicit":
        return _closure_span(sp, sp.generators, n)
    span = RowSpan(len(sp.branches) * n)
    for c in range(span.ncols):
        span.add([int(k == c) for k in range(span.ncols)])
    return span


def lift_to_truncation(span, sp, n):
    """The span through n that a point's span modulo the conductor stands
    for: its rows moved to column i*n + e - 1 for u^e on branch i, with
    the unit vector of every u^e, c_i < e <= n, added."""
    cols = [(i, e) for i, c in enumerate(sp.conductors) for e in range(1, c + 1)]
    lifted = RowSpan(len(sp.branches) * n)
    for _, row in span.sparse_rows():
        vec = [0] * lifted.ncols
        for col, x in row.items():
            i, e = cols[col]
            vec[i * n + e - 1] = x
        lifted.add(vec)
    for i, c in enumerate(sp.conductors):
        for e in range(c + 1, n + 1):
            lifted.add([int(k == i * n + e - 1) for k in range(lifted.ncols)])
    return lifted


def certify_cartier_reference(funcs, config):
    """The unit certificate through the truncation at every singular point:
    no zero or pole at a branch, equal values, and centered jets in the
    point's maximal ideal."""
    config = validate(config)
    n = config.truncation
    for comp in config.components:
        f = funcs.get(comp)
        if f is None:
            raise NotCartierError(f"no function given on component {comp}")
        if f.is_zero():
            raise NotCartierError(f"zero function on component {comp}")
        if f.component != comp:
            raise NotCartierError(f"function for {comp} is built on {f.component}")
    for sp in config.singular_points:
        expansions = []
        values = []
        for q in sp.branches:
            series = expand_at(funcs[q.component], q, n)
            if series.lead_bound() != 0:
                raise NotCartierError(f"function has a zero or pole at branch {q!r}")
            values.append(series.coefficient(0))
            expansions.append(series)
        value = values[0]
        if any(v != value for v in values[1:]):
            raise NotCartierError(
                f"branch values at {sp.name} disagree: "
                + ", ".join(format_rat(v) for v in values)
            )
        centered = [(s - value).coeffs for s in expansions]
        if not span_through(sp, n).contains(jet_vector(centered, len(sp.branches), n)):
            raise NotCartierError(
                f"centered jets at {sp.name} are not in the local ring (mod conductor)"
            )


def torus_reference(cycle, etale_basis):
    """The Abel-Jacobi torus coordinates of a degree-0 cycle: for each
    lattice divisor w, prod f_c(q)^(w_q) over its branch places q, with
    f_c the dense interpolant prod (t - a)^m of the cycle's finite points
    on q's component, read by leading_term_reference (1 at infinity, as
    it is monic over monic of one degree)."""
    torus = []
    for omega in etale_basis:
        value = F(1)
        for q, w in omega.items():
            f = from_factors_reference(
                [(p.coordinate, m) for p, m in cycle.items()
                 if p.component == q.component and not p.is_infinite()],
                component=q.component,
            )
            v, c = leading_term_reference(f, q)
            if v:
                raise ValueError(f"interpolant has a zero or pole at {q!r}")
            value *= c**w
        torus.append(value)
    return torus


def is_cartier_unit(funcs, config):
    try:
        certify_cartier(funcs, config)
        return True
    except NotCartierError:
        return False


_RATIONAL = re.compile(r"([+-]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:e([+-]?)(\d+))?)", re.I)


def parse_rat_reference(text):
    """Every literal through the full grammar: "_" between digits dropped,
    each digit run through parse_int, and n * 10^k refused unformed when
    3k >= MAX_HEIGHT or -3k >= 2 MAX_HEIGHT."""
    text = str(text).strip()
    shown = abbreviate(text)
    match = _RATIONAL.fullmatch(re.sub(r"(?<=\d)_(?=\d)", "", text))
    if match is None:
        raise InputError(f"bad rational literal {shown!r}")
    sign, num, den, frac, exp_sign, exp = match.groups()
    n, d, e = parse_int(num + (frac or "")), parse_int(den or "1"), parse_int(exp or "0")
    if d == 0:
        raise InputError(f"bad rational literal {shown!r}: zero denominator")
    k = (-e if exp_sign == "-" else e) - len(frac or "")
    in_range = -2 * MAX_HEIGHT < 3 * k < MAX_HEIGHT
    value = F(n * 10 ** max(k, 0), d * 10 ** max(-k, 0)) if n and in_range else F(0)
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if n and (not in_range or bits > MAX_HEIGHT):
        raise InputError(f"rational literal {shown!r} of more than {MAX_HEIGHT} bits")
    return -value if sign == "-" else value


# --- base points ----------------------------------------------------------


def base_points_reference(config):
    """The smallest nonnegative integer coordinate per component that is
    no branch place, found by building and probing a Place for each."""
    branch = config.branch_place_set()
    out = {}
    for comp in config.components:
        k = 0
        while Place(comp, k) in branch:
            k += 1
        out[comp] = Place(comp, k)
    return out
