"""Independent brute-force oracles used by the kernel and acceptance tests.

Everything here recomputes results from raw configuration data with
sympy row reduction (exhaustive row reduction for the integer side,
dense pairing matrices for the Lie side).  No code is shared with the
package's own elimination routines.  The dense Fraction kernels at the
end are the reference the integer polynomial and series kernels of
funcfield are tested against.
"""

from fractions import Fraction as F
from math import gcd

import sympy

from albx.funcfield import LaurentSeries, Poly


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

        def vec(tup):
            out = [F(0)] * (r * n)
            for i, series in enumerate(tup):
                if series is None:
                    continue
                for e, c in series.items():
                    if e <= n:
                        out[i * n + e - 1] = c
            return out

        def mul(t1, t2):
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

        gens = [
            tuple(None if s is None else dict(s.coeffs) for s in tup)
            for tup in sp.generators
        ]
        closure = list(gens)
        frontier = list(gens)
        while frontier:
            new = []
            for g in gens:
                for m in frontier:
                    prod = mul(g, m)
                    mat = sympy.Matrix([vec(t) for t in closure])
                    cand = sympy.Matrix([vec(prod)])
                    if mat.rank() < mat.col_join(cand).rank():
                        closure.append(prod)
                        new.append(prod)
            frontier = new
        span_rows = [vec(t) for t in closure]
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


def series_inverse_reference(series):
    """1/series as the Neumann series 1 - w + w^2 - ... of full products."""
    if not series.coeffs:
        raise ZeroDivisionError("cannot invert a series that is zero through truncation")
    m = series.leading_exponent()
    c = series.coeffs[m]
    unit = series.shift(-m).scale(1 / c)
    w = unit - 1
    n = unit.truncation
    acc = LaurentSeries(series.place, n, {0: 1})
    term = LaurentSeries(series.place, n, {0: 1})
    while True:
        term = term * (-w)
        if term.lead_bound() > n or term.is_zero():
            break
        acc = acc + term
    return acc.scale(1 / c).shift(-m)


def product_coefficient_reference(x, y, e):
    """Coefficient e of the full product x * y."""
    return (x * y).coefficient(e)
