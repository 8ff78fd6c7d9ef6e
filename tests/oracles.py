"""Independent brute-force oracles used by the kernel and acceptance tests.

Everything here recomputes results from raw configuration data with
sympy row reduction (exhaustive row reduction for the integer side,
dense pairing matrices for the Lie side).  No code is shared with the
package's own elimination routines.
"""

from fractions import Fraction as F
from math import gcd

import sympy


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
