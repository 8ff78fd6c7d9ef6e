"""Independent correctness checks, run after timing stops.

None of these call the library's arithmetic.  They recompute the
expected answer in closed form from the data the benchmark generated
(cycle points, factor lists, curve shapes) with plain Fractions and
integers, and compare it with what the library returned.  A function
returns None when the output is right and a one-line reason otherwise.

Places are plain pairs (component, coordinate) with coordinate None
for the point at infinity.
"""

from fractions import Fraction
from math import lcm


def fmt_rat(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def place_key(component, coordinate):
    """The key the CLI prints for a place, e.g. "C0:-3/7" or "C0:inf"."""
    return f"{component}:{'inf' if coordinate is None else fmt_rat(coordinate)}"


# --- Abel-Jacobi in closed form ---------------------------------------------


def dlog_coefficient(factors, q, k):
    """Coefficient of u^k in dlog prod (t - a)^m at q.

    u = t - q at a finite place, where m/(t - a) expands to
    m * sum (-1)^k u^k / (q - a)^(k+1).  At infinity u = 1/t and dt =
    -u^-2 du is folded in, so m/(t - a) dt = -m * sum a^k u^(k-1) du.
    """
    if q is None:
        return -sum(m * a ** (k + 1) for a, m in factors)
    sign = -1 if k % 2 else 1
    return sum(Fraction(sign * m) / (q - a) ** (k + 1) for a, m in factors)


def closed_form_aj(points, etale_basis, lie_basis):
    """AJ of the cycle sum m [(c, a)] against the receptor bases.

    points: (component, coordinate, multiplicity) triples.
    etale_basis: per lattice generator, (component, coordinate, weight).
    lie_basis: per Lie generator, (component, coordinate, {pole order j:
    coefficient of u^-j}).

    The interpolant on a component is prod (t - a)^m over the finite
    points, so its value at a finite branch q is prod (q - a)^m and at
    an infinite branch (where a degree-0 cycle has no point) it is 1.
    """
    finite = {}
    for comp, a, m in points:
        if a is not None:
            finite.setdefault(comp, []).append((Fraction(a), m))
    torus = []
    for omega in etale_basis:
        value = Fraction(1)
        for comp, q, w in omega:
            if q is None:
                continue
            for a, m in finite.get(comp, ()):
                value *= (q - a) ** (m * w)
        torus.append(value)
    vectorial = []
    for delta in lie_basis:
        total = Fraction(0)
        for comp, q, part in delta:
            for j, c in part.items():
                total += c * dlog_coefficient(finite.get(comp, ()), q, j - 1)
        vectorial.append(total)
    return tuple(torus), tuple(vectorial)


def is_identity(point):
    torus, vectorial = point
    return all(x == 1 for x in torus) and not any(vectorial)


def check_aj(points, bases, torus, vectorial, expect_identity=None):
    """Compare a reported AJ point with the closed form."""
    expected = closed_form_aj(points, *bases)
    got = (tuple(Fraction(x) for x in torus), tuple(Fraction(x) for x in vectorial))
    if got != expected:
        return f"AJ {got} differs from the closed form {expected}"
    if expect_identity is not None and is_identity(expected) != expect_identity:
        return f"closed form identity is {is_identity(expected)}, expected {expect_identity}"
    return None


# --- divisors of units, recomputed by integer division ----------------------


def _integer_coeffs(coeffs):
    scale = lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(Fraction(c) * scale) for c in coeffs]


def _divide_out(coeffs, root):
    """Multiplicity of the integer root in an integer polynomial, and the
    cofactor (coefficients low to high)."""
    mult = 0
    while len(coeffs) > 1:
        quotient = [0] * (len(coeffs) - 1)
        acc = 0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * root + coeffs[i]
            quotient[i - 1] = acc
        if acc * root + coeffs[0]:
            break
        coeffs, mult = quotient, mult + 1
    return mult, coeffs


def unit_divisor(num, den, candidates):
    """Divisor {root: multiplicity} of num/den, whose roots must all be
    among the integer candidates; None when some root is not."""
    out = {}
    for sign, coeffs in ((1, num), (-1, den)):
        rest = _integer_coeffs(coeffs)
        for x in candidates:
            m, rest = _divide_out(rest, x)
            if m:
                out[x] = out.get(x, 0) + sign * m
        if len(rest) > 1:
            return None
    return {x: m for x, m in out.items() if m}


def check_unit(funcs, pools, bases, cycle_points=None, point=None):
    """A drawn unit maps to the identity, recomputed from its own divisor.

    funcs: component -> (numerator coefficients, denominator coefficients).
    pools: component -> integer coordinates the sampler builds units from.
    cycle_points / point: the library's div_C cycle and AJ point, if the
    operation computed them, compared against the recomputation.
    Returns (reason or None, unit degree).
    """
    points = []
    degree = 0
    for comp, (num, den) in funcs.items():
        div = unit_divisor(num, den, pools[comp])
        if div is None:
            return f"unit on {comp} has a root outside its factor pool", degree
        if sum(div.values()) != 0:
            return f"unit on {comp} has nonzero degree", degree
        degree = max(degree, sum(abs(m) for m in div.values()))
        points += [(comp, Fraction(x), m) for x, m in div.items()]
    if cycle_points is not None and sorted(cycle_points) != sorted(points):
        return "div_C differs from the divisor recomputed from the unit", degree
    expected = closed_form_aj(points, *bases)
    if not is_identity(expected):
        return f"unit divisor has AJ {expected}, not the identity", degree
    if point is not None:
        return check_aj(points, bases, *point), degree
    return None, degree


# --- local symbols in closed form -------------------------------------------
#
# A function is a list of linear factors (q, p, e) meaning (q t - p)^e
# with q > 0 and distinct roots p/q.


def local_data(factors, a):
    """(order, leading Laurent coefficient) at a (None for infinity)."""
    order, lead = 0, Fraction(1)
    for q, p, e in factors:
        if a is None:
            # q t - p = u^-1 (q - p u) with u = 1/t
            order -= e
            lead *= Fraction(q) ** e
        elif Fraction(p, q) == a:
            order += e
            lead *= Fraction(q) ** e
        else:
            lead *= (q * a - p) ** e
    return order, lead


def tame_closed_form(psi, f, a):
    m, f_lead = local_data(f, a)
    n, psi_lead = local_data(psi, a)
    sign = -1 if (m * n) % 2 else 1
    return sign * psi_lead**m / f_lead**n


def residue_closed_form(psi, f, a):
    """Res_a(psi df/f) where psi is regular at a, or psi is a polynomial
    and a is infinity; None where no closed form is used."""
    n, psi_lead = local_data(psi, a)
    if a is not None:
        if n < 0:
            return None
        value = psi_lead if n == 0 else Fraction(0)
        return value * local_data(f, a)[0]
    if any(e < 0 for _, _, e in psi):
        return None
    # reciprocity with psi regular at every finite place
    return -sum(
        residue_closed_form(psi, f, Fraction(p, q)) for q, p, _ in f
    )


def roots(factors):
    return {Fraction(p, q) for q, p, _ in factors}


def check_symbol(tag, psi, f, value, a):
    if tag == "gm":
        expected = tame_closed_form(psi, f, a)
    else:
        expected = residue_closed_form(psi, f, a)
        if expected is None:
            return None
    if Fraction(value) != expected:
        return f"{tag} symbol at {place_key('C0', a)} is {value}, closed form {fmt_rat(expected)}"
    return None


def check_table(tag, psi, f, payload):
    """A full reciprocity table from `albx symbol --format json`."""
    values = payload["values"]
    places = {place_key("C0", a) for a in roots(psi) | roots(f)} | {"C0:inf"}
    if set(values) != places:
        return f"table places {sorted(values)} are not {sorted(places)}"
    identity = Fraction(1) if tag == "gm" else Fraction(0)
    aggregate = identity
    for v in values.values():
        aggregate = aggregate * Fraction(v) if tag == "gm" else aggregate + Fraction(v)
    if aggregate != Fraction(payload["aggregate"]) or aggregate != identity:
        return f"aggregate {payload['aggregate']} recomputed as {fmt_rat(aggregate)}"
    if payload["ok"] is not True:
        return "table not reported ok"
    for a in roots(psi) | roots(f) | {None}:
        reason = check_symbol(tag, psi, f, values[place_key("C0", a)], a)
        if reason:
            return reason
    return None


# --- receptor shapes --------------------------------------------------------


def check_shape(payload, rank, dim):
    got = (payload["torus_rank"], payload["vectorial_dim"])
    formal = (
        len(payload["formal_group"]["etale_basis"]),
        len(payload["formal_group"]["lie_basis"]),
    )
    if got != (rank, dim) or formal != (rank, dim):
        return f"shape {got} (bases {formal}) but the formula gives {(rank, dim)}"
    return None
