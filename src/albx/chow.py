"""0-cycles, Cartier units, and the Abel-Jacobi map.

A 0-cycle lives on the regular locus of the curve.  Because every
component of the smooth model has genus zero, a degree-0 cycle on a
component is the divisor of an essentially unique rational function
(monic numerator and denominator), and the cycle's image in the
universal receptor pairs that interpolant f with the formal group: one
coordinate prod f(q)^(w_q) per lattice basis divisor w, and one sum of
branch residues against dlog f per Lie basis element, all read from one
expansion of dlog f per branch place.  abel_jacobi reads the first kind
off the cycle and builds f only for the second.
A cycle is rationally equivalent to zero exactly when every coordinate
is the identity.

A Cartier unit is a dict of rational functions, one per component,
whose branch expansions at every singular point share one nonzero
constant term and whose centered jets lie in the span of the point's
ideal generators; certify_cartier checks exactly this.  validate proves
that the ideal holds u^e on branch q for every e past q's conductor c_q
and keeps it modulo the conductor, so each branch is expanded through
c_q and no further: the jets past it cannot change the verdict.  An
ordinary point has c_q = 0 on every branch, so there the unit is
certified by its branch values alone.
"""

from fractions import Fraction

from .arith import MAX_DEGREE, MAX_HEIGHT, format_rat
from .curve import Divisor, degree_per_component, jet_column, validate
from .errors import DegreeError, InputError, NotCartierError
from .frozen import Frozen
from .funcfield import (
    Place,
    RatFunc,
    _local,
    dlog,
    format_coordinate,
    leading_term,
    parse_coordinate,
    split_divisor,
)
from .motive import albanese


class ZeroCycle(Divisor):
    """Divisor whose support must stay inside the regular locus."""

    __slots__ = ()

    @classmethod
    def from_string(cls, text):
        """Parse "C0:2=+1,C0:3=-1" (coordinate "inf" allowed)."""
        out = {}
        text = text.strip()
        if not text:
            return cls()
        for chunk in text.split(","):
            if "=" not in chunk:
                raise InputError(f"bad cycle term {chunk!r}: missing '='")
            lhs, rhs = chunk.rsplit("=", 1)
            if ":" not in lhs:
                raise InputError(f"bad cycle term {chunk!r}: missing component")
            comp, coord = lhs.split(":", 1)
            try:
                coeff = int(rhs)
            except ValueError:
                raise InputError(f"bad coefficient {rhs!r}") from None
            p = Place(comp.strip(), parse_coordinate(coord))
            out[p] = out.get(p, 0) + coeff
        return cls(out)

    def to_string(self):
        bits = []
        for p, m in self.items():
            bits.append(
                f"{p.component}:{format_coordinate(p.coordinate)}={'+' if m > 0 else ''}{m}"
            )
        return ",".join(bits)


def check_cycle_support(cycle, config):
    """Reject cycles touching branch places or unknown components."""
    branch = config.branch_place_set()
    for p in cycle.places():
        if p.component not in config.components:
            raise InputError(f"cycle place {p!r} on unknown component")
        if p in branch:
            raise InputError(f"cycle place {p!r} lies over the singular locus")


def certify_cartier(funcs, config):
    """Check the unit condition at every singular point, reading each
    branch q by one local form through its conductor c_q: the value is
    its first coefficient and the jets u^1..u^c_q are the rest (none
    when c_q = 0).  The centered jets go to the point's span as one
    sparse row on the jet_column layout.

    Returns None; raises NotCartierError with the branch and reason on
    failure.
    """
    config = validate(config)
    for comp in config.components:
        f = funcs.get(comp)
        if f is None:
            raise NotCartierError(f"no function given on component {comp}")
        if f.is_zero():
            raise NotCartierError(f"zero function on component {comp}")
        if f.component != comp:
            raise NotCartierError(f"function for {comp} is built on {f.component}")
    for sp in config.singular_points:
        values, jets = [], {}
        for i, (q, c) in enumerate(zip(sp.branches, sp.conductors)):
            v, (value, *tail) = _local(funcs[q.component], q, c or None)
            if v != 0:
                raise NotCartierError(f"function has a zero or pole at branch {q!r}")
            values.append(value)
            # the jets u^1..u^c, which centering at the value leaves alone
            jets.update((jet_column(sp, i, e), x) for e, x in enumerate(tail, 1) if x)
        if any(v != values[0] for v in values[1:]):
            raise NotCartierError(
                f"branch values at {sp.name} disagree: "
                + ", ".join(format_rat(v) for v in values)
            )
        if not config.mhat_span(sp.name).contains(jets):
            raise NotCartierError(
                f"centered jets at {sp.name} are not in the local ring (mod conductor)"
            )


def div_C(funcs, config):
    """Divisor of a Cartier unit (component -> function) on the regular locus.

    The unit condition makes every branch coefficient zero, so the
    result is an honest 0-cycle; its degree vanishes on each component.
    """
    certify_cartier(funcs, config)
    out = {}
    for comp in config.components:
        for p, m in split_divisor(funcs[comp]).items():
            out[p] = m
    return ZeroCycle(out)


def interpolate_divisor(cycle, component):
    """The monic-ratio rational function with the given degree-0 divisor.

    Genus zero makes it unique once numerator and denominator are monic;
    the coefficient at infinity is absorbed by the degree difference.
    A numerator or denominator past degree MAX_DEGREE is refused unformed.
    """
    factors = []
    degree = 0
    for p, m in cycle.items():
        if p.component != component:
            continue
        degree += m
        if not p.is_infinite():
            factors.append((p.coordinate, m))
    if degree != 0:
        raise DegreeError(f"cycle has degree {degree} on {component}")
    if max(sum(m for _, m in factors if m > 0), -sum(m for _, m in factors if m < 0)) > MAX_DEGREE:
        raise InputError(f"interpolant on {component} would pass degree {MAX_DEGREE}")
    return RatFunc.from_factors(factors, component=component)


class AJPoint(Frozen):
    """A point of (Q*)^t x Q^v, the value of the Abel-Jacobi map."""

    __slots__ = ("torus", "vectorial")

    def __init__(self, torus, vectorial):
        torus = tuple(Fraction(x) for x in torus)
        if any(x == 0 for x in torus):
            raise ValueError("torus coordinates must be nonzero")
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "vectorial", tuple(Fraction(x) for x in vectorial))

    def is_identity(self):
        return all(x == 1 for x in self.torus) and not any(self.vectorial)

    def combine(self, other):
        """Group law: multiply torus coordinates, add vectorial ones."""
        return AJPoint(
            tuple(a * b for a, b in zip(self.torus, other.torus)),
            tuple(a + b for a, b in zip(self.vectorial, other.vectorial)),
        )

    def inverse(self):
        return AJPoint(
            tuple(1 / a for a in self.torus), tuple(-a for a in self.vectorial)
        )

    def __repr__(self):
        return (
            "AJPoint(torus=["
            + ", ".join(format_rat(x) for x in self.torus)
            + "], vectorial=["
            + ", ".join(format_rat(x) for x in self.vectorial)
            + "])"
        )

    def to_json(self):
        return {
            "torus": [format_rat(x) for x in self.torus],
            "vectorial": [format_rat(x) for x in self.vectorial],
        }


def albanese_pairing(funcs, alb):
    """Pair a unit tuple against the bases of the formal group alb.

    Torus coordinate for a lattice divisor w: prod over branch places q
    of f(q)^(w_q).  Vectorial coordinate for a Lie element delta: sum of
    Res_q(delta_q dlog f).  Multiplying any f by a constant changes
    nothing: lattice divisors have degree zero per component and dlog
    kills constants.
    """
    needed = {q.component for omega in alb.etale_basis for q, _ in omega.items()}
    needed |= {q.component for delta in alb.lie_basis for q in delta.places()}
    missing = needed - set(funcs)
    if missing:
        raise InputError(f"no function given on components {sorted(missing)}")
    torus = []
    for omega in alb.etale_basis:
        value = Fraction(1)
        for q, m in omega.items():
            v, c = leading_term(funcs[q.component], q)
            if v:
                what = "vanishes" if v > 0 else "has a pole"
                raise NotCartierError(f"function {what} at branch place {q!r}")
            value *= c**m
        torus.append(value)
    return AJPoint(torus, _lie_coordinates(funcs, alb.lie_basis))


def _lie_coordinates(funcs, lie_basis):
    """Sum of Res_q(delta_q dlog f) for each Lie basis element delta.

    The elements share their branch places, so dlog f is expanded once
    per branch place q, through n_q - 1 for n_q the deepest pole order
    of any element at q, and every element reads its terms from that
    one series.  Each function read is multiplied out once, here, for
    all its dlogs."""
    depth = {}  # branch place -> deepest pole order of an element there
    for delta in lie_basis:
        for q, part in delta.parts.items():
            depth[q] = max(depth.get(q, 0), -min(part.coeffs))
    funcs = {comp: funcs[comp].dense() for comp in {q.component for q in depth}}
    series = {q: dlog(funcs[q.component], q, nu - 1) for q, nu in depth.items()}
    return [
        sum(
            (c * series[q].coefficient(-e - 1)
             for q, part in delta.parts.items() for e, c in part.coeffs.items()),
            Fraction(0),
        )
        for delta in lie_basis
    ]


def abel_jacobi(cycle, config, alb):
    """Image of a degree-0 cycle in the universal receptor.

    At a finite branch q the interpolant is prod (q - a)^m over the
    cycle's finite points a on q's component; at a branch at infinity it
    is 1, being monic over monic of one degree.  Each torus coordinate
    is an integer numerator and denominator over its (q - a)^(m w)
    factors, made a Fraction once; as each factor x^e joins one side,
    that side's bound of bits, from 1, grows by e ceil(log2 |x|), and
    past MAX_HEIGHT InputError is raised.  Interpolants are built only
    on components that carry a Lie element, in sorted order.
    """
    config = validate(config)
    check_cycle_support(cycle, config)
    degrees = degree_per_component(cycle)
    bad = {c: d for c, d in degrees.items() if d}
    if bad:
        raise DegreeError(f"cycle has nonzero degree: {bad}")
    finite = {}  # component -> (numerator, denominator, m) of its finite points
    for p, m in cycle.items():
        if not p.is_infinite():
            a = p.coordinate
            finite.setdefault(p.component, []).append((a.numerator, a.denominator, m))
    torus = []
    for i, omega in enumerate(alb.etale_basis):
        num = den = num_bits = den_bits = 1
        for q, w in omega.items():
            if q.is_infinite():
                continue
            qn, qd = q.coordinate.numerator, q.coordinate.denominator
            for an, ad, m in finite.get(q.component, ()):
                x, y, e = qn * ad - an * qd, qd * ad, m * w
                if e < 0:
                    x, y, e = y, x, -e
                num_bits += e * (abs(x) - 1).bit_length()
                den_bits += e * (abs(y) - 1).bit_length()
                if num_bits > MAX_HEIGHT or den_bits > MAX_HEIGHT:
                    raise InputError(f"torus coordinate {i} would pass {MAX_HEIGHT} bits")
                num, den = num * x**e, den * y**e
        torus.append(Fraction(num, den))
    lie = sorted({q.component for delta in alb.lie_basis for q in delta.places()})
    funcs = {comp: interpolate_divisor(cycle, comp) for comp in lie}
    return AJPoint(torus, _lie_coordinates(funcs, alb.lie_basis))


def rationally_equivalent(cycle, config, alb=None):
    """Is the cycle rationally equivalent to zero?

    True when every component degree vanishes and the Abel-Jacobi image
    is the identity; for these genus-0 configurations the receptor is
    the Picard group of the curve, which separates cycle classes.
    """
    config = validate(config)
    check_cycle_support(cycle, config)
    if any(degree_per_component(cycle).values()):
        return False
    if alb is None:
        alb = albanese(config)
    return abel_jacobi(cycle, config, alb).is_identity()
