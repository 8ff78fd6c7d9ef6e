"""0-cycles, Cartier functions, and the Abel-Jacobi map.

A 0-cycle lives on the regular locus of the curve.  Because every
component of the smooth model has genus zero, a degree-0 cycle on a
component is the divisor of an essentially unique rational function
(monic numerator and denominator), and the cycle's image in the
universal receptor is read off that interpolant: one multiplicative
coordinate per lattice basis divisor, evaluated multiplicatively over
the branch places, and one additive coordinate per Lie basis element,
computed as a sum of branch residues against dlog of the interpolant.
A cycle is rationally equivalent to zero exactly when every coordinate
is the identity.

A Cartier function is the unit certificate: a tuple of rational
functions, one per component, whose branch expansions at every singular
point share one nonzero constant term and whose centered jets lie in
the span of the point's ideal generators (decided through the working
truncation).
"""

from fractions import Fraction

from .arith import format_rat
from .curve import Divisor, degree_per_component, series_tuple_vector, validate
from .errors import DegreeError, InputError, NotCartierError
from .funcfield import (
    Place,
    RatFunc,
    dlog,
    evaluate,
    expand_at,
    format_coordinate,
    parse_coordinate,
    split_divisor,
    val_at,
)
from .motive import albanese


class ZeroCycle(Divisor):
    """Divisor whose support must stay inside the regular locus."""

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


class CartierFunction:
    """A certified unit along the singular locus.

    certificate maps singular point names to (common value, centered jet
    vector), the data that witnessed membership in the local ring units.
    """

    __slots__ = ("funcs", "certificate")

    def __init__(self, funcs, certificate):
        object.__setattr__(self, "funcs", dict(funcs))
        object.__setattr__(self, "certificate", dict(certificate))

    def __setattr__(self, *args):
        raise AttributeError("CartierFunction is immutable")

    def __repr__(self):
        return f"CartierFunction({self.funcs!r})"


def certify_cartier(funcs, config):
    """Check the unit condition at every singular point; returns the certificate.

    Raises NotCartierError with the branch and reason on failure.
    """
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
    certificate = {}
    for sp in config.singular_points:
        expansions = []
        values = []
        for q in sp.branches:
            f = funcs[q.component]
            if val_at(f, q) != 0:
                raise NotCartierError(f"function has a zero or pole at branch {q!r}")
            series = expand_at(f, q, n)
            values.append(series.coefficient(0))
            expansions.append(series)
        value = values[0]
        if any(v != value for v in values[1:]):
            raise NotCartierError(
                f"branch values at {sp.name} disagree: "
                + ", ".join(format_rat(v) for v in values)
            )
        centered = tuple(s - value for s in expansions)
        vec = series_tuple_vector(sp, n, centered)
        if not config.mhat_span(sp.name).contains(vec):
            raise NotCartierError(
                f"centered jets at {sp.name} are not in the local ring (mod truncation)"
            )
        certificate[sp.name] = (value, vec)
    return CartierFunction(funcs, certificate)


def is_cartier_unit(funcs, config):
    try:
        certify_cartier(funcs, config)
        return True
    except NotCartierError:
        return False


def div_C(f, config):
    """Divisor of a Cartier function on the regular locus.

    The unit condition makes every branch coefficient zero, so the
    result is an honest 0-cycle; its degree vanishes on each component.
    """
    if isinstance(f, CartierFunction):
        cart = f
    else:
        cart = certify_cartier(f, config)
    out = {}
    for comp in config.components:
        for p, m in split_divisor(cart.funcs[comp]).items():
            out[p] = m
    cycle = ZeroCycle(out)
    check_cycle_support(cycle, config)
    return cycle


def interpolate_divisor(cycle, component):
    """The monic-ratio rational function with the given degree-0 divisor.

    Genus zero makes it unique once numerator and denominator are monic;
    the coefficient at infinity is absorbed by the degree difference.
    """
    factors = []
    degree = 0
    inf_coeff = 0
    for p, m in cycle.items():
        if p.component != component:
            continue
        degree += m
        if p.is_infinite():
            inf_coeff = m
        else:
            factors.append((p.coordinate, m))
    if degree != 0:
        raise DegreeError(f"cycle has degree {degree} on {component}")
    f = RatFunc.from_factors(factors, component=component)
    # the infinity coefficient is forced: deg den - deg num
    assert f.den.degree - f.num.degree == inf_coeff
    return f


class AJPoint:
    """A point of (Q*)^t x Q^v, the value of the Abel-Jacobi map."""

    __slots__ = ("torus", "vectorial")

    def __init__(self, torus, vectorial):
        torus = tuple(Fraction(x) for x in torus)
        if any(x == 0 for x in torus):
            raise ValueError("torus coordinates must be nonzero")
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "vectorial", tuple(Fraction(x) for x in vectorial))

    def __setattr__(self, *args):
        raise AttributeError("AJPoint is immutable")

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

    def __eq__(self, other):
        return (
            isinstance(other, AJPoint)
            and self.torus == other.torus
            and self.vectorial == other.vectorial
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
            fv = evaluate(funcs[q.component], q)
            if fv == 0:
                raise NotCartierError(f"function vanishes at branch place {q!r}")
            value *= fv**m
        torus.append(value)
    vectorial = []
    for delta in alb.lie_basis:
        total = Fraction(0)
        for q in delta.places():
            part = delta.parts[q]
            nu = -min(part.coeffs)
            g = dlog(funcs[q.component], q, nu - 1)
            for e, c in part.coeffs.items():
                total += c * g.coefficient(-e - 1)
        vectorial.append(total)
    return AJPoint(torus, vectorial)


def abel_jacobi(cycle, config, alb):
    """Image of a degree-0 cycle in the universal receptor."""
    config = validate(config)
    check_cycle_support(cycle, config)
    degrees = degree_per_component(cycle)
    bad = {c: d for c, d in degrees.items() if d}
    if bad:
        raise DegreeError(f"cycle has nonzero degree: {bad}")
    funcs = {comp: interpolate_divisor(cycle, comp) for comp in config.components}
    return albanese_pairing(funcs, alb)


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
