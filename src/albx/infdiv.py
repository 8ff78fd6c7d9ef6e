"""Infinitesimal divisors and the formal group of a singular curve.

An infinitesimal divisor is a finite family of principal parts, one per
place of the smooth model.  Through the residue pairing
(f, g) -> Res(f dg) each principal part acts on the completed maximal
ideal at its place; push-forward to the singular curve restricts that
action to the subideal generated by the singular point's generators.

The formal group attached to a configuration is cut out by two kernels:

  * etale part: divisors supported on the branch places, of degree zero
    on every component, whose push-forward to the curve vanishes
    (an integer lattice, computed by Hermite reduction);
  * Lie part: principal parts with pole order at most the conductor at
    each branch, annihilating every element of the maximal ideal of the
    curve downstairs (a homogeneous rational system).

Both systems are finite thanks to the conductor bound; poles above the
conductor are excluded a priori, not tested.
"""

from fractions import Fraction

from .curve import Divisor
from .errors import InputError, ValidationError
from .funcfield import LaurentSeries, Place
from .linalg import integer_kernel_basis, rational_kernel_basis
from .arith import format_rat


class InfinitesimalDivisor:
    """Finitely many principal parts, exponents strictly negative."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        data = {}
        items = parts.items() if isinstance(parts, dict) else parts
        for place, series in items:
            if series is None or not series.coeffs:
                continue
            if max(series.coeffs) >= 0:
                raise InputError(
                    f"principal part at {place!r} has a nonnegative exponent"
                )
            data[place] = LaurentSeries(place, -1, series.coeffs)
        object.__setattr__(self, "parts", data)

    def __setattr__(self, *args):
        raise AttributeError("InfinitesimalDivisor is immutable")

    def places(self):
        return sorted(self.parts, key=Place.sort_key)

    def part(self, place):
        return self.parts.get(place)

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        return isinstance(other, InfinitesimalDivisor) and self.parts == other.parts

    def __repr__(self):
        if not self.parts:
            return "InfinitesimalDivisor(0)"
        bits = [f"{p!r}: {s!r}" for p, s in sorted(self.parts.items(), key=lambda kv: kv[0].sort_key())]
        return "InfinitesimalDivisor({" + ", ".join(bits) + "})"

    def to_json(self):
        return [
            {
                "place": p.to_json(),
                "principal_part": {str(e): format_rat(c) for e, c in self.parts[p].coeffs.items()},
            }
            for p in self.places()
        ]


def residue_pairing(f, g):
    """Res(f dg) for a principal part f and a series g in the maximal ideal.

    The value only involves coefficients g_1..g_nu where nu is the pole
    order of f; if g is not stored that far the computation refuses
    rather than guessing.
    """
    if f.place != g.place:
        raise InputError("pairing series at different places")
    if g.lead_bound() < 0:
        raise InputError("second pairing argument must have nonnegative order")
    total = Fraction(0)
    for e, c in f.coeffs.items():
        j = -e
        total += c * j * g.coefficient(j)  # Res(u^-j d(u^j)) = j
    return total


class FormalGroupData:
    """A formal group as a free lattice plus a finite dimensional Lie part."""

    __slots__ = ("etale_basis", "lie_basis")

    def __init__(self, etale_basis=(), lie_basis=()):
        object.__setattr__(self, "etale_basis", tuple(etale_basis))
        object.__setattr__(self, "lie_basis", tuple(lie_basis))

    def __setattr__(self, *args):
        raise AttributeError("FormalGroupData is immutable")

    @property
    def rank(self):
        return len(self.etale_basis)

    @property
    def dim(self):
        return len(self.lie_basis)

    def __eq__(self, other):
        return (
            isinstance(other, FormalGroupData)
            and self.etale_basis == other.etale_basis
            and self.lie_basis == other.lie_basis
        )

    def __repr__(self):
        return f"FormalGroupData(rank={self.rank}, dim={self.dim})"

    def to_json(self):
        return {
            "etale_basis": [d.to_json() for d in self.etale_basis],
            "lie_basis": [d.to_json() for d in self.lie_basis],
        }


def _require_validated(config):
    if not config.validated:
        raise ValidationError("configuration must be validated first")


def etale_kernel(config):
    """Lattice basis of branch-supported, degree-0 divisors killed by push-forward.

    The system stacks one degree row per component with one incidence
    row per singular point; the saturated integer kernel is returned as
    primitive vectors in Hermite form.
    """
    _require_validated(config)
    cols = config.branch_places()
    if not cols:
        return []
    rows = []
    for comp in config.components:
        rows.append([1 if q.component == comp else 0 for q in cols])
    for sp in config.singular_points:
        fiber = set(sp.branches)
        rows.append([1 if q in fiber else 0 for q in cols])
    basis = integer_kernel_basis(rows, len(cols))
    return [Divisor(zip(cols, vec)) for vec in basis]


def lie_kernel(config):
    """Basis of principal-part families annihilating every singular point ideal.

    The search space at a branch q is the pole orders 1..n_q (conductor
    bound); the constraints are the residue pairings against a basis of
    the span of the generator monomials, through the truncation order.
    The system is block diagonal over the singular points.
    """
    _require_validated(config)
    n = config.truncation
    out = []
    for sp in config.singular_points:
        cols = []  # (branch index, pole order), pole order descending
        for i, q in enumerate(sp.branches):
            for j in range(sp.conductors[i], 0, -1):
                cols.append((i, j))
        if not cols:
            continue
        span_rows = config.mhat_span(sp.name).rows()
        rows = []
        for mvec in span_rows:
            row = []
            for i, j in cols:
                row.append(j * mvec[i * n + (j - 1)])
            rows.append(row)
        for vec in rational_kernel_basis(rows, len(cols)):
            parts = {}
            for (i, j), a in zip(cols, vec):
                if a:
                    q = sp.branches[i]
                    coeffs = parts.setdefault(q, {})
                    coeffs[-j] = Fraction(a)
            out.append(
                InfinitesimalDivisor(
                    {q: LaurentSeries(q, -1, cs) for q, cs in parts.items()}
                )
            )
    return out


def divisor_group(config):
    """The formal group of the configuration: both kernels bundled."""
    return FormalGroupData(etale_kernel(config), lie_kernel(config))
