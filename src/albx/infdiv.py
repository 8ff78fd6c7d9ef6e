"""Infinitesimal divisors and the formal group of a singular curve.

An infinitesimal divisor is a finite family of principal parts, one per
place of the smooth model.  Through the residue pairing
(f, g) -> Res(f dg) each principal part acts on the completed maximal
ideal at its place; push-forward to the singular curve restricts that
action to the subideal generated by the singular point's generators.

The formal group attached to a configuration is cut out by two kernels:

  * etale part: divisors supported on the branch places, of degree zero
    on every component, whose push-forward to the curve vanishes.  That
    is H_1 of the dual graph, whose Hermite form is read off the
    fundamental cycles of a spanning forest chosen for it (etale_kernel);
  * Lie part: principal parts with pole order at most the conductor at
    each branch, annihilating every element of the maximal ideal of the
    curve downstairs (a homogeneous rational system on the ideal's
    reduced span modulo the conductor).

Both systems are finite thanks to the conductor bound; poles above the
conductor are excluded a priori, not tested.  Neither costs the
truncation order: the lattice depends on the dual graph alone, and the
Lie system has one column per pole order up to the conductor.
"""

from fractions import Fraction

from .curve import Divisor, jet_column
from .errors import InputError, ValidationError
from .frozen import Frozen
from .funcfield import LaurentSeries, Place
from .linalg import rational_kernel_basis
from .arith import format_rat


class InfinitesimalDivisor(Frozen):
    """Finitely many principal parts, exponents strictly negative."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        data = {}
        items = parts.items() if isinstance(parts, dict) else parts
        for place, series in items:
            if series is None or not series.coeffs:
                continue
            if max(series.coeffs) >= 0:
                raise InputError(f"principal part at {place!r} has a nonnegative exponent")
            data[place] = series.recast(place, -1)
        object.__setattr__(self, "parts", data)

    def places(self):
        return sorted(self.parts, key=Place.sort_key)

    def part(self, place):
        return self.parts.get(place)

    def is_zero(self):
        return not self.parts

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


class FormalGroupData(Frozen):
    """A formal group as a free lattice plus a finite dimensional Lie part."""

    __slots__ = ("etale_basis", "lie_basis")

    def __init__(self, etale_basis=(), lie_basis=()):
        object.__setattr__(self, "etale_basis", tuple(etale_basis))
        object.__setattr__(self, "lie_basis", tuple(lie_basis))

    @property
    def rank(self):
        return len(self.etale_basis)

    @property
    def dim(self):
        return len(self.lie_basis)

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

    In the dual graph the components and the singular points are the
    vertices, and each branch is an edge from its component to its
    point.  A divisor on the branches is killed by every component's
    degree row and every point's fiber row exactly when it sums to zero
    at every vertex: when it is a cycle.  The fundamental cycles of a
    spanning forest, one per branch outside it, are a Z-basis of the
    cycles; each walks its branch from component to point and returns
    through the forest, with sign +1 on a branch walked from component
    to point and -1 on one walked back.  Kruskal grows the forest from
    the last column down: a maximum-weight basis of the graphic matroid,
    weight the column index.  So every forest branch on the cycle of an
    outside column k lies past k (the greedy cycle property), and the
    cycle is +1 at k and 0 at every other outside column: in column
    order the cycles are the reduced Hermite form, with no elimination.
    """
    _require_validated(config)
    cols = config.branch_places()
    point = {q: sp.name for sp in config.singular_points for q in sp.branches}
    ends = [(("component", q.component), ("point", point[q])) for q in cols]
    up = {}  # vertex -> (column of its forest branch, parent); roots absent
    for k in range(len(ends) - 1, -1, -1):
        roots = []
        for v in ends[k]:
            while v in up:
                v = up[v][1]
            roots.append(v)
        if roots[0] != roots[1]:  # k links two trees: re-root one at its end, hang it on k
            step, v = (k, ends[k][1]), ends[k][0]
            while v is not None:
                j, w = up.get(v, (None, None))
                up[v] = step
                step, v = (j, v), w
    forest = {k for k, _ in up.values()}
    basis = []
    for k, (comp, pt) in enumerate(ends):
        if k in forest:
            continue
        steps = [(cols[k], 1)]
        # back from pt to comp: up from pt toward the root, then down from
        # the root to comp; Divisor sums the stretch both climbs share to 0
        for v, sign in ((pt, 1), (comp, -1)):
            while v in up:
                steps.append((cols[up[v][0]], sign if v[0] == "component" else -sign))
                v = up[v][1]
        basis.append(Divisor(steps))
    return basis


def lie_kernel(config):
    """Basis of principal-part families annihilating every singular point ideal.

    The search space at a branch q is the pole orders 1..c_q (conductor
    bound); the constraints are the residue pairings against the rows of
    the maximal ideal's span modulo the conductor, whose columns are
    exactly the jets u^j these pole orders pair with.  The system is
    block diagonal over the singular points.
    """
    _require_validated(config)
    out = []
    for sp in config.singular_points:
        # (branch index, pole order), pole order descending
        cols = [(i, j) for i, c in enumerate(sp.conductors) for j in range(c, 0, -1)]
        rows = [
            [j * mvec.get(jet_column(sp, i, j), 0) for i, j in cols]
            for _, mvec in config.mhat_span(sp.name).sparse_rows()
        ]
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
