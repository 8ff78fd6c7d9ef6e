"""Infinitesimal divisors and the formal group of a singular curve.

An infinitesimal divisor is a finite family of principal parts, one per
place of the smooth model.  Through the residue pairing
(f, g) -> Res(f dg) each principal part acts on the completed maximal
ideal at its place; push-forward to the singular curve restricts that
action to the subideal generated by the singular point's generators.

The formal group attached to a configuration is cut out by two kernels:

  * etale part: divisors supported on the branch places, of degree zero
    on every component, whose push-forward to the curve vanishes.  That
    is H_1 of the dual graph, read off the fundamental cycles of a
    spanning forest and put in Hermite form;
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
from .linalg import hnf_rows, rational_kernel_basis
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
                raise InputError(
                    f"principal part at {place!r} has a nonnegative exponent"
                )
            data[place] = LaurentSeries(place, -1, series.coeffs)
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
    to point and -1 on one walked back.  hnf_rows puts them in canonical
    form.
    """
    _require_validated(config)
    cols = config.branch_places()
    point = {q: sp.name for sp in config.singular_points for q in sp.branches}
    ends = [(("component", q.component), ("point", point[q])) for q in cols]
    edges = {}  # vertex -> [(column, other end)]
    for k, (a, b) in enumerate(ends):
        edges.setdefault(a, []).append((k, b))
        edges.setdefault(b, []).append((k, a))
    up = {}  # vertex -> (column of its forest edge, parent), (None, None) at a root
    for root in edges:
        if root not in up:
            up[root], stack = (None, None), [root]
            while stack:
                v = stack.pop()
                for k, w in edges[v]:
                    if w not in up:
                        up[w] = (k, v)
                        stack.append(w)
    forest = {k for k, _ in up.values()}
    cycles = []
    for k, (comp, pt) in enumerate(ends):
        if k in forest:
            continue
        vec = [0] * len(cols)
        vec[k] = 1
        # back from pt to comp: up from pt toward the root, then down from
        # the root to comp; the stretch both climbs share cancels
        for v, sign in ((pt, 1), (comp, -1)):
            while up[v][1] is not None:
                vec[up[v][0]] += sign if v[0] == "component" else -sign
                v = up[v][1]
        cycles.append(vec)
    return [Divisor(zip(cols, vec)) for vec in hnf_rows(cycles, len(cols))]


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
