"""Singular projective curves presented through their smooth model.

A configuration lists the projective-line components of the
normalization together with the singular points of the curve downstairs.
Each singular point names its fiber of branch places and certifies the
complete local ring by a finite set of generators of its maximal ideal,
written inside the product of the branch-local power series rings.
Ordinary (seminormal) points need no explicit data.

validate() is the gatekeeper: at explicit points it checks the
conductor condition (on each branch, u^e lies in the ideal generated by
the declared generators for every e above the branch's conductor c_q)
by exact linear algebra.  It then keeps each point's ring modulo its
conductor, as the receptor is built (Serre, Algebraic Groups and Class
Fields, ch. III-IV): the image of the maximal ideal m_p in the jets
u^1..u^(c_q) on the branches q of p, a reduced span on sum c_q columns
that jet_column lays out.  Every higher jet lies in m_p, so downstream
kernel and membership computations read only these columns, and none of
them costs the truncation order N.  An ordinary point's conductors are
0 and its span is empty.

The check costs the conductors, not N (Serre, ch. IV, on the
conductor).  Window lemma: let c be a point's largest conductor.  If the
closure through 2c + 1 holds u^e on branch i for c_i < e <= 2c + 1, on
every branch, then the closure through N holds u^e on branch i for every
e > c_i.  Truncation is a ring map, so the closure through N maps onto
the closure through 2c + 1; hence for K = 2c + 2 each such u^e with
e < K agrees with an element of the closure through N up to terms of
order K and above.  If that holds for some K <= N, the elements matching
u^(c_i + 1) and u^(K - c_i - 1) (both exponents lie between c_i and K,
since K >= 2c_i + 2) multiply to an element of the closure that matches
u^K on branch i up to order K + 1.  Subtracting such products removes
the order-K error of every earlier match, so it holds for K + 1, and at
K = N + 1 every match is exact.  So the closure through N is the closure
through 2c + 1 with the unit vector of every u^e, e > 2c + 1, added, and
both have the same image on the conductor columns.
"""

from fractions import Fraction
import json

from .arith import abbreviate, format_rat, parse_rat
from .errors import InputError, ValidationError
from .frozen import Frozen, _restore
from .funcfield import LaurentSeries, Place, format_coordinate
from .linalg import RowSpan

MAX_TRUNCATION = 1024


class Divisor(Frozen):
    """Finite Z-combination of places of the smooth model.

    The places are sorted once, here, and kept in that order (a dict
    keeps its insertion order), so places() and items() sort nothing.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        data = {}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        for place, m in items:
            m = int(m)
            if m:
                data[place] = data.get(place, 0) + m
        order = sorted((p for p, m in data.items() if m), key=Place.sort_key)
        object.__setattr__(self, "_coeffs", {p: data[p] for p in order})

    def coeff(self, place):
        return self._coeffs.get(place, 0)

    def places(self):
        return list(self._coeffs)

    def items(self):
        return list(self._coeffs.items())

    def __bool__(self):
        return bool(self._coeffs)

    def __add__(self, other):
        out = dict(self._coeffs)
        for p, m in other._coeffs.items():
            out[p] = out.get(p, 0) + m
        return Divisor(out)

    def __neg__(self):
        return Divisor({p: -m for p, m in self._coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        return Divisor({p: k * m for p, m in self._coeffs.items()})

    def __repr__(self):
        if not self._coeffs:
            return "0"
        bits = []
        for p, m in self.items():
            sign = "+" if m > 0 else "-"
            mag = abs(m)
            head = "" if mag == 1 else f"{mag}"
            bits.append(f"{sign}{head}[{p!r}]")
        return "".join(bits)

    def to_json(self):
        return [
            {"component": p.component, "point": format_coordinate(p.coordinate), "coeff": m}
            for p, m in self.items()
        ]


def degree_per_component(D):
    """Sum of coefficients on each component appearing in the support."""
    out = {}
    for p, m in D.items():
        out[p.component] = out.get(p.component, 0) + m
    return out


class SingularPoint(Frozen):
    """One singular point of the curve, presented by its branch fiber.

    generators are tuples over the branches; entry i is the local series
    of the generator on branch i (None meaning zero there).  kind is
    "ordinary" for seminormal gluing, which needs no generators: its
    maximal ideal is u on every branch, and validate() sets conductors 0.
    """

    __slots__ = ("name", "branches", "kind", "conductors", "generators")

    def __init__(self, name, branches, kind="ordinary", conductors=None, generators=None):
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "conductors", None if conductors is None else tuple(int(n) for n in conductors)
        )
        object.__setattr__(
            self, "generators", None if generators is None else tuple(tuple(g) for g in generators)
        )

    def __repr__(self):
        return f"SingularPoint({self.name!r}, branches={list(self.branches)!r}, kind={self.kind!r})"


class CurveConfig(Frozen):
    """A curve configuration; only validate returns a validated one."""

    __slots__ = ("components", "singular_points", "truncation", "validated", "_spans")

    def __init__(self, components, singular_points, truncation):
        object.__setattr__(self, "components", tuple(str(c) for c in components))
        object.__setattr__(self, "singular_points", tuple(singular_points))
        object.__setattr__(self, "truncation", int(truncation))
        object.__setattr__(self, "validated", False)
        object.__setattr__(self, "_spans", {})

    # compared by identity: _spans holds RowSpans, which are mutable
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def branch_places(self):
        out = []
        for sp in self.singular_points:
            out.extend(sp.branches)
        return sorted(out, key=Place.sort_key)

    def branch_place_set(self):
        return {q for sp in self.singular_points for q in sp.branches}

    def mhat_span(self, name):
        """The image of a singular point's maximal ideal in its ring modulo
        the conductor: a reduced span on the jet_column layout."""
        if not self.validated:
            raise ValidationError("configuration not validated")
        return self._spans[name]

    def __repr__(self):
        return (
            f"CurveConfig(components={list(self.components)!r}, "
            f"points={[sp.name for sp in self.singular_points]!r}, N={self.truncation})"
        )


def jet_column(sp, i, e):
    """Column of u^e on branch i, 1 <= e <= c_i, in a validated point's
    span: the branches' conductor blocks side by side."""
    return sum(sp.conductors[:i]) + e - 1


def _closure_span(sp, generators, truncation):
    """Span of all products of generators, modulo the truncation order M.

    Each generator and each product is one sparse row {(branch i, power
    e): coefficient}, 1 <= e <= M, added to the span at column
    i*M + e - 1.  A product has terms only on the branches its factors
    share, and every exponent is at least 1, so the terms past M that
    the cut drops never reach a lower power.
    """
    m = truncation
    span = RowSpan(len(sp.branches) * m)

    def add(row):
        return span.add({i * m + e - 1: c for (i, e), c in row.items()})

    gens = [
        {(i, e): c for i, s in enumerate(g) if s is not None for e, c in s.coeffs.items() if e <= m}
        for g in generators
    ]
    frontier = [g for g in gens if add(g)]
    while frontier:
        new_frontier = []
        for g in gens:
            for h in frontier:
                prod = {}
                for (i, e), c in g.items():
                    for (j, f), d in h.items():
                        if i == j and e + f <= m:
                            prod[i, e + f] = prod.get((i, e + f), 0) + c * d
                if add(prod):
                    new_frontier.append(prod)
        frontier = new_frontier
    return span


def _conductor_gap(sp, span, truncation):
    """The first (branch index, e) with u^e past the branch's conductor
    and through the truncation order outside span, or None."""
    for i, c in enumerate(sp.conductors):
        for e in range(c + 1, truncation + 1):
            if not span.contains({i * truncation + e - 1: 1}):
                return i, e
    return None


def validate(config):
    """Check all configuration invariants; returns the checked config.

    For ordinary points, conductors (all zero) and the empty span are
    filled in.  For explicit points the conductor condition is verified
    by linear algebra on coefficient vectors through M = min(N, 2c + 1),
    c the point's largest conductor.  Window lemma (Serre, Algebraic
    Groups and Class Fields, ch. IV; proof in the module docstring): if
    the closure through 2c + 1 holds u^e on each branch i for
    c_i < e <= 2c + 1, the closure through N holds it for every e > c_i.
    The point keeps the closure's rows cut to the columns e <= c_i: its
    maximal ideal modulo the conductor.  A failed probe, which takes
    invalid input, names the first (branch, power) that the condition
    through N misses.  The window's gaps are gaps through N too, so when
    its first is u^(c_0 + 1) on the first branch, the lowest power there
    can be, it is the answer; otherwise the closure through N is formed,
    since a power the window holds may need terms past M (u^2 + u^5
    with c = 1 holds u^2 through 3 but not through 10).  The closure's
    rows stay sparse from generator to span, so that costs the
    closure's nonzeros, not branches x N per product.
    """
    if config.validated:
        return config
    if not config.components:
        raise ValidationError("no components")
    if len(set(config.components)) != len(config.components):
        raise ValidationError("duplicate component ids")
    names = [sp.name for sp in config.singular_points]
    if len(set(names)) != len(names):
        raise ValidationError("duplicate singular point names")

    n = config.truncation
    if not 0 <= n <= MAX_TRUNCATION:
        shown = abbreviate(format_rat(n))
        raise ValidationError(f"truncation {shown} outside 0..{MAX_TRUNCATION}")
    seen_branches = set()
    new_points = []
    max_conductor = 0
    for sp in config.singular_points:
        if not sp.branches:
            raise ValidationError(f"singular point {sp.name}: empty branch fiber")
        for q in sp.branches:
            if q.component not in config.components:
                raise ValidationError(f"branch {q!r} on unknown component")
            if q in seen_branches:  # a repeat within the fiber is named first
                for k, b in enumerate(sp.branches):
                    if b in sp.branches[:k]:
                        raise ValidationError(f"singular point {sp.name}: branch {b!r} listed twice")
                raise ValidationError(f"branch {q!r} used by more than one singular point")
            seen_branches.add(q)
        if sp.kind == "ordinary":
            conductors, generators = (0,) * len(sp.branches), None
        elif sp.kind == "explicit":
            if sp.conductors is None or len(sp.conductors) != len(sp.branches):
                raise ValidationError(f"{sp.name}: need one conductor per branch")
            if any(c < 0 for c in sp.conductors):
                raise ValidationError(f"{sp.name}: negative conductor")
            if not sp.generators:
                raise ValidationError(f"{sp.name}: explicit point without generators")
            conductors = sp.conductors
            generators = []
            for tup in sp.generators:
                if len(tup) != len(sp.branches):
                    raise ValidationError(f"{sp.name}: generator arity mismatch")
                norm = []
                for q, series in zip(sp.branches, tup):
                    if series is None or not series.coeffs:
                        norm.append(None)
                        continue
                    if series.place != q:
                        raise ValidationError(f"{sp.name}: generator series at wrong place")
                    if series.lead_bound() < 1:
                        raise ValidationError(
                            f"{sp.name}: generator has nonpositive leading exponent"
                        )
                    norm.append(series.recast(q, n))
                if all(s is None for s in norm):
                    # vanishes modulo the truncation order: constrains
                    # nothing at the working precision, so drop it
                    continue
                generators.append(tuple(norm))
            if not generators:
                raise ValidationError(
                    f"{sp.name}: no generators visible below the truncation order"
                )
            generators = tuple(generators)
        else:
            raise ValidationError(f"{sp.name}: unknown kind {sp.kind!r}")
        max_conductor = max(max_conductor, *conductors)
        new_points.append(
            SingularPoint(sp.name, sp.branches, sp.kind, conductors, generators)
        )

    if config.singular_points and n < max_conductor + 2:
        shown = abbreviate(format_rat(max_conductor + 2))
        raise ValidationError(f"truncation {n} too small; need at least {shown}")

    spans = {}
    for sp in new_points:
        mod_conductor = RowSpan(sum(sp.conductors))
        spans[sp.name] = mod_conductor
        if sp.kind == "ordinary":
            continue
        window = min(n, 2 * max(sp.conductors) + 1)
        span = _closure_span(sp, sp.generators, window)
        gap = _conductor_gap(sp, span, window)
        if gap:
            if window < n and gap != (0, sp.conductors[0] + 1):
                gap = _conductor_gap(sp, _closure_span(sp, sp.generators, n), n)
            i, e = gap
            raise ValidationError(
                f"{sp.name}: conductor condition fails at branch {sp.branches[i]!r}, "
                f"u^{e} not generated"
            )
        # every u^e past c_i is in span, so its reduced rows are those
        # units and the rows on the conductor columns, kept here
        for _, row in span.sparse_rows():
            cut = ((divmod(col, window), x) for col, x in row.items())
            kept = {jet_column(sp, i, e + 1): x for (i, e), x in cut if e < sp.conductors[i]}
            mod_conductor.add(kept)

    return _restore(CurveConfig, {  # the constructor cannot set validated or _spans
        "components": config.components, "singular_points": tuple(new_points),
        "truncation": n, "validated": True, "_spans": spans,
    })


def modulus_multiplicities(points):
    """{Place: n} from a modulus given as (Place, n) pairs.

    Every multiplicity must be at least 1 and no place may repeat.
    """
    by_place = {p: int(n) for p, n in points}
    if len(by_place) != len(points):
        raise InputError("repeated place in modulus")
    if any(n < 1 for n in by_place.values()):
        raise InputError("modulus multiplicities must be >= 1")
    return by_place


def curve_from_modulus(points):
    """Singular curve attached to an effective divisor with multiplicities.

    points is a nonempty list of (Place, n) with n >= 1.  The result has
    a single singular point whose branch at p_i has conductor n_i - 1 and
    ideal generators u^(n_i), ..., u^(2 n_i - 1); functions on the curve
    are exactly those congruent to a constant to order n_i at every p_i.
    """
    if not points:
        raise InputError("empty modulus support")
    by_place = modulus_multiplicities(points)
    components = sorted({p.component for p in by_place})
    truncation = max(by_place.values()) + 1
    branches = tuple(sorted(by_place, key=Place.sort_key))
    conductors = tuple(by_place[q] - 1 for q in branches)
    generators = []
    for i, q in enumerate(branches):
        m = by_place[q]
        for e in range(m, 2 * m):
            tup = [None] * len(branches)
            tup[i] = LaurentSeries.monomial(q, e, 1, truncation)
            generators.append(tuple(tup))
    sp = SingularPoint("p", branches, "explicit", conductors, tuple(generators))
    return CurveConfig(components, (sp,), truncation)


# ---------------------------------------------------------------------------
# JSON wire format


def _series_from_json(place, data, truncation):
    """A generator entry: a JSON object {exponent: coefficient}, {} for zero."""
    if not isinstance(data, dict):
        raise InputError(f"generator entry at branch {place!r} is not a JSON object")
    if not data:
        return None
    return LaurentSeries(place, truncation, {int(e): parse_rat(c) for e, c in data.items()})


def _integer(field, value):
    """An integral JSON number, or a string of one, as an int: a bool or a
    fraction is refused, not rounded."""
    if isinstance(value, bool) or not isinstance(value, str) and Fraction(value).denominator != 1:
        shown = json.dumps(value) if isinstance(value, bool) else abbreviate(format_rat(value))
        raise InputError(f"{field} {shown} is not an integer")
    return int(value)


def config_from_json(data):
    try:
        components = [str(c["id"]) for c in data["components"]]
        truncation = _integer("truncation", data["truncation"])
        points = []
        for entry in data.get("singular_points", []):
            branches = tuple(Place.from_json(b) for b in entry["branches"])
            kind = entry.get("kind", "ordinary")
            if kind == "ordinary":
                points.append(SingularPoint(entry["name"], branches, "ordinary"))
                continue
            if kind != "explicit":
                raise InputError(f"unknown singular point kind {kind!r}")
            conductors = [_integer(f"{entry['name']}: conductor", c) for c in entry["conductors"]]
            generators = []
            for gen in entry["generators"]:
                if len(gen) != len(branches):
                    raise InputError("generator arity does not match branches")
                generators.append(
                    tuple(
                        _series_from_json(q, g, truncation)
                        for q, g in zip(branches, gen)
                    )
                )
            points.append(
                SingularPoint(entry["name"], branches, "explicit", conductors, generators)
            )
        return CurveConfig(components, points, truncation)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad curve description: {exc}") from None


def config_to_json(config):
    points = []
    for sp in config.singular_points:
        entry = {
            "name": sp.name,
            "branches": [q.to_json() for q in sp.branches],
            "kind": sp.kind,
        }
        if sp.kind == "explicit":
            entry["conductors"] = list(sp.conductors)
            entry["generators"] = [
                [(g.to_json() if g is not None else {}) for g in tup]
                for tup in sp.generators
            ]
        points.append(entry)
    return {
        "components": [{"id": c} for c in config.components],
        "truncation": config.truncation,
        "singular_points": points,
    }


def load_config(path):
    """Read a curve file; parse_rat reads every JSON number exactly from its
    text, and refuses NaN and Infinity."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(
                fh, parse_float=parse_rat, parse_int=parse_rat, parse_constant=parse_rat
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deep") from None
    return config_from_json(data)
