"""Built-in curve configurations used by the verify suites and tests."""

from .curve import CurveConfig, SingularPoint, curve_from_modulus, validate
from .funcfield import INF, LaurentSeries, Place


def node():
    """One component, places 0 and inf glued transversally."""
    sp = SingularPoint("p", (Place("C0", 0), Place("C0", INF)), "ordinary")
    return validate(CurveConfig(["C0"], [sp], 2))


def cusp():
    """Ordinary cusp at 0: local ring generated by u^2, u^3."""
    q = Place("C0", 0)
    gens = (
        (LaurentSeries.monomial(q, 2, 1, 3),),
        (LaurentSeries.monomial(q, 3, 1, 3),),
    )
    sp = SingularPoint("p", (q,), "explicit", (1,), gens)
    return validate(CurveConfig(["C0"], [sp], 3))


def tacnode_point(name, q1, q2, n):
    """Places q1 and q2 glued to first order: equal values and first jets."""
    mono = LaurentSeries.monomial
    gens = (
        (mono(q1, 1, 1, n), mono(q2, 1, 1, n)),
        (mono(q1, 2, 1, n), None),
        (None, mono(q2, 2, 1, n)),
    )
    return SingularPoint(name, (q1, q2), "explicit", (1, 1), gens)


def tacnode():
    """Places 0 and 1 of one line glued to first order."""
    sp = tacnode_point("p", Place("C0", 0), Place("C0", 1), 3)
    return validate(CurveConfig(["C0"], [sp], 3))


def line_chain(k, kinds):
    """k lines, place 1 of line j glued to place 0 of line j + 1.

    kinds names the gluings in order, each "ordinary" or "tacnode";
    k - 1 of them make a chain, k a cycle whose last gluing closes it
    back onto the first line.
    """
    comps = [f"L{j}" for j in range(k)]
    points = []
    for j, kind in enumerate(kinds):
        q1, q2 = Place(comps[j], 1), Place(comps[(j + 1) % k], 0)
        if kind == "tacnode":
            points.append(tacnode_point(f"p{j}", q1, q2, 3))
        else:
            points.append(SingularPoint(f"p{j}", (q1, q2)))
    return validate(CurveConfig(comps, points, 3))


def rfold(r):
    """Ordinary r-fold point gluing r places of one component."""
    if r < 2:
        raise ValueError("need at least two branches")
    places = [Place("C0", k) for k in range(r - 1)] + [Place("C0", INF)]
    sp = SingularPoint("p", tuple(places), "ordinary")
    return validate(CurveConfig(["C0"], [sp], 2))


def modulus_curve(points):
    """Validated singular curve attached to a modulus (list of (Place, n))."""
    return validate(curve_from_modulus(points))


def zoo():
    """The standard battery: name -> validated configuration."""
    return {
        "node": node(),
        "cusp": cusp(),
        "tacnode": tacnode(),
        "triple": rfold(3),
        "fourfold": rfold(4),
    }
