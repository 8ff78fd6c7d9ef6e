from collections import Counter
import json
from fractions import Fraction as F
import random

import pytest

from albx import curve
from albx.curve import (
    MAX_TRUNCATION,
    CurveConfig,
    Divisor,
    SingularPoint,
    config_from_json,
    config_to_json,
    curve_from_modulus,
    degree_per_component,
    validate,
)
from albx.errors import InputError, ValidationError
from albx.fixtures import tacnode_point
from albx.funcfield import INF, LaurentSeries, Place
from albx.linalg import RowSpan
from oracles import closure_verdict_reference, dense_rows, lift_to_truncation


def place(c):
    return Place("C0", c)


def mono(coord, e, n):
    q = place(coord)
    return LaurentSeries.monomial(q, e, 1, n)


# --- validate -----------------------------------------------------------------


def test_node_is_seminormal(node):
    sp = node.singular_points[0]
    assert sp.conductors == (0, 0)
    assert sp.generators is None  # the ideal is u on each branch, written down as a span
    span = node.mhat_span("p")
    assert span.ncols == 0  # nothing is left modulo the conductor
    # the full branchwise sum
    assert lift_to_truncation(span, sp, node.truncation).rank == 2 * node.truncation


def test_cusp_valid(cusp):
    assert cusp.validated
    assert cusp.singular_points[0].conductors == (1,)


@pytest.mark.parametrize("keyword", ["validated", "spans"])
def test_only_validate_makes_a_validated_config(cusp, keyword):
    # a config built as validated had no spans, and the kernels then
    # failed with a TypeError instead of refusing it
    args = (cusp.components, cusp.singular_points, cusp.truncation)
    with pytest.raises(TypeError):
        CurveConfig(*args, **{keyword: True})
    raw = CurveConfig(*args)
    checked = validate(raw)
    assert not raw.validated and checked is not raw
    assert checked.validated and validate(checked) is checked
    assert dense_rows(checked.mhat_span("p")) == dense_rows(cusp.mhat_span("p"))


def test_cusp_conductor_zero_rejected():
    gens = ((mono(0, 2, 3),), (mono(0, 3, 3),))
    sp = SingularPoint("p", (place(0),), "explicit", (0,), gens)
    with pytest.raises(ValidationError, match="u\\^1"):
        validate(CurveConfig(["C0"], [sp], 3))


def test_duplicate_branch_rejected():
    sp1 = SingularPoint("p", (place(0), place(INF)), "ordinary")
    sp2 = SingularPoint("q", (place(0), place(1)), "ordinary")
    with pytest.raises(ValidationError, match="more than one"):
        validate(CurveConfig(["C0"], [sp1, sp2], 3))


def test_generators_are_cut_to_the_truncation():
    # a series already at N is kept as built; one given past N is cut to N,
    # so no kept series carries a term past the truncation
    n = 5
    above = LaurentSeries(place(0), 12, {2: 1, 6: 3, 9: 1})
    at = LaurentSeries(place(0), n, {3: 1, 5: 2})
    below = LaurentSeries(place(0), 4, {4: 1})
    sp = SingularPoint("p", (place(0),), "explicit", (1,), ((above,), (at,), (below,)))
    cfg = validate(CurveConfig(["C0"], [sp], n))
    (cut,), (kept,), (raised,) = cfg.singular_points[0].generators
    assert kept is at
    assert (cut.truncation, cut.coeffs) == (n, {2: 1})
    assert (raised.truncation, raised.coeffs) == (n, {4: 1})


def test_truncation_too_small_rejected():
    gens = ((mono(0, 2, 2),), (mono(0, 3, 2),))
    sp = SingularPoint("p", (place(0),), "explicit", (1,), gens)
    with pytest.raises(ValidationError, match="truncation"):
        validate(CurveConfig(["C0"], [sp], 2))


def test_unknown_component_rejected():
    sp = SingularPoint("p", (Place("C9", 0), Place("C9", 1)), "ordinary")
    with pytest.raises(ValidationError):
        validate(CurveConfig(["C0"], [sp], 2))


def test_validate_idempotent(node):
    assert validate(node) is node


# --- degrees ---------------------------------------------------------------------


def test_degree_per_component():
    assert degree_per_component(Divisor({place(0): 1, place(INF): -1})) == {"C0": 0}
    assert degree_per_component(Divisor({place(0): 1, place(1): 1})) == {"C0": 2}
    two = Divisor({place(0): 1, Place("C1", 2): -3})
    assert degree_per_component(two) == {"C0": 1, "C1": -3}


# --- divisor algebra --------------------------------------------------------------


def test_divisor_group_laws():
    a = Divisor({place(0): 1})
    b = Divisor({place(0): -1, place(2): 5})
    assert a + b == Divisor({place(2): 5})
    assert (a - a) == Divisor()
    assert not Divisor()
    assert a.scale(3).coeff(place(0)) == 3


# --- modulus curves ----------------------------------------------------------------


def test_modulus_node():
    cfg = validate(curve_from_modulus([(place(0), 1), (place(INF), 1)]))
    sp = cfg.singular_points[0]
    assert sp.conductors == (0, 0)
    # seminormal: the full branchwise sum of maximal ideals
    assert lift_to_truncation(cfg.mhat_span("p"), sp, cfg.truncation).rank == 2 * cfg.truncation


def test_modulus_cusp():
    cfg = validate(curve_from_modulus([(place(0), 2)]))
    sp = cfg.singular_points[0]
    assert sp.conductors == (1,)
    assert cfg.truncation == 3
    span = lift_to_truncation(cfg.mhat_span("p"), sp, 3)
    assert not span.contains([1, 0, 0])  # u^1 is not a curve function
    assert span.contains([0, 1, 0]) and span.contains([0, 0, 1])


def test_modulus_mixed():
    cfg = validate(curve_from_modulus([(place(0), 2), (place(INF), 1)]))
    assert cfg.singular_points[0].conductors == (1, 0)


def test_modulus_always_validates():
    import random

    rng = random.Random(5)
    for _ in range(10):
        k = rng.randint(1, 4)
        coords = rng.sample(range(-3, 6), k)
        points = [(place(c), rng.randint(1, 4)) for c in coords]
        assert validate(curve_from_modulus(points)).validated


def test_modulus_input_errors():
    with pytest.raises(InputError):
        curve_from_modulus([])
    with pytest.raises(InputError):
        curve_from_modulus([(place(0), 0)])
    with pytest.raises(InputError):
        curve_from_modulus([(place(0), 1), (place(0), 2)])


# --- JSON ---------------------------------------------------------------------------


def test_json_roundtrip(tacnode):
    data = json.loads(json.dumps(config_to_json(tacnode)))
    back = validate(config_from_json(data))
    assert back.truncation == tacnode.truncation
    assert [sp.conductors for sp in back.singular_points] == [
        sp.conductors for sp in tacnode.singular_points
    ]
    # same spans, hence identical kernels downstream
    assert dense_rows(back.mhat_span("p")) == dense_rows(tacnode.mhat_span("p"))


def test_json_schema_shape(node):
    data = config_to_json(node)
    assert data["components"] == [{"id": "C0"}]
    assert data["singular_points"][0]["kind"] == "ordinary"
    assert data["singular_points"][0]["branches"][1] == {
        "component": "C0",
        "point": "inf",
    }


def test_json_bad_input(tacnode):
    with pytest.raises(InputError):
        config_from_json({"components": [{"id": "C0"}]})
    with pytest.raises(InputError):
        config_from_json(
            {
                "components": [{"id": "C0"}],
                "truncation": 3,
                "singular_points": [{"name": "p", "branches": [], "kind": "weird"}],
            }
        )
    # {} is the zero series; a falsy entry of another type is refused,
    # named by its branch
    data = config_to_json(tacnode)
    assert data["singular_points"][0]["generators"][1][1] == {}
    config_from_json(data)
    for entry in (0, "", [], False, None):
        data["singular_points"][0]["generators"][1][1] = entry
        with pytest.raises(InputError, match="generator entry at branch C0:1 is not a JSON object"):
            config_from_json(data)


# --- the window lemma -----------------------------------------------------------------


def _random_explicit_point(rng):
    """1-3 branches, conductors 0-3, N <= 14, one to three random generators
    of order 1-4 with one to three terms, and at times the powers past
    some conductors."""
    r = rng.randint(1, 3)
    branches = tuple(place(c) for c in rng.sample([0, 1, 2, INF], r))
    conductors = tuple(rng.randint(0, 3) for _ in range(r))
    n = rng.randint(max(conductors) + 2, 14)
    gens = []
    for _ in range(rng.randint(1, 3)):
        lead = rng.randint(1, min(4, n))
        tup = [
            None if k and rng.random() < 0.3 else LaurentSeries(
                q, n, {e: rng.choice((-2, -1, 1, 2)) for e in range(lead, lead + rng.randint(1, 3))}
            )
            for k, q in enumerate(branches)
        ]
        gens.append(tuple(tup))
    for i, q in enumerate(branches):
        if rng.random() < 0.6:
            low = conductors[i] + rng.randint(0, 1)
            for e in range(max(low, 1), 2 * conductors[i] + rng.randint(1, 2)):
                tup = [None] * r
                tup[i] = LaurentSeries.monomial(q, e, rng.choice((1, 1, -3)), n)
                gens.append(tuple(tup))
    return SingularPoint("p", branches, "explicit", conductors, gens), n


def test_window_closure_matches_full_closure():
    # validate closes each point through 2c + 1 only; the closure through N,
    # probed at every power, must give the same verdict, the same reduced
    # rows and the same error text
    rng = random.Random(2019)
    verdicts = Counter()
    for _ in range(2000):
        sp, n = _random_explicit_point(rng)
        cfg = CurveConfig(["C0"], [sp], n)
        expected = closure_verdict_reference(cfg.singular_points[0], n)
        try:
            got = dense_rows(lift_to_truncation(validate(cfg).mhat_span("p"), sp, n))
        except ValidationError as exc:
            got = str(exc)
        assert got == expected, (sp.conductors, n, [g for g in sp.generators])
        verdicts[isinstance(got, str)] += 1
    assert verdicts[False] > 300 and verdicts[True] > 300, verdicts


def _explicit_at(kind, n):
    q1, q2 = place(0), place(1)
    if kind == "tacnode":
        return CurveConfig(["C0"], [tacnode_point("p", q1, q2, n)], n)
    gens = ((mono(0, 2, n),), (mono(0, 3, n),))
    return CurveConfig(["C0"], [SingularPoint("p", (q1,), "explicit", (1,), gens)], n)


def test_validate_cost_does_not_grow_with_truncation(monkeypatch):
    # at N = MAX_TRUNCATION the cusp and the tacnode (conductors 1) are
    # closed through 2c + 1 = 3 only
    seen = []
    closure = curve._closure_span

    def counted(sp, generators, truncation):
        seen.append(truncation)
        return closure(sp, generators, truncation)

    monkeypatch.setattr(curve, "_closure_span", counted)
    for kind in ("cusp", "tacnode"):
        cfg = validate(_explicit_at(kind, MAX_TRUNCATION))
        sp = cfg.singular_points[0]
        span = lift_to_truncation(cfg.mhat_span("p"), sp, MAX_TRUNCATION)
        assert span.rank == len(sp.branches) * MAX_TRUNCATION - 1
    assert seen == [3, 3]


def test_validate_error_stops_at_the_window(monkeypatch):
    # the tacnode at N = MAX_TRUNCATION with conductors [0, 0]: the window
    # closure, through 1, misses u^1 on the first branch, the lowest power
    # there can be, so it names the failure; u^2 + u^5 with conductor 1
    # holds u^2 through 3 but not through 10, so there the closure through
    # N still runs and names u^2, not the window's u^3; so it does for the
    # tacnode with conductors [1, 0], whose gap is on the second branch,
    # and there every vector offered to the span keeps the closure's own
    # nonzeros, not one entry per column through N
    seen = []
    closure = curve._closure_span

    def counted(sp, generators, truncation):
        seen.append(truncation)
        return closure(sp, generators, truncation)

    widths = []
    reduce = RowSpan._reduce

    def measured(span, vec):
        widths.append(len(vec))
        return reduce(span, vec)

    monkeypatch.setattr(curve, "_closure_span", counted)
    sp = _explicit_at("tacnode", MAX_TRUNCATION).singular_points[0]
    sp = SingularPoint("p", sp.branches, "explicit", (0, 0), sp.generators)
    with pytest.raises(ValidationError, match="branch C0:0, u\\^1 not generated"):
        validate(CurveConfig(["C0"], [sp], MAX_TRUNCATION))
    assert seen == [1]
    seen.clear()
    g = LaurentSeries(place(0), 10, {2: 1, 5: 1})
    sp = SingularPoint("p", (place(0),), "explicit", (1,), ((g,),))
    with pytest.raises(ValidationError, match="branch C0:0, u\\^2 not generated"):
        validate(CurveConfig(["C0"], [sp], 10))
    assert seen == [3, 10]
    seen.clear()
    monkeypatch.setattr(RowSpan, "_reduce", measured)
    sp = _explicit_at("tacnode", MAX_TRUNCATION).singular_points[0]
    sp = SingularPoint("p", sp.branches, "explicit", (1, 0), sp.generators)
    with pytest.raises(ValidationError, match="branch C0:1, u\\^1 not generated"):
        validate(CurveConfig(["C0"], [sp], MAX_TRUNCATION))
    assert seen == [3, MAX_TRUNCATION]
    assert widths and max(widths) <= 2, max(widths)


def _modulus_at(points, n):
    """curve_from_modulus(points) with its generators u^(c+1)..u^(2c+1)
    stored through n: at its own truncation c + 2 the higher ones vanish."""
    cfg = curve_from_modulus(points)
    sp = cfg.singular_points[0]
    gens = []
    for i, (q, c) in enumerate(zip(sp.branches, sp.conductors)):
        for e in range(c + 1, 2 * c + 2):
            tup = [None] * len(sp.branches)
            tup[i] = LaurentSeries.monomial(q, e, 1, n)
            gens.append(tuple(tup))
    point = SingularPoint("p", sp.branches, "explicit", sp.conductors, gens)
    return CurveConfig(cfg.components, [point], n)


def test_stored_span_does_not_depend_on_truncation():
    # the span modulo the conductor is the same at N = c + 2 and at
    # N = MAX_TRUNCATION: sum c_q columns wide, row for row
    rng = random.Random(2020)
    pairs = [
        (_explicit_at(kind, 3), _explicit_at(kind, MAX_TRUNCATION)) for kind in ("cusp", "tacnode")
    ]
    for _ in range(20):
        coords = rng.sample([0, 1, 2, 5, INF], rng.randint(1, 4))
        points = [(place(a), rng.randint(1, 4)) for a in coords]
        low = max(m for _, m in points) + 1
        pairs.append((_modulus_at(points, low), _modulus_at(points, MAX_TRUNCATION)))
    for low, high in pairs:
        low, high = validate(low), validate(high)
        width = sum(low.singular_points[0].conductors)
        assert low.mhat_span("p").ncols == high.mhat_span("p").ncols == width
        assert dense_rows(high.mhat_span("p")) == dense_rows(low.mhat_span("p")), low
