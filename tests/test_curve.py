import json
from fractions import Fraction as F

import pytest

from albx.curve import (
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
from albx.funcfield import INF, LaurentSeries, Place


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
    assert span.rank == 2 * node.truncation  # the full branchwise sum


def test_cusp_valid(cusp):
    assert cusp.validated
    assert cusp.singular_points[0].conductors == (1,)


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
    assert cfg.mhat_span("p").rank == 2 * cfg.truncation


def test_modulus_cusp():
    cfg = validate(curve_from_modulus([(place(0), 2)]))
    sp = cfg.singular_points[0]
    assert sp.conductors == (1,)
    assert cfg.truncation == 3
    span = cfg.mhat_span("p")
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
    assert back.mhat_span("p").rows() == tacnode.mhat_span("p").rows()


def test_json_schema_shape(node):
    data = config_to_json(node)
    assert data["components"] == [{"id": "C0"}]
    assert data["singular_points"][0]["kind"] == "ordinary"
    assert data["singular_points"][0]["branches"][1] == {
        "component": "C0",
        "point": "inf",
    }


def test_json_bad_input():
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
