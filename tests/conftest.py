from fractions import Fraction as F

import pytest

from albx import fixtures
from albx.curve import CurveConfig, SingularPoint, validate
from albx.funcfield import INF, LaurentSeries, Place
from albx.sampling import CartierUnitSampler


@pytest.fixture(scope="session")
def node():
    return fixtures.node()


@pytest.fixture(scope="session")
def cusp():
    return fixtures.cusp()


@pytest.fixture(scope="session")
def tacnode():
    return fixtures.tacnode()


@pytest.fixture(scope="session")
def triple():
    return fixtures.rfold(3)


@pytest.fixture(scope="session")
def fourfold():
    return fixtures.rfold(4)


@pytest.fixture(scope="session")
def whole_zoo(node, cusp, tacnode, triple, fourfold):
    return {
        "node": node,
        "cusp": cusp,
        "tacnode": tacnode,
        "triple": triple,
        "fourfold": fourfold,
    }


def _cusp_at(n):
    q = Place("C0", 0)
    gens = ((LaurentSeries.monomial(q, 2, 1, n),), (LaurentSeries.monomial(q, 3, 1, n),))
    return validate(CurveConfig(["C0"], [SingularPoint("p", (q,), "explicit", (1,), gens)], n))


def _tacnode_at(n):
    sp = fixtures.tacnode_point("p", Place("C0", 0), Place("C0", 1), n)
    return validate(CurveConfig(["C0"], [sp], n))


def _modulus(*points):
    return fixtures.modulus_curve([(Place("C0", c), m) for c, m in points])


@pytest.fixture(scope="session")
def unit_samplers(whole_zoo):
    """name -> CartierUnitSampler on the zoo, the cusp and the tacnode at
    truncation 10 and 20, five moduli, a three-line chain and a two-line
    cycle with a tacnode; sampler.config is the curve."""
    curves = dict(whole_zoo)
    for n in (10, 20):
        curves[f"cusp N={n}"] = _cusp_at(n)
        curves[f"tacnode N={n}"] = _tacnode_at(n)
    curves["2[0]+2[1]"] = _modulus((0, 2), (1, 2))
    curves["4[0]"] = _modulus((0, 4))
    curves["3[0]+2[1]"] = _modulus((0, 3), (1, 2))
    curves["2[0]+2[1]+2[inf]"] = _modulus((0, 2), (1, 2), (INF, 2))
    curves["2[0]+1[1/2]"] = _modulus((0, 2), (F(1, 2), 1))
    curves["chain"] = fixtures.line_chain(3, ["ordinary", "tacnode"])
    curves["cycle"] = fixtures.line_chain(2, ["ordinary", "tacnode"])
    return {name: CartierUnitSampler(cfg) for name, cfg in curves.items()}
