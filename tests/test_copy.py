"""copy.copy, copy.deepcopy and pickle on the package's immutable types.

Every class in src/albx whose __setattr__ raises rebuilds itself through
its constructor (__reduce__), since the default slot-state restore goes
through that __setattr__.  The classes are found by scanning the source,
so a new immutable class without a sample instance here fails the test.
"""

import ast
import copy
from fractions import Fraction as F
import importlib
import inspect
from pathlib import Path
import pickle

from albx import fixtures
from albx.chow import AJPoint, ZeroCycle
from albx.curve import Divisor, config_to_json
from albx.funcfield import INF, LaurentSeries, Place, Poly, RatFunc
from albx.infdiv import divisor_group
from albx.motive import OneMotive
from oracles import dense_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "albx"


def immutable_classes():
    """Every class of the package whose __setattr__, its own or inherited,
    raises: {name: class}."""
    raising = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(f, ast.FunctionDef)
                and f.name == "__setattr__"
                and any(isinstance(n, ast.Raise) for n in ast.walk(f))
                for f in node.body
            ):
                raising.add((path.stem, node.name))
    roots = tuple(
        getattr(importlib.import_module(f"albx.{module}"), name) for module, name in raising
    )
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"albx.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, roots):
                out[name] = cls
    return out


def samples():
    q = Place("C0", 1)
    tacnode = fixtures.tacnode()
    formal = divisor_group(tacnode)
    return {
        "Place": [Place("C0", INF), Place("C1", F(-3, 7))],
        "Poly": [Poly([1, F(2, 3), -5]), Poly()],
        "RatFunc": [
            RatFunc(Poly([1, 2]), Poly([3, 0, 1]), "C2"),
            RatFunc.from_factors([(0, 2), (F(1, 2), -1), (5, 0)], F(-3, 4), "C1"),
        ],
        "LaurentSeries": [LaurentSeries(q, 4, {1: 2, 3: F(-1, 5)})],
        "Divisor": [Divisor({q: 2, Place("C0", INF): -2})],
        "ZeroCycle": [ZeroCycle.from_string("C0:2=+1,C0:3=-1")],
        "SingularPoint": [tacnode.singular_points[0], fixtures.node().singular_points[0]],
        "CurveConfig": [tacnode, fixtures.line_chain(3, ["ordinary", "tacnode"])],
        "InfinitesimalDivisor": list(formal.lie_basis),
        "FormalGroupData": [formal],
        "AJPoint": [AJPoint([2, F(1, 3)], [F(5, 7)])],
        "OneMotive": [OneMotive(formal), OneMotive(formal, True)],
    }


def value(x):
    """x itself where its class compares by value, else the fields that
    make it up."""
    if type(x).__name__ == "SingularPoint":
        return (x.name, x.branches, x.kind, x.conductors, x.generators)
    if type(x).__name__ == "CurveConfig":
        spans = {sp.name: dense_rows(x.mhat_span(sp.name)) for sp in x.singular_points}
        return (config_to_json(x), x.validated, spans)
    return x


def test_immutable_types_copy_and_pickle():
    found = immutable_classes()
    cases = samples()
    assert sorted(found) == sorted(cases)
    validated = 0
    for name, objs in cases.items():
        for obj in objs:
            assert type(obj) is found[name]
            for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
                back = clone(obj)
                assert type(back) is type(obj), name
                assert value(back) == value(obj), name
                assert repr(back) == repr(obj), name
                if name == "RatFunc":
                    # a factored function stays factored
                    assert back.factors == obj.factors
                if name == "Place":
                    assert back.is_infinite() == obj.is_infinite()
            validated += getattr(obj, "validated", False)
    assert validated == 2
