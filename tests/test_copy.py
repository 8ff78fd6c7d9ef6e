"""copy.copy, copy.deepcopy, pickle, del and hashing on the package's
immutable types.

Every immutable class in src/albx derives from frozen.Frozen, which
carries its set slots through copy and pickle without running __init__.
The classes are found as the Frozen subclasses of every module, so a new
immutable class without a sample instance here fails the test.
"""

import copy
from fractions import Fraction as F
import importlib
import inspect
import os
from pathlib import Path
import pickle
import subprocess
import sys

import pytest

from albx import fixtures
from albx.chow import AJPoint, ZeroCycle
from albx.curve import Divisor, config_to_json
from albx.frozen import Frozen
from albx.funcfield import INF, LaurentSeries, Place, Poly, RatFunc
from albx.infdiv import InfinitesimalDivisor, divisor_group
from albx.motive import OneMotive
from oracles import dense_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "albx"


def immutable_classes():
    """Every subclass of Frozen that a module of the package defines:
    {name: class}."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"albx.{path.stem}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Frozen) and cls is not Frozen:
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
            assert not hasattr(obj, "__dict__"), name
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(obj, found[name]._fields[0])
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(obj, found[name]._fields[0], None)
            for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
                back = clone(obj)
                assert type(back) is type(obj), name
                assert value(back) == value(obj), name
                assert repr(back) == repr(obj), name
                if name != "CurveConfig":  # compared by identity
                    assert hash(back) == hash(obj), name
                if name == "RatFunc":
                    # a factored function stays factored
                    assert back.factors == obj.factors
                if name == "Place":
                    assert back.is_infinite() == obj.is_infinite()
            validated += getattr(obj, "validated", False)
    assert validated == 2


def test_divisor_equals_zero_cycle():
    z = ZeroCycle.from_string("C0:2=+1,C0:3=-1")
    d = Divisor(z.items())
    assert d == z and z == d and hash(d) == hash(z)
    assert Divisor() == ZeroCycle() and Divisor() != Poly()


def test_dict_slots_compare_and_hash_in_any_order():
    p, q = Place("C0", 1), Place("C0", INF)
    a = LaurentSeries(p, -1, {-1: 2})
    b = LaurentSeries(q, -1, {-2: F(1, 3)})
    one, other = InfinitesimalDivisor({p: a, q: b}), InfinitesimalDivisor({q: b, p: a})
    assert list(one.parts) != list(other.parts)
    assert one == other and hash(one) == hash(other)


def test_place_pickled_in_another_process_hashes_here():
    # str hashes are salted per process, so a pickled place carries no hash
    code = (
        "import pickle, sys; from albx.funcfield import Place; "
        "sys.stdout.write(pickle.dumps(Place('C0', 1)).hex())"
    )
    table = {Place("C0", 1): "found"}
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert table[pickle.loads(bytes.fromhex(out))] == "found"


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_place_at_infinity_survives_every_pickle_protocol(protocol):
    p = Place("C0", INF)
    back = pickle.loads(pickle.dumps(p, protocol))
    assert back.coordinate is INF and pickle.loads(pickle.dumps(INF, protocol)) is INF
    assert back == p and hash(back) == hash(p)
    assert repr(back) == str(back) == "C0:inf" and repr(INF) == str(INF) == "inf"
