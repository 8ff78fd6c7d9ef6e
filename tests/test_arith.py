from fractions import Fraction

import pytest

from albx.arith import factorint, format_rat, parse_rat
from albx.errors import InputError


def test_parse_format_roundtrip():
    for text in ["3", "-7", "2/5", "-11/3", "0"]:
        assert format_rat(parse_rat(text)) == text
    assert parse_rat(" 4/6 ") == Fraction(2, 3)
    with pytest.raises(InputError):
        parse_rat("1/0")
    with pytest.raises(InputError):
        parse_rat("x")


def test_factorint_small():
    assert factorint(12) == {2: 2, 3: 1}
    assert factorint(1) == {}
    assert factorint(97) == {97: 1}


def test_factorint_large_composite():
    n = (2**31 - 1) * (2**61 - 1) * 2**5
    f = factorint(n)
    assert f[2] == 5 and f[2**31 - 1] == 1 and f[2**61 - 1] == 1
    prod = 1
    for p, e in f.items():
        prod *= p**e
    assert prod == n

