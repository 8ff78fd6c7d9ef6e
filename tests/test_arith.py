from fractions import Fraction

import pytest

from albx.arith import MAX_HEIGHT, _decimal, factorint, format_rat, parse_int, parse_rat
from albx.errors import InputError


def test_parse_format_roundtrip():
    for text in ["3", "-7", "2/5", "-11/3", "0"]:
        assert format_rat(parse_rat(text)) == text
    assert parse_rat(" 4/6 ") == Fraction(2, 3)
    with pytest.raises(InputError):
        parse_rat("1/0")
    with pytest.raises(InputError):
        parse_rat("x")


def test_parse_int_by_halves_up_to_the_height_limit():
    assert parse_int("0") == 0 and parse_int("007") == 7
    assert parse_int("1" + "0" * 4400) == 10**4400
    assert parse_int("3" * 9000) == (10**9000 - 1) // 3
    # the inverse of _decimal, exactly up to the limit
    assert parse_int(_decimal(2**MAX_HEIGHT - 1)) == 2**MAX_HEIGHT - 1
    for digits in (_decimal(2**MAX_HEIGHT), "9" * 19729, "1" + "0" * 30000):
        with pytest.raises(InputError, match="more than 65536 bits"):
            parse_int(digits)


def test_parse_rat_shortens_long_literals():
    for text in ("7" * 5000 + "x", "7" * 5000 + "/0"):
        with pytest.raises(InputError) as info:
            parse_rat(text)
        message = str(info.value)
        assert f"({len(text)} characters)" in message and "7" * 41 not in message


def test_parse_rat_converts_digit_runs_by_halves():
    # Fraction alone refuses a run past 4300 digits; parse_int does not
    assert parse_rat("7" * 4400) == (10**4400 - 1) // 9 * 7
    assert parse_rat("-1/" + "3" * 4400) == Fraction(-3, 10**4400 - 1)
    assert parse_rat("1.5") == Fraction(3, 2)
    for text in ("9" * 19729, "1/" + "1" + "0" * 30000):
        with pytest.raises(InputError, match="more than 65536 bits"):
            parse_rat(text)


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

