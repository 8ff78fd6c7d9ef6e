from fractions import Fraction
import random
import re

import pytest

from oracles import parse_rat_reference

from albx.arith import MAX_HEIGHT, _decimal, abbreviate, factorint, format_rat, parse_int, parse_rat
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



def test_parse_rat_decimals_and_exponents():
    cases = {
        "1e3": 1000, "1.5": Fraction(3, 2), "-2.5e-3": Fraction(-1, 400), "5.": 5,
        ".5": Fraction(1, 2), "+.5E+2": 50, "1_000": 1000, "1_0.2_5e1": Fraction(1025, 10),
        "00012.3400": Fraction(617, 50),
    }
    for text, value in cases.items():
        assert parse_rat(text) == Fraction(text) == value
    assert parse_rat("0e99999999999") == 0  # Fraction would form 10^99999999999 first
    # 10^19728 has 65,535 bits and 10^19729 has 65,539; 5 * 10^-19729 = 1 / (2 * 10^19728)
    assert parse_rat("1e19728") == 10**19728 and parse_rat("1e-19728") == Fraction(1, 10**19728)
    assert parse_rat("5e-19729") == Fraction(1, 2 * 10**19728)
    for text in ("1e19729", "1e-19729", "1e10000000", "1e-10000000", "2e-65536", "1e" + "9" * 30):
        with pytest.raises(InputError, match="of more than 65536 bits"):
            parse_rat(text)
    for text in ("1__0", "_1", "1._5", "3 / 4", ".", "e5", "1e", "1e+_5", "inf"):
        with pytest.raises(InputError, match="bad rational literal"):
            parse_rat(text)


# ASCII, fullwidth, Arabic-Indic and Devanagari digits; superscripts are not decimal
_DIGITS = "0123456789" * 6 + "０３９٠٣٩०७"
_JUNK = ["x", "²", ".", "/", "e", "E", "_", "+", "-", " ", "1.2.3", "inf", "nan", "0x1f", "1j"]
_SPACE = ["", "", "", " ", "\t", "\n ", "\u3000"]


def _digit_run(rng):
    size = rng.choice([1, 1, 2, 3, 5, 12, 40, rng.randint(4301, 4400), rng.randint(19729, 19800)])
    if size > 40 and rng.random() < 0.5:  # long runs are rare, most of them short
        size = rng.randint(1, 6)
    run = "".join(rng.choice(_DIGITS) for _ in range(size))
    return rng.choice(["", "", "", "0", "000"]) + run


def _random_literal(rng):
    """A seeded literal: a signed digit run, a/b, a decimal with an
    exponent, underscores, surrounding or inner whitespace, or junk."""
    sign = rng.choice(["", "", "", "-", "+", "--", "+-"])
    num = _digit_run(rng)
    shape = rng.choice([0, 0, 1, 1, 1, 2, 3, 4, 5])
    if shape == 0:
        text = sign + num
    elif shape == 1:
        den = rng.choice([_digit_run(rng), "0", "000", "-3", ""])
        text = f"{sign}{num}/{den}"
    elif shape == 2:
        frac = rng.choice(["", _digit_run(rng)])
        whole = rng.choice([num, ""])
        exp = rng.choice(["", f"e{rng.randint(0, 30)}", f"E-{rng.randint(0, 30)}", "e+5",
                          f"e{rng.choice([19728, 19729, 10**7])}", "e"])
        text = f"{sign}{whole}.{frac}{exp}"
    elif shape == 3:
        text = f"{sign}{num}e{rng.choice(['', '-', '+'])}{_digit_run(rng)}"
    elif shape == 4:  # underscores, one between digits or misplaced
        text = sign + num + rng.choice(["", "/"]) + _digit_run(rng)
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(["_", "_", "__"]) + text[cut:]
    else:
        parts = [sign, num, rng.choice(_JUNK), rng.choice(["", _digit_run(rng)])]
        text = "".join(parts)
    if rng.random() < 0.1:
        cut = rng.randint(0, len(text))
        text = text[:cut] + " " + text[cut:]
    return rng.choice(_SPACE) + text + rng.choice(_SPACE)


def _outcome(parse, text):
    try:
        value = parse(text)
    except InputError as exc:
        return "InputError", str(exc)
    assert type(value) is Fraction
    return value


def test_parse_rat_matches_full_grammar_reference():
    rng = random.Random(29)
    seen = dict.fromkeys(
        ["value", "error", "plain", "a/b", "zero denominator", "decimal", "unicode", "long", "too high"], 0
    )
    for _ in range(1500):
        text = _random_literal(rng)
        expected = _outcome(parse_rat_reference, text)
        assert _outcome(parse_rat, text) == expected, abbreviate(text)
        value = isinstance(expected, Fraction)
        seen["value" if value else "error"] += 1
        seen["a/b"] += value and "/" in text
        seen["zero denominator"] += not value and expected[1].endswith("zero denominator")
        seen["decimal"] += value and "." in text
        seen["unicode"] += value and not text.strip().isascii()
        seen["long"] += len(text) > 4300
        seen["too high"] += not value and f"more than {MAX_HEIGHT} bits" in expected[1]
        seen["plain"] += value and re.fullmatch(r"[+-]?\d+(/\d+)?", text.strip()) is not None
    assert min(seen.values()) >= 30, seen
