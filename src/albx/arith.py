"""Small integer/rational utilities: parsing, formatting, factoring."""

from fractions import Fraction
import math
import re

from .errors import InputError

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
# bits of a printed numerator or denominator, of a coefficient that cli
# forms by ^ and of a torus coordinate; past it InputError is raised
MAX_HEIGHT = 2**16
MAX_DEGREE = 2048  # of a ^ base times |exponent| in cli, and of an abel_jacobi interpolant
# Fraction's forms, once "_" between digits is dropped: a/b, or a decimal
_RATIONAL = re.compile(r"([+-]?)(?=\d|\.\d)(\d*)(?:/(\d+)|(?:\.(\d*))?(?:e([+-]?)(\d+))?)", re.I)
# the plain forms a and a/b, which curve files, cycles and points use
_PLAIN = re.compile(r"[+-]?\d+(?:/\d+)?")
# a plain literal this short converts by int alone: it stays below int's
# 4300-digit limit, and 2400 digits are fewer than MAX_HEIGHT bits
_PLAIN_CHARS = 2400


def parse_rat(text):
    """Parse "a/b", "a", or a decimal such as "-2.5e-3" into a Fraction.

    A short plain a or a/b converts by int directly.  Every other literal
    goes through the full grammar, whose digit runs convert through
    parse_int, under its MAX_HEIGHT limit.  A decimal n * 10^k is refused
    unformed when 3k >= MAX_HEIGHT or -3k >= 2 MAX_HEIGHT, as 10^|k| >
    2^(3|k|) and n cancels at most MAX_HEIGHT bits.
    """
    text = str(text).strip()
    if len(text) <= _PLAIN_CHARS and _PLAIN.fullmatch(text):
        num, _, den = text.partition("/")
        if not den:
            return Fraction(int(num))
        d = int(den)
        if d == 0:
            raise InputError(f"bad rational literal {abbreviate(text)!r}: zero denominator")
        return Fraction(int(num), d)
    shown = abbreviate(text)
    match = _RATIONAL.fullmatch(re.sub(r"(?<=\d)_(?=\d)", "", text))
    if match is None:
        raise InputError(f"bad rational literal {shown!r}")
    sign, num, den, frac, exp_sign, exp = match.groups()
    n, d, e = parse_int(num + (frac or "")), parse_int(den or "1"), parse_int(exp or "0")
    if d == 0:
        raise InputError(f"bad rational literal {shown!r}: zero denominator")
    k = (-e if exp_sign == "-" else e) - len(frac or "")
    in_range = -2 * MAX_HEIGHT < 3 * k < MAX_HEIGHT
    value = Fraction(n * 10 ** max(k, 0), d * 10 ** max(-k, 0)) if n and in_range else Fraction(0)
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if n and (not in_range or bits > MAX_HEIGHT):
        raise InputError(f"rational literal {shown!r} of more than {MAX_HEIGHT} bits")
    return -value if sign == "-" else value


def abbreviate(text):
    """text, or its ends and its length when it is longer than 40 characters."""
    return text if len(text) <= 40 else f"{text[:20]}...{text[-10:]} ({len(text)} characters)"


def parse_int(digits):
    """The integer a run of decimal digits spells, up to MAX_HEIGHT bits.

    int alone refuses past 4300 digits, so a long run converts by halves
    on powers of ten, the inverse of _decimal.  A longer literal raises
    InputError; d digits without leading zeros are at least 2^(3(d - 1)),
    so a run that long is refused before it is converted.
    """
    digits = digits.lstrip("0") or "0"
    if 3 * (len(digits) - 1) < MAX_HEIGHT:
        n = _from_decimal(digits)
        if n.bit_length() <= MAX_HEIGHT:
            return n
    raise InputError(
        f"integer literal of more than {MAX_HEIGHT} bits ({len(digits)} digits)"
    )


def _from_decimal(digits):
    if len(digits) <= 2400:
        return int(digits)
    k = len(digits) // 2
    return _from_decimal(digits[:-k]) * 10**k + _from_decimal(digits[-k:])


def _decimal(n):
    """str(n) of any size; str alone refuses past 4300 digits."""
    if n.bit_length() <= 8192:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rat(x):
    """Render a Fraction as "a/b", or "a" when the denominator is 1.

    Numerator and denominator are printed in full up to MAX_HEIGHT bits;
    a larger one raises InputError.
    """
    num, den = x.as_integer_ratio()
    if max(num.bit_length(), den.bit_length()) > MAX_HEIGHT:
        raise InputError(f"rational of more than {MAX_HEIGHT} bits is not printed")
    text = _decimal(num)
    return text if den == 1 else f"{text}/{_decimal(den)}"


def common_denominator(values):
    """Integers n_i and the least d > 0 with values[i] == n_i / d (ints or Fractions)."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def is_probable_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin bases for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n):
    # Brent's cycle variant; n odd composite, not a prime power of a small prime.
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to factor {n}")


def factorint(n):
    """Prime factorization of a positive integer, as {prime: exponent}."""
    if n <= 0:
        raise ValueError("factorint needs a positive integer")
    out = {}
    for p in range(2, 1 << 16):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return out
