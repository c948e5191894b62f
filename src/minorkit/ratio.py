"""Parsing and formatting of exact rationals as "p/q" strings."""

import math
import sys
from fractions import Fraction

from .exceptions import ParseError, TooLarge

# CPython's default int/str digit limit, for interpreters (3.10) that have none.
DEFAULT_MAX_DIGITS = 4300


def parse_pair(value) -> tuple[int, int]:
    """Read an exact rational from an int, Fraction, or "p/q" string as (num, den > 0).

    Floats are rejected: the exact core never ingests binary approximations.
    Bools are rejected too, so a JSON true is not read as 1.  A plain ASCII
    "p" or "p/q" (optional leading "-") is split and read with int(), and the
    pair is returned as written, not reduced; every other string goes to
    Fraction(text), so the accepted set stays the interpreter's own (3.10
    rejects "1_000", 3.12 accepts "3/ 4").  Exponent literals ("1e5") are
    rejected before expansion when the numerator or denominator could exceed
    the interpreter's int/str digit limit, since such a value could not be
    printed back.
    """
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        # plain ASCII "p" or "p/q": the value of Fraction(text), without its regex
        # (str.isdigit alone also accepts digits of other scripts, and is False on "")
        if value.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() and (
            not slash or den.isdigit()
        ):
            try:
                pair = (int(num), int(den) if slash else 1)
            except ValueError as exc:  # past the int/str digit limit
                raise ParseError(f"bad rational literal {value!r}") from exc
            if pair[1] == 0:
                raise ParseError(f"bad rational literal {value!r}")
            return pair
        value = _parse_text(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    elif not isinstance(value, Fraction):  # an ABC check, so tested after str and int
        raise ParseError(f"cannot read a rational from {type(value).__name__}")
    return value.numerator, value.denominator


def parse_ratio(value) -> Fraction:
    """``parse_pair`` as a Fraction; a Fraction is returned as it is."""
    if not isinstance(value, str) and isinstance(value, Fraction):
        return value
    num, den = parse_pair(value)
    return Fraction(num) if den == 1 else Fraction(num, den)  # one argument skips the gcd


def _parse_text(value: str) -> Fraction:
    """Any string, read by Fraction(text) once the exponent guard has passed."""
    text = value.strip()
    if ("e" in text or "E" in text) and _exponent_too_large(text):
        raise ParseError(f"rational literal {value[:40]!r} has too many digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {value!r}") from exc


def _exponent_too_large(text: str) -> bool:
    """Could "<mantissa>e<exp>" expand past the digit limit?

    Expansion multiplies the numerator (exp > 0) or the denominator (exp < 0)
    by 10**|exp|, so len(mantissa) + |exp| bounds the digits of both.
    """
    mantissa, _, exp = text.lower().rpartition("e")
    try:
        shift = int(exp)
    except ValueError:
        return False  # not an exponent literal; Fraction() decides
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_MAX_DIGITS
    return len(mantissa) + abs(shift) > limit


def fmt_ratio(value) -> str:
    """str(Fraction(value)); TooLarge past the interpreter's int/str digit limit."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:
        raise _too_large(value.numerator, value.denominator) from exc


def fmt_pair(num: int, den: int) -> str:
    """The text of str(Fraction(num, den)) for den > 0, from one gcd.

    TooLarge past the interpreter's int/str digit limit.
    """
    g = math.gcd(num, den)
    try:
        return f"{num // g}/{den // g}" if den != g else str(num // g)
    except ValueError as exc:
        raise _too_large(num // g, den // g) from exc


def _too_large(num: int, den: int) -> TooLarge:
    bits = max(abs(num).bit_length(), den.bit_length())
    return TooLarge(f"a {bits}-bit rational has too many digits to print")
