"""Parsing and formatting of exact rationals as "p/q" strings."""

import sys
from fractions import Fraction

from .exceptions import ParseError

# CPython's default int/str digit limit, for interpreters (3.10) that have none.
DEFAULT_MAX_DIGITS = 4300


def parse_ratio(value) -> Fraction:
    """Read an exact rational from an int, Fraction, or "p/q" string.

    Floats are rejected: the exact core never ingests binary approximations.
    Exponent literals ("1e5") are rejected before expansion when the numerator
    or denominator could exceed the interpreter's int/str digit limit, since
    such a value could not be printed back.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if ("e" in text or "E" in text) and _exponent_too_large(text):
            raise ParseError(f"rational literal {value[:40]!r} has too many digits")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}") from exc
    raise ParseError(f"cannot read a rational from {type(value).__name__}")


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
    return str(value) if isinstance(value, Fraction) else str(Fraction(value))
