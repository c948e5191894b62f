"""Parsing and formatting of exact rationals as "p/q" strings."""

import sys
from fractions import Fraction

from .exceptions import ParseError

# CPython's default int/str digit limit, for interpreters (3.10) that have none.
DEFAULT_MAX_DIGITS = 4300


def parse_ratio(value) -> Fraction:
    """Read an exact rational from an int, Fraction, or "p/q" string.

    Floats are rejected: the exact core never ingests binary approximations.
    Bools are rejected too, so a JSON true is not read as 1.  A plain ASCII
    "p" or "p/q" (optional leading "-") is split and read with int(); every
    other string goes to Fraction(text), so the accepted set stays the
    interpreter's own (3.10 rejects "1_000", 3.12 accepts "3/ 4").
    Exponent literals ("1e5") are rejected before expansion when the numerator
    or denominator could exceed the interpreter's int/str digit limit, since
    such a value could not be printed back.
    """
    if isinstance(value, str):  # tested first: isinstance(x, Fraction) is an ABC check
        num, slash, den = value.partition("/")
        if _is_digits(num[1:] if num[:1] == "-" else num) and (not slash or _is_digits(den)):
            # plain ASCII "p" or "p/q": the same value as Fraction(text), without its regex
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad rational literal {value!r}") from exc
        return _parse_text(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ParseError(f"cannot read a rational from {type(value).__name__}")


def _parse_text(value: str) -> Fraction:
    """Any string, read by Fraction(text) once the exponent guard has passed."""
    text = value.strip()
    if ("e" in text or "E" in text) and _exponent_too_large(text):
        raise ParseError(f"rational literal {value[:40]!r} has too many digits")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {value!r}") from exc


def _is_digits(text: str) -> bool:
    """Non-empty and only ASCII 0-9 (str.isdigit alone also accepts other scripts)."""
    return text.isascii() and text.isdigit()


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
