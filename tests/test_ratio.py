import sys
from fractions import Fraction as F

import pytest

from minorkit.exceptions import ParseError
from minorkit.ratio import DEFAULT_MAX_DIGITS, fmt_ratio, parse_ratio

LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_MAX_DIGITS


class TestExponentLiterals:
    def test_small_exponents_parse(self):
        assert parse_ratio("2.5e3") == 2500
        assert parse_ratio(" -3E-2 ") == F(-3, 100)

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000", "1e100000000", "-2.5E+9000"])
    def test_oversized_exponent_rejected(self, text):
        with pytest.raises(ParseError):
            parse_ratio(text)

    def test_limit_is_inclusive(self):
        # 10**(LIMIT-1) has exactly LIMIT digits, which still prints
        assert len(fmt_ratio(parse_ratio(f"1e{LIMIT - 1}"))) == LIMIT
        assert len(fmt_ratio(parse_ratio(f"1e-{LIMIT - 1}"))) == LIMIT + 2
        for text in (f"1e{LIMIT}", f"1e-{LIMIT}"):
            with pytest.raises(ParseError):
                parse_ratio(text)

    def test_malformed_exponent_is_a_parse_error(self):
        for text in ("1e", "e5", "1e5e5", "1/2e3"):
            with pytest.raises(ParseError):
                parse_ratio(text)
