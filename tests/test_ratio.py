import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from minorkit.exceptions import ParseError
from minorkit.ratio import DEFAULT_MAX_DIGITS, _parse_text, fmt_ratio, parse_ratio

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


class TestPlainFastPath:
    """parse_ratio reads plain ASCII "p" and "p/q" with int(); other strings take Fraction(text)."""

    @staticmethod
    def outcome(read, text):
        try:
            return read(text)
        except ParseError:
            return ParseError

    @settings(max_examples=400, deadline=None)
    @given(hst.text(alphabet="0123456789-+/_.eE٣ \n", max_size=10))
    def test_agrees_with_fraction_path(self, text):
        assert self.outcome(parse_ratio, text) == self.outcome(_parse_text, text)

    @pytest.mark.parametrize("text", [
        "0", "-0", "007", "-12/18", "0/5", "1/0", "0/0", "-/2", "3/-4",
        "1_000", "3/ 4", " 3/4", "+3", "٣/4",
    ])
    def test_hand_cases_agree(self, text):
        assert self.outcome(parse_ratio, text) == self.outcome(_parse_text, text)

    def test_values(self):
        assert parse_ratio("-12/18") == F(-2, 3)
        assert parse_ratio("007") == 7
        with pytest.raises(ParseError):
            parse_ratio("1/0")

    def test_digit_limit_is_a_parse_error_on_both_paths(self):
        # past the limit int() raises ValueError (3.11+); 3.10 has no limit and reads both
        for text in ("1" * (LIMIT + 1), "1/" + "3" * (LIMIT + 1)):
            assert self.outcome(parse_ratio, text) == self.outcome(_parse_text, text)
            if hasattr(sys, "get_int_max_str_digits"):
                assert self.outcome(parse_ratio, text) is ParseError

    @pytest.mark.parametrize("value", [True, False, 1.5, None, [1]])
    def test_non_rationals_rejected(self, value):
        with pytest.raises(ParseError):
            parse_ratio(value)
