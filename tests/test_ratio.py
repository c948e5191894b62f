import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from minorkit.exceptions import ParseError, TooLarge
from minorkit.ratio import DEFAULT_MAX_DIGITS, _parse_text, fmt_pair, fmt_ratio, parse_pair, parse_ratio

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


def _pair_value(text):
    """parse_pair read back as a Fraction, after checking its denominator is positive."""
    num, den = parse_pair(text)
    assert type(num) is int and type(den) is int and den > 0
    return F(num, den)


class TestPlainFastPath:
    """parse_pair reads plain ASCII "p" and "p/q" with int(); other strings take Fraction(text).

    parse_ratio and parse_pair are checked against _parse_text, the Fraction(text) path.
    """

    @staticmethod
    def outcome(read, text):
        try:
            return read(text)
        except ParseError:
            return ParseError

    def assert_readers_agree(self, text):
        slow = self.outcome(_parse_text, text)
        assert self.outcome(parse_ratio, text) == slow
        assert self.outcome(_pair_value, text) == slow

    @settings(max_examples=400, deadline=None)
    @given(hst.text(alphabet="0123456789-+/_.eE٣ \n", max_size=10))
    def test_agrees_with_fraction_path(self, text):
        self.assert_readers_agree(text)

    @pytest.mark.parametrize("text", [
        "0", "-0", "007", "-12/18", "0/5", "1/0", "0/0", "-/2", "3/-4",
        "1_000", "3/ 4", " 3/4", "+3", "٣/4", "2/4", "1e1", "0.5", "-0/3",
    ])
    def test_hand_cases_agree(self, text):
        self.assert_readers_agree(text)

    def test_pairs_are_read_as_written(self):
        assert parse_pair("-12/18") == (-12, 18)
        assert parse_pair("-0") == (0, 1)
        assert parse_pair(F(-12, 18)) == (-2, 3)
        assert parse_pair(7) == (7, 1)
        assert parse_pair("0.5") == (1, 2)

    def test_values(self):
        assert parse_ratio("-12/18") == F(-2, 3)
        assert parse_ratio("007") == 7
        with pytest.raises(ParseError):
            parse_ratio("1/0")

    def test_digit_limit_is_a_parse_error_on_both_paths(self):
        # past the limit int() raises ValueError (3.11+); 3.10 has no limit and reads both
        for text in ("1" * (LIMIT + 1), "1/" + "3" * (LIMIT + 1)):
            self.assert_readers_agree(text)
            if hasattr(sys, "get_int_max_str_digits"):
                assert self.outcome(parse_pair, text) is ParseError

    @pytest.mark.parametrize("value", [True, False, 1.5, None, [1]])
    def test_non_rationals_rejected(self, value):
        for read in (parse_ratio, parse_pair):
            with pytest.raises(ParseError):
                read(value)


@settings(max_examples=400, deadline=None)
@given(hst.integers(), hst.integers(min_value=1) | hst.integers(min_value=1, max_value=12))
def test_fmt_pair_matches_fraction_text(num, den):
    assert fmt_pair(num, den) == str(F(num, den))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
@pytest.mark.parametrize("fmt", [
    lambda big: fmt_pair(1, big),
    lambda big: fmt_pair(-big, 1),
    lambda big: fmt_ratio(F(1, big)),
    lambda big: fmt_ratio(big),
])
def test_text_past_the_digit_limit_is_too_large(fmt):
    with pytest.raises(TooLarge):
        fmt(10**LIMIT)
