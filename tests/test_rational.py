from fractions import Fraction

import pytest

from conftest import fraction_power, fraction_root
from eqcert.rational import RationalFormatError, format_rational, parse_rational


def test_parse_simple_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational("0") == Fraction(0)
    assert parse_rational(Fraction(5, 10)) == Fraction(1, 2)
    assert parse_rational(7) == Fraction(7)


def test_parse_rejects_floats_and_garbage():
    with pytest.raises(RationalFormatError):
        parse_rational(0.5)
    with pytest.raises(RationalFormatError):
        parse_rational(True)
    with pytest.raises(RationalFormatError):
        parse_rational("1/0")
    with pytest.raises(RationalFormatError):
        parse_rational("one half")


def test_format_lowest_terms():
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert format_rational(Fraction(-4, 2)) == "-2"
    assert format_rational(Fraction(0)) == "0"


def test_format_reads_ints_and_strings_as_fractions():
    assert format_rational(7) == "7"
    assert format_rational(-3) == "-3"
    assert format_rational(0) == "0"
    assert format_rational("6/8") == "3/4"
    assert format_rational("-4/2") == "-2"
    assert format_rational("0.25") == "1/4"
    assert format_rational(" 5 ") == "5"


def test_round_trip():
    for text in ("0", "1", "-7", "22/7", "-3/5", "1000000007/3"):
        assert format_rational(parse_rational(text)) == text


# fraction_root and fraction_power live in conftest as the reference of
# contests.TullockRatio.at; these pin the reference itself.


def test_fraction_root_exact_and_missing():
    assert fraction_root(Fraction(4, 9), 2) == Fraction(2, 3)
    assert fraction_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert fraction_root(Fraction(2), 2) is None
    assert fraction_root(Fraction(10, 9), 2) is None


def test_fraction_power_rational_exponents():
    assert fraction_power(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
    assert fraction_power(Fraction(4, 9), Fraction(3, 2)) == Fraction(8, 27)
    assert fraction_power(Fraction(2, 3), Fraction(2)) == Fraction(4, 9)
    assert fraction_power(Fraction(2, 3), Fraction(0)) == Fraction(1)
    assert fraction_power(Fraction(1, 4), Fraction(-1, 2)) == Fraction(2)
    assert fraction_power(Fraction(2), Fraction(1, 2)) is None
