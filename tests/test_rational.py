import sys
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


def test_parse_refuses_more_digits_than_an_int_string_may_have():
    # An exponent builds 10**e inside `Fraction`, so a numerator or denominator
    # past `sys.get_int_max_str_digits()` is refused before it is built.
    limit = sys.get_int_max_str_digits()
    assert parse_rational("1e400") == 10**400
    assert parse_rational("-2.5E-3") == Fraction(-1, 400)
    assert parse_rational(f"1e{limit - 1}") == 10**(limit - 1)
    assert parse_rational(f"1e-{limit - 1}") == Fraction(1, 10**(limit - 1))
    assert parse_rational(f"0.5e{limit}") == 5 * 10**(limit - 1)
    for text in (f"1e{limit}", f"1e-{limit}", f"0.5e{limit + 1}", "1e5000", "1e-5000",
                 "1e999999999", "1e-999999999"):
        with pytest.raises(RationalFormatError, match=f"more than {limit} digits"):
            parse_rational(text)


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
