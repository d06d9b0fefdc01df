"""Exact rational parsing, formatting, and root extraction.

Every certified quantity in this package is a `fractions.Fraction`; floats
never enter a certificate, a polytope computation, or a file we emit.  This
module fixes the text conventions for rationals ("p/q", integers, finite
decimals) and provides the integer root that contest success functions
need to stay inside exact arithmetic.  `scaled_ints` puts rationals over
one common denominator as ints, so that sums and comparisons of them run
in integer arithmetic.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import lcm
from typing import Sequence


class RationalFormatError(ValueError):
    """A value could not be read as an exact rational."""


def parse_rational(value) -> Fraction:
    """Read an exact rational from an int, Fraction, or string.

    Accepted strings: "p/q", plain integers ("-3"), and finite decimals
    ("0.25", "1e-3").  Floats are rejected: a float payoff has no well-defined
    exact value and would silently poison downstream certificates.  So is a
    decimal whose numerator or denominator, written over a power of ten,
    needs more digits than `sys.get_int_max_str_digits()`, the limit a plain
    digit string already meets: `Fraction` would compute 10**e for it.
    """
    if isinstance(value, bool):
        raise RationalFormatError(f"expected a rational, got boolean {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise RationalFormatError(
            f"refusing float {value!r}: write rationals as strings like '1/4' or '0.25'"
        )
    if isinstance(value, str):
        text = value.strip()
        if not text:
            raise RationalFormatError("empty string is not a rational")
        head, mark, exponent = text.upper().rpartition("E")
        # 0 is no limit, as before Python 3.10.7, which has no such call
        if mark and (limit := getattr(sys, "get_int_max_str_digits", lambda: 0)()):
            try:
                e = int(exponent)
            except ValueError:
                e = 0  # not a decimal: `Fraction` refuses it below
            digits = len("".join(c for c in head if c.isdigit()).lstrip("0"))
            point = sum(c.isdigit() for c in head.partition(".")[2])
            if max(digits + e - point, point - e + 1) > limit:
                raise RationalFormatError(
                    f"cannot parse {value!r} as a rational: it needs more than {limit} digits")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise RationalFormatError(f"cannot parse {value!r} as a rational") from exc
    raise RationalFormatError(f"cannot parse {value!r} as a rational")


def format_rational(value: Fraction | int | str) -> str:
    """Canonical text form: lowest terms, "p/q", integers without "/1".

    A `Fraction` is already in lowest terms and is printed as it is; any
    other value is read as a `Fraction` first.
    """
    return str(value) if type(value) is Fraction else str(Fraction(value))


def scaled_ints(values: Sequence[int | Fraction], denom: int = 1) -> tuple[list[int], int]:
    """`values` times D as ints, and D, the lcm of `denom` and the `Fraction` denominators."""
    denom = lcm(denom, *{v.denominator for v in values if type(v) is Fraction})
    if denom == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (denom // v.denominator) for v in values], denom


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer k-th root of n >= 0: returns (r, exact) with r = floor(n**(1/k))."""
    if n < 0:
        raise ValueError("iroot of a negative integer")
    if k < 1:
        raise ValueError("root order must be >= 1")
    if n in (0, 1) or k == 1:
        return n, True
    # Newton iteration on integers, seeded from the float root.
    r = max(1, int(round(n ** (1.0 / k))))
    while True:
        better = ((k - 1) * r + n // r ** (k - 1)) // k
        if better >= r:
            break
        r = better
    while (r + 1) ** k <= n:
        r += 1
    while r ** k > n:
        r -= 1
    return r, r ** k == n
