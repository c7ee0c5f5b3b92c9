"""Scalar helpers.

Coefficient containers in this package are generic over their scalar type:
``int``/``Fraction`` coefficients stay exact through every algebraic
operation, ``float`` coefficients run in ordinary double precision.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import SeriesError


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction))


def scalar_to_json(x):
    """Floats pass through; exact rationals encode as "num/den" strings."""
    if isinstance(x, bool):
        raise TypeError("bool is not a series scalar")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def scalar_from_json(v):
    """An int, a finite float or a "num/den" string with integer parts and a
    nonzero denominator; anything else, a bool too, raises SeriesError."""
    t = type(v)  # type tests, not isinstance: a bool is an int
    if t is int or t is float and math.isfinite(v):
        return v
    if t is str:
        num, _, den = v.partition("/")
        try:
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            pass
    raise SeriesError(f"not a series scalar: {v!r}")


def fmt17(x: float) -> str:
    """Round-trip-safe decimal rendering, locale independent."""
    return format(float(x), ".17g")
