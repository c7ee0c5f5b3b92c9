"""Scalar helpers.

Coefficient containers in this package are generic over their scalar type:
``int``/``Fraction`` coefficients stay exact through every algebraic
operation, ``float`` coefficients run in ordinary double precision.
"""

from __future__ import annotations

from fractions import Fraction

Scalar = (int, float, Fraction)


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
    if isinstance(v, str):
        num, _, den = v.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    if isinstance(v, int):
        return v
    return float(v)


def fmt17(x: float) -> str:
    """Round-trip-safe decimal rendering, locale independent."""
    return format(float(x), ".17g")
