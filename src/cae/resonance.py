"""Ackerberg-O'Malley resonance: the arithmetic condition on the
coefficient ratio, the polynomial solution of the reduced inner equation,
and its Riccati cross-validation.

The reduced inner equation at a turning point of order p-1 is

    Z'' - alpha X**(p-1) Z' + beta X**(p-2) Z = 0;

resonance requires D = beta/alpha to be a nonnegative integer congruent to
0 or 1 mod p, in which case the equation has a polynomial solution of
degree exactly D (even or odd with D).  Its logarithmic derivative then
solves the associated Riccati equation identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._scalar import is_exact
from .errors import DomainError, SeriesError
from .series import TaylorPoly

INT_TOL = 1e-9
_MIN_ROOT_DISTANCE = 0.1  # Riccati grid points closer to a zero of Z0 are skipped


@dataclass(frozen=True)
class ResonanceCase:
    """Coefficient data alpha x**(p-1) and beta x**(p-2) of the linearized
    second-order problem; D = beta/alpha is the resonance ratio."""

    alpha: float
    beta: float
    p: int

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise SeriesError(f"alpha must be finite and > 0, beta finite: {self.alpha!r}, {self.beta!r}")
        if self.p < 2 or self.p % 2:
            raise SeriesError(f"p={self.p} must be an even integer >= 2")

    @property
    def D(self):
        if is_exact(self.alpha) and is_exact(self.beta):
            return Fraction(self.beta) / Fraction(self.alpha)
        return self.beta / self.alpha


def condition_check(case: ResonanceCase) -> bool:
    """True iff D = beta/alpha is a nonnegative integer (within 1e-9)
    congruent to 0 or 1 modulo p."""
    D = float(case.D)
    if D < -INT_TOL:
        return False
    n = round(D)
    if abs(D - n) > INT_TOL:
        return False
    return n % case.p in (0, 1)


def z0_polynomial(case: ResonanceCase) -> TaylorPoly:
    """Monic degree-D polynomial solution of
    Z'' - alpha X**(p-1) Z' + beta X**(p-2) Z = 0, built by the downward
    coefficient recursion z_m m (m-1) = alpha (m - p - D) z_{m-p} from
    z_D = 1; exact over rationals.  The parity matches D.  The divisor is
    never 0 (alpha > 0, m <= D), and the recursion ends at index D mod p,
    which the resonance condition makes 0 or 1."""
    if not condition_check(case):
        raise SeriesError(
            "resonance condition fails: the coefficient recursion does not "
            "terminate, no polynomial solution exists"
        )
    D = int(round(float(case.D)))
    p = case.p
    alpha = case.alpha if is_exact(case.alpha) else float(case.alpha)
    exact = is_exact(case.alpha) and is_exact(case.beta)
    coeffs = [0] * (D + 1)
    coeffs[D] = Fraction(1) if exact else 1.0
    m = D
    while m - p >= 0:
        denom = alpha * (m - p - D)
        num = coeffs[m] * m * (m - 1)
        coeffs[m - p] = Fraction(num, denom) if exact and is_exact(num) else num / denom
        m -= p
    return TaylorPoly(coeffs)


def red_residual(case: ResonanceCase, Z: TaylorPoly) -> TaylorPoly:
    """Z'' - alpha X^(p-1) Z' + beta X^(p-2) Z as a polynomial (exact in
    rational mode); identically zero for the true solution."""
    p = case.p
    xp1 = TaylorPoly([0] * (p - 1) + [case.alpha])
    xp2 = TaylorPoly([0] * (p - 2) + [case.beta])
    return Z.derivative().derivative() - xp1 * Z.derivative() + xp2 * Z


def riccati_leading_check(case: ResonanceCase,
                          grid: Sequence[float]) -> float:
    """Max residual of Y = Z0'/Z0 in the reduced Riccati equation
    Y' = alpha X^(p-1) Y - beta X^(p-2) - Y^2 over the usable grid points
    (those at least ``_MIN_ROOT_DISTANCE`` away from every zero of Z0).

    Returns the max |Y' - alpha X^(p-1) Y + beta X^(p-2) + Y^2|; an empty
    usable grid is an error.
    """
    Z = z0_polynomial(case)
    dZ = Z.derivative()
    ddZ = dZ.derivative()
    roots = np.roots(list(reversed([float(c) for c in Z.coeffs])))
    real_roots = [r.real for r in roots if abs(r.imag) < 1e-9]
    usable = [
        float(X) for X in grid
        if all(abs(X - r) >= _MIN_ROOT_DISTANCE for r in real_roots)
    ]
    if not usable:
        raise DomainError(
            "no grid point is far enough from the zeros of the polynomial"
        )
    worst = 0.0
    a, b, p = float(case.alpha), float(case.beta), case.p
    for X in usable:
        z, dz, ddz = float(Z(X)), float(dZ(X)), float(ddZ(X))
        Y = dz / z
        dY = ddz / z - Y * Y
        worst = max(worst, abs(dY - a * X ** (p - 1) * Y + b * X ** (p - 2) + Y * Y))
    return worst
