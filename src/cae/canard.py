"""Canard values: the Union Jack connection constant, the angular-canard
value curve, and the order-by-order control series at a multiple turning
point.

The connection problems are solved by shooting: each branch is anchored on
its tail at +-X_far and integrated toward X = 0 in the direction in which
it attracts, and a smooth mismatch at X = 0 is driven to zero by brentq.
Results are independent of X_far once the anchors sit in the asymptotic
regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, NamedTuple

from scipy import integrate, optimize

from .errors import BlowupError, SeriesError
from .special import gauss_moment
from .turning import ODESpec, UnsupportedExpansionError, _g_polynomials

_TOL_FLOOR = 1e-12  # finest root tolerance; the solves run at rtol 1e-12


# ---------------------------------------------------------------------------
# connection-problem plumbing


@dataclass(frozen=True)
class ConnectionProblem:
    """A scalar connection problem dY/dX = rhs(X, Y) with a declared tail
    anchor function and an additive control parameter baked into rhs."""

    rhs: Callable
    anchor: Callable
    X_far: float
    control: float = 0.0

    def anchor_residual(self, side: int = 1, h: float = 1e-4) -> float:
        """|Y'(X0) - rhs(X0, Y(X0))| at X0 = side*X_far, with Y' taken from
        the anchor by a centered difference."""
        X0 = side * self.X_far
        der = (self.anchor(X0 + h) - self.anchor(X0 - h)) / (2 * h)
        return abs(der - self.rhs(X0, self.anchor(X0)))

    def shoot(self, side: int) -> float:
        """Y(0) of the solution through the anchor at X0 = side*X_far; the
        anchored branch must attract on the way from X0 to 0."""
        X0, rhs = side * self.X_far, self.rhs
        sol = integrate.solve_ivp(
            lambda X, y: [rhs(X, y[0])], (X0, 0.0), [self.anchor(X0)],
            method="DOP853", rtol=1e-12, atol=1e-14,
        )
        if not sol.success:
            raise BlowupError("shooting toward X = 0 failed",
                              where=float(sol.t[-1]))
        return float(sol.y[0][-1])


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= _TOL_FLOOR):
        raise SeriesError(f"root tolerance {tol!r} must be finite and at "
                          f"least {_TOL_FLOOR:g}")


# ---------------------------------------------------------------------------
# Union Jack connection constant


def _uj_anchor(c, X):
    """Tail of the solution vanishing at -inf: c/X^2 + 2c/X^5 +
    (c^3 + 10c)/X^8 + (14c^3 + 80c)/X^11."""
    return (
        c / X ** 2
        + 2 * c / X ** 5
        + (c ** 3 + 10 * c) / X ** 8
        + (14 * c ** 3 + 80 * c) / X ** 11
    )


def _uj_growing_anchor(c, s, X):
    """Tail of the solution growing like s*X at +inf: s*(X + a/X^2 -
    a(2+3a)/(2X^5)) with a = (1 - s*c)/2, residual O(X^-6)."""
    a = 0.5 * (1.0 - s * c)
    return s * (X + a / X ** 2 - a * (2.0 + 3.0 * a) / (2.0 * X ** 5))


def union_jack_rhs(X, Y, c):
    return Y * (Y - X) * (Y + X) + c


def _uj_mismatch(c: float, X_far: float = 10.0, s: float = 1.0) -> float:
    """F(c) = Y_fwd(0) - Y_bwd(0): the solution vanishing at -infinity,
    shot forward from -X_far, against the branch growing like s*X, shot
    backward from +X_far.  Both legs run in their stable direction."""
    rhs = partial(union_jack_rhs, c=c)
    fwd = ConnectionProblem(rhs, partial(_uj_anchor, c), X_far, c)
    bwd = ConnectionProblem(rhs, partial(_uj_growing_anchor, c, s), X_far, c)
    return fwd.shoot(-1) - bwd.shoot(+1)


class UnionJackResult(NamedTuple):
    value: float  # the connection constant
    mismatch: float  # |F(value)|
    evaluations: int  # mismatch evaluations made, two solves each


def union_jack_connection(tol: float = 1e-10, X_far: float = 10.0,
                          mirror: bool = False) -> UnionJackResult:
    """``union_jack_c0`` with its measured cost and final mismatch.

    brentq on the mismatch F of ``_uj_mismatch``: F < 0 at c = 0 and F > 0
    at c = 1/2 (beyond c ~ 0.85 the forward leg blows up).  The mirror
    problem flips the sign of the growing branch; its bracket is [-1/2, 0].
    """
    _check_tol(tol)
    s = -1.0 if mirror else 1.0

    @cache  # brentq re-reads the bracket ends
    def F(c):
        return _uj_mismatch(c, X_far, s)

    lo, hi = sorted((0.0, 0.5 * s))
    if not F(lo) * F(hi) < 0:
        raise SeriesError("endpoints do not bracket the connection value")
    c0 = optimize.brentq(F, lo, hi, xtol=tol)
    return UnionJackResult(c0, abs(F(c0)), F.cache_info().currsize)


def union_jack_c0(tol: float = 1e-10, X_far: float = 10.0,
                  mirror: bool = False) -> float:
    """Connection constant of dY/dX = Y(Y-X)(Y+X) + c: the unique c in
    (0, 1) joining the solution that vanishes at -infinity to the branch
    growing like X at +infinity (``mirror=True`` connects to -X instead
    and returns the opposite constant).  ``tol`` is the root tolerance,
    at least 1e-12.
    """
    return union_jack_connection(tol, X_far, mirror).value


def union_jack_anchor_residual(c: float, X_far: float = 10.0) -> float:
    return ConnectionProblem(partial(union_jack_rhs, c=c),
                             partial(_uj_anchor, c), X_far, c
                             ).anchor_residual(side=-1)


# ---------------------------------------------------------------------------
# angular canard value curve


def _reduced_tail_coeffs(D: float):
    """Tail V ~ w1/T + w3/T^3 + w5/T^5 + w7/T^7 of the decaying branch of
    V' = T V + V^2 + D at +infinity."""
    w1 = -D
    w3 = D - D * D
    w5 = w3 * (2 * D - 3)
    w7 = -(5 + 2 * w1) * w5 - w3 * w3
    return w1, w3, w5, w7


def _reduced_anchor(D: float, T: float) -> float:
    w1, w3, w5, w7 = _reduced_tail_coeffs(D)
    return w1 / T + w3 / T ** 3 + w5 / T ** 5 + w7 / T ** 7


def _reduced_problem(D: float, T_far: float) -> ConnectionProblem:
    """V' = T V + V**2 + D, its decaying branch anchored four tail terms
    deep at +T_far; V_d(0, D) is ``.shoot(+1)``."""
    return ConnectionProblem(lambda T, V: T * V + V * V + D,
                             partial(_reduced_anchor, D), T_far, D)


def reduced_anchor_residual(D: float, T_far: float = 10.0) -> float:
    return _reduced_problem(D, T_far).anchor_residual(side=1)


def angular_canard_value(eps: float, tol: float = 1e-10,
                         T_far: float = 10.0) -> float:
    """Canard value c(eps) of the classical angular problem: the root of

        gamma(eps)  V_d(0, (c - d(eps)) / gamma(eps)**2)
      = -gamma(-eps) V_d(0, (c - d(-eps)) / gamma(-eps)**2)

    with d + d**2 = eps and gamma**2 = 1 + 2 d.  Requires finite |eps| <
    1/4 so both branches are real; the value curve is even in eps.
    ``tol`` is the root tolerance, at least 1e-12.
    """
    if not abs(eps) < 0.25:
        raise SeriesError(f"eps must be finite with |eps| < 1/4 for real "
                          f"branch data, got {eps!r}")
    _check_tol(tol)
    if eps == 0:
        return 0.0

    def d_of(e):
        return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * e))

    def gamma_of(e):
        return (1.0 + 4.0 * e) ** 0.25

    dp, dm = d_of(eps), d_of(-eps)
    gp, gm = gamma_of(eps), gamma_of(-eps)

    @cache  # brentq re-reads the bracket ends
    def F(c):
        left = gp * _reduced_problem((c - dp) / gp ** 2, T_far).shoot(+1)
        right = gm * _reduced_problem((c - dm) / gm ** 2, T_far).shoot(+1)
        return left + right

    span = max(8.0 * eps * eps, 1e-5)
    lo, hi = -span, span
    flo = F(lo)
    for _ in range(60):
        # near |eps| = 1/4 the upper end drives V_d into blowup; the root
        # lies below that region, so pull the end toward the lower one
        try:
            fhi = F(hi)
            break
        except BlowupError:
            hi = 0.5 * (lo + hi)
    else:
        raise SeriesError("could not bracket the angular canard value")
    grow = 0
    while flo * fhi > 0:
        lo, hi = 2 * lo, 2 * hi
        flo, fhi = F(lo), F(hi)
        grow += 1
        if grow > 30:
            raise SeriesError("could not bracket the angular canard value")
    # c ~ -2.7 eps^2, so an absolute tol alone would swamp it at tiny eps
    xtol = min(tol, 1e-3 * eps * eps)
    return float(optimize.brentq(F, lo, hi, xtol=xtol, rtol=1e-15))


# ---------------------------------------------------------------------------
# control series at a multiple turning point


def canard_control_series(spec: ODESpec, N: int) -> list:
    """Control coefficients alpha_0..alpha_{N-1} (graded in eta) making the
    inner expansions from both sides agree order by order.

    At each order the forcing is G_n(X) + alpha_n with G_n known; the
    two-sided matching condition is the vanishing Gaussian-type moment

        integral_R exp(-s**p) (G_n(s) + alpha_n) ds = 0,

    solved for alpha_n.  Supported for the y-linear control family; the
    moment of the control slot is a positive Gamma value, so the linear
    solve cannot degenerate there (guarded anyway).
    """
    if not spec.control:
        raise SeriesError("spec has no control slot")
    if not spec.linear_in_y:
        raise UnsupportedExpansionError(
            "control series for y-dependent equations are outside the "
            "supported family"
        )
    p = spec.p
    m0 = gauss_moment(p, 0, 1.0)
    if not m0 > 0:
        raise SeriesError("degenerate control moment")
    g_polys = _g_polynomials(spec, N, alphas=None)
    alphas = []
    for n in range(N):
        moment = math.fsum(
            float(c) * gauss_moment(p, j, 1.0)
            for j, c in enumerate(g_polys[n].coeffs)
            if c != 0
        )
        alphas.append(-moment / m0)
    return alphas
