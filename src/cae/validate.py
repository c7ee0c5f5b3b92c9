"""Numeric ground truth and statistical checks.

Linear turning-point problems get their bounded solutions from stable
quadrature (no stepping, no stiffness); everything else integrates with an
adaptive embedded Runge-Kutta pair: RK45 with dense output for whole
trajectories, DOP853 read at the step end where only endpoints are wanted.
Error tables fit log-log slopes of sup-errors against the root parameter,
and exponential-smallness fits recover the constants of exp(-A/eta**p)
decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _numerics
from .errors import BlowupError, DomainError, SeriesError
from .series import CombinedSeries, TaylorPoly, evaluate_partial_sum
from .special import EXP_CAP, ExponentCapError

_NOISE_FLOOR = 1e-11  # relative size below which every table error is noise
_SLOPE_SLACK = 0.3  # how far below N a passing table's slope may fall
_EXP_FIT_RESIDUAL = 0.25  # largest rms log-residual of an exponential fit, per std


# ---------------------------------------------------------------------------
# bounded solutions of linear equations by quadrature


def _coercive_on_ray(F: TaylorPoly, sigma: int) -> bool:
    d = F.degree
    if d < 1:
        return False
    lead = float(F.coefficient(d))
    if d % 2 == 0:
        return lead > 0
    return (lead > 0) if sigma > 0 else (lead < 0)


def bounded_solution_quadrature(F, g: Callable, eps: float, x: float,
                                sigma: int) -> float:
    """Value at x of the unique solution of eps y' = F'(x) y + eps g(x)
    bounded on the sigma half-line:

        y(x) = exp(F(x)/eps) * integral_{sigma*inf}^x exp(-F(t)/eps) g(t) dt.

    F is a polynomial primitive with F -> +inf on the sigma ray (checked).
    The integral runs in the shifted variable so the exponent never
    overflows on the decay side; values that genuinely carry an
    exp(large/eps) factor hit the overflow guard.
    """
    if not isinstance(F, TaylorPoly):
        F = TaylorPoly(F)
    if sigma not in (-1, 1):
        raise SeriesError("sigma must be -1 or +1")
    if not _coercive_on_ray(F, sigma):
        raise SeriesError(
            "F is not coercive on the requested half-line; no bounded branch"
        )
    Fx = float(F(x))
    # overflow guard: max of (F(x) - F(t))/eps over the integration ray
    dF = F.derivative()
    crit = [x]
    if dF.degree >= 1:
        roots = np.roots(list(reversed([float(c) for c in dF.coeffs])))
        for rt in roots:
            # keep critical points on the integration ray (t <= x for the
            # left-bounded branch, t >= x for the right one)
            if abs(rt.imag) < 1e-12 and sigma * (rt.real - x) >= 0:
                crit.append(rt.real)
    peak = max((Fx - float(F(t))) / eps for t in crit)
    if peak > EXP_CAP:
        raise ExponentCapError(
            f"bounded solution at x={x} carries exp({peak:.3g}); beyond the cap"
        )

    if sigma < 0:
        f = lambda s: math.exp((Fx - float(F(x - s))) / eps) * float(g(x - s))
        return _numerics.quad(f, 0.0, np.inf)
    f = lambda s: math.exp((Fx - float(F(x + s))) / eps) * float(g(x + s))
    return -_numerics.quad(f, 0.0, np.inf)


# ---------------------------------------------------------------------------
# general ODE integration


@dataclass(frozen=True)
class Trajectory:
    ts: np.ndarray
    ys: np.ndarray
    dense: Callable
    blowup: bool
    t_blow: Optional[float] = None

    def __call__(self, t):
        lo, hi = min(self.ts[0], self.ts[-1]), max(self.ts[0], self.ts[-1])
        if not (lo - 1e-12 <= t <= hi + 1e-12):
            raise DomainError(f"t={t} outside computed span [{lo}, {hi}]")
        out = self.dense(t)
        return float(out[0]) if out.shape == (1,) else out

    @property
    def final(self):
        y = self.ys[:, -1]
        return float(y[0]) if y.shape == (1,) else y


def ode_solve(rhs: Callable, t_span, y0, tol: float = 1e-10,
              cap: float = 1e8) -> Trajectory:
    """Adaptive embedded Runge-Kutta 5(4) trajectory with dense output and
    blowup detection: |y| reaching ``cap`` ends the integration early and
    flags the (partial) trajectory.  A scalar y0 gives ``rhs`` a scalar y;
    a failed integration raises BlowupError."""
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    fun = lambda t, y: np.atleast_1d(rhs(t, y if y.size > 1 else y[0]))

    def blow(t, y):
        return float(np.max(np.abs(y))) - cap

    blow.terminal = True
    sol = _numerics.integrate.solve_ivp(
        fun, t_span, y0, method="RK45", rtol=tol, atol=tol * 1e-3,
        dense_output=True, events=[blow],
    )
    if sol.status < 0:
        raise BlowupError(f"integration failed: {sol.message}",
                          where=sol.t[-1] if len(sol.t) else t_span[0])
    hit = sol.status == 1 and len(sol.t_events[0]) > 0
    return Trajectory(
        ts=sol.t, ys=sol.y, dense=sol.sol, blowup=hit,
        t_blow=float(sol.t_events[0][0]) if hit else None,
    )


def _shoot(rhs: Callable, t0: float, t1: float, y0):
    """The array y(t1) of the system dy/dt = rhs(t, y) through y0 at t0:
    one DOP853 solve at rtol 1e-12, atol 1e-14, read at its last step
    end.  Only the endpoint is wanted, so unlike ``ode_solve`` this keeps
    no dense output (which would cost more RHS evaluations and be less
    accurate than the step ends) and watches no events.  A failed solve,
    as at a blowup, raises BlowupError where it stopped."""
    sol = _numerics.integrate.solve_ivp(rhs, (t0, t1), y0, method="DOP853",
                                        rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise BlowupError(f"shooting from {t0!r} toward {t1!r} failed",
                          where=float(sol.t[-1]))
    return sol.y[:, -1]


# ---------------------------------------------------------------------------
# error scaling


@dataclass(frozen=True)
class ErrorTable:
    """Sup-errors per eps plus the log-log slope in eta = eps**(1/p).

    ``degenerate`` marks tables whose errors sit at the floating-point
    noise floor; the slope is meaningless there and the O(eta**N) bound
    holds vacuously."""

    rows: tuple  # (eps, sup_error)
    N: int
    p: int
    slope: Optional[float]
    degenerate: bool

    def passes(self) -> bool:
        if self.degenerate:
            return True
        return self.slope is not None and self.slope >= self.N - _SLOPE_SLACK


def check_grid(x_grid: Sequence[float], sigma: int):
    """Refuse an x-grid no error table can be read from: an empty one, one
    with non-finite points, or one with points on the growth side
    sigma * x < 0, where the bounded solution is exponentially large in
    1/eps and the errors read as noise.  x = 0 is allowed."""
    xs = np.asarray(x_grid, dtype=float)
    if xs.size == 0:
        raise SeriesError("empty x-grid: a sup-norm error needs at least one point")
    if not np.isfinite(xs).all():
        raise SeriesError("x-grid points must be finite")
    wrong = xs[sigma * xs < 0]
    if wrong.size:
        raise SeriesError(
            f"x-grid point {float(wrong[0])!r} lies on the growth side of "
            f"the {'minus' if sigma < 0 else 'plus'} table (sigma * x < 0)"
        )


def error_scaling(
    series: CombinedSeries,
    truth: Callable,
    eps_list: Sequence[float],
    x_grid: Sequence[float],
    N: int,
) -> ErrorTable:
    """Sup-norm errors of the N-term partial sums of the CombinedSeries
    ``series`` against ``truth(x, eps)`` over the x-grid, one row per eps,
    with the least-squares slope of log(sup error) against log(eta).

    eps values must be strictly decreasing, at least three, and span a
    factor >= 4; the x-grid must not be empty.  A table whose errors all
    sit below ``_NOISE_FLOOR`` times the largest truth is degenerate.  A
    non-finite truth or partial-sum value raises SeriesError.
    """
    if len(x_grid) == 0:
        raise SeriesError("empty x-grid: a sup-norm error needs at least one point")
    eps_list = list(eps_list)
    if len(eps_list) < 3:
        raise SeriesError("need at least 3 eps values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise SeriesError("eps values must be strictly decreasing")
    if eps_list[0] / eps_list[-1] < 4:
        raise SeriesError("eps values must span at least a factor 4")
    p = series.p
    rows = []
    scale = 1.0
    for eps in eps_list:
        eta = eps ** (1.0 / p)
        worst = 0.0
        for x in x_grid:
            t = float(truth(x, eps))
            s = evaluate_partial_sum(series, x, eta, N)
            if not (math.isfinite(t) and math.isfinite(s)):
                raise SeriesError(f"non-finite value at x={float(x)!r}, eps={eps!r}: "
                                  f"truth {t}, partial sum {s}")
            scale = max(scale, abs(t))
            worst = max(worst, abs(s - t))
        rows.append((eps, worst))

    floor = _NOISE_FLOOR * scale
    degenerate = all(err <= floor for _eps, err in rows)
    slope = None
    if not degenerate and all(err > 0 for _eps, err in rows):
        xs = np.array([math.log(eps) / p for eps, _e in rows])  # log eta
        ys = np.array([math.log(err) for _e, err in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ErrorTable(tuple(rows), N, p, slope, degenerate)


# ---------------------------------------------------------------------------
# exponential smallness


@dataclass(frozen=True)
class ExpFit:
    A: float
    C: float
    exponential: bool  # False means "not exponentially small"


def exp_smallness_fit(values: Sequence, p: int) -> ExpFit:
    """Fit |d| = C exp(-A / eta**p) through (eta, |d|) pairs by least
    squares of log|d| against eta**-p.  A fitted A <= 0 (or a bad fit)
    reports the data as not exponentially small."""
    pts = [(float(e), float(d)) for e, d in values]
    if len(pts) < 2:
        raise SeriesError("need at least 2 points")
    if any(d <= 0 for _e, d in pts):
        raise SeriesError("differences must be positive")
    xs = np.array([e ** (-p) for e, _d in pts])
    ys = np.array([math.log(d) for _e, d in pts])
    coef = np.polyfit(xs, ys, 1)
    A = -float(coef[0])
    C = math.exp(float(coef[1]))
    resid = float(np.sqrt(np.mean((np.polyval(coef, xs) - ys) ** 2)))
    ok = A > 0 and resid <= _EXP_FIT_RESIDUAL * max(1.0, float(np.std(ys)))
    return ExpFit(A=A, C=C, exponential=ok)
