"""Numeric ground truth and statistical checks.

Linear turning-point problems get their bounded solutions from stable
quadrature (no stepping, no stiffness); everything else is integrated by
``_numerics.shoot``.  Error tables fit log-log slopes of sup-errors against
the root parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _numerics
from .errors import SeriesError
from .series import CombinedSeries, TaylorPoly, evaluate_partial_sum
from .special import EXP_CAP, ExponentCapError

_NOISE_FLOOR = 1e-11  # relative size below which every table error is noise


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
# error scaling


@dataclass(frozen=True)
class ErrorTable:
    """Sup-errors per eps plus the log-log slope in eta = eps**(1/p).

    ``degenerate`` marks tables whose errors sit at the floating-point
    noise floor; the slope is meaningless there, so it is None, and the
    O(eta**N) bound holds vacuously."""

    rows: tuple  # (eps, sup_error)
    N: int
    p: int
    slope: Optional[float]
    degenerate: bool


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

    eps values must be finite and positive, strictly decreasing, at least
    three, and span a factor >= 4; the x-grid must not be empty.  A table
    whose errors all sit below ``_NOISE_FLOOR`` times the largest truth is
    degenerate.  A non-finite truth or partial-sum value raises
    SeriesError, and so does a zero sup error in a table that is not
    degenerate: no slope can be read from it.
    """
    if len(x_grid) == 0:
        raise SeriesError("empty x-grid: a sup-norm error needs at least one point")
    eps_list = list(eps_list)
    if len(eps_list) < 3:
        raise SeriesError("need at least 3 eps values")
    bad = next((eps for eps in eps_list if not (math.isfinite(eps) and eps > 0)), None)
    if bad is not None:
        raise SeriesError(f"eps values must be finite and positive, got {bad!r}")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise SeriesError("eps values must be strictly decreasing")
    if eps_list[0] / eps_list[-1] < 4:
        raise SeriesError("eps values must span at least a factor 4")
    p, xs = series.p, np.asarray(x_grid, dtype=float)
    rows = []
    scale = 1.0
    for eps in eps_list:
        t = np.array([truth(x, eps) for x in x_grid], dtype=float)
        s = evaluate_partial_sum(series, xs, eps ** (1.0 / p), N)
        bad = ~(np.isfinite(t) & np.isfinite(s))
        if bad.any():
            i = np.argmax(bad)
            raise SeriesError(f"non-finite value at x={float(xs[i])!r}, eps={eps!r}: "
                              f"truth {t[i]}, partial sum {s[i]}")
        scale = max(scale, np.abs(t).max())
        rows.append((eps, float(np.abs(s - t).max())))

    floor = _NOISE_FLOOR * scale
    degenerate = all(err <= floor for _eps, err in rows)
    slope = None
    if not degenerate:
        zero = next((eps for eps, err in rows if err == 0), None)
        if zero is not None:
            raise SeriesError(f"sup error 0 at eps={zero!r} in a table that is not "
                              f"degenerate: no slope can be read from it")
        xs = np.array([math.log(eps) / p for eps, _e in rows])  # log eta
        ys = np.array([math.log(err) for _e, err in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return ErrorTable(tuple(rows), N, p, slope, degenerate)
