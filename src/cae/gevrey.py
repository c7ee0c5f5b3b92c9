"""Gevrey-order fitting and truncated Borel-Laplace resummation.

Coefficient norms growing like C L1**n Gamma(n/p + 1) characterize a
Gevrey-1/p series; the fits here take p as structural input and recover
(C, L1) by linear least squares in log space, flagging sub-Gevrey data by
its curvature.  The truncated Laplace transform of the formal Borel sum
resums such a series to exponential accuracy exp(-(rho/eta)**p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _numerics
from .errors import SeriesError

_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


def _gamma_weight_log(n: float, p: int) -> float:
    return float(_numerics.special.gammaln(n / p + 1.0))


@dataclass(frozen=True)
class GevreyFit:
    """Fitted growth-constant pair for norms ~ C L1**n Gamma(n/p+1)."""

    inv_order: float  # 1/p, taken structurally
    C: float
    L1: float
    residual: float
    degenerate: bool = False
    sub_gevrey: bool = False


def gevrey_fit(norms: Sequence[float], p: int,
               curvature_threshold: float = 0.01) -> GevreyFit:
    """Least squares of log(norm_n) - log Gamma(n/p+1) against n.

    Zero norms are skipped (all-zero input comes back degenerate).  A
    significantly concave trend means the data grows strictly slower than
    Gevrey-1/p; it is flagged ``sub_gevrey`` and the constants are then
    only an envelope, not a type.
    """
    pts = [(n, float(v)) for n, v in enumerate(norms) if v != 0]
    if any(v < 0 for _n, v in pts):
        raise SeriesError("norms must be nonnegative")
    if not pts:
        return GevreyFit(1.0 / p, 0.0, 0.0, 0.0, degenerate=True)
    if len(pts) < 6:
        raise SeriesError("need at least 6 nonzero norms")
    xs = np.array([n for n, _v in pts], dtype=float)
    ys = np.array([math.log(v) - _gamma_weight_log(n, p) for n, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], xs) - ys) ** 2)))
    c2 = float(np.polyfit(xs, ys, 2)[0]) if len(pts) >= 3 else 0.0
    return GevreyFit(
        inv_order=1.0 / p,
        C=math.exp(float(intercept)),
        L1=math.exp(float(slope)),
        residual=resid,
        sub_gevrey=c2 < -curvature_threshold,
    )


@dataclass(frozen=True)
class TailCompat:
    C: float
    L1: float
    L2: float
    max_ratio: float


def tail_compat_check(tails: Sequence[Sequence[float]], p: int) -> TailCompat:
    """Fit |g_{n,m}| <= C L1**n L2**m Gamma((n+m)/p + 1) over a rectangular
    coefficient array (row n, entry m-1 holds g_{n,m}) and report the worst
    ratio of the data against the fitted envelope."""
    rows = []
    for n, row in enumerate(tails):
        for m1, v in enumerate(row):
            if v != 0:
                rows.append((n, m1 + 1, abs(float(v))))
    if not rows:
        return TailCompat(0.0, 0.0, 0.0, 0.0)
    A = np.array([[1.0, n, m] for n, m, _v in rows])
    b = np.array([
        math.log(v) - _gamma_weight_log(n + m, p) for n, m, v in rows
    ])
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    logC, logL1, logL2 = (float(s) for s in sol)
    worst = 0.0
    for n, m, v in rows:
        bound = logC + n * logL1 + m * logL2 + _gamma_weight_log(n + m, p)
        worst = max(worst, math.exp(math.log(v) - bound))
    return TailCompat(math.exp(logC), math.exp(logL1), math.exp(logL2), worst)


# ---------------------------------------------------------------------------
# Borel-Laplace


def borel_partial(coeffs: Sequence[float], p: int, t: float) -> float:
    """Formal Borel transform B(t) = sum a_n t**n / Gamma(n/p+1) over the
    supplied coefficients."""
    return math.fsum(
        float(a) * t ** n / math.exp(_gamma_weight_log(n, p))
        for n, a in enumerate(coeffs)
        if a != 0
    )


def borel_radius_estimate(coeffs: Sequence[float], p: int) -> float:
    """Root-test estimate of the Borel transform's convergence radius,
    taken over the back half of the coefficient sequence."""
    vals = [
        (n, abs(float(a)) / math.exp(_gamma_weight_log(n, p)))
        for n, a in enumerate(coeffs) if n > 0 and a != 0
    ]
    if not vals:
        return math.inf
    tail = vals[len(vals) // 2:]
    est = max(v ** (1.0 / n) for n, v in tail)
    return 1.0 / est if est > 0 else math.inf


def borel_laplace_truncated(coeffs: Sequence[float], p: int, rho: float,
                            eta: float) -> float:
    """eta**-p * integral_0^rho exp(-t**p/eta**p) B(t) d(t**p) with B the
    formal Borel transform of the coefficients; agrees with the series to
    accuracy exp(-(rho/eta)**p) when rho is inside B's disk of convergence
    (checked by a root-test estimate)."""
    if p < 2 or p % 2:
        raise SeriesError(f"p={p} must be an even integer >= 2")
    if rho <= 0:
        raise SeriesError("rho must be positive")
    radius = borel_radius_estimate(coeffs, p)
    if rho >= radius:
        raise SeriesError(
            f"rho={rho} is not inside the Borel disk (radius ~ {radius:.4g})"
        )

    def f(t):
        return (
            math.exp(-((t / eta) ** p))
            * borel_partial(coeffs, p, t)
            * p * t ** (p - 1) / eta ** p
        )

    val, _err = _numerics.integrate.quad(f, 0.0, rho, **_QUAD_OPTS)
    return val


def least_term_sum(coeffs: Sequence[float], p: int, eta: float):
    """Optimal-truncation sum of sum a_n eta**n: stops right before the
    smallest term; returns (value, stop_index, least_term_size)."""
    terms = [float(a) * eta ** n for n, a in enumerate(coeffs)]
    sizes = [abs(t) for t in terms]
    nonzero = [s for s in sizes if s > 0]
    if not nonzero:
        return 0.0, 0, 0.0
    n_star = sizes.index(min(nonzero))
    return math.fsum(terms[:n_star]), n_star, sizes[n_star]
