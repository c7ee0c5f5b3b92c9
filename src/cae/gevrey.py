"""Gevrey-order fitting and least-term summation.

Coefficient norms growing like C L1**n Gamma(n/p + 1) characterize a
Gevrey-1/p series; the fit here takes p as structural input and recovers
(C, L1) by linear least squares in log space, flagging sub-Gevrey data by
its curvature.  Truncated just before its least term, such a series is
off its sum by about half that term (Dingle 1973).  Tests pin both on the
divergent outer series sum v_n(x) eps**n of the y-linear golden specs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientTailError, SeriesError

_CURVATURE_THRESHOLD = 0.01  # a quadratic coefficient below minus this is sub-Gevrey


@dataclass(frozen=True)
class GevreyFit:
    """Fitted growth-constant pair for norms ~ C L1**n Gamma(n/p+1)."""

    inv_order: float  # 1/p, taken structurally
    C: float
    L1: float
    residual: float
    degenerate: bool = False
    sub_gevrey: bool = False


def gevrey_fit(norms: Sequence[float], p: int) -> GevreyFit:
    """Least squares of log(norm_n) - log Gamma(n/p+1) against n.

    Zero norms are skipped (all-zero input comes back degenerate).  A
    significantly concave trend means the data grows strictly slower than
    Gevrey-1/p; it is flagged ``sub_gevrey`` and the constants are then
    only an envelope, not a type.
    """
    if p < 1:
        raise SeriesError(f"p={p} must be at least 1")
    pts = [(n, float(v)) for n, v in enumerate(norms) if v != 0]
    if not all(0 <= v < math.inf for _n, v in pts):
        raise SeriesError("norms must be finite and nonnegative")
    if not pts:
        return GevreyFit(1.0 / p, 0.0, 0.0, 0.0, degenerate=True)
    if len(pts) < 6:
        raise SeriesError("need at least 6 nonzero norms")
    xs = np.array([n for n, _v in pts], dtype=float)
    ys = np.array([math.log(v) - math.lgamma(n / p + 1.0) for n, v in pts])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], xs) - ys) ** 2)))
    c2 = float(np.polyfit(xs, ys, 2)[0])
    return GevreyFit(
        inv_order=1.0 / p,
        C=math.exp(float(intercept)),
        L1=math.exp(float(slope)),
        residual=resid,
        sub_gevrey=c2 < -_CURVATURE_THRESHOLD,
    )


def least_term_sum(coeffs: Sequence[float], eta: float):
    """Optimal-truncation sum of sum a_n eta**n: stops right before the
    smallest term; returns (value, stop_index, least_term_size).

    The smallest term must be followed by a nonzero one; otherwise the
    terms given may still be falling, the true least term lies beyond
    them, and InsufficientTailError is raised."""
    terms = [float(a) * eta ** n for n, a in enumerate(coeffs)]
    sizes = [abs(t) for t in terms]
    nonzero = [s for s in sizes if s > 0]
    if not nonzero:
        return 0.0, 0, 0.0
    n_star = sizes.index(min(nonzero))
    if not any(sizes[n_star + 1:]):
        raise InsufficientTailError(
            f"the least term, n={n_star}, is the last nonzero term given: "
            f"more terms are needed to bracket it")
    return math.fsum(terms[:n_star]), n_star, sizes[n_star]
