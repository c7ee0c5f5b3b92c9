"""Decaying special functions and the side-anchored linear flow.

The workhorse is the family U_k^sigma, the unique solution without
exponential growth on the sigma half-line of

    dU/dX = p X**(p-1) U + X**(k-1),        p even, 1 <= k <= p-1,

together with the operator that maps a polynomial-growth forcing v to the
analogous solution of dU/dX = p X**(p-1) U + v(X).  Values of U_k are
closed forms in incomplete gamma functions (erfcx when p = 2) and, far off
the growth side, their formal tails (``tail_or_closed``); the flow map
steps the explicit solution of the equation over a grid; formal tails at
infinity come from matching powers of X in the equation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _numerics
from ._scalar import is_exact
from .errors import BlowupError, CaeError, DomainError, SeriesError
from .series import AsymTail, BasisTerm, Laurent

EXP_CAP = 700.0  # |X|**p beyond this would overflow exp() in double precision
TAIL_FROM = 100.0  # |X|**p from which a decaying fast function is its formal tail
TAIL_DEPTH = 16  # formal-tail terms kept for flow solutions and U_k


class ExponentCapError(CaeError):
    """The requested value carries an exp(|X|**p) factor past the overflow
    guard."""


def _check_p(p: int):
    if p < 2 or p % 2:
        raise SeriesError(f"root power p={p} must be an even integer >= 2")


# ---------------------------------------------------------------------------
# formal tails of the linear flow


def tail_of_j_series(p: int, v: Laurent, depth: int) -> Laurent:
    """Formal expansion at infinity (a Laurent series in X) of the
    polynomial-growth solution of U' = p X**(p-1) U + v, known down to
    X**-depth: matching powers of X gives, from the top power of v down,

        u_e = ((e + p) u_{e+p} - v_{e+p-1}) / p,

    one pass.  The result is exact when v's coefficients are exact.  v
    known down to X**-d yields a result known down to X**-(d + p - 1) at
    most.
    """
    _check_p(p)
    if v.low is not None:
        depth = min(depth, p - 1 - v.low)
    top = v.top_degree - p + 1
    u = [0] * max(0, top + depth + 1)  # u[i] multiplies X**(top - i)
    for i, e in enumerate(range(top, -depth - 1, -1)):
        # (X**0)' is an exact 0, whatever the type of u_0
        c = ((e + p) * u[i - p] if i >= p and e + p else 0) - v.coefficient(e + p - 1)
        u[i] = 0 if c == 0 else Fraction(c, p) if is_exact(c) else c / p
    return Laurent(u[::-1], -depth, -depth)


_U_TAIL_CACHE: dict = {}


def u_tail(p: int, k: int, depth: int = TAIL_DEPTH) -> AsymTail:
    """Formal tail of U_k (same series for both sides), derived once per
    (p, k, depth) per process; the shared AsymTail is immutable."""
    key = (p, k, depth)
    if key not in _U_TAIL_CACHE:
        if not 1 <= k <= p - 1:
            raise SeriesError(f"k={k} outside 1..{p - 1}")
        if depth < 0:
            raise SeriesError(f"tail depth {depth} is negative")
        _U_TAIL_CACHE[key] = AsymTail.part(tail_of_j_series(p, Laurent([1], k - 1), depth))
    return _U_TAIL_CACHE[key]


# ---------------------------------------------------------------------------
# values of U_k^sigma


def eval_u(p: int, k: int, sigma: int, X):
    """Value of U_k^sigma(X) = e^{X^p} * integral_{sigma*inf}^X e^{-T^p} T^(k-1) dT,
    elementwise for an array X (a float for a scalar).

    p = 2 uses erfcx, exact on the whole line.  For p >= 4, with x = |X|^p
    and a = k/p, they are incomplete gamma functions (DLMF 8.2): U_k^-(X <=
    0) = (-1)^(k-1) e^x Gamma(a, x)/p, U_k^+(X >= 0) = -e^x Gamma(a, x)/p,
    and for even k (odd integrand) U_k^- = U_k^+ = -e^x Gamma(a, x)/p on
    the whole line.  For odd k the growth side adds the full moment,
    -sigma e^x Gamma(a) (1 + P(a, x))/p, refused past the overflow guard;
    the other values from x = TAIL_FROM on are the tail's (``tail_or_closed``).
    """
    _check_p(p)
    if not 1 <= k <= p - 1:
        raise SeriesError(f"k={k} outside 1..{p - 1}")
    if sigma not in (-1, 1):
        raise SeriesError("sigma must be -1 or +1")
    X = np.asarray(X, dtype=float)
    if not np.isfinite(X).all():
        raise SeriesError(f"U_{k} needs a finite X, got {X}")
    with np.errstate(over="ignore"):
        over = (sigma * X < 0) & bool(k % 2) & (np.abs(X) ** p > EXP_CAP)
    if over.any():
        raise ExponentCapError(f"U_{k}^{'-' if sigma < 0 else '+'}({X[over].flat[0]}) "
                               f"~ exp(|X|^{p}) overflows")
    if p == 2:
        # U^- = (sqrt(pi)/2) erfcx(-X),  U^+ = -(sqrt(pi)/2) erfcx(X)
        return (-sigma * (0.5 * math.sqrt(math.pi) * _numerics.special.erfcx(sigma * X)))[()]
    a, sf, sign = k / p, _numerics.special, (-sigma if k % 2 else -1) / p

    def closed(X):
        x, rise = np.abs(X) ** p, (sigma * X < 0) & bool(k % 2)
        if not rise.any():  # gammaincc alone
            return np.exp(x) * sf.gammaincc(a, x) * math.gamma(a) * sign
        val, fall = np.empty(X.shape), ~rise
        val[fall] = np.exp(x[fall]) * sf.gammaincc(a, x[fall]) * math.gamma(a)
        val[rise] = np.exp(x[rise]) * math.gamma(a) * (1.0 + sf.gammainc(a, x[rise]))
        return val * sign

    return tail_or_closed(BasisTerm("u", p, k, sigma), 0, X, closed)


@functools.cache
def _far_tail(kind: str, p: int, k: int, order: int) -> tuple:
    """(e, c0, c): the depth-12p formal tail of U_k (kind "u") or of Dawson's
    D (kind "dawson", p = 2), differentiated ``order`` times, is the float
    sum X**e (c0 + sum_j c[j-1] x**-j), x = X**p (every p-th power only)."""
    t = BasisTerm(kind, p, k).tail(12 * p)
    c = (t.derivative() if order else t).dense[::-1]  # powers -1, -2, ...
    i = next(i for i, g in enumerate(c) if g)
    return -1 - i, float(c[i]), tuple(float(g) for g in c[i + p::p])


def tail_or_closed(term: BasisTerm, order: int, X, closed: Callable):
    """The one far-field rule: ``term``'s U_k^sigma or Dawson's D (its
    coefficient not applied), differentiated ``order`` times, on an array
    X.  From x = |X|**p >= TAIL_FROM off the growth side (odd k with sigma
    X < 0) it is the depth-12p tail above, where the closed forms lose
    digits to cancellation or gammaincc; the rest read ``closed(X[rest])``."""
    X = np.asarray(X, dtype=float)
    with np.errstate(over="ignore"):
        x = np.abs(X) ** term.p
    far = x >= TAIL_FROM
    if term.kind == "u" and term.k % 2:
        far &= term.sigma * X >= 0
    if not far.any():
        return closed(X)[()]
    out, Xf = np.empty(X.shape), X[far]
    e, c0, c = _far_tail(term.kind, term.p, term.k, order)
    # c0 added last, so the small terms round at their own scale
    s = c0 + (1.0 / x[far])[:, None] ** np.arange(1, len(c) + 1) @ c
    lead = np.abs(Xf) ** e  # pow is slow on negative bases
    out[far] = (np.copysign(lead, Xf) if e % 2 else lead) * s
    if Xf.size < X.size:
        out[~far] = closed(X[~far])
    return out[()]


# ---------------------------------------------------------------------------
# Gaussian-type moments


def gauss_moment(p: int, j: int, eps: float = 1.0) -> float:
    """integral_R exp(-t**p/eps) t**j dt: zero for odd j, else
    (2/p) eps**((j+1)/p) Gamma((j+1)/p)."""
    _check_p(p)
    if j < 0:
        raise SeriesError("moment index must be >= 0")
    if j % 2:
        return 0.0
    return ((2.0 / p) * float(eps) ** ((j + 1) / p)
            * math.gamma((j + 1) / p))


# ---------------------------------------------------------------------------
# the numeric flow map


@dataclass(frozen=True)
class RayFn:
    """A function on (part of) a half-line, and its derivative, read
    elementwise on arrays from the one-component ``_numerics.Dense`` that
    ``build()`` returns on the first evaluation, and from that table's own
    derivative.  ``tail`` is the formal expansion at the far end.  Points
    are checked against ``domain`` first: an off-domain one raises
    ``DomainError`` naming the first such X, before any table is built."""

    build: Callable[[], _numerics.Dense]
    domain: tuple
    tail: Optional[Laurent] = None

    @functools.cached_property
    def _tables(self) -> tuple:
        table = self.build()
        return table, table.derivative()

    def _eval(self, X, order: int):
        lo, hi = self.domain
        X = np.asarray(X, dtype=float)
        off = ~((lo - 1e-12 <= X) & (X <= hi + 1e-12))
        if off.any():
            raise DomainError(f"X={X[off].flat[0]} outside evaluator domain [{lo}, {hi}]")
        return self._tables[order](X.ravel())[:, 0].reshape(X.shape)[()]

    def __call__(self, X):
        return self._eval(X, 0)

    def derivative(self, X):
        return self._eval(X, 1)


_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_MAX_DROP = 3.0  # largest exponent drop e^(-drop) one 8-point panel integrates
_RESIDUAL_POINTS = 50  # grid points of flow_residual
_GRID_N = 2048  # points of an apply_j grid, read when the ray is built


def _x_far(p: int) -> float:
    """|X| at which a flow solution is anchored on its formal tail."""
    return 8.0 if p == 2 else 6.0


def apply_j(p: int, sigma: int, v: Callable, v_series: Laurent,
            depth: int = TAIL_DEPTH) -> RayFn:
    """Unique polynomial-growth solution of dU/dX = p X**(p-1) U + v(X)
    on the sigma side, as a ray from sigma * _x_far(p) to 0; ``v_series``
    is the formal expansion of the array callable v at infinity, which
    anchors the solution.

    The formal tail is derived here, and the grid size ``_GRID_N`` is read
    here too.  The grid is stepped into a cubic-Hermite table (see
    ``_flow_table``) the first time the ray or its derivative is read,
    once per ray; a caller that reads only the tail steps nothing, and a
    flow that overflows raises ``BlowupError`` at that first read.
    """
    _check_p(p)
    if sigma not in (-1, 1):
        raise SeriesError("sigma must be -1 or +1")
    u_series = tail_of_j_series(p, v_series, depth)
    x0 = sigma * _x_far(p)
    return RayFn(functools.partial(_flow_table, p, sigma, v, u_series, _GRID_N),
                 (min(x0, 0.0), max(x0, 0.0)), u_series)


def _flow_table(p: int, sigma: int, v_fn: Callable, u_series: Laurent,
                points: int) -> _numerics.Dense:
    """The flow solution of apply_j as the cubic-Hermite table through its
    values on ``points`` equally spaced points from sigma * _x_far(p) to 0,
    with the slopes p X^(p-1) U + v(X) the equation gives them there.

    The solution is anchored at sigma * _x_far(p) with its tail and carried
    inward by the explicit solution of the flow,

        U_{i+1} = e^{X_{i+1}^p - X_i^p} U_i
                  + integral_{X_i}^{X_{i+1}} e^{X_{i+1}^p - T^p} v(T) dT,

    whose factors are at most 1 on the way in (anchor error washes out).
    Each cell integral is 8-point Gauss-Legendre, on as many panels as keep
    the exponent drop per panel at most 3.  v is called once, on one flat
    array of every panel's nodes and then the grid points (a scalar result
    broadcasts).
    """
    x0 = sigma * _x_far(p)
    xs = np.linspace(x0, 0.0, points)
    pw = np.abs(xs) ** p  # p is even; pow is slow on negative bases
    # panels: cell i is split into m_i equal parts
    m = np.maximum(1, np.ceil(np.abs(np.diff(pw)) / _MAX_DROP)).astype(int)
    cell = np.repeat(np.arange(points - 1), m)
    part = np.arange(cell.size) - np.repeat(np.cumsum(m) - m, m)
    h = (xs[1] - xs[0]) / m[cell]
    lo = xs[cell] + part * h
    nodes = lo[:, None] + (0.5 * h)[:, None] * (1.0 + _GAUSS_T)
    vals = np.broadcast_to(np.asarray(v_fn(np.append(nodes, xs)), dtype=float),
                           (nodes.size + points,))
    weighted = (np.exp(pw[cell + 1][:, None] - np.abs(nodes) ** p)
                * vals[:nodes.size].reshape(nodes.shape))
    panel = 0.5 * h * (weighted @ _GAUSS_W)
    forced = np.bincount(cell, weights=panel, minlength=points - 1)
    decay = np.exp(np.diff(pw))

    us = [float(u_series(x0))]
    for d, f in zip(decay.tolist(), forced.tolist()):
        us.append(d * us[-1] + f)
    us = np.array(us)
    if not np.isfinite(us).all():
        raise BlowupError("flow values overflowed",
                          where=float(xs[np.argmin(np.isfinite(us))]))
    slopes = p * xs ** (p - 1) * us + vals[nodes.size:]
    # ascending knots
    return _numerics.hermite(xs[::-sigma], us[::-sigma], slopes[::-sigma])


def flow_residual(u: RayFn, p: int, v_fn: Callable) -> float:
    """max |U'(X) - p X^(p-1) U(X) - v(X)| / (1 + |v(X)|) over a grid of
    the stored domain, all read on one array: the derivative of the ray's
    table against the defining equation."""
    lo, hi = u.domain
    pad = 0.02 * (hi - lo)
    xs = np.linspace(lo + pad, hi - pad, _RESIDUAL_POINTS)
    v = v_fn(xs)
    return (np.abs(u.derivative(xs) - p * xs ** (p - 1) * u(xs) - v)
            / (1.0 + np.abs(v))).max()


# ---------------------------------------------------------------------------
# decaying antiderivatives of fast coefficients


def decaying_antiderivative(g, g1: float, p: int, X):
    """H(X) = integral from sigma*inf to X of (g(T) - g1 * ell'(T)) dT with
    ell'(T) = T^(p-1)/(T^p+1), the branch vanishing at infinity on X's
    side; elementwise for an array X, one quadrature per point."""
    g1 = float(g1)
    f = lambda T: g(T) - g1 * T ** (p - 1) / (T ** p + 1.0) if g1 != 0.0 else g(T)
    return np.vectorize(lambda X: -_numerics.quad(f, X, np.inf) if X >= 0
                        else _numerics.quad(f, -np.inf, X), otypes=[float])(X)
