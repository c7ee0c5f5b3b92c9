"""Decaying special functions and the side-anchored linear flow.

The workhorse is the family U_k^sigma, the unique solution without
exponential growth on the sigma half-line of

    dU/dX = p X**(p-1) U + X**(k-1),        p even, 1 <= k <= p-1,

together with the operator that maps a polynomial-growth forcing v to the
analogous solution of dU/dX = p X**(p-1) U + v(X).  Values of U_k are
closed forms in incomplete gamma functions (erfcx when p = 2); the flow map
steps the explicit solution of the equation over a grid; formal tails at
infinity come from the fixed-point inversion of the equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import _numerics
from ._scalar import is_exact
from .errors import (
    BlowupError,
    CaeError,
    DomainError,
    SeriesError,
)
from .series import AsymTail, Laurent, TaylorPoly

EXP_CAP = 700.0  # |X|**p beyond this would overflow exp() in double precision
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=200)


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
    polynomial-growth solution of U' = p X**(p-1) U + v, by iterating
    U <- (U' - v)/(p X**(p-1)).

    Each pass gains p-1 orders, so the iteration terminates; the result is
    exact when v's coefficients are exact.  v known down to X**-d yields a
    result known down to X**-(d + p - 1) at most.
    """
    _check_p(p)
    if v.low is not None:
        depth = min(depth, p - 1 - v.low)
    v = Laurent.part(v).truncate(-depth)
    u = Laurent((), 0, -depth)
    passes = (depth + v.top_degree + p) // (p - 1) + 3
    for _ in range(passes):
        src = (u.derivative() - v).shift(1 - p)  # known at least down to X**-depth
        u2 = Laurent([0 if c == 0 else Fraction(c, p) if is_exact(c) else c / p
                      for c in src.dense], src.offset, -depth)
        if u2 == u:
            break
        u = u2
    return u


def tail_of_j(p: int, sigma: int, v: Laurent, depth: int,
              v_tail: Optional[AsymTail] = None):
    """Formal (polynomial part, tail) of the J-image of v (a TaylorPoly,
    optionally plus ``v_tail``, or any Laurent series in X).  The expansion
    is side-independent; ``sigma`` only selects which function realizes it.
    """
    u = tail_of_j_series(p, v if v_tail is None else v + v_tail, depth)
    return TaylorPoly.part(u), AsymTail.part(u)


_U_TAIL_CACHE: dict = {}


def u_tail(p: int, k: int, depth: int = 16) -> AsymTail:
    """Formal tail of U_k (same series for both sides), derived once per
    (p, k, depth) per process; the shared AsymTail is immutable."""
    key = (p, k, depth)
    if key not in _U_TAIL_CACHE:
        if not 1 <= k <= p - 1:
            raise SeriesError(f"k={k} outside 1..{p - 1}")
        _U_TAIL_CACHE[key] = AsymTail.part(tail_of_j_series(p, Laurent([1], k - 1), depth))
    return _U_TAIL_CACHE[key]


# ---------------------------------------------------------------------------
# values of U_k^sigma


_GL_NODES, _GL_WEIGHTS = np.polynomial.laguerre.laggauss(32)


def _exp_gamma_upper(a: float, x: np.ndarray) -> np.ndarray:
    """e^x Gamma(a, x) for x >= 0: the regularized form up to EXP_CAP and,
    beyond it, 32-point Gauss-Laguerre on x^(a-1) int_0^inf e^-s
    (1 + s/x)^(a-1) ds, which cannot overflow."""
    out = np.empty_like(x)
    big = x > EXP_CAP
    xs = x[~big]
    sf = _numerics.special
    out[~big] = np.exp(xs) * sf.gammaincc(a, xs) * sf.gamma(a)
    if big.any():
        xb = x[big]
        ratio = 1.0 + _GL_NODES[:, None] / xb
        out[big] = xb ** (a - 1.0) * (_GL_WEIGHTS @ ratio ** (a - 1.0))
    return out


def eval_u(p: int, k: int, sigma: int, X):
    """Value of U_k^sigma(X) = e^{X^p} * integral_{sigma*inf}^X e^{-T^p} T^(k-1) dT,
    elementwise for an array X (a float for a scalar).

    With x = |X|^p and a = k/p the values are incomplete gamma functions
    (DLMF 8.2): U_k^-(X <= 0) = (-1)^(k-1) e^x Gamma(a, x)/p and
    U_k^+(X >= 0) = -e^x Gamma(a, x)/p; p = 2 uses erfcx.  For even k the
    integrand is odd, U_k^- = U_k^+ = -e^x Gamma(a, x)/p on the whole line.
    For odd k the growth side adds the full moment,
    -sigma e^x Gamma(a) (1 + P(a, x))/p, and is refused once x passes the
    overflow guard.
    """
    _check_p(p)
    if not 1 <= k <= p - 1:
        raise SeriesError(f"k={k} outside 1..{p - 1}")
    if sigma not in (-1, 1):
        raise SeriesError("sigma must be -1 or +1")
    X = float(X) if np.ndim(X) == 0 else np.asarray(X, dtype=float)
    scalar = isinstance(X, float)  # plain-float checks keep scalar calls cheap
    if not (math.isfinite(X) if scalar else np.isfinite(X).all()):
        raise SeriesError(f"U_{k} needs a finite X, got {X}")
    x = abs(X) ** p
    growth = (sigma * X < 0) & bool(k % 2)
    over = growth & (x > EXP_CAP)
    if over if scalar else over.any():
        bad = np.asarray(X)[np.asarray(over)].flat[0]
        raise ExponentCapError(
            f"U_{k}^{'-' if sigma < 0 else '+'}({bad}) ~ exp(|X|^{p}) overflows"
        )
    if p == 2:
        # U^- = (sqrt(pi)/2) erfcx(-X),  U^+ = -(sqrt(pi)/2) erfcx(X)
        val = -sigma * (0.5 * math.sqrt(math.pi) * _numerics.special.erfcx(sigma * X))
    else:
        a = k / p
        x, growth = np.atleast_1d(x, growth)
        val = np.empty_like(x)
        val[~growth] = _exp_gamma_upper(a, x[~growth])
        xg = x[growth]
        sf = _numerics.special
        val[growth] = np.exp(xg) * sf.gamma(a) * (1.0 + sf.gammainc(a, xg))
        val = val.reshape(np.shape(X)) * ((-sigma if k % 2 else -1) / p)
    return float(val) if scalar else val


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
            * float(_numerics.special.gamma((j + 1) / p)))


# ---------------------------------------------------------------------------
# the numeric flow map


@dataclass(frozen=True)
class RayFn:
    """Evaluable function on (part of) a half-line.

    ``fn``/``dfn`` evaluate the function and its derivative on ``domain``,
    elementwise on arrays; ``tail`` is the formal expansion at
    sigma * infinity.
    """

    sigma: int
    fn: Callable
    domain: tuple
    tail: Optional[Laurent] = None
    dfn: Optional[Callable] = None

    def _eval(self, f, X):
        lo, hi = self.domain
        Xa = np.asarray(X, dtype=float)
        if not ((lo - 1e-12 <= Xa) & (Xa <= hi + 1e-12)).all():
            raise DomainError(f"X={X} outside [{lo}, {hi}]")
        out = np.reshape(f(Xa.ravel()), Xa.shape)
        return float(out) if out.ndim == 0 else out

    def __call__(self, X):
        return self._eval(self.fn, X)

    def derivative(self, X):
        if self.dfn is None:
            raise DomainError("no derivative data attached")
        return self._eval(self.dfn, X)


_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_MAX_DROP = 3.0  # largest exponent drop e^(-drop) one 8-point panel integrates


def apply_j(
    p: int,
    sigma: int,
    v,
    v_series: Optional[Laurent] = None,
    X_far: Optional[float] = None,
    depth: int = 16,
    grid_n: int = 2048,
    extend_to: float = 0.0,
) -> RayFn:
    """Unique polynomial-growth solution of dU/dX = p X**(p-1) U + v(X)
    on the sigma side.

    The solution is anchored at sigma*X_far with its asymptotic tail and
    carried inward over a grid of ``grid_n`` points by the explicit
    solution of the flow,

        U_{i+1} = e^{X_{i+1}^p - X_i^p} U_i
                  + integral_{X_i}^{X_{i+1}} e^{X_{i+1}^p - T^p} v(T) dT,

    whose factors are at most 1 on the way in (anchor error washes out).
    Each cell integral is 8-point Gauss-Legendre, on as many panels as keep
    the exponent drop per panel at most 3; v is called once, on the array
    of all nodes (a scalar result broadcasts).  A cubic spline through the
    grid values gives dense evaluation.  ``extend_to`` >= 0 continues past
    the origin onto the growth side (accuracy degrades with exp(X**p)).

    v may be a RayFn (its ``tail`` supplies the formal part), a callable
    with ``v_series`` given, or a constant.
    """
    _check_p(p)
    if sigma not in (-1, 1):
        raise SeriesError("sigma must be -1 or +1")
    if X_far is None:
        X_far = 8.0 if p == 2 else 6.0
    if isinstance(v, RayFn) and v_series is None:
        v_series = v.tail
    if callable(v):
        v_fn = v
    else:  # constant
        c = float(v)
        v_fn = lambda X: c
        if v_series is None:
            v_series = Laurent([v])
    if v_series is None:
        raise SeriesError("apply_j needs the formal expansion of v for anchoring")

    u_series = tail_of_j_series(p, v_series, depth)
    x0 = sigma * X_far
    xs = np.linspace(x0, -sigma * abs(extend_to), grid_n)
    pw = xs ** p
    # panels: cell i is split into m_i equal parts
    m = np.maximum(1, np.ceil(np.abs(np.diff(pw)) / _MAX_DROP)).astype(int)
    cell = np.repeat(np.arange(grid_n - 1), m)
    part = np.arange(cell.size) - np.repeat(np.cumsum(m) - m, m)
    h = (xs[1] - xs[0]) / m[cell]
    lo = xs[cell] + part * h
    nodes = lo[:, None] + (0.5 * h)[:, None] * (1.0 + _GAUSS_T)
    vals = np.broadcast_to(np.asarray(v_fn(nodes), dtype=float), nodes.shape)
    weighted = np.exp(pw[cell + 1][:, None] - nodes ** p) * vals
    panel = 0.5 * h * (weighted @ _GAUSS_W)
    forced = np.bincount(cell, weights=panel, minlength=grid_n - 1)
    decay = np.exp(np.diff(pw))

    us = [float(u_series(x0))]
    for d, f in zip(decay.tolist(), forced.tolist()):
        us.append(d * us[-1] + f)
    us = np.array(us)
    if not np.isfinite(us).all():
        raise BlowupError("flow values overflowed",
                          where=float(xs[np.argmin(np.isfinite(us))]))
    # ascending knots
    spline = _numerics.interpolate.CubicSpline(xs[::-sigma], us[::-sigma])
    return RayFn(
        sigma=sigma,
        fn=spline,
        dfn=spline.derivative(),
        domain=(min(xs[0], xs[-1]), max(xs[0], xs[-1])),
        tail=u_series,
    )


def flow_residual(u: RayFn, p: int, v_fn: Callable, n: int = 50) -> float:
    """max |U'(X) - p X^(p-1) U(X) - v(X)| / (1 + |v(X)|) over a grid of
    the stored domain (spline derivative versus the defining equation)."""
    lo, hi = u.domain
    pad = 0.02 * (hi - lo)
    xs = np.linspace(lo + pad, hi - pad, n)
    worst = 0.0
    for X in xs:
        r = abs(u.derivative(X) - p * X ** (p - 1) * u(X) - float(v_fn(X)))
        worst = max(worst, r / (1.0 + abs(float(v_fn(X)))))
    return worst


# ---------------------------------------------------------------------------
# decaying antiderivatives of fast coefficients


def decaying_antiderivative(g, g1: float, p: int, X) -> float:
    """H(X) = integral from sigma*inf to X of (g(T) - g1 * ell'(T)) dT with
    ell'(T) = T^(p-1)/(T^p+1), the branch vanishing at infinity on X's side."""
    g1 = float(g1)

    def f(T):
        val = float(g(T))
        if g1 != 0.0:
            val -= g1 * T ** (p - 1) / (T ** p + 1.0)
        return val

    if X >= 0:
        val, _err = _numerics.integrate.quad(f, X, np.inf, **_QUAD_OPTS)
        return -val
    val, _err = _numerics.integrate.quad(f, -np.inf, X, **_QUAD_OPTS)
    return val
