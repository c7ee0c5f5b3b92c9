"""Canard values: the Union Jack connection constant, the angular-canard
value curve, and the order-by-order control series at a multiple turning
point.

The connection problems are solved by shooting: each branch is anchored on
its tail at +-X_far and integrated toward X = 0 in the direction in which
it attracts, and a smooth mismatch at X = 0 is driven to zero by brentq.
Both branches of a problem run as one 2-vector system, one solve per
mismatch evaluation.  Inward, an anchor error is damped like exp(-X^3/3)
(Union Jack) or exp(-T^2/2) (angular), so with tails 8 terms deep the
anchors sit close in, at X = 6 and T = 7, where the far field is only
mildly stiff; results are independent of X_far beyond that.
"""

from __future__ import annotations

import math
from functools import cache, partial
from typing import Callable, NamedTuple

from . import _numerics
from .errors import BlowupError, SeriesError
from .special import gauss_moment
from .turning import ODESpec, UnsupportedExpansionError, _g_polynomials
from .validate import _shoot

_TOL_FLOOR = 1e-12  # finest root tolerance; the solves run at rtol 1e-12
_TAIL_TERMS = 8  # nonzero terms of both tail anchors
_X_FAR = 6.0  # |X| of the Union Jack anchors
_T_FAR = 7.0  # T of the angular anchor
_DIFF_STEP = 1e-4  # centered-difference step of _anchor_residual


# ---------------------------------------------------------------------------
# connection-problem plumbing


def _anchor_residual(rhs: Callable, anchor: Callable, X0: float) -> float:
    """|Y'(X0) - rhs(X0, Y(X0))| for the tail anchor Y of the scalar
    equation dY/dX = rhs(X, Y), with Y' taken by a centered difference:
    how well the anchor solves the equation."""
    der = (anchor(X0 + _DIFF_STEP) - anchor(X0 - _DIFF_STEP)) / (2 * _DIFF_STEP)
    return abs(der - rhs(X0, anchor(X0)))


def _power_sum(coeffs, u):
    """sum_m coeffs[m] u^m, by Horner's rule."""
    acc = 0.0
    for cm in reversed(coeffs):
        acc = acc * u + cm
    return acc


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= _TOL_FLOOR):
        raise SeriesError(f"root tolerance {tol!r} must be finite and at "
                          f"least {_TOL_FLOOR:g}")


# ---------------------------------------------------------------------------
# Union Jack connection constant


def _uj_tail(c) -> list:
    """Tail Y ~ sum_n a_n X^-n of the solution vanishing at -infinity.

    Matching powers of X in X^2 Y = Y^3 + c - Y' gives a_0 = a_1 = 0 and
    a_{k+2} = [k=0] c + (k-1) a_{k-1} + sum_{i+j+l=k} a_i a_j a_l, so only
    n = 2 mod 3 survive.  Returns b_m = a_{3m+2} for m < ``_TAIL_TERMS``:
    c, 2c, c^3 + 10c, 14c^3 + 80c, ..., by the same recursion in m,
    b_m = [m=0] c + (3m-1) b_{m-1} + sum_{i+j+l=m-2} b_i b_j b_l.  Exact
    for exact c.
    """
    b = []
    for m in range(_TAIL_TERMS):
        cube = sum(b[i] * b[j] * b[m - 2 - i - j]
                   for i in range(m - 1) for j in range(m - 1 - i))
        b.append((c if m == 0 else (3 * m - 1) * b[m - 1]) + cube)
    return b


def _uj_anchor(c, X):
    """sum_m b_m X^-(3m+2) over the tail of ``_uj_tail``."""
    return _power_sum(_uj_tail(c), X ** -3) / X ** 2


def _uj_growing_anchor(c, s, X):
    """Tail of the solution growing like s*X at +inf: s*(X + a/X^2 -
    a(2+3a)/(2X^5)) with a = (1 - s*c)/2, residual O(X^-6)."""
    a = 0.5 * (1.0 - s * c)
    return s * (X + a / X ** 2 - a * (2.0 + 3.0 * a) / (2.0 * X ** 5))


def union_jack_rhs(X, Y, c):
    return Y * (Y - X) * (Y + X) + c


def _uj_mismatch(c: float, X_far: float = _X_FAR, s: float = 1.0) -> float:
    """F(c) = Y_fwd(0) - Y_bwd(0): the solution vanishing at -infinity,
    shot forward from -X_far, against the branch growing like s*X, shot
    backward from +X_far.  The backward leg is reflected, Z(X) =
    Y_bwd(-X), so that both legs run forward on [-X_far, 0] as one
    system; the right-hand side is even in X, so Z' = -rhs(X, Z)."""
    def rhs(X, y):
        y_fwd, z = y.tolist()  # float arithmetic beats numpy on 2-vectors
        return [union_jack_rhs(X, y_fwd, c), -union_jack_rhs(X, z, c)]

    y0 = [_uj_anchor(c, -X_far), _uj_growing_anchor(c, s, X_far)]
    y_fwd, z = _shoot(rhs, -X_far, 0.0, y0)
    return float(y_fwd - z)


class UnionJackResult(NamedTuple):
    value: float  # the connection constant
    mismatch: float  # |F(value)|
    evaluations: int  # mismatch evaluations made, one solve each


def union_jack_connection(tol: float = 1e-10, X_far: float = _X_FAR,
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
    c0 = _numerics.optimize.brentq(F, lo, hi, xtol=tol)
    return UnionJackResult(c0, abs(F(c0)), F.cache_info().currsize)


def union_jack_c0(tol: float = 1e-10, X_far: float = _X_FAR,
                  mirror: bool = False) -> float:
    """Connection constant of dY/dX = Y(Y-X)(Y+X) + c: the unique c in
    (0, 1) joining the solution that vanishes at -infinity to the branch
    growing like X at +infinity (``mirror=True`` connects to -X instead
    and returns the opposite constant).  ``tol`` is the root tolerance,
    at least 1e-12.
    """
    return union_jack_connection(tol, X_far, mirror).value


def union_jack_anchor_residual(c: float, X_far: float = _X_FAR) -> float:
    return _anchor_residual(partial(union_jack_rhs, c=c),
                            partial(_uj_anchor, c), -X_far)


# ---------------------------------------------------------------------------
# angular canard value curve


def _reduced_tail(D) -> list:
    """Tail V ~ sum_m w_m T^-m (odd m) of the decaying branch of
    V' = T V + V^2 + D at +infinity: matching powers of T gives w_1 = -D
    and w_m = -(m-2) w_{m-2} - sum_{i+j=m-1} w_i w_j.  Returns w_1, w_3,
    ..., ``_TAIL_TERMS`` of them."""
    w = []
    for j in range(_TAIL_TERMS):  # w[j] = w_{2j+1}
        square = sum(w[i] * w[j - 1 - i] for i in range(j))
        w.append((-D if j == 0 else -(2 * j - 1) * w[j - 1]) - square)
    return w


def _reduced_anchor(D: float, T: float) -> float:
    """sum_m w_m T^-m over the tail of ``_reduced_tail``."""
    return _power_sum(_reduced_tail(D), T ** -2) / T


def reduced_anchor_residual(D: float) -> float:
    return _anchor_residual(lambda T, V: T * V + V * V + D,
                            partial(_reduced_anchor, D), _T_FAR)


def angular_canard_value(eps: float, tol: float = 1e-10,
                         T_far: float = _T_FAR) -> float:
    """Canard value c(eps) of the classical angular problem: the root of

        gamma(eps)  V_d(0, (c - d(eps)) / gamma(eps)**2)
      = -gamma(-eps) V_d(0, (c - d(-eps)) / gamma(-eps)**2)

    with d + d**2 = eps and gamma**2 = 1 + 2 d, where V_d(., D) is the
    branch of V' = T V + V**2 + D decaying at +infinity.  Requires finite
    |eps| < 1/4 so both branches are real; the value curve is even in eps.
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
        Dp, Dm = (c - dp) / gp ** 2, (c - dm) / gm ** 2

        def rhs(T, v):  # both V_d branches as one system on [T_far, 0]
            vp, vm = v.tolist()
            return [T * vp + vp * vp + Dp, T * vm + vm * vm + Dm]

        v0 = [_reduced_anchor(Dp, T_far), _reduced_anchor(Dm, T_far)]
        vp, vm = _shoot(rhs, T_far, 0.0, v0)
        return float(gp * vp + gm * vm)

    span = max(8.0 * eps * eps, 1e-5)
    lo, hi, blown = -span, span, None
    flo = F(lo)
    for _ in range(60):
        try:
            fhi = F(hi)
        except BlowupError:
            # near |eps| = 1/4 high ends drive V_d into blowup; the root
            # lies below that region, so pull the end toward the lower one
            blown, hi = hi, 0.5 * (lo + hi)
            continue
        if flo * fhi <= 0:
            break
        if blown is None:
            lo, hi = 2 * lo, 2 * hi
            flo = F(lo)
        else:
            # the root lies between the last finite end and the blowup
            lo, flo, hi = hi, fhi, 0.5 * (hi + blown)
    else:
        raise SeriesError("could not bracket the angular canard value")
    # c ~ -2.7 eps^2, so an absolute tol alone would swamp it at tiny eps
    xtol = min(tol, 1e-3 * eps * eps)
    return float(_numerics.optimize.brentq(F, lo, hi, xtol=xtol, rtol=1e-15))


# ---------------------------------------------------------------------------
# control series at a multiple turning point


def canard_control_series(spec: ODESpec, N: int) -> list:
    """Control coefficients alpha_0..alpha_{N-1} (graded in eta) making the
    inner expansions from both sides agree order by order.

    At each order the forcing is G_n(X) + alpha_n with G_n known; the
    two-sided matching condition is the vanishing Gaussian-type moment

        integral_R exp(-s**p) (G_n(s) + alpha_n) ds = 0,

    solved for alpha_n.  Supported for the y-linear control family; the
    moment of the control slot is (2/p) Gamma(1/p) > 0, so the linear
    solve cannot degenerate.  N = 0 gives no coefficients.
    """
    if not spec.control:
        raise SeriesError("spec has no control slot")
    if N < 0:
        raise SeriesError(f"control series order {N} is negative")
    if not spec.linear_in_y:
        raise UnsupportedExpansionError(
            "control series for y-dependent equations are outside the "
            "supported family"
        )
    p = spec.p
    m0 = gauss_moment(p, 0, 1.0)
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
