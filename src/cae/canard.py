"""Canard values: the Union Jack connection constant, the angular-canard
value curve, and the order-by-order control series at a multiple turning
point.

The connection problems are solved by shooting: each branch is anchored on
its tail at +-``_X_FAR`` (or at T = ``_T_FAR``) and integrated toward
X = 0 in the direction in which it attracts, by ``_numerics.shoot`` read at
its endpoint; both right-hand sides are polynomials, passed as monomial
tables.  ``_root`` finds the roots of smooth mismatches at X = 0, one per
bracket (one for the Union Jack, one per distinct |eps| of an angular
call), in rounds of one solve, each of all branches of every open bracket
at a batch of values of c as one system: the golden angular command makes
2 solves of 10 Taylor steps for its three |eps|, and the Union Jack one
2 of 25.  Inward, an anchor error is damped like exp(-X^3/3) (Union Jack)
or exp(-T^2/2) (angular), and the number of Taylor steps grows like the
cube of the anchor distance (a step in the far field is about
3.5/|lambda| long, lambda = -X^2 on the decaying Union Jack leg).  So the
tails are 16 terms deep and the anchors sit as close in as that allows,
at X = 4.5 and T = 6: there a tail's residual is no larger than an 8-term
tail's at X = 6 and T = 7, and results are independent of the anchors
beyond that.  Both are read at call time.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import _numerics
from .errors import BlowupError, SeriesError
from .special import gauss_moment
from .turning import ODESpec, UnsupportedExpansionError, _g_polynomials

_TOL_FLOOR = 1e-12  # finest root tolerance, far above the shots' error
_TAIL_TERMS = 16  # nonzero terms of both tail anchors
_X_FAR = 4.5  # |X| of the Union Jack anchors
_T_FAR = 6.0  # T of the angular anchor
_EPS_MIN = 1e-7  # smallest nonzero |eps| of the angular canard value
_DIFF_STEP = 1e-4  # centered-difference step of _anchor_residual
_NODES = 12  # Chebyshev-Lobatto nodes of a root's first round


# ---------------------------------------------------------------------------
# connection-problem plumbing


def _anchor_residual(rhs: Callable, anchor: Callable, X0: float) -> float:
    """|Y'(X0) - rhs(X0, Y(X0))| for the tail anchor Y of the scalar
    equation dY/dX = rhs(X, Y), with Y' taken by a centered difference:
    how well the anchor solves the equation.  The anchor is read once, on
    the array of the three points."""
    fwd, bwd, mid = anchor(X0 + np.array([_DIFF_STEP, -_DIFF_STEP, 0.0]))
    return float(abs((fwd - bwd) / (2 * _DIFF_STEP) - rhs(X0, mid)))


def _power_sum(coeffs, u):
    """sum_m coeffs[m] u^m, by Horner's rule."""
    acc = 0.0
    for cm in reversed(coeffs):
        acc = acc * u + cm
    return acc


def _lobatto(lo: float, hi: float) -> np.ndarray:
    """The ``_NODES`` Chebyshev-Lobatto nodes of [lo, hi], ascending."""
    return 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.linspace(0, np.pi, _NODES))


def _bracket(nodes, values):
    """(a, F(a), b, F(b)) at the first neighbours a < b of the ascending
    nodes between which values = F(nodes) changes sign, or None."""
    pairs = zip(nodes, values, nodes[1:], values[1:])
    return next((q for q in pairs if q[1] * q[3] <= 0), None)


def _root(F: Callable, nodes: np.ndarray, values: np.ndarray, tol):
    """(c, F(c), calls of F), arrays over the rows: each c a node within
    ``tol`` (one for all rows, or one per row) of a root of its row's
    function, from a first round whose row values = F(nodes) brackets one.
    F(rows, c) evaluates the functions of the given rows, each at its row
    of the 2-D array c, in one call.  A row's estimate r starts at the
    root of its first round's interpolant;
    each call evaluates every row still open at r and r +- tol/2 inside its
    bracket and narrows the bracket to their first sign change (tol/2 wide
    once r is close enough; else r moves to the secant root).  F(c) is
    measured, never read off the interpolant."""
    a, fa, b, fb = map(np.array, zip(*map(_bracket, nodes, values)))
    tol = np.maximum(tol, 8 * np.spacing(abs(a) + abs(b)))  # every round narrows
    r = a - fa * (b - a) / (fb - fa)
    for j, (x, f) in enumerate(zip(nodes, values)):
        roots = np.polynomial.Chebyshev.fit(x, f, len(x) - 1).roots()
        r[j] = roots[np.argmin(abs(roots - r[j]))].real
    calls = 0
    while (rows := np.flatnonzero(b - a > tol)).size:
        cs = np.clip(r[rows, None] + np.array([-0.5, 0.0, 0.5]) * tol[rows, None],
                     a[rows, None], b[rows, None])
        calls += 1
        for j, c, f in zip(rows, cs, F(rows, cs)):
            a[j], fa[j], b[j], fb[j] = _bracket(np.r_[a[j], c, b[j]], np.r_[fa[j], f, fb[j]])
        r = a - fa * (b - a) / (fb - fa)
    near = abs(fa) <= abs(fb)
    return np.where(near, a, b), np.where(near, fa, fb), calls


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
    b_m = [m=0] c + (3m-1) b_{m-1} + sum_{i+j+l=m-2} b_i b_j b_l, the cube
    summed as the Cauchy product of b with the sums of its squares
    s_n = sum_{i+j=n} b_i b_j.  Exact for exact c.
    """
    b, s = [], []
    for m in range(_TAIL_TERMS):
        cube = 0
        if m >= 2:
            n = m - 2
            s.append(sum(b[i] * b[n - i] for i in range(n + 1)))
            cube = sum(s[i] * b[n - i] for i in range(n + 1))
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


def _uj_mismatch(c, s: float) -> np.ndarray:
    """F(c) = Y_fwd(0) - Y_bwd(0) at each value of the array c: the solution
    vanishing at -infinity, shot forward from -_X_FAR, against the branch
    growing like s*X, shot backward from +_X_FAR.  The backward legs are
    reflected, Z(X) = Y_bwd(-X), so all legs run forward on [-_X_FAR, 0] as
    one system; the right-hand side is even in X, so Z' = -rhs(X, Z)."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    sign = np.repeat([1.0, -1.0], c.size)
    # sign * union_jack_rhs(X, y, c): sign y^3 - sign X^2 y + sign c
    terms = [(sign, 0, 3), (-sign, 2, 1), (sign * np.concatenate([c, c]), 0, 0)]
    y0 = np.concatenate([_uj_anchor(c, -_X_FAR), _uj_growing_anchor(c, s, _X_FAR)])
    y = _numerics.shoot(terms, -_X_FAR, [0.0], y0)[-1]
    return y[:c.size] - y[c.size:]


class UnionJackResult(NamedTuple):
    value: float  # the connection constant
    mismatch: float  # |F(value)|
    evaluations: int  # shooting solves made, each of F at a batch of c


def union_jack_connection(tol: float = 1e-10, mirror: bool = False) -> UnionJackResult:
    """Connection constant of dY/dX = Y(Y-X)(Y+X) + c, with its measured
    cost and final mismatch: the unique c in (0, 1) joining the solution
    that vanishes at -infinity to the branch growing like X at +infinity
    (``mirror=True`` connects to -X instead and gives the opposite
    constant).  ``tol`` is the root tolerance, at least 1e-12.

    ``_root`` on the mismatch F of ``_uj_mismatch``, which changes sign on
    [0, 1/2] (beyond c ~ 0.85 the forward leg blows up).  The mirror
    problem flips the sign of the growing branch; its bracket is [-1/2, 0].
    """
    _check_tol(tol)
    s = -1.0 if mirror else 1.0
    nodes = _lobatto(*sorted((0.0, 0.5 * s)))
    values = _uj_mismatch(nodes, s)
    if _bracket(nodes, values) is None:
        raise SeriesError("the mismatch does not change sign across the bracket")
    c0, f0, calls = _root(lambda rows, c: _uj_mismatch(c[0], s)[None],
                          nodes[None], values[None], tol)
    return UnionJackResult(float(c0[0]), abs(float(f0[0])), 1 + calls)


def union_jack_anchor_residual(c: float) -> float:
    return _anchor_residual(partial(union_jack_rhs, c=c),
                            partial(_uj_anchor, c), -_X_FAR)


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


def _reduced_branch(D: np.ndarray) -> np.ndarray:
    """V_d(0, D) at each value of the array D: the branch of
    V' = T V + V^2 + D decaying at +infinity, shot from ``_T_FAR`` to 0,
    every D as one system."""
    terms = [(1.0, 1, 1), (1.0, 0, 2), (D, 0, 0)]
    return _numerics.shoot(terms, _T_FAR, [0.0], _reduced_anchor(D, _T_FAR))[-1]


def angular_canard_value(eps, tol: float = 1e-10):
    """Canard value c(eps) of the classical angular problem, elementwise
    for an array eps (a float for a scalar): the root of

        gamma(eps)  V_d(0, (c - d(eps)) / gamma(eps)**2)
      = -gamma(-eps) V_d(0, (c - d(-eps)) / gamma(-eps)**2)

    with d + d**2 = eps and gamma**2 = 1 + 2 d, where V_d(., D) is the
    branch of V' = T V + V**2 + D decaying at +infinity.  Requires finite
    |eps| < 1/4 so both branches are real; the value curve is even in eps.
    0 < |eps| < _EPS_MIN is refused: the mismatch there is below the
    shooting's absolute noise floor (about 3e-17), and c/eps^2, -2.695 at
    1e-7, reads -29.4 at 1e-9.
    ``tol`` is the root tolerance, at least 1e-12.

    Every distinct nonzero |eps| is solved at once: each bracket try and
    each ``_root`` round is one ``_reduced_branch`` shot of the |eps| still
    open, so a value's last bits depend on the other |eps| of the call.
    """
    eps = np.asarray(eps, dtype=float)
    size = abs(eps)
    bad = ~(size < 0.25)
    if bad.any():
        raise SeriesError(f"eps must be finite with |eps| < 1/4 for real "
                          f"branch data, got {float(eps[bad].flat[0])!r}")
    tiny = (0 < size) & (size < _EPS_MIN)
    if tiny.any():
        raise SeriesError(f"|eps| = {float(size[tiny].flat[0])!r} is below "
                          f"{_EPS_MIN}: c(eps) ~ -2.7 eps^2 sinks into the "
                          f"shooting's noise floor")
    _check_tol(tol)
    e, which = np.unique(size[size > 0], return_inverse=True)
    out = np.zeros(eps.shape)
    if e.size:
        out[size > 0] = _angular_roots(e, tol)[which]
    return out[()]


def _angular_roots(e: np.ndarray, tol: float) -> np.ndarray:
    """c(e) at each of the distinct positive e, found together."""
    def branch(x: float):
        """(d, gamma) with d + d**2 = x and gamma**2 = 1 + 2 d, by Python's
        pow: numpy's ** 0.25 may round otherwise."""
        return 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * x)), (1.0 + 4.0 * x) ** 0.25

    (dp, gp), (dm, gm) = (np.array([branch(s * x) for x in e.tolist()]).T
                          for s in (1.0, -1.0))

    def F(rows, c):  # both V_d branches of every row at every c as one system
        D = np.stack([(c - dp[rows, None]) / gp[rows, None] ** 2,
                      (c - dm[rows, None]) / gm[rows, None] ** 2])
        v = _reduced_branch(D.ravel()).reshape(D.shape)
        return gp[rows, None] * v[0] + gm[rows, None] * v[1]

    span = np.maximum(8.0 * e * e, 1e-5)
    lo, hi, blown = -span, span, np.full(e.size, np.nan)
    nodes, values = np.empty((e.size, _NODES)), np.empty((e.size, _NODES))
    rows = np.arange(e.size)  # the e not yet bracketed
    for _ in range(60):
        x = np.array([_lobatto(*ends) for ends in zip(lo[rows], hi[rows])])
        try:
            f = F(rows, x)
        except BlowupError as exc:
            # near |eps| = 1/4 high ends drive V_d into blowup; the root
            # lies below that region, so pull the top end of the blown
            # member's e toward its lower one (D holds 2 x rows x nodes)
            j = rows[exc.member // _NODES % rows.size]
            blown[j], hi[j] = hi[j], 0.5 * (lo[j] + hi[j])
            continue
        found = np.array([_bracket(*q) is not None for q in zip(x, f)])
        nodes[rows[found]], values[rows[found]] = x[found], f[found]
        rows = rows[~found]
        if not rows.size:
            break
        grow, move = rows[np.isnan(blown[rows])], rows[~np.isnan(blown[rows])]
        lo[grow], hi[grow] = 2 * lo[grow], 2 * hi[grow]
        # the root lies between the last finite end and the blowup
        lo[move], hi[move] = hi[move], 0.5 * (hi[move] + blown[move])
    else:
        raise SeriesError("could not bracket the angular canard value")
    # c ~ -2.7 eps^2, so an absolute tol alone would swamp it at tiny eps
    return _root(F, nodes, values, np.minimum(tol, 1e-3 * e * e))[0]


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
