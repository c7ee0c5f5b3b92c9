"""The one door to scipy, its submodules imported on first use, with the
one checked quadrature; the one ODE integrator, a Taylor method for
polynomial right-hand sides; and ``Dense``, the one piecewise polynomial,
of dense shots and cubic-Hermite tables alike.  The last two need no scipy.

Importing scipy costs more than some commands (``cae expand`` on a y-linear
spec, ``cae resonance``, ``cae canard``, ``cae --help``) spend on their
work, and they never call it.  So no other cae module imports scipy; each
reads the submodule it needs as an attribute of this one,
``_numerics.special.gamma(...)``, and the first read imports it.  Later
reads find the module in this module's namespace and cost one attribute
lookup.

Look functions up at call time, as above: a name bound once at import
(``gamma = _numerics.special.gamma``) keeps pointing at the original after
a tracer or a test replaces the function on its module.  The same holds
for ``_numerics.shoot`` and ``_numerics.quad``.
"""

import importlib
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import BlowupError, SeriesError

_SUBMODULES = ("integrate", "special")
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)
_ORDER = 30  # Taylor order of every ``shoot`` step
_STEP_TOL = 1e-16  # last two terms of a step, relative to max(1, |y|)


def __getattr__(name: str):
    """Import scipy.<name> on its first read (PEP 562); store it here, so
    that later reads do not come back."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"scipy.{name}")
    globals()[name] = module
    return module


def quad(f, a: float, b: float) -> float:
    """integral_a^b f by QUADPACK (either end may be infinite), checked on
    its own error estimate: a non-finite value, or an estimate that is NaN
    or above 1e-9 * max(1, |value|), raises SeriesError.  QUADPACK's
    roundoff notice is demoted to that check (steep relief shoulders trip
    the notice while the estimate stays far below any tolerance used here)."""
    # a bare name in this module does not reach __getattr__, so ask it
    integrate = __getattr__("integrate")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(f, a, b, **_QUAD_OPTS)
    if not (math.isfinite(val) and err <= 1e-9 * max(1.0, abs(val))):
        raise SeriesError(f"quadrature failed to converge (value {val:.6g}, "
                          f"est. error {err:.2e})")
    return val


class Dense(NamedTuple):
    """A piecewise polynomial in t, read in u = sign * t, which ascends
    along the steps whichever way t runs: on step i,
    y(t) = sum_k coeffs[k, i] (u - keys[i])^k.  A dense ``shoot`` returns
    one, and so does ``hermite``."""

    keys: np.ndarray  # u at each step start, then at the end of the last
    sign: float  # +1.0 or -1.0
    coeffs: np.ndarray  # (orders, batch, steps)

    def __call__(self, t) -> np.ndarray:
        """y at the array t, of shape (len(t), batch), each point read on
        the step that holds it by Horner's rule."""
        u = self.sign * np.atleast_1d(np.asarray(t, dtype=float))
        i = np.searchsorted(self.keys[1:-1], u, side="right")  # end steps extend
        return _horner(self.coeffs.take(i, axis=2), u - self.keys[i]).T

    def derivative(self) -> "Dense":
        """dy/dt, step by step."""
        k = np.arange(1, len(self.coeffs))[:, None, None]
        return Dense(self.keys, self.sign, self.sign * k * self.coeffs[1:])


def hermite(t: np.ndarray, y: np.ndarray, dy: np.ndarray) -> Dense:
    """The piecewise cubic through the values y, with slopes dy, at the
    ascending points t: one cubic-Hermite step between each two."""
    h, d0, d1 = np.diff(t), dy[:-1], dy[1:]
    slope = np.diff(y) / h
    coeffs = np.stack([y[:-1], d0, (3.0 * slope - 2.0 * d0 - d1) / h,
                       (d0 + d1 - 2.0 * slope) / (h * h)])
    return Dense(np.asarray(t, dtype=float), 1.0, coeffs[:, None])


def _horner(C, s):
    """sum_k C[k] s^k."""
    acc = C[-1]
    for c in C[-2::-1]:
        acc = acc * s + c
    return acc


def _taylor(Q, nmax: int, y) -> np.ndarray:
    """The coefficients Y[k], k <= _ORDER, of y(t + s) = sum_k Y[k] s^k for
    dy/dt = sum_{n, i} Q[n, i] s^i y^n through y at s = 0.  P[n] holds the
    coefficients of y^n, each order of it a Cauchy product of the one below
    with y, so order k of the right-hand side needs only Y[0..k]."""
    P = np.zeros((nmax + 1, _ORDER + 1, y.size))
    P[0, 0], P[1, 0] = 1.0, y
    for n in range(2, nmax + 1):
        P[n, 0] = P[n - 1, 0] * y
    Y, d = P[1], Q.shape[1] - 1
    for k in range(_ORDER):
        m = min(d, k)
        f = (Q[:, :m + 1] * P[:, k - m:k + 1][:, ::-1]).sum(axis=(0, 1))
        Y[k + 1] = f / (k + 1)
        for n in range(2, nmax + 1):
            P[n, k + 1] = (P[n - 1, :k + 2] * Y[k + 1::-1]).sum(axis=0)
    return Y


def shoot(terms, t0: float, stops, y0, dense: bool = False):
    """The values, of shape (len(stops), batch), at each of ``stops`` of
    the batch of scalar equations dy/dt = sum c t^j y^n over the monomial
    table ``terms`` of (c, j, n), through y(t0) = y0; each c is a float or
    an array over the batch, and ``stops`` run away from t0 in order.

    A Taylor method of order ``_ORDER`` (Jorba and Zou, Experimental
    Mathematics 14, 2005).  At a step start t the coefficients of y come
    order by order, powers of y by Cauchy products and each t^j re-expanded
    about t by binomials.  The step is the largest at which both of the last
    two terms are at most ``_STEP_TOL`` max(1, |y|), cut to land on each
    stop exactly, and the step end is read by Horner's rule.  ``dense``
    returns the steps as a ``Dense`` instead.  Coefficients that overflow,
    or a step too small to move t, as at a pole, raise BlowupError where
    the solution got to, its ``member`` the batch index that overflowed or
    set the step."""
    y = np.array(y0, dtype=float).reshape(-1)
    nmax = max(1, max(n for _, _, n in terms))
    dmax = max(j for _, j, _ in terms)
    t, ends, steps, out = float(t0), [float(t0)], [], []
    for stop in map(float, stops):
        while t != stop:
            # Q[n, i]: sum of c binom(j, i) t^(j - i) over the terms (c, j, n)
            Q = np.zeros((nmax + 1, dmax + 1, y.size))
            for c, j, n in terms:
                for i in range(j + 1):
                    Q[n, i] += c * (math.comb(j, i) * t ** (j - i))
            with np.errstate(all="ignore"):
                Y = _taylor(Q, nmax, y)
                tol = _STEP_TOL * np.maximum(1.0, abs(y))
                hs = np.minimum(*((tol / abs(Y[k])) ** (1.0 / k)
                                  for k in (_ORDER - 1, _ORDER)))
                h = hs.min()
                t_end = stop if h >= abs(stop - t) else t + math.copysign(h, stop - t)
                y = _horner(Y, t_end - t)
            # a NaN coefficient makes the step NaN, and with it every
            # member's end value, so the coefficients name the member first
            bad = ~np.isfinite(Y).all(axis=0)
            if not bad.any():
                bad = ~np.isfinite(y)
            if bad.any() or t_end == t:
                exc = BlowupError(f"shooting from {t0!r} toward {stop!r} "
                                  f"blew up near {t!r}", where=t)
                exc.member = int(np.argmax(bad) if bad.any() else np.argmin(hs))
                raise exc
            if dense:
                ends.append(t_end)
                steps.append(Y)
            t = t_end
        out.append(y)
    if not dense:
        return np.array(out)
    # u = sign * t ascends along the shot: order k of step i is sign^k Y[k]
    sign = 1.0 if ends[-1] >= ends[0] else -1.0
    coeffs = np.stack(steps, axis=2) * sign ** np.arange(_ORDER + 1)[:, None, None]
    return Dense(sign * np.array(ends), sign, coeffs)
