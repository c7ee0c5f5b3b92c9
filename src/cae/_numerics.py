"""The one door to scipy: its submodules, imported on first use, the one
checked quadrature and the one ODE integrator.

Importing scipy costs more than some commands (``cae expand`` on a y-linear
spec, ``cae resonance``, ``cae --help``) spend on their work, and they never
call it.  So no other cae module imports scipy; each reads the submodule it
needs as an attribute of this one, ``_numerics.integrate.solve_ivp(...)``,
and the first read imports it.  Later reads find the module in this
module's namespace and cost one attribute lookup.

Look scipy functions up at call time, as above: a name bound once at import
(``solve_ivp = _numerics.integrate.solve_ivp``) keeps pointing at the
original after a tracer or a test replaces the function on the scipy module.
"""

import importlib
import math
import warnings

from .errors import BlowupError, SeriesError

_SUBMODULES = ("integrate", "interpolate", "special")
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=300)


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


def shoot(rhs, t0: float, t1: float, y0, dense: bool = False):
    """The array y(t1) of the system dy/dt = rhs(t, y) through y0 at t0:
    one DOP853 solve at rtol 1e-12, atol 1e-14, read at its last step end.
    ``dense`` returns the whole solve_ivp result instead, its step ends
    ``t``, ``y`` and its dense interpolant ``sol``, which costs three more
    RHS evaluations per step, so an endpoint shot keeps none.  A failed
    solve, as at a blowup, raises BlowupError where it stopped."""
    integrate = __getattr__("integrate")
    sol = integrate.solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=1e-12,
                              atol=1e-14, **({"dense_output": True} if dense else {}))
    if not sol.success:
        raise BlowupError(f"shooting from {t0!r} toward {t1!r} failed",
                          where=float(sol.t[-1]))
    return sol if dense else sol.y[:, -1]
