"""The one door to scipy: its submodules, imported on first use.

Importing scipy costs more than some commands (``cae expand`` on a y-linear
spec, ``cae resonance``, ``cae --help``) spend on their work, and they never
call it.  So no other cae module imports scipy; each reads the submodule it
needs as an attribute of this one, ``_numerics.integrate.quad(...)``, and
the first read imports it.  Later reads find the module in this module's
namespace and cost one attribute lookup.

Look scipy functions up at call time, as above: a name bound once at import
(``quad = _numerics.integrate.quad``) keeps pointing at the original after
a tracer or a test replaces the function on the scipy module.
"""

import importlib

_SUBMODULES = ("integrate", "interpolate", "optimize", "special")


def __getattr__(name: str):
    """Import scipy.<name> on its first read (PEP 562); store it here, so
    that later reads do not come back."""
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"scipy.{name}")
    globals()[name] = module
    return module
