"""scipy is loaded on first use, through ``cae._numerics``.

Commands that never call scipy must not import it, and the numeric
commands must still work from a fresh interpreter, where nothing else has
imported scipy first.  The scipy entry points are looked up at call time,
so a replacement installed on the scipy module sees every call.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import integrate, optimize

import cae
from cae.canard import angular_canard_value
from cae.gevrey import borel_laplace_truncated
from cae.series import TaylorPoly
from cae.validate import bounded_solution_quadrature
from test_golden import CASES, GOLDEN, INPUTS

SRC = str(Path(cae.__file__).resolve().parents[1])

# runs one `cae` command in this interpreter and reports its exit code and
# the scipy modules loaded by then
PROBE = """
import contextlib, io, json, sys
from cae.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(json.loads(sys.argv[1]))
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh(args):
    """``python args...`` in a new interpreter that imports cae from SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable] + args, capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["expand", "--spec", str(INPUTS / "p2_exact.json"), "--order", "8"],
    ["expand", "--spec", str(INPUTS / "p4_float.json"), "--order", "6",
     "--side", "plus"],
    ["resonance", "--alpha", "1", "--beta", "2", "--p", "2"],
    ["--help"],
], ids=["expand-exact", "expand-float", "resonance", "help"])
def test_command_loads_no_scipy(argv):
    proc = _fresh(["-c", PROBE, json.dumps(argv)])
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    assert loaded == []


@pytest.mark.parametrize("name", ["special_U_p2", "validate_p2_exact"])
def test_numeric_command_in_fresh_interpreter(name):
    proc = _fresh(["-m", "cae.cli"] + CASES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.out").read_text()


@pytest.fixture
def scipy_calls(monkeypatch) -> collections.Counter:
    """Calls of scipy's quad, solve_ivp and brentq while the test runs,
    counted by wrappers installed on the scipy modules."""
    calls = collections.Counter()
    for module, name in ((integrate, "quad"), (integrate, "solve_ivp"),
                         (optimize, "brentq")):
        def counting(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


def test_linear_truth_calls_quad(scipy_calls):
    F = TaylorPoly([0, 0, 1])
    bounded_solution_quadrature(F, lambda t: 1.0 + t, 0.01, -0.5, -1)
    assert scipy_calls == {"quad": 1}


def test_canard_solve_calls_solve_ivp_and_brentq(scipy_calls):
    angular_canard_value(0.02)
    assert scipy_calls["brentq"] == 1
    assert scipy_calls["solve_ivp"] >= 2  # the two bracket ends at least
    assert scipy_calls["quad"] == 0


def test_borel_laplace_calls_quad(scipy_calls):
    borel_laplace_truncated([1.0, -1.0, 2.0], 2, 0.5, 0.3)
    assert scipy_calls == {"quad": 1}
