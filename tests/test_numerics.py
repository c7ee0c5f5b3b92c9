"""scipy is loaded on first use, through ``cae._numerics``.

Commands that never call scipy must not import it, and the numeric
commands must still work from a fresh interpreter, where nothing else has
imported scipy first.  The scipy entry points are looked up at call time,
so a replacement installed on the scipy module sees every call, and every
quadrature checks the error estimate it gets back.
"""

import ast
import collections
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from scipy import integrate, optimize

import cae
from cae import _numerics
from cae.canard import angular_canard_value
from cae.cli import main
from cae.errors import SeriesError
from cae.series import CombinedSeries, TaylorPoly, antiderivative
from cae.turning import ODESpec, inner_expansion
from cae.validate import bounded_solution_quadrature
from test_golden import CASES, GOLDEN, INPUTS
from test_series import u_minus

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
    ["expand", "--spec", str(INPUTS / "nl_p2_exact.json"), "--order", "8"],
    ["resonance", "--alpha", "1", "--beta", "2", "--p", "2"],
    ["canard", "unionjack", "--tol", "1e-8"],
    ["canard", "angular", "--eps", "0.01,0.02,0.04"],
    ["canard", "criterion", "--spec", str(INPUTS / "control.json"), "--order", "4"],
    ["gevrey", "fit", "--coeffs", str(INPUTS / "norms.csv"), "--p", "2"],
    ["--help"],
], ids=["expand-exact", "expand-float", "expand-nonlinear", "resonance",
        "canard-unionjack", "canard-angular", "canard-criterion", "gevrey-fit", "help"])
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


def test_nonlinear_validate_loads_no_interpolate():
    # apply_j rays are cubic-Hermite tables of cae's own: the nonlinear
    # validate golden, the one that reads them, loads scipy.special alone
    proc = _fresh(["-c", PROBE, json.dumps(CASES["validate_nl_p2_exact"])])
    assert proc.returncode == 0, proc.stderr
    rc, loaded = json.loads(proc.stdout)
    assert rc == 0
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.interpolate")]


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


def test_canard_calls_shoot_not_scipy(scipy_calls, solve_spans):
    angular_canard_value(0.02)
    assert scipy_calls == {}
    # one batched solve per round: the first-round nodes, then refinement
    assert 1 <= len(solve_spans) <= 3


_SHOOT_WORK = {  # golden case: (most shoot calls, most Taylor steps)
    "canard_unionjack": (2, 25),
    "canard_angular": (2, 10),
    "validate_nl_p2_exact": (1, 10),
}


@pytest.mark.parametrize("case", sorted(_SHOOT_WORK))
def test_shoot_work_of_the_goldens(monkeypatch, case):
    # the shoot calls and Taylor steps of the golden commands that shoot:
    # close-in anchors on 16-term tails, one batched truth shot for every
    # eps of a nonlinear table, and one angular shot per round for all |eps|
    shoot, taylor, n = _numerics.shoot, _numerics._taylor, [0, 0]

    def counting(*args, **kwargs):
        n[0] += 1
        return shoot(*args, **kwargs)

    def stepping(*args):
        n[1] += 1
        return taylor(*args)

    monkeypatch.setattr(_numerics, "shoot", counting)
    monkeypatch.setattr(_numerics, "_taylor", stepping)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(CASES[case]) == 0
    calls, steps = _SHOOT_WORK[case]
    assert n[0] <= calls and n[1] <= steps, n


def test_only_numerics_names_scipy_integration_or_quadrature():
    # every other module reaches scipy through _numerics, and solves an ODE
    # or a quadrature only through _numerics.shoot and _numerics.quad;
    # shoot is cae's own, so no module, _numerics included, names solve_ivp
    banned = {"scipy", "integrate", "solve_ivp", "quad"}
    for path in sorted(Path(SRC, "cae").glob("*.py")):
        if path.name == "_numerics.py":
            assert "solve_ivp" not in path.read_text()
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = {(node.module or "").split(".")[0]}
                names |= {a.name for a in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                is_wrapper = (node.attr == "quad" and isinstance(node.value, ast.Name)
                              and node.value.id == "_numerics")
                names = set() if is_wrapper else {node.attr}
            else:
                continue
            assert not names & banned, (path.name, node.lineno, names & banned)


def test_reduced_nonlinear_leading_calls_shoot_once(scipy_calls, solve_spans):
    tame = ODESpec(p=2, h={(0, 0): Fraction(1, 10)},
                   P={(0, 1, 0): Fraction(1, 10)})
    inner_expansion(tame, 2, -1)
    assert scipy_calls == {}
    assert solve_spans == [(-8.0, 0.0)]


_QUAD_RESULTS = {  # id suffix: (what quad returns, the refusal it causes)
    "": ((1.0, 1.0), r"est\. error 1\.00e\+00"),
    "-nan-nan": ((math.nan, math.nan), r"value nan, est\. error nan"),
    "-nan-0": ((math.nan, 0.0), r"value nan, est\. error 0\.00e\+00"),
}


@pytest.mark.parametrize("site, result, match", [
    pytest.param(site, result, match, id=site + suffix)
    for suffix, (result, match) in _QUAD_RESULTS.items()
    for site in ("truth", "antiderivative")])
def test_quadrature_refuses_a_large_error_estimate(monkeypatch, site, result,
                                                   match):
    """Every quadrature checks QUADPACK's value and error estimate: a value
    of 1 with an estimated error of 1 is refused, not returned, and so is
    a NaN value, whatever its estimate."""
    monkeypatch.setattr(integrate, "quad", lambda *a, **k: result)
    with pytest.raises(SeriesError, match=match):
        if site == "truth":
            bounded_solution_quadrature(TaylorPoly([0, 0, 1]),
                                        lambda t: 1.0 + t, 0.01, -0.5, -1)
        else:
            y = CombinedSeries(2, 2, fast=[u_minus()])
            antiderivative(y, 0)[0].fast[1](-2.0)
