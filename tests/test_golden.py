"""Golden CLI outputs: stdout of a fixed set of `cae` commands, byte for byte.

tests/golden/<case>.out holds the expected stdout of each case; a refactor
that claims byte-identical output must keep them passing unchanged.  To
record a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py CASE ...`` and review the diff:
it rewrites only the named cases, or every case when none is named, and
refuses a name that is not a case.
"""

import sys
from pathlib import Path

import pytest

from cae.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _expand(name, order, side):
    return ["expand", "--spec", str(INPUTS / f"{name}.json"),
            "--order", str(order), "--side", side]


def _validate(name, orders, eps, xgrid):
    return ["validate", "--spec", str(INPUTS / f"{name}.json"),
            "--orders", orders, "--eps", eps, "--xgrid", xgrid]


CASES = {
    # exact spec and its float twin, p = 2 and 4, orders 4 / 12 / 18
    "expand_p2_exact_o4_minus": _expand("p2_exact", 4, "minus"),
    "expand_p2_float_o4_minus": _expand("p2_float", 4, "minus"),
    "expand_p2_exact_o12_plus": _expand("p2_exact", 12, "plus"),
    "expand_p2_float_o12_plus": _expand("p2_float", 12, "plus"),
    "expand_p4_exact_o18_minus": _expand("p4_exact", 18, "minus"),
    "expand_p4_float_o18_minus": _expand("p4_float", 18, "minus"),
    "expand_p4_exact_o12_plus": _expand("p4_exact", 12, "plus"),
    "expand_p4_float_o12_plus": _expand("p4_float", 12, "plus"),
    # y-nonlinear spec: numeric inner orders, printed as their formal tails
    "expand_nl_p2_exact_o8_minus": _expand("nl_p2_exact", 8, "minus"),
    # reduced inner equation nonlinear: one dense shot, its blowup check
    "expand_nl_reduced_p2_o2_minus": _expand("nl_reduced_p2", 2, "minus"),
    "canard_criterion": ["canard", "criterion", "--spec",
                         str(INPUTS / "control.json"), "--order", "5"],
    # shooting + brentq: values, measured evaluation counts and residuals
    "canard_unionjack": ["canard", "unionjack", "--tol", "1e-8"],
    "canard_angular": ["canard", "angular", "--eps", "0.01,0.02,0.04"],
    "resonance_admissible": ["resonance", "--alpha", "1", "--beta", "2",
                             "--p", "2"],
    "resonance_not_admissible": ["resonance", "--alpha", "1", "--beta", "2",
                                 "--p", "4"],
    "gevrey_fit": ["gevrey", "fit", "--coeffs", str(INPUTS / "norms.csv"),
                   "--p", "2"],
    "special_U_p2": ["special", "U", "--p", "2", "--k", "1", "--sigma",
                     "minus", "--x", "-10"],
    "special_U_p4": ["special", "U", "--p", "4", "--k", "3", "--sigma",
                     "plus", "--x", "3", "--depth", "16"],
    # error-scaling tables: y-linear exact specs (quadrature truth) and one
    # nonlinear spec (trajectory truth launched from the series)
    "validate_p2_exact": _validate("p2_exact", "1,2,3,4",
                                   "0.04,0.02,0.01,0.005", "-1:0:9"),
    "validate_p4_exact": _validate("p4_exact", "2,3,4,5",
                                   "0.02,0.01,0.005,0.0025", "-1:0:9"),
    "validate_nl_p2_exact": _validate("nl_p2_exact", "1,2,3",
                                      "0.08,0.04,0.02", "-0.7:0:8"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, capsys):
    rc = main(CASES[name])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}")
    for name in names:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(CASES[name])
        if rc != 0:
            sys.exit(f"{name}: exit code {rc}")
        (GOLDEN / f"{name}.out").write_text(buf.getvalue())
        print(f"wrote {name}.out")
