"""Command-line interface tests: exit codes, schemas, determinism."""

import argparse
import json
import math

import numpy as np
import pytest
from scipy import integrate

from cae.cli import build_parser, main

EX1 = {"p": 2, "h": [{"j": 0, "l": 0, "c": 1}, {"j": 1, "l": 0, "c": 1}]}
E1 = {"p": 4, "h": [{"j": 0, "l": 0, "c": -4}],
      "P": [{"j": 1, "k": 1, "l": 0, "c": -1}], "r": 1}
NL = {"p": 2, "h": [{"j": 0, "l": 0, "c": 1.0}],  # strictly quasi-homogeneous
      "P": [{"j": 1, "k": 1, "l": 0, "c": -0.5}]}
CONTROL = {"p": 4, "h": [{"j": 1, "l": 0, "c": 3}], "control": True}
EXPAND = ["expand", "--order", "4"]
CRITERION = ["canard", "criterion"]


def _h_spec(c):
    """A p = 2 spec whose one h entry has the coefficient ``c``."""
    return {"p": 2, "h": [{"j": 0, "l": 0, "c": c}]}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_resonance_ok(self, tmp_path, capsys):
        rc = main(["resonance", "--alpha", "1", "--beta", "2", "--p", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["condition"] is True
        assert out["D"] == 2.0
        assert out["Z0"] == [-1.0, 0.0, 1.0]
        assert out["riccati_residual"] < 1e-10

    def test_resonance_negative_case(self, capsys):
        rc = main(["resonance", "--alpha", "1", "--beta", "2", "--p", "4"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["condition"] is False and out["Z0"] is None

    def test_expand_feasibility_failure_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, E1)
        rc = main(["expand", "--spec", spec, "--order", "3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "pole order 3 at n=1 exceeds" in err

    def test_missing_spec_exits_1(self, tmp_path, capsys):
        rc = main(["expand", "--spec", str(tmp_path / "nope.json"), "--order", "3"])
        assert rc == 1

    def test_schema_violation_exits_1(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"p": 2, "bogus": []})
        rc = main(["expand", "--spec", spec, "--order", "3"])
        assert rc == 1

    def test_usage_error(self, capsys):
        assert main(["expand"]) == 1

    @pytest.mark.parametrize("argv", [
        ["--xgrid=-1:0:0"],                          # empty grid
        ["--xgrid=0:1:5"],                           # growth side of minus
        ["--xgrid=-1:0.5:5"],                        # partly on the growth side
        ["--xgrid=-1:0:5", "--side", "plus"],        # growth side of plus
        ["--xgrid=nan:0:5"],
        ["--xgrid=-1:0"], ["--xgrid=-1:0:-3"], ["--xgrid=-1:0:2.5"],
    ])
    def test_validate_bad_grid_exits_1(self, argv, tmp_path, capsys,
                                       monkeypatch):
        def no_truth(*a, **k):
            raise AssertionError("truth computed for a refused grid")

        monkeypatch.setattr("cae.cli.combined_from_matching", no_truth)
        monkeypatch.setattr("cae.cli.bounded_solution_quadrature", no_truth)
        spec = write_spec(tmp_path, EX1)
        rc = main(["validate", "--spec", spec, "--orders", "1,2,3",
                   "--eps", "0.04,0.02,0.01,0.005"] + argv)
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["validate", "--orders", "a", "--eps", "0.04,0.02"],
        ["validate", "--orders", "1,2", "--eps", "0.04,x,0.01"],
        ["validate", "--orders", "", "--eps", "0.04,0.02"],
        ["validate", "--orders", "1,2", "--eps", ","],
        ["canard", "angular", "--eps", "x"],
    ])
    def test_bad_number_lists_exit_1(self, argv, tmp_path, capsys, monkeypatch):
        def no_work(*a, **k):
            raise AssertionError("work started on a refused list")

        monkeypatch.setattr("cae.cli.combined_from_matching", no_work)
        monkeypatch.setattr("cae.cli.angular_canard_value", no_work)
        if argv[0] == "validate":
            argv = argv + ["--spec", write_spec(tmp_path, EX1), "--xgrid=-1:0:5"]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv, text, match", [
        pytest.param(argv + ["--spec", "{file}"], json.dumps(doc), match, id=name)
        for name, argv, doc, match in (
            ("spec-missing-c", EXPAND, {"p": 2, "h": [{"j": 0, "l": 0}]},
             "integer j, l and a coefficient c"),
            ("spec-zero-denominator", EXPAND, _h_spec("1/0"), "'1/0'"),
            ("spec-not-a-number", EXPAND, _h_spec("x"), "'x'"),
            ("spec-list", EXPAND, [EX1], "a JSON object"),
            ("spec-float-p", EXPAND, dict(EX1, p=2.0), "p and r must be integers"),
            ("spec-float-index", EXPAND,
             {"p": 2, "h": [{"j": 0.5, "l": 0, "c": 1}]}, "integer j, l"),
            ("spec-bool-c", EXPAND, _h_spec(True), "True"),
            ("spec-nan-c-expand", EXPAND, _h_spec(math.nan), "nan"),
            ("spec-nan-c-validate", ["validate", "--orders", "1,2",
                                     "--eps", "0.04,0.02,0.01", "--xgrid=-1:0:5"],
             _h_spec(math.nan), "nan"),
            ("spec-f-not-a-list", EXPAND, dict(EX1, f=5), "normalized"),
            ("spec-f-not-normalized", EXPAND, dict(EX1, f=[0, 1]), "normalized"),
            ("spec-control-string", CRITERION, dict(CONTROL, control="no"),
             "control must be true or false"),
            ("criterion-negative-order", CRITERION + ["--order", "-2"], CONTROL,
             "order -2 is negative"),
            ("expand-nan-tol", EXPAND + ["--tol", "nan"], EX1, "tol"),
            ("expand-negative-tol", EXPAND + ["--tol", "-1"], EX1, "tol"),
        )
    ] + [
        pytest.param(["gevrey", "fit", "--coeffs", "{file}", "--p", "2"],
                     "1.0\n2.5\nabc\n", "line 3", id="gevrey-not-a-number"),
        pytest.param(["gevrey", "fit", "--coeffs", "{file}", "--p", "2"],
                     "1\n2\nnan\n4\n5\n6\n7\n", "finite", id="gevrey-nan-norm"),
        pytest.param(["gevrey", "fit", "--coeffs", "{file}", "--p", "0"],
                     "1\n2\n3\n4\n5\n6\n", "p=0", id="gevrey-p0"),
        pytest.param(["canard", "criterion"], None, "--spec", id="criterion-no-spec"),
    ] + [
        pytest.param(["resonance", "--alpha", a, "--beta", b, "--p", "2"], None,
                     "finite", id=f"resonance-{a}-{b}")
        for a, b in (("1", "nan"), ("1", "inf"), ("inf", "2"))
    ] + [
        pytest.param(["special", "U", "--p", "2", "--x", "-3", "--depth", "-3"],
                     None, "depth", id="special-negative-depth"),
        pytest.param(["expand", "--order", "-2", "--spec", "{file}"],
                     json.dumps(EX1), "order -2 is negative", id="expand-negative-order"),
    ])
    def test_bad_input_exits_1(self, argv, text, match, tmp_path, capsys):
        """Input from outside that no command can use is refused with
        ``error: ...`` and exit 1: no traceback, no output."""
        if text is not None:
            path = tmp_path / "input"
            path.write_text(text)
            argv = [str(path) if a == "{file}" else a for a in argv]
        rc = main(argv)
        out, err = capsys.readouterr()
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and match in err, err

    @pytest.mark.parametrize("orders", ["-1", "2,-1"])
    def test_validate_negative_order_exits_1(self, orders, tmp_path, capsys):
        spec = write_spec(tmp_path, EX1)
        rc = main(["validate", "--spec", spec, "--orders", orders,
                   "--eps", "0.04,0.02,0.01", "--xgrid=-1:0:3"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == "" and err.startswith("error: ")

    def test_validate_grid_ending_at_zero_accepted(self, tmp_path, capsys):
        for grid, side in (("-1:0:5", "minus"), ("0:1:5", "plus")):
            spec = write_spec(tmp_path, EX1)
            rc = main(["validate", "--spec", spec, "--orders", "2",
                       "--eps", "0.1,0.05,0.025", "--xgrid", grid,
                       "--side", side])
            assert rc == 0
            assert capsys.readouterr().out.startswith("N,eps,sup_error,slope\n")


class TestOutputs:
    def test_expand_series_document(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EX1)
        out_path = tmp_path / "series.json"
        rc = main(["expand", "--spec", spec, "--order", "5",
                   "--out", str(out_path)])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["p"] == 2 and doc["N"] == 5
        assert doc["slow"][2] == ["-1/2"]
        assert doc["fast"][1]["tail"][0] == "-1/2"

    def test_expand_past_sixteen_tail_terms(self, tmp_path, capsys):
        # h = 1 + x + x^3 at order 19 checks the outer pole x^-17
        spec = write_spec(tmp_path, {"p": 2, "h": [
            {"j": 0, "l": 0, "c": 1}, {"j": 1, "l": 0, "c": 1},
            {"j": 3, "l": 0, "c": 1}]})
        rc = main(["expand", "--spec", spec, "--order", "19"])
        out, err = capsys.readouterr()
        assert rc == 0, err
        doc = json.loads(out)
        assert len(doc["fast"][1]["tail"]) == 17

    def test_special_csv(self, capsys):
        rc = main(["special", "U", "--p", "2", "--k", "1",
                   "--sigma", "minus", "--x", "-10"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[1] == "M,partial,abs_diff"
        rows = [l.split(",") for l in lines[2:]]
        # partial sums converge: the |diff| column decreases
        diffs = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))
        assert float(rows[2][1]) == pytest.approx(0.0497537, abs=1e-7)

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_special_non_finite_exits_1(self, x, capsys):
        rc = main(["special", "U", "--p", "2", "--x", x])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("x", ["0", "-0.0", "1e-30"])
    def test_special_zero_exits_1(self, x, capsys):
        # the tail partial sums run in powers of 1/X, which overflow here
        rc = main(["special", "U", "--p", "2", "--x", x])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_gevrey_fit_csv(self, tmp_path, capsys):
        from scipy.special import gamma

        path = tmp_path / "norms.csv"
        path.write_text("\n".join(
            str(float(gamma(n / 2 + 1)) * 2.0 ** n) for n in range(10)
        ))
        rc = main(["gevrey", "fit", "--coeffs", str(path), "--p", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["L1"] == pytest.approx(2.0, rel=1e-6)
        assert out["C"] == pytest.approx(1.0, rel=1e-6)

    def test_canard_criterion(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {
            "p": 2, "h": [{"j": 2, "l": 0, "c": 1}], "control": True,
        })
        rc = main(["canard", "criterion", "--spec", spec, "--order", "4"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["grading"] == "eta"
        assert out["alphas"][2] == pytest.approx(-0.5, abs=1e-12)

    def test_canard_unionjack_measured_diagnostics(self, capsys):
        rc = main(["canard", "unionjack", "--tol", "1e-3"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(out) == {"value", "iterations", "residuals"}
        assert set(out["residuals"]) == {"mismatch", "anchor"}
        assert abs(out["value"] - 0.36217594111186) <= 1e-3
        # the two bracket ends and at least one interior mismatch evaluation
        assert isinstance(out["iterations"], int)
        assert 3 <= out["iterations"] <= 10
        assert 0 <= out["residuals"]["mismatch"] < 1e-2
        assert out["residuals"]["anchor"] < 1e-6

    @pytest.mark.parametrize("argv", [
        ["unionjack", "--tol", "nan"],
        ["unionjack", "--tol", "inf"],
        ["unionjack", "--tol", "1e-13"],
        ["angular", "--tol", "nan"],
        ["angular", "--eps", "nan"],
    ])
    def test_canard_bad_numbers_exit_1(self, argv, capsys):
        rc = main(["canard"] + argv)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")

    def test_canard_angular(self, capsys):
        rc = main(["canard", "angular", "--eps", "0.02", "--tol", "1e-10"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["values"][0]["eps"] == 0.02
        assert out["values"][0]["value"] == pytest.approx(-1.0798045e-3, rel=1e-4)

    def test_canard_angular_one_root_per_abs_eps(self, capsys, solve_spans):
        runs = []
        for eps in ("0.028", "0.028,-0.028"):
            solve_spans.clear()
            assert main(["canard", "angular", "--eps", eps]) == 0
            runs.append((len(solve_spans),
                         json.loads(capsys.readouterr().out)))
        (n_one, one), (n_pair, pair) = runs
        assert n_one == n_pair > 0
        values = [v["value"] for v in pair["values"]]
        assert [v["eps"] for v in pair["values"]] == [0.028, -0.028]
        assert values[0] == values[1] == one["values"][0]["value"]

    def test_validate_table(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EX1)
        out_path = tmp_path / "table.csv"
        rc = main(["validate", "--spec", spec, "--orders", "2",
                   "--eps", "0.1,0.05,0.025,0.0125", "--xgrid", "-1:0:17",
                   "--out", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "N,eps,sup_error,slope"
        last = lines[-1].split(",")
        assert last[0] == "2"
        assert float(last[3]) == pytest.approx(2.0, abs=0.05)


    def test_validate_nonlinear_one_shot_chain_per_eps(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, NL)
        shots = []
        solve = integrate.solve_ivp

        def recording(fun, t_span, y0, **kwargs):
            sol = solve(fun, t_span, y0, **kwargs)
            shots.append((tuple(t_span), list(y0), kwargs, sol.y[:, -1].tolist()))
            return sol

        def refuse(*args, **kwargs):
            raise AssertionError("ode_solve called")

        monkeypatch.setattr(integrate, "solve_ivp", recording)
        monkeypatch.setattr("cae.validate.ode_solve", refuse)
        monkeypatch.setattr("cae.turning.ode_solve", refuse)
        out_path = tmp_path / "table.csv"
        rc = main(["validate", "--spec", spec, "--orders", "2,3,4",
                   "--eps", "0.1,0.05,0.025,0.0125", "--xgrid", "-0.5:0:8",
                   "--out", str(out_path)])
        assert rc == 0
        # per eps, one chain of shots from beyond the grid's outer edge
        # through each grid point in turn, each starting where the last
        # one ended, read at the step end: DOP853 without dense output
        stops = [-0.75] + np.linspace(-0.5, 0.0, 8).tolist()
        assert [span for span, *_ in shots] == list(zip(stops, stops[1:])) * 4
        for i, (_span, y0, kwargs, _y1) in enumerate(shots):
            assert kwargs == {"method": "DOP853", "rtol": 1e-12, "atol": 1e-14}
            if i % 8:
                assert y0 == shots[i - 1][3]
        rows = [l.split(",") for l in out_path.read_text().splitlines()[1:]]
        slopes = {int(r[0]): float(r[3]) for r in rows if r[3]}
        assert all(slopes[n] >= n - 0.3 for n in (2, 3, 4))

    def test_validate_blown_up_truth_refused(self, tmp_path, capsys):
        # y' = (2x y + eps + 30 x y^2)/eps runs to -infinity before x = -1
        # at eps = 0.8; the capped value must not be read as a truth
        spec = write_spec(tmp_path, {"p": 2, "h": [{"j": 0, "l": 0, "c": 1}],
                                     "P": [{"j": 1, "k": 1, "l": 0, "c": 30}]})
        rc = main(["validate", "--spec", spec, "--orders", "1,2",
                   "--eps", "0.8,0.4,0.2", "--xgrid=-1:0:5"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert out == ""
        assert err.startswith("error: ")
        assert "x=-1.0" in err and "eps=0.8" in err


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        spec = write_spec(tmp_path, EX1)
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            rc = main(["expand", "--spec", spec, "--order", "6",
                       "--out", str(path)])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_stamp_only_on_request(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EX1)
        main(["expand", "--spec", spec, "--order", "3"])
        plain = capsys.readouterr().out
        assert "stamp" not in plain
        main(["expand", "--spec", spec, "--order", "3", "--stamp"])
        stamped = json.loads(capsys.readouterr().out)
        assert "version" in stamped["stamp"]

    def test_threads_env_keeps_output_stable(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, EX1)
        results = []
        for threads in ("1", "4"):
            monkeypatch.setenv("CAE_THREADS", threads)
            path = tmp_path / f"t{threads}.csv"
            rc = main(["validate", "--spec", spec, "--orders", "2,3",
                       "--eps", "0.1,0.05,0.025", "--xgrid", "-1:0:9",
                       "--out", str(path)])
            assert rc == 0
            results.append(path.read_bytes())
        assert results[0] == results[1]


class TestParserReuse:
    """main() keeps one parser per process; no call may see state left
    behind by an earlier one."""

    def _run(self, argv, capsys, out_path):
        """(exit code, stdout, text written to out_path) of one call."""
        rc = main(argv)
        written = None
        if out_path.exists():
            written = out_path.read_text()
            out_path.unlink()
        return rc, capsys.readouterr().out, written

    def test_chain_matches_isolated_calls(self, tmp_path, capsys):
        spec = write_spec(tmp_path, EX1)
        bad = write_spec(tmp_path, E1, "e1.json")
        out_path = tmp_path / "out.json"
        chain = [
            ["expand", "--spec", spec, "--order", "3", "--stamp"],
            ["expand", "--spec", spec, "--order", "3"],
            ["expand", "--spec", spec, "--order", "4", "--out", str(out_path)],
            ["expand", "--spec", spec, "--order", "4"],
            ["canard", "unionjack", "--tol", "1e-6", "--mirror"],
            ["canard", "unionjack", "--tol", "1e-6"],
            ["expand", "--order", "3"],                    # usage error
            ["expand", "--spec", bad, "--order", "3"],     # check failure
            ["resonance", "--alpha", "1", "--beta", "2", "--p", "2", "--stamp"],
            ["resonance", "--alpha", "1", "--beta", "2", "--p", "2"],
            ["special", "U", "--p", "2", "--x", "-3", "--out", str(out_path)],
            ["special", "U", "--p", "2", "--x", "-3"],
        ]
        chained = [self._run(argv, capsys, out_path) for argv in chain]
        alone = []
        for argv in chain:
            build_parser.cache_clear()
            alone.append(self._run(argv, capsys, out_path))
        assert [rc for rc, _o, _w in chained] == [0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0]
        assert chained == alone
        assert "stamp" in chained[0][1] and "stamp" not in chained[1][1]
        assert chained[2][1] == "" and chained[2][2] == chained[3][1]

    def test_parser_built_once(self, monkeypatch, capsys):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        try:
            assert main(["resonance", "--alpha", "1", "--beta", "2", "--p", "2"]) == 0
            per_build = len(progs)
            for _ in range(4):
                assert main(["resonance", "--alpha", "1", "--beta", "2",
                             "--p", "4"]) == 0
                assert main(["expand"]) == 1
        finally:
            build_parser.cache_clear()
        assert progs.count("cae") == 1
        assert len(progs) == per_build == 7  # the parser and its 6 subparsers
