"""Ground-truth machinery tests."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cae.cli import _load_spec, _truth_for
from cae.errors import SeriesError
from cae.series import TaylorPoly, evaluate_partial_sum
from cae.special import ExponentCapError
from cae.turning import ODESpec, closed_form_series, combined_from_matching, outer_expansion
from cae.validate import (
    bounded_solution_quadrature,
    check_grid,
    error_scaling,
    exp_smallness_fit,
    ode_solve,
)

F2 = TaylorPoly([0, 0, 1])  # primitive x^2 of the field 2x


class TestBoundedSolution:
    def test_gaussian_half_integral(self):
        val = bounded_solution_quadrature(F2, lambda t: 1.0, 0.1, 0.0, -1)
        assert val == pytest.approx(math.sqrt(0.1 * math.pi) / 2, abs=1e-13)
        assert val == pytest.approx(0.2802495, abs=1e-7)

    def test_zero_forcing(self):
        assert bounded_solution_quadrature(F2, lambda t: 0.0, 0.1, -0.3, -1) == 0.0

    def test_odd_forcing_closed_form(self):
        # int_-inf^0 e^(-t^2/eps) t dt = -eps/2
        for eps in (0.1, 0.02):
            val = bounded_solution_quadrature(F2, lambda t: t, eps, 0.0, -1)
            assert val == pytest.approx(-eps / 2, rel=1e-12)

    def test_exact_solution_general_point(self):
        # for g = t+1 the bounded branch is eta U^-(x/eta) - eps/2 exactly
        from cae import special

        for x, eps in ((-0.5, 0.1), (-1.0, 0.05)):
            eta = math.sqrt(eps)
            got = bounded_solution_quadrature(F2, lambda t: t + 1.0, eps, x, -1)
            want = eta * special.eval_u(2, 1, -1, x / eta) - eps / 2
            assert got == pytest.approx(want, abs=1e-14)

    def test_quartic_relief(self):
        F4 = TaylorPoly([0, 0, 0, 0, 1])
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t ** 4 / 0.25), -math.inf, 0.0
        )
        got = bounded_solution_quadrature(F4, lambda t: 1.0, 0.25, 0.0, -1)
        assert got == pytest.approx(oracle, rel=1e-11)

    def test_non_coercive_rejected(self):
        with pytest.raises(SeriesError):
            bounded_solution_quadrature(TaylorPoly([0, 1]), lambda t: 1.0, 0.1, 0.0, -1)

    def test_overflow_guard(self):
        with pytest.raises(ExponentCapError):
            bounded_solution_quadrature(F2, lambda t: 1.0, 1e-4, 0.5, -1)


class TestOdeSolve:
    def test_exponential(self):
        tr = ode_solve(lambda t, y: y, (0.0, 1.0), 1.0, tol=1e-10)
        assert tr.final == pytest.approx(math.e, abs=1e-8)
        assert not tr.blowup
        assert tr(0.5) == pytest.approx(math.exp(0.5), abs=1e-8)

    def test_invariant_zero_solution(self):
        rhs = lambda X, Y: Y * (Y - X) * (Y + X)
        tr = ode_solve(rhs, (-10.0, 10.0), 0.0, tol=1e-10)
        assert abs(tr.final) < 1e-12

    def test_reduced_connection_value_finite_negative(self):
        # V' = TV + V^2 + D inward from the tail start -D/T: for moderate D
        # the value at 0 is finite negative and stable under moving the
        # anchor out
        D = 0.5
        rhs = lambda T, V: T * V + V * V + D
        vals = []
        for T_far in (10.0, 14.0):
            v0 = -D / T_far + (D - D * D) / T_far ** 3
            tr = ode_solve(rhs, (T_far, 0.0), v0, tol=1e-11)
            assert not tr.blowup
            vals.append(tr.final)
        assert vals[0] < 0 and math.isfinite(vals[0])
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)

    def test_reduced_connection_pole_at_unit_control(self):
        # at D = 1 the decaying branch is exactly -1/T (check: substitute),
        # so the inward integration runs into the pole at T = 0 and the
        # blowup flag must fire
        D = 1.0
        for T in (10.0, 3.0, 1.0):
            assert (-1.0 / T) ** 2 + T * (-1.0 / T) + D == pytest.approx(1.0 / T ** 2)
        tr = ode_solve(lambda T, V: T * V + V * V + D, (10.0, 0.0), -0.1,
                       tol=1e-11, cap=1e6)
        assert tr.blowup
        assert tr.t_blow == pytest.approx(0.0, abs=1e-3)

    def test_blowup_flagged(self):
        tr = ode_solve(lambda t, y: y * y, (0.0, 3.0), 1.0, tol=1e-9, cap=1e6)
        assert tr.blowup
        assert tr.t_blow == pytest.approx(1.0, abs=1e-4)

    def test_linear_problem_matches_quadrature(self):
        # variation-of-constants oracle on eps y' = 2xy + eps g
        eps = 0.5
        g = lambda t: t + 1.0
        y0 = bounded_solution_quadrature(F2, g, eps, -2.0, -1)
        rhs = lambda x, y: (2.0 * x * y + eps * g(x)) / eps
        tr = ode_solve(rhs, (-2.0, -0.5), y0, tol=1e-11)
        want = bounded_solution_quadrature(F2, g, eps, -0.5, -1)
        assert tr.final == pytest.approx(want, rel=1e-8)


EPS_GRID = [0.1, 0.05, 0.025, 0.0125]
X_GRID = np.linspace(-1.0, 0.0, 33)


def _truth_factory(g):
    return lambda x, eps: bounded_solution_quadrature(F2, g, eps, x, -1)


class TestErrorScaling:
    def test_truth_equals_partial_sum_is_degenerate(self):
        series = closed_form_series(TaylorPoly([1, 1]), 4)
        truth = lambda x, eps: evaluate_partial_sum(series, x, math.sqrt(eps), 4)
        tab = error_scaling(series, truth, EPS_GRID, X_GRID, 4)
        assert tab.degenerate
        assert tab.passes()

    def test_example1_order2_slope(self):
        series = closed_form_series(TaylorPoly([1, 1]), 6)
        tab = error_scaling(series, _truth_factory(lambda t: t + 1.0),
                            EPS_GRID, X_GRID, 2)
        assert not tab.degenerate
        assert tab.slope == pytest.approx(2.0, abs=0.05)
        assert tab.passes()

    def test_example1_higher_orders_hit_termination(self):
        # the expansion for g = x+1 terminates at order 2, so N = 3, 4
        # leave float-noise errors: flagged degenerate, bound vacuous
        series = closed_form_series(TaylorPoly([1, 1]), 6)
        for N in (3, 4):
            tab = error_scaling(series, _truth_factory(lambda t: t + 1.0),
                                EPS_GRID, X_GRID, N)
            assert tab.degenerate
            assert tab.passes()

    def test_genuine_slopes_on_nonterminating_forcing(self):
        g = TaylorPoly([1.0 / math.factorial(k) for k in range(13)])
        series = closed_form_series(g, 7)
        truth = _truth_factory(lambda t: g(t))
        slopes = {}
        for N in (2, 3, 4, 5):
            tab = error_scaling(series, truth, EPS_GRID, X_GRID, N)
            assert not tab.degenerate
            assert abs(tab.slope - N) <= 0.3, (N, tab.slope)
            slopes[N] = tab.slope
        # monotone in N (up to the documented slack)
        for N in (2, 3, 4):
            assert slopes[N + 1] >= slopes[N] - 0.1

    @pytest.mark.parametrize("bad", ["truth", "partial_sum"])
    def test_non_finite_value_refused(self, bad):
        # max() keeps the old value against a NaN, so a NaN read as an
        # error would give rows of 0 and a degenerate table that passes
        good = closed_form_series(TaylorPoly([1, 1]), 4)
        series = good.scale(math.nan) if bad == "partial_sum" else good

        def truth(x, eps):
            if bad == "truth" and x == X_GRID[5] and eps == EPS_GRID[2]:
                return math.nan
            return evaluate_partial_sum(good, x, math.sqrt(eps), 4)

        match = (r"x=-0\.84375, eps=0\.025: truth nan, partial sum \S" if bad == "truth"
                 else r"x=-1\.0, eps=0\.1: truth \S+, partial sum nan")
        with pytest.raises(SeriesError, match="non-finite value at " + match):
            error_scaling(series, truth, EPS_GRID, X_GRID, 4)

    def test_grid_validation(self):
        series = closed_form_series(TaylorPoly([1, 1]), 4)
        truth = _truth_factory(lambda t: t + 1.0)
        with pytest.raises(SeriesError):
            error_scaling(series, truth, [0.1, 0.05], X_GRID, 2)
        with pytest.raises(SeriesError):
            error_scaling(series, truth, [0.1, 0.2, 0.05, 0.0125], X_GRID, 2)

    def test_empty_grid_refused(self):
        series = closed_form_series(TaylorPoly([1, 1]), 4)

        def no_truth(x, eps):
            raise AssertionError("truth computed on an empty grid")

        for grid in ([], np.linspace(-1.0, 0.0, 0)):
            with pytest.raises(SeriesError, match="empty x-grid"):
                error_scaling(series, no_truth, EPS_GRID, grid, 2)
            with pytest.raises(SeriesError, match="empty x-grid"):
                check_grid(grid, -1)

    def test_growth_side_grid_refused(self):
        for grid, sigma in (([0.0, 0.25, 0.5], -1), ([-1.0, -0.5, 0.0], 1),
                            ([-0.5, 1e-9], -1)):
            with pytest.raises(SeriesError, match="growth side"):
                check_grid(grid, sigma)
        with pytest.raises(SeriesError, match="finite"):
            check_grid([-1.0, math.nan], -1)
        # the decaying side, x = 0 included, passes
        check_grid(np.linspace(-1.0, 0.0, 5), -1)
        check_grid(np.linspace(0.0, 1.0, 5), 1)
        check_grid([0.0], 1)


class TestNonlinearTruth:
    @pytest.mark.parametrize("eps", [0.08, 0.04, 0.02])
    def test_mpmath_oracle(self, eps):
        # the truth of the nonlinear golden table against mpmath's Taylor
        # ODE solver at 25 digits, started from the same series value at
        # x = -0.95, a quarter beyond the grid's outer edge
        mpmath = pytest.importorskip("mpmath")
        spec = _load_spec(str(Path(__file__).parent / "golden" / "inputs"
                              / "nl_p2_exact.json"))
        series = combined_from_matching(spec, 4, -1)
        grid = np.linspace(-0.7, 0.0, 8)
        truth = _truth_for(spec, series, -1, grid)
        y0 = evaluate_partial_sum(series, -0.95, math.sqrt(eps))
        with mpmath.workdps(25):
            e = mpmath.mpf(eps)
            # eps y' = 2x y + eps - x y^2 / 2
            ref = mpmath.odefun(lambda x, y: (2 * x * y + e - x * y * y / 2) / e,
                                mpmath.mpf(-0.95), mpmath.mpf(y0))
            for x in grid:
                y = float(ref(mpmath.mpf(float(x))))
                assert abs(truth(x, eps) - y) <= 2e-14 * max(1.0, abs(y))


class TestExpSmallness:
    def test_synthetic_inversion(self):
        pts = [(e, 3.0 * math.exp(-2.0 / e ** 2)) for e in (0.4, 0.35, 0.3, 0.25)]
        fit = exp_smallness_fit(pts, 2)
        assert fit.A == pytest.approx(2.0, rel=1e-6)
        assert fit.C == pytest.approx(3.0, rel=1e-6)
        assert fit.exponential

    def test_constant_flagged(self):
        pts = [(e, 0.37) for e in (0.4, 0.3, 0.25, 0.2)]
        fit = exp_smallness_fit(pts, 2)
        assert abs(fit.A) < 1e-12
        assert not fit.exponential

    def test_optimal_truncation_remainder_matches_relief_gap(self):
        # |y_quad - optimally truncated outer sum| at x = -1/2 decays like
        # exp(-A/eps) with A close to the relief value x^2 = 1/4
        spec = ODESpec(p=2, h={(0, 0): 1, (1, 0): 1})
        out = outer_expansion(spec, 40)
        x0 = Fraction(-1, 2)
        pts = []
        for eps in (0.05, 0.04, 0.03, 0.025, 0.02):
            truth = bounded_solution_quadrature(F2, lambda t: t + 1.0, eps, -0.5, -1)
            terms = [float(out.orders[n](x0)) * eps ** n for n in range(1, 40)]
            sizes = [abs(t) for t in terms]
            n_star = sizes.index(min(sizes))
            pts.append((math.sqrt(eps), abs(truth - sum(terms[:n_star]))))
        fit = exp_smallness_fit(pts, 2)
        assert fit.exponential
        assert fit.A == pytest.approx(0.25, abs=0.08)
