"""Ground-truth machinery tests."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from cae._numerics import shoot
from cae.cli import _load_spec, _truth_for
from cae.errors import BlowupError, SeriesError
from cae.series import TaylorPoly, evaluate_partial_sum
from cae.special import ExponentCapError
from cae.turning import (
    ODESpec,
    closed_form_series,
    combined_from_matching,
    inner_expansion,
)
from cae.validate import (
    bounded_solution_quadrature,
    check_grid,
    error_scaling,
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


class TestPreAsymptoticSlot:
    """The benchmark's validate-linear table on h = 1/3 + x/6 - 5 eps x,
    p = 2 (seed 2005, cycle 2, slot 6) reads an order-2 slope of 1.69.
    Its order-5 sup errors are 1e-17 at every eps, so the truth matches the
    finite exact series; the order-2 errors fall by 1.64, 1.83 and 1.92 per
    halving of eps, so the table is pre-asymptotic.  The truth is pinned
    here at three of its points."""

    EPS = (0.010230921603215785, 0.0051154608016078925, 0.0025577304008039463,
           0.0012788652004019731)

    @pytest.mark.parametrize("i, j", [(0, 0), (21, 1), (63, 3)])
    def test_truth_matches_mpmath(self, i, j):
        mpmath = pytest.importorskip("mpmath")
        x, eps = float(np.linspace(-0.639, 0.0, 64)[i]), self.EPS[j]
        g = lambda t, eps=eps: 1 / 3 + t / 6 - 5 * eps * t
        got = bounded_solution_quadrature(F2, g, eps, x, -1)
        with mpmath.workdps(30):
            X, E = mpmath.mpf(x), mpmath.mpf(eps)
            scale = min(mpmath.sqrt(E), E / (2 * abs(X))) if x else mpmath.sqrt(E)
            ref = mpmath.quad(
                lambda s: mpmath.exp(s * (2 * X - s) / E)
                * (mpmath.mpf(1) / 3 + (X - s) / 6 - 5 * E * (X - s)),
                [0] + [scale * 4 ** n for n in range(6)] + [mpmath.inf])
        assert abs(got - ref) <= 1e-12 * abs(ref)


class TestOdeSolve:
    """``_numerics.shoot``, the one integrator, at its endpoint and dense."""

    def test_exponential(self):
        sol = shoot([(1.0, 0, 1)], 0.0, [1.0], [1.0], dense=True)
        assert sol(1.0)[0, 0] == pytest.approx(math.e, abs=1e-15)
        assert sol(0.5)[0, 0] == pytest.approx(math.exp(0.5), abs=1e-15)
        assert sol.derivative()(0.5)[0, 0] == pytest.approx(math.exp(0.5), abs=1e-14)
        assert shoot([(1.0, 0, 1)], 0.0, [1.0], [1.0])[-1, 0] == sol(1.0)[0, 0]

    def test_invariant_zero_solution(self):
        terms = [(1.0, 0, 3), (-1.0, 2, 1)]  # Y (Y - X) (Y + X)
        assert abs(shoot(terms, -10.0, [10.0], [0.0])[-1, 0]) < 1e-12

    def test_reduced_connection_value_finite_negative(self):
        # V' = TV + V^2 + D inward from the tail start -D/T: for moderate D
        # the value at 0 is finite negative and stable under moving the
        # anchor out
        D = 0.5
        terms = [(1.0, 1, 1), (1.0, 0, 2), (D, 0, 0)]  # T V + V^2 + D
        vals = []
        for T_far in (10.0, 14.0):
            v0 = -D / T_far + (D - D * D) / T_far ** 3
            vals.append(shoot(terms, T_far, [0.0], [v0])[-1, 0])
        assert vals[0] < 0 and math.isfinite(vals[0])
        assert vals[0] == pytest.approx(vals[1], abs=1e-6)

    def test_reduced_connection_pole_at_unit_control(self):
        # at D = 1 the decaying branch of V' = TV + V^2 + D is exactly -1/T
        # (check: substitute).  T = sqrt(2) X, V = Y / sqrt(2) turns it into
        # the reduced equation Y' = 2XY + 2 + Y^2, whose decaying solution
        # -1/X runs into the pole at the origin; rounding puts the computed
        # pole just before it, where the Taylor coefficients overflow
        D = 1.0
        for T in (10.0, 3.0, 1.0):
            assert (-1.0 / T) ** 2 + T * (-1.0 / T) + D == pytest.approx(1.0 / T ** 2)
        pole = ODESpec(p=2, h={(0, 0): 2}, P={(0, 1, 0): 1})
        with pytest.raises(BlowupError, match=r"reduced inner solution blows up "
                                              r"at X=-1\.\d+e-10 before the origin"):
            inner_expansion(pole, 2, -1)

    def test_blowup_flagged(self):
        with pytest.raises(BlowupError) as exc:
            shoot([(1.0, 0, 2)], 0.0, [3.0], [1.0])
        assert exc.value.where == pytest.approx(1.0, abs=1e-4)

    def test_blowup_names_its_member(self):
        # y' = y^2 through y0 runs to a pole at t = 1/y0: member 1 (y0 = 2)
        # blows up near t = 0.5, long before member 0 (y0 = 0.5) at 2
        with pytest.raises(BlowupError) as exc:
            shoot([(1.0, 0, 2)], 0.0, [1.0], [0.5, 2.0])
        assert exc.value.member == 1
        assert exc.value.where == pytest.approx(0.5, abs=1e-4)
        # y' = y^3 - y^2 at y0 = 1e200 overflows to inf - inf at once: the
        # NaN step makes every member's end value NaN, yet member 1 is named
        with pytest.raises(BlowupError) as exc:
            shoot([(1.0, 0, 3), (-1.0, 0, 2)], 0.0, [1.0], [0.5, 1e200, 0.25])
        assert exc.value.member == 1

    def test_batch_of_stiffnesses(self):
        # y' = a (y - t) + 1 through y(0) = 1 is y = t + exp(a t); the
        # stiffest member sets every step, and each member keeps its own
        # closed form
        a = np.array([1.0, -5.0, -50.0, -400.0])
        terms = [(a, 0, 1), (-a, 1, 0), (1.0, 0, 0)]
        stops = [0.25, 0.5, 1.0]
        got = shoot(terms, 0.0, stops, np.ones(a.size))
        for t, row in zip(stops, got):
            for ai, y in zip(a, row):
                want = t + math.exp(ai * t)
                assert abs(y - want) <= 1e-15 * abs(want), (ai, t)

    def test_linear_problem_matches_quadrature(self):
        # variation-of-constants oracle on eps y' = 2xy + eps g
        eps = 0.5
        g = lambda t: t + 1.0
        y0 = bounded_solution_quadrature(F2, g, eps, -2.0, -1)
        terms = [(2.0 / eps, 1, 1), (1.0, 1, 0), (1.0, 0, 0)]  # (2xy + eps g) / eps
        want = bounded_solution_quadrature(F2, g, eps, -0.5, -1)
        assert shoot(terms, -2.0, [-0.5], [y0])[-1, 0] == pytest.approx(want, rel=1e-10)


EPS_GRID = [0.1, 0.05, 0.025, 0.0125]
X_GRID = np.linspace(-1.0, 0.0, 33)


def _truth_factory(g):
    return lambda x, eps: bounded_solution_quadrature(F2, g, eps, x, -1)


class TestErrorScaling:
    def test_truth_equals_partial_sum_is_degenerate(self):
        series = closed_form_series(TaylorPoly([1, 1]), 4)
        truth = lambda x, eps: evaluate_partial_sum(series, x, math.sqrt(eps), 4)
        tab = error_scaling(series, truth, EPS_GRID, X_GRID, 4)
        assert tab.degenerate and tab.slope is None

    def test_example1_order2_slope(self):
        series = closed_form_series(TaylorPoly([1, 1]), 6)
        tab = error_scaling(series, _truth_factory(lambda t: t + 1.0),
                            EPS_GRID, X_GRID, 2)
        assert not tab.degenerate
        assert tab.slope == pytest.approx(2.0, abs=0.05)

    def test_example1_higher_orders_hit_termination(self):
        # the expansion for g = x+1 terminates at order 2, so N = 3, 4
        # leave float-noise errors: flagged degenerate, bound vacuous
        series = closed_form_series(TaylorPoly([1, 1]), 6)
        for N in (3, 4):
            tab = error_scaling(series, _truth_factory(lambda t: t + 1.0),
                                EPS_GRID, X_GRID, N)
            assert tab.degenerate

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
        # error would give rows of 0 and a degenerate table read as correct
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

    @pytest.mark.parametrize("eps_list", [[0.08, 0.02, 0.0], [0.08, 0.02, -0.01],
                                          [0.08, math.nan, 0.02], [math.inf, 0.08, 0.02]])
    def test_eps_not_finite_and_positive_refused(self, eps_list):
        # eps = 0 would divide the span check by zero, and a NaN passes the
        # ordering and span checks: both are refused before any truth
        series = closed_form_series(TaylorPoly([1, 1]), 4)

        def no_truth(x, eps):
            raise AssertionError("truth computed for a refused eps")

        bad = next(e for e in eps_list if not 0 < e < math.inf)
        with pytest.raises(SeriesError, match=re.escape(
                f"eps values must be finite and positive, got {bad!r}")):
            error_scaling(series, no_truth, eps_list, X_GRID, 2)

    def test_zero_sup_error_refused_unless_degenerate(self):
        # at eps = 1e-300 the quadrature truth of p2_exact (about 8.9e-151
        # at x = 0) and its order-1 partial sum underflow to 0 at every
        # grid point, so no slope can be read from the table
        spec = _load_spec(str(Path(__file__).parent / "golden" / "inputs" / "p2_exact.json"))
        series = combined_from_matching(spec, 2, -1)
        grid = np.linspace(-1.0, 0.0, 4)
        truth = _truth_for(spec, series, -1, grid, [0.08, 0.02, 1e-300])
        assert truth(0.0, 1e-300) == 0.0
        with pytest.raises(SeriesError, match=r"sup error 0 at eps=1e-300 in a "
                                              r"table that is not degenerate"):
            error_scaling(series, truth, [0.08, 0.02, 1e-300], grid, 1)
        tab = error_scaling(series, truth, [0.08, 0.02, 0.005], grid, 1)
        assert not tab.degenerate and isinstance(tab.slope, float)

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
    @staticmethod
    def _against_odefun(lo, eps_list, checked):
        # the eps of ``checked`` read off one batched truth over eps_list on
        # lo:0:8, against mpmath's Taylor ODE solver at 25 digits, started
        # from the same series value a quarter beyond the grid's outer edge
        mpmath = pytest.importorskip("mpmath")
        spec = _load_spec(str(Path(__file__).parent / "golden" / "inputs"
                              / "nl_p2_exact.json"))
        series = combined_from_matching(spec, 4, -1)
        grid = np.linspace(lo, 0.0, 8)
        truth = _truth_for(spec, series, -1, grid, eps_list)
        for eps in checked:
            y0 = evaluate_partial_sum(series, lo - 0.25, math.sqrt(eps))
            with mpmath.workdps(25):
                e = mpmath.mpf(eps)
                # eps y' = 2x y + eps - x y^2 / 2
                ref = mpmath.odefun(lambda x, y: (2 * x * y + e - x * y * y / 2) / e,
                                    mpmath.mpf(lo - 0.25), mpmath.mpf(y0))
                for x in grid:
                    y = float(ref(mpmath.mpf(float(x))))
                    assert abs(truth(x, eps) - y) <= 1e-15 * max(1.0, abs(y)), (eps, x)

    @pytest.mark.parametrize("eps", [0.08, 0.04, 0.02])
    def test_mpmath_oracle(self, eps):
        # the grid and eps of the nonlinear golden table: each eps is one
        # member of the table's batched shot
        self._against_odefun(-0.7, [0.08, 0.04, 0.02], [eps])

    def test_mpmath_oracle_smallest_eps(self):
        # the eps of the CLI tests down to the smallest, where the linear
        # part is stiffest (p t / eps up to 120) and sets the batch's steps,
        # on the grid whose shot starts at -0.75; from -1 the series would
        # be read at X = -8.9, beyond the flow grid
        eps_list = [0.1, 0.05, 0.025, 0.0125]
        self._against_odefun(-0.5, eps_list, eps_list)
