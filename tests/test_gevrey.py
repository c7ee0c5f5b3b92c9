"""Gevrey fitting and resummation tests."""

import math

import pytest
from scipy import integrate
from scipy.special import gamma

from cae.errors import SeriesError
from cae.gevrey import (
    GevreyFit,
    borel_laplace_truncated,
    borel_partial,
    borel_radius_estimate,
    gevrey_fit,
    least_term_sum,
    tail_compat_check,
)
from cae.special import u_tail


class TestGevreyFit:
    def test_synthetic_recovery(self):
        norms = [float(gamma(n / 2 + 1)) * 2.0 ** n for n in range(12)]
        fit = gevrey_fit(norms, 2)
        assert fit.L1 == pytest.approx(2.0, rel=1e-6)
        assert fit.C == pytest.approx(1.0, rel=1e-6)
        assert not fit.sub_gevrey

    def test_entire_series_flagged(self):
        fit = gevrey_fit([3.0 ** n for n in range(12)], 2)
        assert fit.sub_gevrey

    def test_scale_equivariance(self):
        norms = [float(gamma(n / 2 + 1)) * 1.5 ** n for n in range(10)]
        fit1 = gevrey_fit(norms, 2)
        fit2 = gevrey_fit([7.0 * v for v in norms], 2)
        assert fit2.L1 == pytest.approx(fit1.L1, abs=1e-12)
        assert fit2.C == pytest.approx(7.0 * fit1.C, rel=1e-12)

    def test_u_tail_is_gevrey_half(self):
        t = u_tail(2, 1, depth=24)
        mags = [0.0] * 25
        for m, c in enumerate(t.coeffs, start=1):
            mags[m] = abs(float(c))
        assert mags[1:6] == [0.5, 0.0, 0.25, 0.0, 0.375]
        fit = gevrey_fit(mags, 2)
        assert not fit.sub_gevrey
        assert 0.5 < fit.L1 < 1.5
        # against factorial (order-1) weights the data is strictly smaller
        fit_wrong = gevrey_fit(mags, 1)
        assert fit_wrong.sub_gevrey

    def test_zero_handling(self):
        assert gevrey_fit([0.0] * 8, 2).degenerate
        with pytest.raises(SeriesError):
            gevrey_fit([1.0, 2.0, 3.0], 2)


class TestTailCompat:
    def test_synthetic_grid(self):
        rows = [[float(gamma((n + m) / 2 + 1)) for m in range(1, 7)]
                for n in range(5)]
        tc = tail_compat_check(rows, 2)
        assert tc.L1 == pytest.approx(1.0, rel=1e-9)
        assert tc.L2 == pytest.approx(1.0, rel=1e-9)
        assert tc.max_ratio == pytest.approx(1.0, rel=1e-9)

    def test_single_row_reduces_to_fit(self):
        mags = [float(gamma(m / 2 + 1)) * 1.2 ** m for m in range(1, 12)]
        tc = tail_compat_check([mags], 2)
        assert tc.L2 == pytest.approx(1.2, rel=1e-6)

    def test_combined_series_tails(self):
        # tails of the simple-turning-point series for a generic forcing
        from cae.series import TaylorPoly
        from cae.turning import closed_form_series

        g = TaylorPoly([1.0, 0.5, -0.25, 2.0, 1.0 / 3])
        cs = closed_form_series(g, 5, depth=6)
        rows = []
        for n in range(5):
            t = cs.fast[n].tail
            rows.append([abs(float(t.coefficient(m))) if t.known_to(m) else 0.0
                         for m in range(1, 7)])
        tc = tail_compat_check(rows, 2)
        assert tc.max_ratio <= 1.5
        assert all(v > 0 for v in (tc.C, tc.L1, tc.L2))


class TestBorelLaplace:
    def test_precondition_on_p(self):
        with pytest.raises(SeriesError):
            borel_laplace_truncated([1.0, 1.0, 1.0], 1, 0.5, 0.3)

    def test_constant_series_incomplete_gamma(self):
        # B = 1: value is 1 - exp(-(rho/eta)^p)
        for eta in (0.5, 0.3, 0.2):
            val = borel_laplace_truncated([1.0, 0.0, 0.0], 2, 0.8, eta)
            assert val == pytest.approx(1.0 - math.exp(-(0.8 / eta) ** 2),
                                        abs=1e-13)

    def test_polynomial_reproduction(self):
        # resumming the Borel transform of a polynomial in eta recovers it
        # up to the exponential truncation error
        coeffs = [0.3, -1.0, 0.7, 0.2]
        p, rho, eta = 2, 0.9, 0.25
        val = borel_laplace_truncated(coeffs, p, rho, eta)
        direct = sum(c * eta ** n for n, c in enumerate(coeffs))
        assert abs(val - direct) < 5 * math.exp(-(rho / eta) ** 2)

    def test_alternating_gamma_series_vs_least_term(self):
        coeffs = [(-1) ** n * float(gamma(n / 2 + 1)) for n in range(40)]
        eta = 0.3
        ls, n_star, least = least_term_sum(coeffs, 2, eta)
        assert least > 0 and 15 <= n_star <= 30
        # oracle: the true resummation (B(t) = 1/(1+t)) sits within about
        # half a least term of the optimal truncation
        full, _ = integrate.quad(
            lambda t: math.exp(-(t / eta) ** 2) * 2 * t / ((1 + t) * eta ** 2),
            0, math.inf,
        )
        assert abs(full - ls) <= least
        # with rho deep enough in the Borel disk the truncated transform
        # stays within twice the least term of the optimal truncation
        val = borel_laplace_truncated(coeffs, 2, 0.9, eta)
        assert abs(val - ls) <= 2 * least
        # at rho = 0.8 the Laplace truncation error dominates; the honest
        # bound adds it explicitly
        val08 = borel_laplace_truncated(coeffs, 2, 0.8, eta)
        assert abs(val08 - ls) <= 2 * least + 2 * math.exp(-(0.8 / eta) ** 2)
        assert abs(val08 - full) < 2 * math.exp(-(0.8 / eta) ** 2)

    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("L", [1.0, -2.0])
    def test_mpmath_oracle(self, p, L):
        # a_n = (-L)^n Gamma(n/p + 1), n < N: B(t) is the geometric sum
        # (1 - (-L t)^N) / (1 + L t), alternating for L > 0 and with a pole
        # at t = 1/|L| on the positive axis for L < 0; the oracle integrates
        # that closed form at 30 digits
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        N = 24
        coeffs = [float((-L) ** n * mpmath.gamma(mpmath.mpf(n) / p + 1))
                  for n in range(N)]
        for rho_frac, eta in ((0.9, 0.3), (0.5, 0.1), (0.8, 0.5)):
            rho = rho_frac / abs(L)
            with mpmath.workdps(30):
                et = mpmath.mpf(eta)
                B = lambda t: (1 - (-L * t) ** N) / (1 + L * t)
                want = mp.quad(lambda t: mp.exp(-(t / et) ** p) * B(t)
                               * p * t ** (p - 1) / et ** p,
                               mpmath.linspace(0, rho, 5))
            got = borel_laplace_truncated(coeffs, p, rho, eta)
            assert got == pytest.approx(float(want), rel=1e-12), (rho, eta)

    def test_radius_guard(self):
        coeffs = [(-1) ** n * float(gamma(n / 2 + 1)) for n in range(40)]
        assert borel_radius_estimate(coeffs, 2) == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(SeriesError):
            borel_laplace_truncated(coeffs, 2, 1.1, 0.3)

    def test_borel_partial_values(self):
        # the Borel transform of the alternating Gamma series is the
        # geometric series in -t: compare against its partial sum exactly
        coeffs = [(-1) ** n * float(gamma(n / 2 + 1)) for n in range(40)]
        for t in (0.2, 0.5, 0.8):
            want = (1.0 - (-t) ** 40) / (1.0 + t)
            assert borel_partial(coeffs, 2, t) == pytest.approx(want, rel=1e-10)
