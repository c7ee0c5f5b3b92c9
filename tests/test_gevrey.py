"""Gevrey fitting and least-term summation: on synthetic sequences, and
on the divergent outer series sum v_n(x) eps**n of the y-linear golden
specs, whose sum is the bounded solution."""

import functools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma

from cae.cli import _load_spec, _truth_for
from cae.errors import InsufficientTailError, SeriesError
from cae.gevrey import gevrey_fit, least_term_sum
from cae.special import u_tail
from cae.turning import outer_expansion

INPUTS = Path(__file__).parent / "golden" / "inputs"


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


class TestLeastTerm:
    def test_alternating_gamma_series_vs_least_term(self):
        coeffs = [(-1) ** n * float(gamma(n / 2 + 1)) for n in range(40)]
        eta = 0.3
        ls, n_star, least = least_term_sum(coeffs, eta)
        assert least > 0 and 15 <= n_star <= 30
        # oracle: the true resummation (B(t) = 1/(1+t)) sits within about
        # half a least term of the optimal truncation
        full, _ = integrate.quad(
            lambda t: math.exp(-(t / eta) ** 2) * 2 * t / ((1 + t) * eta ** 2),
            0, math.inf,
        )
        assert abs(full - ls) <= least

    def test_unbracketed_least_term_refused(self):
        # a smallest term with no nonzero term after it is not known to be
        # the least one: [1, 0.5] sums to 1.5, not to the 1 before its last
        # term, and 8 outer orders of p2_exact at x = -1, eps = 0.05 are
        # still falling at n = 8, while 60 orders put the least term at 21
        with pytest.raises(InsufficientTailError, match="n=1"):
            least_term_sum([1.0, 0.5], 1.0)
        with pytest.raises(InsufficientTailError, match="n=1"):
            least_term_sum([1.0, 0.5, 0.0], 1.0)
        spec = _load_spec(str(INPUTS / "p2_exact.json"))
        with pytest.raises(InsufficientTailError, match="n=8"):
            least_term_sum(_outer_values(spec, 8, -1), 0.05)
        _s, n_star, least = least_term_sum(_outer_values(spec, 60, -1), 0.05)
        assert n_star == 21 and least == pytest.approx(7.272e-11, rel=1e-3)

    def test_zero_series(self):
        assert least_term_sum([0.0, 0.0], 0.5) == (0.0, 0, 0.0)


def _outer_values(spec, N, x):
    """[v_n(x)] for n = 0..N from the exact outer recursion."""
    return [float(v(Fraction(x))) for v in outer_expansion(spec, N).orders]


# (spec, x) and three eps from each, halving, over which the optimal
# truncation index n* runs 6, 11, 21; the exponent of the remainder is
# |x|**p / eps, so eps scales with |x|**p
OUTER = {
    ("p2_exact", -1.0): (0.2, 0.1, 0.05),
    ("p2_exact", -0.5): (0.05, 0.025, 0.0125),
    ("p4_exact", -1.0): (0.2, 0.1, 0.05),
    ("p4_exact", -0.5): (0.0125, 0.00625, 0.003125),
}


@functools.cache
def _outer_data(name, x):
    """One golden spec, its outer coefficients v_0..v_60 at x and the
    truth(x, eps) of its bounded solution."""
    spec = _load_spec(str(INPUTS / f"{name}.json"))
    return spec, _outer_values(spec, 60, x), _truth_for(spec, None, -1, [x], OUTER[name, x])


def _eta_norms(v, p):
    """|v_n| at index p*n and 0 between: the norms of sum v_n eps**n read
    as a series in eta = eps**(1/p)."""
    norms = [0.0] * (p * (len(v) - 1) + 1)
    norms[::p] = [abs(c) for c in v]
    return norms


@functools.cache
def _remainders(name, x):
    """[(eps, r, least)]: the remainder r of the optimal truncation against
    the truth, and the least term, at each eps of OUTER."""
    _spec, v, truth = _outer_data(name, x)
    rows = []
    for eps in OUTER[name, x]:
        s, _n, least = least_term_sum(v, eps)
        rows.append((eps, abs(truth(x, eps) - s), least))
    return rows


@pytest.mark.parametrize("name, x", list(OUTER), ids=[f"{n}-x{x}" for n, x in OUTER])
class TestOuterSeries:
    """The Gevrey layer on the paper's own data: the outer series of a
    y-linear spec at x < 0 diverges like n! / |x|**(p n) and is summed by
    the bounded solution, its remainder exponentially small in |x|**p / eps."""

    def test_gevrey_constant(self, name, x):
        # L1 = 1/|x| per power of eta
        spec, v, _truth = _outer_data(name, x)
        fit = gevrey_fit(_eta_norms(v, spec.p), spec.p)
        assert not fit.sub_gevrey
        assert fit.L1 == pytest.approx(1 / abs(x), rel=0.05)

    def test_half_least_term_remainder(self, name, x):
        for eps, r, least in _remainders(name, x):
            assert 0.49 <= r / least <= 0.51, (eps, r, least)

    def test_exponent_of_the_remainder(self, name, x):
        # r ~ C eps exp(-A/eps) with A = |x|**p
        eps, r, _least = np.array(_remainders(name, x)).T
        A = -np.polyfit(1 / eps, np.log(r / eps), 1)[0]
        assert A == pytest.approx(abs(x) ** _outer_data(name, x)[0].p, rel=0.01)

    def test_truth_against_mpmath(self, name, x):
        # the pins above read remainders down to 7e-12 off the quadrature
        # truth; 30-digit mpmath holds that truth to 1e-15
        mpmath = pytest.importorskip("mpmath")
        spec, _v, truth = _outer_data(name, x)
        p = spec.p
        with mpmath.workdps(30):
            X = mpmath.mpf(x)
            for eps in OUTER[name, x]:
                e = mpmath.mpf(eps)
                ell = e / (p * abs(X) ** (p - 1))  # width of the layer at x

                def f(s):
                    t = X - s
                    g = sum(mpmath.mpf(c.numerator) / c.denominator * t ** j * e ** l
                            for (j, l), c in spec.h.items())
                    return mpmath.exp((X ** p - t ** p) / e) * g

                want = mpmath.quad(f, [0] + [ell * 4 ** k for k in range(6)] + [mpmath.inf])
                assert abs(truth(x, eps) - float(want)) <= 1e-15, eps
