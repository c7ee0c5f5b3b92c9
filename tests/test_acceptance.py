"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma

from cae.canard import angular_canard_value, canard_control_series, union_jack_connection
from cae.errors import InfeasibleError
from cae.gevrey import gevrey_fit
from cae.resonance import ResonanceCase, condition_check, riccati_leading_check, z0_polynomial
from cae.series import (
    AsymTail,
    CombinedSeries,
    FastFn,
    TaylorPoly,
    extract_inner,
    extract_outer,
    reconstruct_from_matching,
)
from cae.special import eval_u, tail_of_j_series
from cae.turning import (
    ODESpec,
    closed_form_series,
    control_expansion,
    dac_feasibility,
    outer_expansion,
)
from cae.validate import bounded_solution_quadrature, error_scaling
from test_gevrey import _eta_norms, _outer_data, _remainders


def report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_union_jack_value():
    t0 = time.perf_counter()
    c0 = union_jack_connection(tol=1e-8).value
    elapsed = time.perf_counter() - t0
    ok = abs(c0 - 0.3621759411) <= 1e-6 and elapsed < 30.0
    report(1, ok,
           f"union jack c0 = {c0:.10f} (reference 0.3621759411, "
           f"|diff| = {abs(c0 - 0.3621759411):.2e} <= 1e-6), "
           f"runtime {elapsed:.1f}s < 30s")


def test_criterion_2_control_value_anchor():
    # eps y' = 4x^3 y + eps(g + alpha), g = 3x^2 + 3x
    spec = ODESpec(p=4, h={(1, 0): 3, (2, 0): 3}, control=True)
    alphas = canard_control_series(spec, 5)
    eps = 0.25
    alpha_at = sum(a * eps ** (n / 4) for n, a in enumerate(alphas))
    # quadrature oracle for the series coefficient: alpha(eps) =
    # -int e^(-t^4/eps) g / int e^(-t^4/eps) = coeff * sqrt(eps)
    num, _ = integrate.quad(lambda t: math.exp(-t ** 4) * 3 * (t * t + t),
                            -math.inf, math.inf)
    den, _ = integrate.quad(lambda t: math.exp(-t ** 4), -math.inf, math.inf)
    oracle_coeff = -num / den
    closed = -3.0 * gamma(0.75) / gamma(0.25)
    ok = (
        abs(alpha_at - (-0.507)) <= 2e-3
        and abs(alphas[2] - oracle_coeff) <= 1e-6
        and abs(oracle_coeff - closed) <= 1e-12
    )
    report(2, ok,
           f"alpha(1/4) = {alpha_at:.6f} (anchor -0.507 +- 2e-3); series "
           f"coefficient {alphas[2]:.9f} vs quadrature oracle "
           f"{oracle_coeff:.9f} (= -3*Gamma(3/4)/Gamma(1/4) ~ -1.013968)")


def test_criterion_3_special_function_anchor():
    val = eval_u(2, 1, -1, -10.0)
    three_term = -1 / (2 * -10.0) + 1 / (4 * (-10.0) ** 3) - 3 / (8 * (-10.0) ** 5)
    u = tail_of_j_series(2, TaylorPoly([Fraction(1)]), 5)
    poly, tail = TaylorPoly.part(u), AsymTail.part(u)
    want = [Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-3, 8)]
    got = [tail.coefficient(m) for m in range(1, 6)]
    ok = abs(val - three_term) <= 1e-6 and poly.is_zero() and got == want
    report(3, ok,
           f"eval_u(2,1,-,-10) = {val:.9f} vs three-term {three_term:.9f} "
           f"(|diff| = {abs(val - three_term):.2e} <= 1e-6); "
           f"tail_of_j_series(p=2, v=1) = {[str(c) for c in got]} exactly")


def test_criterion_4_error_scaling_slopes():
    t0 = time.perf_counter()
    F = TaylorPoly([0, 0, 1])
    series = closed_form_series(TaylorPoly([1, 1]), 6)
    truth = lambda x, eps: bounded_solution_quadrature(
        F, lambda t: t + 1.0, eps, x, -1
    )
    x_grid = np.linspace(-1.0, 0.0, 33)
    eps_grid = [0.1, 0.05, 0.025, 0.0125]
    details = []
    ok = True
    for N in (2, 3, 4):
        tab = error_scaling(series, truth, eps_grid, x_grid, N)
        if tab.degenerate:
            # the expansion for g = x+1 terminates at order 2 (the bounded
            # branch is eta U^-(x/eta) - eps/2 exactly), so higher sums
            # leave float noise and the O(eta^N) bound holds vacuously
            details.append(f"N={N}: noise floor "
                           f"(max err {max(e for _, e in tab.rows):.1e})")
        else:
            good = abs(tab.slope - N) <= 0.3
            ok = ok and good
            details.append(f"N={N}: slope {tab.slope:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(4, ok, "; ".join(details) + f"; runtime {elapsed:.1f}s < 60s")


def _random_series(rng, exact):
    N = rng.randrange(2, 6)

    def coeff():
        if exact:
            return Fraction(rng.randrange(-63, 64), 64)
        return rng.uniform(-1, 1)

    slow = [TaylorPoly([coeff() for _ in range(rng.randrange(0, 4))])
            for _ in range(N)]
    fast = [FastFn.from_tail([coeff() for _ in range(6)], complete=True)
            for _ in range(N)]
    return CombinedSeries(2, N, slow, fast)


def test_criterion_5_matching_round_trip():
    rng = random.Random(2024)
    checked = 0
    for i in range(20):
        exact = i < 10
        y = _random_series(rng, exact)
        outer = [extract_outer(y, n) for n in range(y.N)]
        inner = [extract_inner(y, n) for n in range(y.N)]
        back = reconstruct_from_matching(outer, inner, y.p,
                                         tol=0 if exact else 1e-9)
        for n in range(y.N):
            if exact:
                assert back.slow[n] == y.slow[n]
                assert back.fast[n].tail == y.fast[n].tail
            else:
                for m, (a, b) in enumerate(zip(
                        back.slow[n].coeffs, y.slow[n].coeffs)):
                    assert abs(a - b) <= 1e-9
                for m in range(1, 7):
                    assert abs(back.fast[n].tail.coefficient(m)
                               - y.fast[n].tail.coefficient(m)) <= 1e-9
        checked += 1
    report(5, checked == 20,
           "extract/reconstruct identity on 20 randomized series "
           "(10 exact rational, 10 float at 1e-9)")


def test_criterion_6_obstruction_detection():
    e1 = ODESpec(p=4, h={(0, 0): -4}, P={(1, 1, 0): -1})
    out = outer_expansion(e1, 5)
    v1_ok = out.orders[1].coefficient(-3) == 1 and out.orders[1].pole_order == 3
    poles_ok = out.pole_orders[1:6] == tuple(5 * n - 2 for n in range(1, 6))
    with pytest.raises(InfeasibleError) as feas:
        dac_feasibility(out)
    feas_ok = feas.value.n == 1
    # derived recursion oracle a_n = (1/4) sum a_k a_(n-k)
    a = [None, Fraction(1)]
    for n in range(2, 6):
        a.append(Fraction(1, 4) * sum(a[k] * a[n - k] for k in range(1, n)))
    leads = [out.orders[n].coefficient(-(5 * n - 2)) for n in range(1, 6)]
    lead_ok = leads == a[1:6] and all(l > 0 for l in leads)
    expected = [Fraction(1), Fraction(1, 4), Fraction(1, 8), Fraction(5, 64)]
    ok = v1_ok and poles_ok and feas_ok and lead_ok and leads[:4] == expected
    report(6, ok,
           f"v1 = x^-3; pole orders {out.pole_orders[1:6]} = 5n-2; "
           f"feasibility fails at n={feas.value.n} ({feas.value}); leading "
           f"coefficients {[str(l) for l in leads[:4]]} positive")


def test_criterion_7_resonance():
    table = [(1, 2, 2, True), (1, 3, 2, True), (1, 2, 4, False),
             (1, 2.5, 2, False)]
    table_ok = all(
        condition_check(ResonanceCase(a, b, p)) is exp
        for a, b, p, exp in table
    )
    z22 = z0_polynomial(ResonanceCase(1, 2, 2))
    z32 = z0_polynomial(ResonanceCase(1, 3, 2))
    z_ok = z22 == TaylorPoly([-1, 0, 1]) and z32 == TaylorPoly([0, -3, 0, 1])
    grid = [3.0, -3.0, 5.0, -5.0, 10.0, -10.0]
    res = max(riccati_leading_check(ResonanceCase(1, 2, 2), grid),
              riccati_leading_check(ResonanceCase(1, 3, 2), grid))
    ok = table_ok and z_ok and res < 1e-10
    report(7, ok,
           f"truth table ok; Z0(1,2,2) = X^2-1, Z0(1,3,2) = X^3-3X exact; "
           f"max Riccati residual {res:.2e} < 1e-10")


def test_criterion_8_angular_canard():
    a = angular_canard_value(0.02)
    b = angular_canard_value(-0.02)
    even_ok = abs(a - b) < 1e-9
    eps_list = [0.01, 0.02, 0.04]
    vals = [abs(angular_canard_value(e)) for e in eps_list]
    slope = float(np.polyfit(np.log(eps_list), np.log(vals), 1)[0])
    slope_ok = abs(slope - 2.0) <= 0.1
    report(8, even_ok and slope_ok,
           f"|c(0.02) - c(-0.02)| = {abs(a - b):.2e} < 1e-9; "
           f"log-log slope {slope:.3f} = 2.0 +- 0.1")


def test_criterion_9_control_series_cross_oracle():
    spec = ODESpec(p=2, h={(2, 0): 1}, control=True)
    eta_alphas = canard_control_series(spec, 6)
    exact_ok = abs(eta_alphas[2] - (-0.5)) <= 1e-12 and all(
        abs(a) <= 1e-12 for n, a in enumerate(eta_alphas) if n != 2
    )
    rng = random.Random(99)
    rand_ok = True
    for _ in range(5):
        g = [rng.uniform(-2, 2) for _ in range(5)]
        s = ODESpec(p=2, h={(j, 0): c for j, c in enumerate(g) if c != 0},
                    control=True)
        eta = canard_control_series(s, 10)
        eps = control_expansion(TaylorPoly(g), 2, 5).alphas
        for n in range(5):
            rand_ok = rand_ok and abs(eta[2 * n] - float(eps[n])) <= 1e-9
        rand_ok = rand_ok and all(abs(x) <= 1e-12 for x in eta[1::2])
    report(9, exact_ok and rand_ok,
           "moment method vs pole-free recursion: g = x^2 gives "
           "alpha(eps) = -eps/2 exactly; 5 random quartics agree to 1e-9")


def test_criterion_10_gevrey():
    # the divergent outer series of p2_exact at x = -1: its norms are
    # Gevrey with L1 = 1/|x| per power of eta, and its optimal truncation
    # is off the bounded solution by half the least term
    _spec, v, _truth = _outer_data("p2_exact", -1.0)
    fit = gevrey_fit(_eta_norms(v, 2), 2)
    fit_ok = abs(fit.L1 - 1.0) <= 0.05
    ratios = [r / least for _eps, r, least in _remainders("p2_exact", -1.0)]
    half_ok = all(0.49 <= q <= 0.51 for q in ratios)
    report(10, fit_ok and half_ok,
           f"outer series of p2_exact at x = -1: gevrey_fit L1 = {fit.L1:.4f} "
           f"within 5% of 1; remainder / least term = "
           f"{', '.join(f'{q:.4f}' for q in ratios)} in [0.49, 0.51] "
           f"(eps = 0.2, 0.1, 0.05)")
