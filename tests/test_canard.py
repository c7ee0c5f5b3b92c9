"""Canard-value tests: the connection constant, the angular value curve,
and the control series against closed-form moment oracles."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import gamma

from cae import canard
from cae.errors import SeriesError
from cae.series import TaylorPoly
from cae.canard import (
    angular_canard_value,
    canard_control_series,
    reduced_anchor_residual,
    union_jack_anchor_residual,
    union_jack_connection,
    _reduced_anchor,
    _reduced_branch,
    _reduced_tail,
    _uj_anchor,
    _uj_growing_anchor,
    _uj_mismatch,
    _uj_tail,
)
from cae.special import gauss_moment
from cae.turning import ODESpec, UnsupportedExpansionError, control_expansion

KNOWN_C0 = 0.3621759411  # reference connection constant, 10 digits
KNOWN_C0_14 = 0.36217594111197  # the same to 14 digits


@pytest.fixture(scope="module")
def c0_at_floor_tol():
    return union_jack_connection(tol=1e-12).value


class TestUnionJack:
    def test_connection_constant(self, monkeypatch):
        # the mismatch is |F(c0)| bit for bit as the round that evaluated c0
        # measured it: a shot's steps depend on its batch, so F(c0) alone
        # may differ in the last bit
        rounds = []

        def spy(c, s):
            f = _uj_mismatch(c, s)
            rounds.append((np.array(c, dtype=float), f))
            return f

        monkeypatch.setattr(canard, "_uj_mismatch", spy)
        res = union_jack_connection(tol=1e-8)
        assert res.value == pytest.approx(KNOWN_C0, abs=1e-6)
        assert abs(res.value - KNOWN_C0_14) <= 1e-8
        assert res.evaluations == len(rounds) <= 10
        assert res.mismatch in {abs(v) for c, f in rounds for v in f[c == res.value]}

    def test_one_solve_per_evaluation(self, solve_spans):
        # both legs run as one system: a mismatch evaluation is one solve
        res = union_jack_connection(tol=1e-8)
        assert len(solve_spans) == res.evaluations
        assert set(solve_spans) == {(-canard._X_FAR, 0.0)}

    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("tol", [1e-12, 1e-10, 7.46e-9, 1e-8, 1e-6, 1e-3])
    def test_root_contract(self, tol, mirror):
        # the value lies within tol of the root, the batched rounds stay
        # few, and the mismatch is F measured at the value, not interpolated
        s = -1.0 if mirror else 1.0
        res = union_jack_connection(tol=tol, mirror=mirror)
        assert abs(res.value - s * KNOWN_C0_14) <= tol
        if tol >= 7.46e-9:
            assert res.evaluations <= 3
        assert abs(res.mismatch - abs(_uj_mismatch(res.value, s=s)[0])) <= 1e-12

    def test_tail_recursion_exact(self):
        c = Fraction(1, 3)
        assert _uj_tail(c)[:4] == [c, 2 * c, c ** 3 + 10 * c,
                                   14 * c ** 3 + 80 * c]
        assert len(_uj_tail(c)) == canard._TAIL_TERMS

    @pytest.mark.parametrize("c", [Fraction(1, 3), Fraction(-7, 5)])
    def test_tail_cauchy_products_exact(self, c):
        # the cube by Cauchy products equals the triple sum term by term
        b = []
        for m in range(canard._TAIL_TERMS):
            cube = sum(b[i] * b[j] * b[m - 2 - i - j]
                       for i in range(m - 1) for j in range(m - 1 - i))
            b.append((c if m == 0 else (3 * m - 1) * b[m - 1]) + cube)
        assert _uj_tail(c) == b
        assert all(type(x) is Fraction for x in _uj_tail(c))

    def test_zero_control_stays_below(self):
        # the shooting mismatch Y_fwd(0) - Y_bwd(0) changes sign across the
        # brentq brackets: [0, 1/2], and [-1/2, 0] for the mirror problem
        assert _uj_mismatch(0.0, 1.0) < 0 < _uj_mismatch(0.5, 1.0)
        assert _uj_mismatch(-0.5, s=-1.0) < 0 < _uj_mismatch(0.0, s=-1.0)

    @pytest.mark.parametrize("c", [0.0, KNOWN_C0, 0.5])
    def test_mismatch_mpmath_oracle(self, c):
        # both legs from the program's anchors at -+X_far, by mpmath's Taylor
        # ODE solver at 25 digits; the growing leg in s = X_far - X
        mpmath = pytest.importorskip("mpmath")
        X = canard._X_FAR
        with mpmath.workdps(25):
            C = mpmath.mpf(c)
            rhs = lambda X, Y: Y ** 3 - X * X * Y + C
            fwd = mpmath.odefun(rhs, -X, mpmath.mpf(_uj_anchor(c, -X)))(0)
            bwd = mpmath.odefun(lambda s, W: -rhs(X - s, W), 0,
                                mpmath.mpf(_uj_growing_anchor(c, 1.0, X)))(X)
            want = float(fwd - bwd)
        assert abs(_uj_mismatch(c, 1.0)[0] - want) <= 1e-14

    def test_mirror_value(self, c0_at_floor_tol):
        cm = union_jack_connection(tol=1e-7, mirror=True).value
        assert cm == pytest.approx(-c0_at_floor_tol, abs=2e-7)

    def test_floor_tolerance_reference(self, c0_at_floor_tol):
        assert abs(c0_at_floor_tol - KNOWN_C0_14) < 1e-12

    def test_x_far_independence(self, c0_at_floor_tol, monkeypatch):
        monkeypatch.setattr(canard, "_X_FAR", 16.0)
        b = union_jack_connection(tol=1e-12).value
        assert abs(c0_at_floor_tol - b) < 1e-12

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8, 1e-13])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(SeriesError):
            union_jack_connection(tol=tol)

    def test_anchor_residual(self):
        assert union_jack_anchor_residual(KNOWN_C0) < 1e-8

    def test_connection_problem_record(self, monkeypatch):
        # the anchor still solves the equation farther out
        monkeypatch.setattr(canard, "_X_FAR", 10.0)
        assert union_jack_anchor_residual(KNOWN_C0) < 1e-8


class TestAngular:
    def test_zero_eps(self):
        assert angular_canard_value(0.0) == 0.0

    def test_evenness(self):
        for eps in (0.02, 0.01):
            a = angular_canard_value(eps)
            b = angular_canard_value(-eps)
            assert abs(a - b) < 1e-9

    def test_quadratic_leading_order(self):
        eps_list = [0.01, 0.02, 0.04]
        vals = [abs(angular_canard_value(e)) for e in eps_list]
        slope = np.polyfit(np.log(eps_list), np.log(vals), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)

    def test_t_far_independence(self, monkeypatch):
        monkeypatch.setattr(canard, "_T_FAR", 10.0)
        a = angular_canard_value(0.02)
        monkeypatch.setattr(canard, "_T_FAR", 16.0)
        b = angular_canard_value(0.02)
        assert abs(a - b) < 1e-10

    def test_default_t_far_at_floor_tolerance(self, monkeypatch):
        a = angular_canard_value(0.028, tol=1e-12)
        monkeypatch.setattr(canard, "_T_FAR", 16.0)
        b = angular_canard_value(0.028, tol=1e-12)
        assert abs(a - b) < 1e-13

    def test_tail_recursion_exact(self):
        D = Fraction(1, 7)
        w1, w3, w5, w7 = _reduced_tail(D)[:4]
        assert (w1, w3) == (-D, D - D * D)
        assert w5 == w3 * (2 * D - 3)
        assert w7 == -(5 + 2 * w1) * w5 - w3 * w3
        assert len(_reduced_tail(D)) == canard._TAIL_TERMS

    def test_branch_mpmath_oracle(self):
        # V_d(0, D) at three D, one batched shot, against mpmath's Taylor ODE
        # solver at 25 digits from the same anchor, in s = T_far - T
        mpmath = pytest.importorskip("mpmath")
        T, D = canard._T_FAR, np.array([-0.5, 2e-3, 0.5])
        got = _reduced_branch(D)
        for Di, v in zip(D, got):
            with mpmath.workdps(25):
                Dm = mpmath.mpf(Di)
                ref = mpmath.odefun(lambda s, V: -((T - s) * V + V * V + Dm), 0,
                                    mpmath.mpf(_reduced_anchor(Di, T)))
                want = float(ref(T))
            assert abs(v - want) <= 1e-15 * max(1.0, abs(want)), Di

    def test_reduced_anchor_residual(self):
        # at the D scale the solves actually visit
        assert reduced_anchor_residual(2e-3) < 1e-8

    def test_branch_validity_guard(self):
        with pytest.raises(SeriesError):
            angular_canard_value(0.3)

    @pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(SeriesError):
            angular_canard_value(eps)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-8, 1e-13])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(SeriesError):
            angular_canard_value(0.02, tol=tol)

    def test_independent_residual_root(self):
        ref = brentq(_independent_residual, -2e-3, -5e-4, xtol=1e-15, rtol=1e-15)
        assert abs(angular_canard_value(0.02) - ref) < 1e-10

    @pytest.mark.parametrize("eps", [0.0055, 0.028, 0.095])
    def test_root_contract(self, eps):
        # the independent residual changes sign within the root tolerance
        c = angular_canard_value(eps)
        tol = min(1e-10, 1e-3 * eps * eps)
        lo, hi = (_independent_residual(c + k * tol, eps) for k in (-1, 1))
        assert lo * hi < 0

    @pytest.mark.parametrize("eps", [0.185, 0.2, 0.24, 0.249])
    def test_bracket_clear_of_blowup(self, eps):
        # the first bracket end +8 eps^2 drives V_d into blowup here; at
        # 0.249 the end pulled in below the blowup (from about -6.5 eps^2)
        # still has the sign of the lower end, and the root lies between
        # it and the blowup
        c = angular_canard_value(eps)
        lo, hi = (_independent_residual(c + s * 1e-7, eps) for s in (-1, 1))
        assert lo * hi < 0
        low, high = (-6.9, -6.8) if eps == 0.249 else (-6, -2.5)
        assert low * eps * eps < c < high * eps * eps

    def test_root_tolerance_relative_at_tiny_eps(self):
        # c(eps) ~ -2.693 eps^2; the default absolute tol 1e-8 of the CLI
        # exceeds c itself below eps ~ 1e-4
        assert angular_canard_value(1e-5, tol=1e-8) / 1e-10 == \
            pytest.approx(-2.69315, abs=1e-4)
        assert angular_canard_value(1e-7, tol=1e-8) / 1e-14 == \
            pytest.approx(-2.693, abs=0.01)

    @pytest.mark.parametrize("eps, alone", [
        ((0.028, -0.028, 0.0124, -0.0124), (0.028,)),
        ((0.249, 0.01), (0.249,)),
    ])
    def test_batched_roots(self, eps, alone, solve_spans):
        # every distinct |eps| of a call is solved in one shot per round:
        # the ode-shaped call makes as many solves as 0.028 alone, and 0.01
        # adds none to 0.249, whose first tries blow up and pull in its top
        # end alone.  Each value lies within its root tolerance of the
        # value solved alone, and the independent residual changes sign
        # within that tolerance of it
        angular_canard_value(alone)
        shots = len(solve_spans)
        got = angular_canard_value(eps)
        assert got.shape == (len(eps),)
        assert len(solve_spans) == 2 * shots
        for e, c in zip(eps, got):
            tol = min(1e-10, 1e-3 * e * e)
            assert abs(c - angular_canard_value(e)) <= tol
            lo, hi = (_independent_residual(c + k * tol, abs(e)) for k in (-1, 1))
            assert lo * hi < 0, e

    def test_values_follow_the_shape_of_eps(self):
        # a float for a float; an array of the same shape otherwise, with
        # one root per |eps|, the same float for eps and -eps, and 0 at 0
        assert isinstance(angular_canard_value(0.02), float)
        got = angular_canard_value([[0.02, 0.0], [-0.02, 0.01]])
        assert got.shape == (2, 2)
        assert got[0, 0] == got[1, 0] and got[0, 1] == 0.0
        assert got[1, 1] == pytest.approx(angular_canard_value(0.01), abs=1e-10)

    def test_bad_eps_refused_before_any_solve(self, solve_spans):
        for eps in ([0.02, 0.3], [0.01, 1e-9]):
            with pytest.raises(SeriesError):
                angular_canard_value(eps)
        assert solve_spans == []

    @pytest.mark.parametrize("eps", [9.9e-8, -1e-8, 1e-9, 5e-324])
    def test_below_noise_floor_refused(self, eps):
        # c/eps^2 reads -2.74 at 3e-8, -2.53 at 1e-8 and -29.4 at 1e-9: the
        # mismatch sinks under the shooting's absolute noise of about 3e-17
        with pytest.raises(SeriesError, match="below 1e-07"):
            angular_canard_value(eps)


def test_close_anchors(monkeypatch):
    # the anchors sit as close in as their 16-term tails allow, X = 4.5 and
    # T = 6; moved out to X = 6 and T = 7 the Union Jack constant and the
    # angular values of the golden eps move by at most 1.2e-16
    values = []
    for X_far, T_far in ((4.5, 6.0), (6.0, 7.0)):
        monkeypatch.setattr(canard, "_X_FAR", X_far)
        monkeypatch.setattr(canard, "_T_FAR", T_far)
        values.append([union_jack_connection(tol=1e-12).value]
                      + [angular_canard_value(e, tol=1e-12) for e in (0.01, 0.02, 0.04)])
    assert np.abs(np.subtract(*values)).max() <= 1.2e-16


def _independent_residual(c, eps=0.02):
    """The angular connection residual coded apart from the library.

    V' = T V + V^2 + D decays at +infinity like sum_m w_m T^-m (m odd,
    w_1 = -D); matching powers of T gives w_m = -(m-2) w_{m-2} -
    sum_{i+j=m-1} w_i w_j.  Anchor 8 terms deep at T = 8 and shoot to 0
    with a tighter DOP853 than the library's."""
    def v0(D):
        w = [0.0, -D]
        for m in range(3, 17, 2):
            conv = sum(w[i] * w[m - 1 - i] for i in range(1, m - 1, 2))
            w += [0.0, -(m - 2) * w[m - 2] - conv]
        v8 = sum(wm * 8.0 ** -m for m, wm in enumerate(w) if m % 2)
        sol = solve_ivp(lambda T, v: T * v + v * v + D, (8.0, 0.0), [v8],
                        method="DOP853", rtol=2.5e-14, atol=1e-16)
        assert sol.success
        return sol.y[0, -1]

    total = 0.0
    for e in (eps, -eps):
        root = math.sqrt(1.0 + 4.0 * e)  # gamma^2 = 1 + 2 d
        d = 2.0 * e / (1.0 + root)  # d + d^2 = e
        total += math.sqrt(root) * v0((c - d) / root)
    return total


class TestControlSeries:
    def test_quadratic_forcing_matches_closed_form(self):
        spec = ODESpec(p=2, h={(2, 0): 1}, control=True)
        alphas = canard_control_series(spec, 6)
        # alpha(eps) = -eps/2 exactly: eta^2 coefficient -1/2, others 0
        assert alphas[2] == pytest.approx(-0.5, abs=1e-12)
        for n in (0, 1, 3, 4, 5):
            assert abs(alphas[n]) < 1e-12

    def test_fig_anchor_value(self):
        # eps y' = 4x^3 y + eps(g + alpha), g = 3x^2 + 3x
        spec = ODESpec(p=4, h={(1, 0): 3, (2, 0): 3}, control=True)
        alphas = canard_control_series(spec, 5)
        closed = -3.0 * gamma(0.75) / gamma(0.25)
        assert alphas[2] == pytest.approx(closed, abs=1e-9)
        # quadrature oracle: -moment(g)/moment(1) at eps = 1/4
        eps = 0.25
        oracle = -(3 * gauss_moment(4, 2, eps) + 3 * gauss_moment(4, 1, eps)) \
            / gauss_moment(4, 0, eps)
        val = sum(a * eps ** (n / 4) for n, a in enumerate(alphas))
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(-0.507, abs=2e-3)

    def test_odd_forcing_gives_zero_series(self):
        spec = ODESpec(p=4, h={(1, 0): 2, (3, 0): -5}, control=True)
        alphas = canard_control_series(spec, 8)
        assert all(abs(a) < 1e-14 for a in alphas)

    def test_agrees_with_p2_recursion_on_random_quartics(self):
        rng = random.Random(42)
        for _ in range(5):
            g = [rng.uniform(-2, 2) for _ in range(5)]
            spec = ODESpec(
                p=2, h={(j, 0): c for j, c in enumerate(g) if c != 0},
                control=True,
            )
            eta_alphas = canard_control_series(spec, 10)
            eps_alphas = control_expansion(TaylorPoly(g), 2, 5).alphas
            for n in range(5):
                assert eta_alphas[2 * n] == pytest.approx(
                    float(eps_alphas[n]), abs=1e-9
                )
            assert all(abs(a) < 1e-14 for a in eta_alphas[1::2])

    def test_resolved_control_makes_two_sided_solution(self):
        # with the control series resolved, the inner partial sums (which
        # terminate for quadratic forcing) reproduce the bounded solution
        # of eps y' = 4x^3 y + eps(g + alpha) on BOTH half-lines, and the
        # two branches coincide: the canard
        from cae.turning import inner_expansion
        from cae.validate import bounded_solution_quadrature

        spec = ODESpec(p=4, h={(1, 0): 3, (2, 0): 3}, control=True)
        alphas = canard_control_series(spec, 6)
        F = TaylorPoly([0, 0, 0, 0, 1])
        for eps in (0.25, 0.1):
            eta = eps ** 0.25
            alpha_val = sum(a * eta ** n for n, a in enumerate(alphas))
            sides = {s: inner_expansion(spec, 6, s, alphas=alphas) for s in (-1, 1)}
            g = lambda t: 3 * t * t + 3 * t + alpha_val
            for x in (-1.0, -0.3, 0.0, 0.3, 1.0):
                X = x / eta
                for s in (-1, 1):
                    truth = bounded_solution_quadrature(F, g, eps, x, s)
                    total = sum(
                        (sides[s].coeff(n)(X) if sides[s].coeff(n) else 0.0)
                        * eta ** n
                        for n in range(6)
                    )
                    assert abs(truth - total) < 1e-10, (eps, x, s)
                two_sided = abs(
                    bounded_solution_quadrature(F, g, eps, x, 1)
                    - bounded_solution_quadrature(F, g, eps, x, -1)
                )
                assert two_sided < 1e-10

    def test_requires_control_slot(self):
        with pytest.raises(SeriesError):
            canard_control_series(ODESpec(p=2, h={(0, 0): 1}), 3)

    def test_nonlinear_unsupported(self):
        spec = ODESpec(p=2, h={(0, 0): 1}, P={(0, 1, 1): 1}, control=True)
        with pytest.raises(UnsupportedExpansionError):
            canard_control_series(spec, 3)
