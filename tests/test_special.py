"""Special-function and flow-map tests; quadrature oracles are recomputed
inline with scipy so the expectations never depend on the code under test."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma

from cae.errors import SeriesError
from cae.series import BasisTerm, Laurent, TaylorPoly
from cae import special
from cae.special import (
    ExponentCapError,
    apply_j,
    eval_u,
    flow_residual,
    gauss_moment,
    tail_of_j,
    u_tail,
)
from cae.turning import ODESpec, combined_from_matching


class TestEvalU:
    def test_origin_p2(self):
        oracle, _ = integrate.quad(lambda T: math.exp(-T * T), -math.inf, 0)
        assert oracle == pytest.approx(math.sqrt(math.pi) / 2, abs=1e-13)
        assert eval_u(2, 1, -1, 0.0) == pytest.approx(oracle, abs=1e-12)

    def test_far_negative_matches_three_term_tail(self):
        three_term = -1 / (2 * -10.0) + 1 / (4 * (-10.0) ** 3) - 3 / (8 * (-10.0) ** 5)
        assert three_term == pytest.approx(0.0497537, abs=1e-7)
        assert eval_u(2, 1, -1, -10.0) == pytest.approx(three_term, abs=1e-6)

    def test_origin_p4(self):
        oracle, _ = integrate.quad(lambda T: math.exp(-T ** 4), 0, math.inf)
        assert oracle == pytest.approx(float(gamma(1.25)), abs=1e-12)
        assert eval_u(4, 1, -1, 0.0) == pytest.approx(oracle, abs=1e-10)

    def test_p4_quadrature_cross_check(self):
        # independent direct quadrature at an interior point
        X = -1.3
        oracle, _ = integrate.quad(
            lambda T: math.exp(X ** 4 - T ** 4) * T, -math.inf, X
        )
        assert eval_u(4, 2, -1, X) == pytest.approx(oracle, rel=1e-9)

    def test_plus_side(self):
        X = 2.0
        oracle, _ = integrate.quad(
            lambda T: math.exp(X * X - T * T), X, math.inf
        )
        assert eval_u(2, 1, 1, X) == pytest.approx(-oracle, rel=1e-11)

    def test_symmetry(self):
        # U_k^+(-X) = (-1)^k U_k^-(X); k=1 is the odd-reflection case
        for X in (-3.0, -1.0, -0.2):
            assert eval_u(2, 1, 1, -X) == pytest.approx(-eval_u(2, 1, -1, X), rel=1e-12)
        for X in (-2.0, -0.5):
            for k in (1, 2, 3):
                assert eval_u(4, k, 1, -X) == pytest.approx(
                    (-1) ** k * eval_u(4, k, -1, X), rel=1e-9, abs=1e-12
                )

    def test_growth_side_continuation(self):
        # sigma=- evaluated at X>0 keeps solving the flow equation
        X = 1.1
        h = 1e-5
        der = (eval_u(2, 1, -1, X + h) - eval_u(2, 1, -1, X - h)) / (2 * h)
        assert der == pytest.approx(2 * X * eval_u(2, 1, -1, X) + 1.0, rel=1e-7)

    def test_growth_side_continuation_p4(self):
        X = 1.05
        h = 1e-5
        der = (eval_u(4, 1, -1, X + h) - eval_u(4, 1, -1, X - h)) / (2 * h)
        assert der == pytest.approx(4 * X ** 3 * eval_u(4, 1, -1, X) + 1.0,
                                    rel=1e-6)

    def test_overflow_guard(self):
        with pytest.raises(ExponentCapError):
            eval_u(2, 1, -1, 40.0)

    def test_validation(self):
        with pytest.raises(SeriesError):
            eval_u(3, 1, -1, 0.0)
        with pytest.raises(SeriesError):
            eval_u(4, 4, -1, 0.0)

    @pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf,
                                   np.array([-1.0, math.nan])])
    def test_non_finite_rejected(self, X):
        for p in (2, 4):
            with pytest.raises(SeriesError):
                eval_u(p, 1, -1, X)

    @pytest.mark.parametrize("p", [4, 6])
    def test_mpmath_oracle(self, p):
        # the defining integral at 20 digits, split into one-signed pieces
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp

        def oracle(k, sigma, X):
            X = mpmath.mpf(X)
            x = abs(X) ** p
            if k % 2 == 0 and sigma * X < 0:
                # odd integrand: its full-line integral vanishes, so
                # U_k^sigma = U_k^-sigma, on whose decay side X lies
                sigma = -sigma
            layer = [mpmath.mpf(0)] + [4 ** i / (p * abs(X) ** (p - 1) + 1)
                                       for i in range(7)]
            if sigma * X >= 0:
                T = lambda s: X + sigma * s
                return -sigma * mp.quad(
                    lambda s: mp.exp(x - T(s) ** p) * T(s) ** (k - 1),
                    layer + [mp.inf])
            # odd k past 0: the moment and the segment 0..X add up
            moment = mp.quad(lambda s: mp.exp(-s ** p) * s ** (k - 1),
                             [0, 1, mp.inf])
            seg = sorted([abs(X) - t for t in layer if t < abs(X)] + [0])
            rise = mp.quad(lambda s: mp.exp(x - s ** p) * s ** (k - 1), seg)
            return -sigma * (mp.exp(x) * moment + rise)

        edge = special.EXP_CAP ** (1 / p) * (1 - 1e-9)
        # both sides up to the exponent cap, and the decay side beyond it
        grid = list(np.linspace(-edge, edge, 9)) + [-1.5 * edge, 1.5 * edge]
        for k in range(1, p):
            for sigma in (-1, 1):
                for X in grid:
                    if k % 2 and sigma * X < -edge:
                        continue
                    with mpmath.workdps(20):
                        want = float(oracle(k, sigma, X))
                    got = eval_u(p, k, sigma, X)
                    assert got == pytest.approx(want, rel=1e-12), (k, sigma, X)

    def test_even_k_growth_side(self):
        # U_2^-(2) at p = 6 = -e^64 int_2^inf e^(-T^6) T dT: no cancellation
        X = 2.0
        oracle, _ = integrate.quad(
            lambda T: math.exp(X ** 6 - T ** 6) * T, X, math.inf,
            epsabs=0, epsrel=1e-13)
        assert eval_u(6, 2, -1, X) == pytest.approx(-oracle, rel=1e-11)
        assert eval_u(6, 2, -1, X) == pytest.approx(eval_u(6, 2, 1, X), rel=1e-15)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_arrays_match_scalars(self, p):
        X = np.array([[-3.0, -1.1, 0.0], [0.4, 1.05, 2.5]])
        for k in range(1, p):
            for sigma in (-1, 1):
                grid = X[np.abs(X) ** p < special.EXP_CAP]
                got = eval_u(p, k, sigma, grid)
                assert got.shape == grid.shape
                assert got == pytest.approx([eval_u(p, k, sigma, x) for x in grid],
                                            rel=1e-15)
        with pytest.raises(ExponentCapError):
            eval_u(4, 1, -1, np.array([-1.0, 6.0]))


class TestTailOfJ:
    def test_v_one_p2(self):
        poly, tail = tail_of_j(2, -1, TaylorPoly([1]), 5)
        assert poly.is_zero()
        assert [tail.coefficient(m) for m in range(1, 6)] == [
            Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-3, 8)
        ]

    def test_v_x_p2(self):
        # exact stationary solution U = -1/2 of U' = 2XU + X
        poly, tail = tail_of_j(2, -1, TaylorPoly([0, 1]), 8)
        assert poly == TaylorPoly([Fraction(-1, 2)])
        assert tail.is_zero()

    def test_v_zero(self):
        poly, tail = tail_of_j(2, -1, TaylorPoly.zero(), 8)
        assert poly.is_zero() and tail.is_zero()

    def test_tail_solves_equation_formally(self):
        # residual of the flow equation vanishes identically for any v
        v = Laurent([Fraction(-1, 3), 0, Fraction(1, 2), 0, Fraction(3)], -2)
        for p in (2, 4):
            u = special.tail_of_j_series(p, v, 14)
            resid = u.derivative() - u.shift(p - 1).scale(p) - v
            for e, c in enumerate(resid.dense, resid.offset):
                if resid.low is None or -e <= -u.low - p + 1:
                    assert c == 0, (p, -e, c)

    def test_gains_orders_with_truncated_input(self):
        v = Laurent([1.0], -1, low=-4)
        u = special.tail_of_j_series(2, v, 20)
        assert u.low == -5  # d_v + p - 1


class TestSharedTailCache:
    """BasisTerm.tail (kind "u") and u_tail read one cached series per
    (p, k, depth); the cache must change no value and hand out nothing a
    caller can alter."""

    def test_basis_tail_equals_fresh_derivation(self):
        c = Fraction(-3, 7)
        for p in (2, 4, 6):
            for k in range(1, p):
                v = Laurent([1], k - 1)
                for depth in range(21):
                    fresh = special.tail_of_j_series(p, v, depth)
                    want = tuple(c * fresh.coefficient(-m)
                                 for m in range(1, depth + 1))
                    for sigma in (-1, 1):
                        tail = BasisTerm("u", p, k, sigma, c).tail(depth)
                        assert tail.coeffs == want, (p, k, sigma, depth)
                        assert not tail.complete
                        assert all(isinstance(x, (int, Fraction))
                                   for x in tail.coeffs)

    def test_repeated_matching_derives_each_tail_once(self, monkeypatch):
        derived = Counter()
        derive = special.tail_of_j_series

        def counting(p, v, depth):
            derived[(p, v.dense, v.offset, depth)] += 1
            return derive(p, v, depth)

        monkeypatch.setattr(special, "tail_of_j_series", counting)
        monkeypatch.setattr(special, "_U_TAIL_CACHE", {})
        specs = (ODESpec(p=2, h={(0, 0): 1, (1, 0): Fraction(2, 3)}),
                 ODESpec(p=4, h={(1, 0): Fraction(3, 2), (2, 1): 1}))
        for spec in specs:
            for _ in range(3):
                for sigma in (-1, 1):
                    combined_from_matching(spec, 9, sigma)
        assert derived, "no U_k tail was derived at all"
        assert max(derived.values()) == 1, derived

    def test_cached_entry_is_immutable(self):
        t = u_tail(2, 1, depth=10)
        before = t.coeffs
        with pytest.raises(TypeError):
            t.coeffs[1] = 99
        with pytest.raises(TypeError):
            del t.coeffs[1]
        with pytest.raises(AttributeError):
            t.coeffs = {}
        with pytest.raises(AttributeError):
            t.depth = 3
        again = u_tail(2, 1, depth=10)
        assert again is t and again.coeffs == before
        tail = BasisTerm("u", 2, 1, -1, 1).tail(10)
        with pytest.raises(TypeError):
            tail.coeffs[0] = 99
        assert BasisTerm("u", 2, 1, -1, 1).tail(10) == tail


class TestApplyJ:
    def test_zero_forcing(self):
        u = apply_j(2, -1, 0.0)
        xs = np.linspace(-7, 0, 11)
        assert max(abs(u(x)) for x in xs) < 1e-12

    def test_matches_eval_u(self):
        u = apply_j(2, -1, 1.0)
        for X in (-3.0, -2.0, -1.0, -0.3):
            assert u(X) == pytest.approx(eval_u(2, 1, -1, X), abs=1e-8)

    def test_stationary_solution(self):
        # v(X) = X has the constant solution -1/2
        u = apply_j(2, -1, lambda X: X, v_series=Laurent([1], 1))
        for X in (-6.0, -2.5, -0.1):
            assert u(X) == pytest.approx(-0.5, abs=1e-9)

    def test_flow_residual_invariant(self):
        for p, v, vs in (
            (2, lambda X: 1.0, Laurent([1])),
            (2, lambda X: X * X, Laurent([1], 2)),
            (4, lambda X: 1.0 + X, Laurent([1, 1])),
        ):
            u = apply_j(p, -1, v, v_series=vs)
            assert flow_residual(u, p, v) < 1e-7

    def test_plus_side(self):
        u = apply_j(2, 1, 1.0)
        for X in (3.0, 1.0):
            assert u(X) == pytest.approx(eval_u(2, 1, 1, X), abs=1e-8)

    def test_forcing_called_once_on_node_array(self):
        calls = []

        def v(X):
            calls.append(np.shape(X))
            return 1.0 + X

        u = apply_j(4, -1, v, v_series=Laurent([1, 1]))
        assert len(calls) == 1 and len(calls[0]) == 2
        # 2047 cells, 8 Gauss-Legendre nodes each: at the default X_far no
        # cell needs splitting
        assert calls[0] == (2047, 8)
        assert flow_residual(u, 4, v) < 1e-8

    def test_steep_cells_split(self):
        # p = 6 from X_far = 6: the exponent drops by up to ~136 per cell
        for k in (1, 2, 5):
            u = apply_j(6, -1, lambda X: X ** (k - 1),
                        v_series=Laurent([1], k - 1))
            for X in (-5.5, -3.0, -1.0, -0.2):
                assert u(X) == pytest.approx(eval_u(6, k, -1, X), abs=1e-10)

    def test_tail_consistency(self):
        # |U(X) - partial_M(X)| <= 2|next term| well beyond the crossover
        u = apply_j(2, -1, 1.0)
        t = u_tail(2, 1, depth=14)
        terms = [(m, c) for m, c in enumerate(t.coeffs, start=1) if c != 0]
        for M in range(1, 6):
            kept = t.truncate(-terms[M - 1][0])
            nxt = abs(float(terms[M][1]))
            for X in (-7.5, -6.0):
                err = abs(u(X) - kept.partial_sum(X))
                bound = 2 * nxt * abs(X) ** (-terms[M][0])
                assert err <= bound, (M, X, err, bound)


class TestGaussMoment:
    def test_gaussian(self):
        assert gauss_moment(2, 0, 1.0) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_odd_vanishes(self):
        for p in (2, 4):
            for eps in (0.3, 1.0):
                assert gauss_moment(p, 1, eps) == 0.0
                assert gauss_moment(p, 3, eps) == 0.0

    def test_p4_j2(self):
        oracle, _ = integrate.quad(
            lambda t: math.exp(-t ** 4) * t * t, -math.inf, math.inf
        )
        assert gauss_moment(4, 2, 1.0) == pytest.approx(oracle, rel=1e-12)
        assert gauss_moment(4, 2, 1.0) == pytest.approx(0.5 * float(gamma(0.75)), rel=1e-14)

    @pytest.mark.parametrize("p", [2, 4, 6, 8])
    def test_mpmath_oracle(self, p):
        # the defining integral at 30 digits, broken at the layer width
        # eps^(1/p); odd moments vanish exactly
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp
        for eps in (1e-3, 0.05, 1.0, 20.0):
            w = eps ** (1.0 / p)
            pts = [w * 2 ** i for i in range(6)]
            breaks = [-mp.inf] + [-t for t in reversed(pts)] + [0] + pts + [mp.inf]
            for j in range(0, 9, 2):
                with mpmath.workdps(30):
                    e = mpmath.mpf(eps)
                    want = mp.quad(lambda t: mp.exp(-t ** p / e) * t ** j, breaks)
                assert gauss_moment(p, j, eps) == pytest.approx(float(want), rel=1e-13), (j, eps)
                assert gauss_moment(p, j + 1, eps) == 0.0

    def test_matches_quadrature_grid(self):
        # relative 1e-10 across the documented (p, j, eps) grid
        for p in (2, 4):
            for j in (0, 2, 4):
                for eps in (0.1, 1.0):
                    oracle, _ = integrate.quad(
                        lambda t: math.exp(-t ** p / eps) * t ** j,
                        -math.inf, math.inf,
                    )
                    assert gauss_moment(p, j, eps) == pytest.approx(oracle, rel=1e-10)
