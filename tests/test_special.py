"""Special-function and flow-map tests; quadrature oracles are recomputed
inline with scipy so the expectations never depend on the code under test."""

import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gamma

from cae.errors import DomainError, SeriesError
from cae.series import AsymTail, BasisTerm, FastFn, Laurent, TaylorPoly
from cae import special
from cae._scalar import is_exact
from cae.special import (
    ExponentCapError,
    apply_j,
    eval_u,
    flow_residual,
    gauss_moment,
    tail_of_j_series,
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

    def test_past_the_double_range(self):
        # |X|^p overflows a double: the decaying and even-k values are
        # e^x Gamma(a, x)/p = |X|^(k-p)/p up to the sign, and may underflow
        for (p, k, sigma, X), want in (((4, 2, -1, 1e100), -2.5e-201),
                                       ((4, 2, 1, -1e100), -2.5e-201),
                                       ((4, 1, -1, -1e100), 2.5e-301),
                                       ((4, 3, 1, 1e100), -2.5e-101),
                                       ((6, 3, -1, -1.5e60), 1.5 ** -3 * 1e-180 / 6),
                                       ((4, 2, -1, 1e308), 0.0),
                                       ((2, 1, 1, 1e308), -5e-309)):
            assert eval_u(p, k, sigma, X) == pytest.approx(want, rel=1e-12, abs=0)
        with np.errstate(over="ignore"):
            got = eval_u(4, 1, -1, np.array([-1e100, -2.0]))
        assert got.tolist() == [2.5e-301, eval_u(4, 1, -1, -2.0)]
        # the odd-k growth side stays refused
        for p, sigma, X in ((4, -1, 1e100), (2, -1, 1e308), (4, 1, -1e308)):
            with pytest.raises(ExponentCapError):
                eval_u(p, 1, sigma, X)

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


def _u_mp(mpmath, p, k, sigma, X):
    """U_k^sigma(X) off its growth side, in mpmath: (-sigma or, for even
    k, -1) e^x Gamma(k/p, x)/p with x = |X|^p (DLMF 8.2)."""
    x = abs(mpmath.mpf(X)) ** p
    g = mpmath.exp(x) * mpmath.gammainc(mpmath.mpf(k) / p, x) / p
    return (-sigma if k % 2 else -1) * g


class TestFarField:
    """Past x = |X|^p = TAIL_FROM, off the growth side, U_k, U_k' and D' are
    their formal tails; closer in and on the growth side, their closed
    forms.  Both against 50-digit mpmath, on both sides of the switch."""

    XS = [1, 10, 60, 99, 100, 300, 699, 701, 2000, 1e5]  # values of x = |X|^p

    @staticmethod
    def _check(got, want, X, p, near_tol, far_tol):
        for Xi, g, w in zip(X, got, want):
            tol = far_tol if abs(Xi) ** p >= special.TAIL_FROM else near_tol
            assert abs(g - w) <= tol * abs(w), (Xi, float(abs(g - w) / abs(w)))

    @pytest.mark.parametrize("p", [4, 6])
    def test_values_against_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for k in range(1, p):
                for sigma in (-1, 1):
                    # the decaying side, and for even k the other side too
                    for side in (sigma, -sigma) if k % 2 == 0 else (sigma,):
                        X = np.array([side * x ** (1 / p) for x in self.XS])
                        want = [_u_mp(mpmath, p, k, sigma, Xi) for Xi in X]
                        self._check(eval_u(p, k, sigma, X), want, X, p, 3e-14, 5e-16)

    @pytest.mark.parametrize("p", [2, 4, 6])
    def test_derivatives_against_mpmath(self, p):
        mpmath = pytest.importorskip("mpmath")
        xs = self.XS + [a ** p for a in (11.9, 12.1, 20.0)]  # about the old switch
        with mpmath.workdps(50):
            for k in range(1, p):
                for sigma in (-1, 1):
                    X = np.array([sigma * x ** (1 / p) for x in xs])
                    got = FastFn.from_basis([BasisTerm("u", p, k, sigma, 1)]).derivative()(X)
                    want = [p * mpmath.mpf(Xi) ** (p - 1) * _u_mp(mpmath, p, k, sigma, Xi)
                            + mpmath.mpf(Xi) ** (k - 1) for Xi in X]
                    self._check(got, want, X, p, 5e-12, 1e-14)
            if p == 2:  # D' = 1 - 2 X D, D = (sqrt(pi)/2) e^(-X^2) erfi(X)
                X = np.array([s * x ** 0.5 for x in xs for s in (-1, 1)])
                got = FastFn.from_basis([BasisTerm("dawson")]).derivative()(X)
                want = [1 - mpmath.sqrt(mpmath.pi) * mpmath.mpf(Xi) * mpmath.exp(-mpmath.mpf(Xi) ** 2)
                        * mpmath.erfi(Xi) for Xi in X]
                self._check(got, want, X, 2, 5e-12, 1e-14)

    @pytest.mark.parametrize("p, X, X_over", [(2, 12.1, 30.0), (4, 100.5 ** 0.25, 6.0)])
    def test_growth_side_derivative(self, p, X, X_over):
        # odd k with sigma X < 0 grows like exp(X^p): past TAIL_FROM its
        # derivative is still p X^(p-1) U + 1 of the value, never the
        # decaying tail, and it is refused where the value is
        assert X ** p >= special.TAIL_FROM
        dU = FastFn.from_basis([BasisTerm("u", p, 1, -1, 1)]).derivative()
        want = p * X ** (p - 1) * eval_u(p, 1, -1, X) + 1.0
        assert dU(X) == pytest.approx(want, rel=1e-14, abs=0)
        for f in (lambda X: eval_u(p, 1, -1, X), dU):
            with pytest.raises(ExponentCapError):
                f(X_over)


class TestTailOfJ:
    def test_v_one_p2(self):
        u = tail_of_j_series(2, TaylorPoly([1]), 5)
        poly, tail = TaylorPoly.part(u), AsymTail.part(u)
        assert poly.is_zero()
        assert [tail.coefficient(m) for m in range(1, 6)] == [
            Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-3, 8)
        ]

    def test_v_x_p2(self):
        # exact stationary solution U = -1/2 of U' = 2XU + X
        u = tail_of_j_series(2, TaylorPoly([0, 1]), 8)
        poly, tail = TaylorPoly.part(u), AsymTail.part(u)
        assert poly == TaylorPoly([Fraction(-1, 2)])
        assert tail.is_zero()

    def test_v_zero(self):
        u = tail_of_j_series(2, TaylorPoly.zero(), 8)
        poly, tail = TaylorPoly.part(u), AsymTail.part(u)
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

    @staticmethod
    def _fixed_point(p, v, depth):
        """The tail by iterating U <- (U' - v)/(p X**(p-1)) until it stops
        changing, each pass rebuilding the whole series: the reference the
        one descending pass must reproduce bit for bit."""
        if v.low is not None:
            depth = min(depth, p - 1 - v.low)
        v = Laurent.part(v).truncate(-depth)
        u = Laurent((), 0, -depth)
        for _ in range((depth + v.top_degree + p) // (p - 1) + 3):
            src = (u.derivative() - v).shift(1 - p)
            u2 = Laurent([0 if c == 0 else Fraction(c, p) if is_exact(c) else c / p
                          for c in src.dense], src.offset, -depth)
            if u2 == u:
                break
            u = u2
        return u

    _exact = st.one_of(st.integers(-9, 9),
                       st.fractions(min_value=-9, max_value=9, max_denominator=12))
    _float = st.floats(-9, 9, allow_subnormal=False)

    @given(st.sampled_from((2, 4, 6)), st.booleans(),
           st.data(), st.integers(0, 6), st.integers(-6, 5),
           st.one_of(st.none(), st.integers(0, 4)), st.integers(0, 24))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_fixed_point(self, p, exact, data, n, offset, below, depth):
        coeff = self._exact if exact else self._float
        v = Laurent(data.draw(st.lists(coeff, min_size=n, max_size=n)), offset,
                    None if below is None else offset - below)
        got, want = special.tail_of_j_series(p, v, depth), self._fixed_point(p, v, depth)
        assert (got.offset, got.low) == (want.offset, want.low)
        assert [(type(c), c) for c in got.dense] == [(type(c), c) for c in want.dense]
        assert [math.copysign(1.0, c) for c in got.dense] == \
            [math.copysign(1.0, c) for c in want.dense]

    @given(st.sampled_from((2, 4, 6)),
           st.lists(_exact, min_size=1, max_size=6), st.integers(-6, 5),
           st.one_of(st.none(), st.integers(0, 4)), st.integers(0, 24))
    @settings(max_examples=100, deadline=None)
    def test_one_pass_solves_equation_exactly(self, p, coeffs, offset, below, depth):
        # p X^(p-1) u - u' + v vanishes in Fractions at every power the
        # tail determines: down to X^(p-1-depth), above what u leaves unknown
        v = Laurent(coeffs, offset, None if below is None else offset - below)
        u = special.tail_of_j_series(p, v, depth)
        assert all(is_exact(c) for c in u.dense)
        resid = u.shift(p - 1).scale(p) - u.derivative() + v
        for e in range(u.low + p - 1, max(v.top_degree, resid.top_degree) + 1):
            assert resid.coefficient(e) == 0, (p, e)


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
        u = apply_j(2, -1, lambda X: 0.0, Laurent.zero())
        xs = np.linspace(-7, 0, 11)
        assert max(abs(u(x)) for x in xs) < 1e-12

    def test_matches_eval_u(self):
        u = apply_j(2, -1, lambda X: 1.0, Laurent([1]))
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
        u = apply_j(2, 1, lambda X: 1.0, Laurent([1]))
        for X in (3.0, 1.0):
            assert u(X) == pytest.approx(eval_u(2, 1, 1, X), abs=1e-8)

    def test_forcing_called_once_on_node_array(self):
        calls = []

        def v(X):
            calls.append(np.shape(X))
            return 1.0 + X

        u = apply_j(4, -1, v, v_series=Laurent([1, 1]))
        assert calls == []  # the grid is stepped on first evaluation
        u(-1.0)
        assert len(calls) == 1
        # one flat array: 2047 cells, 8 Gauss-Legendre nodes each (at the
        # default X_far no cell needs splitting), then the 2048 grid points
        assert calls[0] == (2047 * 8 + 2048,)
        assert flow_residual(u, 4, v) < 1e-8

    def test_grid_stepped_once_on_first_evaluation(self, monkeypatch):
        steps = []

        def counting(*args):
            steps.append(args)
            return flow_table(*args)

        flow_table = special._flow_table
        monkeypatch.setattr(special, "_flow_table", counting)
        u = apply_j(2, -1, lambda X: 1.0 + X, v_series=Laurent([1, 1]))
        assert steps == []
        first = u(-1.0)
        assert u(np.array([-1.0, -0.5]))[0] == first
        u.derivative(-0.5)
        assert len(steps) == 1

    def test_concurrent_first_evaluations_agree(self):
        # a ray's first evaluations racing in threads give the values of a
        # ray evaluated alone
        X = np.linspace(-7.0, 0.0, 9)
        want = apply_j(2, -1, lambda X: 1.0 + X, v_series=Laurent([1, 1]))(X)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                u = apply_j(2, -1, lambda X: 1.0 + X, v_series=Laurent([1, 1]))
                with ThreadPoolExecutor(4) as pool:
                    futures = [pool.submit(u, X) for _ in range(8)]
                    got = [f.result(timeout=60) for f in futures]
                assert all(np.array_equal(g, want) for g in got)
        finally:
            sys.setswitchinterval(switch)

    def test_off_domain_refused_before_any_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid must not be stepped")

        monkeypatch.setattr(special, "_flow_table", refuse)
        u = apply_j(2, -1, lambda X: 1.0, Laurent([1]))
        assert u.domain == (-8.0, 0.0)
        with pytest.raises(DomainError, match=r"outside evaluator domain \[-8\.0, 0\.0\]"):
            u(-11.18)
        # on an array, the message names the first off-domain point alone
        with pytest.raises(DomainError,
                           match=r"^X=0\.5 outside evaluator domain \[-8\.0, 0\.0\]$"):
            u.derivative(np.array([-1.0, 0.5, 9.0]))

    @pytest.mark.parametrize("sigma", [-1, 1])
    @pytest.mark.parametrize("p, k, slope_tol", [
        (2, 1, 1e-8), (4, 1, 1e-8), (4, 2, 2e-7), (4, 3, 3e-6)])
    def test_matches_closed_form_u_k(self, p, k, slope_tol, sigma):
        # v = X^(k-1) makes the ray U_k; its derivative is the table's own,
        # against U_k' = p X^(p-1) U_k + X^(k-1) from the closed form
        u = apply_j(p, sigma, lambda X: X ** (k - 1), Laurent([1], k - 1))
        X = np.linspace(0.0, 0.98 * sigma * special._x_far(p), 301)
        want = eval_u(p, k, sigma, X)
        slope = p * X ** (p - 1) * want + X ** (k - 1)

        def rel(got, ref):
            return np.max(np.abs(got - ref) / np.maximum(1e-3, np.abs(ref)))

        assert rel(u(X), want) <= 1e-11
        assert rel(u.derivative(X), slope) <= slope_tol

    def test_steep_cells_split(self):
        # p = 6 from X_far = 6: the exponent drops by up to ~136 per cell
        for k in (1, 2, 5):
            u = apply_j(6, -1, lambda X: X ** (k - 1),
                        v_series=Laurent([1], k - 1))
            for X in (-5.5, -3.0, -1.0, -0.2):
                assert u(X) == pytest.approx(eval_u(6, k, -1, X), abs=1e-10)

    def test_tail_consistency(self):
        # |U(X) - partial_M(X)| <= 2|next term| well beyond the crossover
        u = apply_j(2, -1, lambda X: 1.0, Laurent([1]))
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
