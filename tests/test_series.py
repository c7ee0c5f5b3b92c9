"""Coefficient-algebra tests.

Derived expectations are frozen from independent oracles computed in the
tests themselves (direct numeric evaluation, quadrature, closed forms).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from cae.series import (
    AsymTail,
    BasisTerm,
    CombinedSeries,
    FastFn,
    LaurentPoly,
    TaylorPoly,
    antiderivative,
    compose_left,
    differentiate,
    differentiate_with_log,
    evaluate_partial_sum,
    extract_inner,
    extract_outer,
    multiply,
    reconstruct_from_matching,
    shift_fast,
    shift_slow,
)
from cae.errors import (
    CompatibilityError,
    InfeasibleError,
    InsufficientTailError,
    MissingEvaluatorError,
    NonDifferentiableError,
    SeriesError,
)
from cae import special

U_MINUS_TAIL = [Fraction(-1, 2), 0, Fraction(1, 4), 0, Fraction(-3, 8), 0, Fraction(15, 16), 0]


def u_minus(coef=1):
    return FastFn.from_basis([BasisTerm("u", 2, 1, -1, coef)], depth=8)


rationals = st.fractions(
    min_value=Fraction(-1), max_value=Fraction(1), max_denominator=64
)


# ---------------------------------------------------------------------------
# shifts


class TestShifts:
    def test_shift_slow_linear(self):
        assert shift_slow(TaylorPoly([1, 1])) == TaylorPoly([1])

    def test_shift_slow_constant(self):
        assert shift_slow(TaylorPoly([7])) == TaylorPoly.zero()

    def test_shift_slow_quadratic(self):
        assert shift_slow(TaylorPoly([3, 2, 5])) == TaylorPoly([2, 5])

    @given(st.lists(rationals, max_size=8))
    def test_reconstruction_identity(self, coeffs):
        a = TaylorPoly(coeffs)
        back = TaylorPoly([a.coefficient(0)]) + TaylorPoly([0, 1]) * shift_slow(a)
        assert back == a

    def test_shift_fast_basic(self):
        assert shift_fast(AsymTail([2, 3, 4])) == AsymTail([3, 4])

    def test_shift_fast_u_minus(self):
        # tail of U^- for p=2 per its defining flow equation
        t = AsymTail(U_MINUS_TAIL[:5])
        assert shift_fast(t) == AsymTail([0, Fraction(1, 4), 0, Fraction(-3, 8)])

    def test_shift_fast_zero(self):
        assert shift_fast(AsymTail.zero()) == AsymTail.zero()

    def test_shift_fast_identity_numeric(self):
        # X*g(X) = g_1 + (Tg)(X) for the evaluable U^-
        g = u_minus()
        X = -3.7
        lhs = X * g(X)
        rhs = float(g.tail.coefficient(1)) + g.shift()(X)
        assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# product


class TestMultiply:
    def test_slow_x_times_exact_tail(self):
        # oracle: both sides evaluated at (x, eta) = (0.3, 0.1) equal 0.1
        y = CombinedSeries(2, 3, slow=[TaylorPoly([0, 1])])
        z = CombinedSeries(2, 3, fast=[FastFn.from_tail([1], exact=True)])
        prod = multiply(y, z)
        assert prod.slow[0].is_zero() and prod.fast[0].is_zero()
        assert prod.slow[1] == TaylorPoly([1])
        assert prod.fast[1].is_zero()
        assert prod.order_is_zero(2)
        x, eta = 0.3, 0.1
        direct = x * (1.0 / (x / eta))
        assert direct == pytest.approx(0.1)
        assert evaluate_partial_sum(prod, x, eta) == pytest.approx(direct, abs=1e-14)

    def test_scalar_multiple(self):
        y = CombinedSeries(2, 3, slow=[TaylorPoly([1, 2]), TaylorPoly([4])],
                           fast=[FastFn.zero(), FastFn.from_tail([1], exact=True)])
        c = CombinedSeries.from_scalar(2, 3, Fraction(5))
        prod = multiply(c, y)
        scaled = y.scale(Fraction(5))
        for n in range(3):
            assert prod.slow[n] == scaled.slow[n]
            assert prod.fast[n].tail == scaled.fast[n].tail

    def test_slow_x_times_u_minus(self):
        # x * U^-(x/eta) = eta*(-1/2 + (T U^-)(x/eta)) per the shift identity
        y = CombinedSeries(2, 4, slow=[TaylorPoly([0, 1])])
        z = CombinedSeries(2, 4, fast=[u_minus()])
        prod = multiply(y, z)
        assert prod.order_is_zero(0)
        assert prod.slow[1] == TaylorPoly([Fraction(-1, 2)])
        assert prod.fast[1].tail == AsymTail([0, Fraction(1, 4), 0, Fraction(-3, 8), 0, Fraction(15, 16), 0])
        # numeric consistency at a point (evaluator side)
        x, eta = -0.9, 0.3
        lhs = x * special.eval_u(2, 1, -1, x / eta)
        rhs = evaluate_partial_sum(prod, x, eta)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(
        st.lists(rationals, min_size=1, max_size=3),
        st.lists(rationals, min_size=1, max_size=3),
        st.lists(rationals, min_size=1, max_size=3),
        st.lists(rationals, min_size=1, max_size=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_product_valuation(self, a1, t1, a2, t2, s1, s2):
        N = 5
        y = CombinedSeries(2, N,
                           slow=[TaylorPoly.zero()] * s1 + [TaylorPoly(a1)],
                           fast=[FastFn.zero()] * s1 + [FastFn.from_tail(t1, exact=True)])
        z = CombinedSeries(2, N,
                           slow=[TaylorPoly.zero()] * s2 + [TaylorPoly(a2)],
                           fast=[FastFn.zero()] * s2 + [FastFn.from_tail(t2, exact=True)])
        prod = multiply(y, z)
        assert prod.valuation() >= min(N, y.valuation() + z.valuation())

    @given(
        st.lists(rationals, min_size=1, max_size=3),
        st.lists(rationals, min_size=2, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_product_numeric_consistency(self, a, t):
        # evaluator of the product equals product of evaluators (exact tails)
        N = 6
        y = CombinedSeries(2, N, slow=[TaylorPoly(a)],
                           fast=[FastFn.from_tail(t, exact=True)])
        prod = multiply(y, y)
        x, eta = 0.7, 0.25
        direct = (TaylorPoly(a)(x) + AsymTail(t, complete=True).partial_sum(x / eta)) ** 2
        # the truncated product misses orders >= N: bound them crudely
        approx = evaluate_partial_sum(prod, x, eta)
        assert abs(approx - direct) < 20 * eta ** N

    def test_mismatched_p_rejected(self):
        y = CombinedSeries(2, 2)
        z = CombinedSeries(4, 2)
        with pytest.raises(SeriesError):
            multiply(y, z)

    def test_product_truncation_decays_at_order_N(self):
        # |evaluate(y*z) - evaluate(y)*evaluate(z)| over decreasing eta
        # shrinks with log-log slope >= N - 0.3 (N the common truncation)
        import numpy as np

        N = 4
        # slow degrees exceed the order budget, so the shift expansion of
        # the mixed products genuinely truncates at order N
        y = CombinedSeries(
            2, N,
            slow=[TaylorPoly([0.3, -1.0, 0.5, 0.2, -0.6, 0.9])],
            fast=[FastFn.from_tail([0.5, -0.25, 0.125, 2.0, -0.3, 0.2], exact=True)],
        )
        z = CombinedSeries(
            2, N,
            slow=[TaylorPoly([1.0, 0.7, -0.4, 0.0, 1.5])],
            fast=[FastFn.from_tail([-0.8, 0.3, 0.2, -1.5, 0.25], exact=True)],
        )
        prod = multiply(y, z)
        x = 0.6
        etas = [0.2, 0.1, 0.05]
        diffs = []
        for eta in etas:
            lhs = evaluate_partial_sum(prod, x, eta)
            rhs = evaluate_partial_sum(y, x, eta) * evaluate_partial_sum(z, x, eta)
            diffs.append(abs(lhs - rhs))
        slope = float(np.polyfit(np.log(etas), np.log(diffs), 1)[0])
        assert slope >= N - 0.3, (slope, diffs)


# ---------------------------------------------------------------------------
# derivative and antiderivative


class TestCalculus:
    def test_termwise_rule(self):
        y = CombinedSeries(2, 3, slow=[TaylorPoly([0, 0, 1])],
                           fast=[FastFn.zero(), FastFn.from_tail([1], exact=True)])
        dy = differentiate(y)
        assert dy.slow[0] == TaylorPoly([0, 2])
        assert dy.fast[0].tail == AsymTail([0, -1], complete=True)

    def test_constant_series(self):
        y = CombinedSeries.from_scalar(2, 3, 5)
        dy = differentiate(y)
        assert all(dy.order_is_zero(n) for n in range(dy.N))

    def test_nonzero_leading_fast_rejected(self):
        y = CombinedSeries(2, 2, fast=[FastFn.from_tail([1], exact=True)])
        with pytest.raises(NonDifferentiableError):
            differentiate(y)

    def test_antiderivative_exact_inverse_square(self):
        y = CombinedSeries(2, 3, fast=[FastFn.from_tail([0, 1], exact=True)])
        Y, log = antiderivative(y, 0)
        assert log.is_zero()
        assert Y.fast[1].tail == AsymTail([-1], complete=True)

    def test_antiderivative_slow_constant(self):
        y = CombinedSeries.from_scalar(2, 2, 1)
        Y, log = antiderivative(y, 0)
        assert Y.slow[0] == TaylorPoly([0, 1])
        assert log.is_zero()

    def test_antiderivative_residue(self):
        # oracle: H_0(2) = -int_2^inf dT/(T(T^2+1)) = -0.5*ln(5/4)
        closed = -0.5 * math.log(1 + 0.25)
        quad_val, _ = integrate.quad(lambda T: 1.0 / (T * (T * T + 1.0)), 2, math.inf)
        assert -quad_val == pytest.approx(closed, abs=1e-12)

        y = CombinedSeries(2, 2, fast=[FastFn.from_tail([1], exact=True)])
        Y, log = antiderivative(y, 0)
        assert list(log.residues) == [1, 0]
        assert log.kernel_p == 2
        assert Y.fast[1](2.0) == pytest.approx(closed, abs=1e-9)

    def test_antiderivative_then_derivative_round_trip(self):
        g = u_minus()
        y = CombinedSeries(2, 4,
                           slow=[TaylorPoly([1, 2]), TaylorPoly([0, 3])],
                           fast=[FastFn.zero(), g, FastFn.from_tail([0, 1], exact=True)])
        Y, log = antiderivative(y, 0)
        dY = differentiate_with_log(Y, log)
        for n in range(y.N - 2):
            assert dY.slow[n] == y.slow[n]
            tn = dY.fast[n].tail
            for m in range(1, min(tn.depth, y.fast[n].tail.depth) + 1):
                assert float(tn.coefficient(m)) == pytest.approx(
                    float(y.fast[n].tail.coefficient(m)), abs=1e-12
                )

    def test_missing_evaluator_with_residue(self):
        y = CombinedSeries(2, 2, fast=[FastFn(AsymTail([1, 2]))])
        with pytest.raises(MissingEvaluatorError):
            antiderivative(y, 0)

    def test_layer_basis_derivative_evaluator(self):
        # d/dx of eta-order-1 layer term U^-(x/eta) lands at order 0 with
        # the closed-form derivative; cross-check by finite differences
        y = CombinedSeries(2, 3, fast=[FastFn.zero(), u_minus(3)])
        dy = differentiate(y)
        g = dy.fast[0]
        for X in (-2.0, -0.7, -14.0):
            h = 1e-6
            fd = 3 * (special.eval_u(2, 1, -1, X + h)
                      - special.eval_u(2, 1, -1, X - h)) / (2 * h)
            assert g(X) == pytest.approx(fd, rel=1e-6, abs=1e-9)
        assert float(g.tail.coefficient(2)) == pytest.approx(0.5 * 3)

    def test_evaluate_with_log(self):
        from cae.series import evaluate_with_log

        y = CombinedSeries(2, 2, fast=[FastFn.from_tail([1], exact=True)])
        Y, log = antiderivative(y, 0)
        x, eta = 0.8, 0.4
        val = evaluate_with_log(Y, log, x, eta)
        X = x / eta
        want = eta * 0.5 * math.log(X * X + 1.0) + eta * Y.fast[1](X)
        assert val == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# composition


class TestComposeLeft:
    def test_identity(self):
        y = CombinedSeries(2, 4, slow=[TaylorPoly.zero(), TaylorPoly([0, 1])],
                           fast=[FastFn.zero(), u_minus()])
        out = compose_left({(1, 0): 1}, y)
        for n in range(4):
            assert out.slow[n] == y.slow[n]
            assert out.fast[n].tail == y.fast[n].tail

    def test_constant(self):
        y = CombinedSeries(2, 3, slow=[TaylorPoly.zero(), TaylorPoly([1])])
        out = compose_left({(0, 0): Fraction(7)}, y)
        assert out.slow[0] == TaylorPoly([7])
        assert all(out.order_is_zero(n) for n in range(1, 3))

    def test_square_matches_multiply(self):
        # P(y) = y^2 against the product as oracle
        y = CombinedSeries(2, 4,
                           slow=[TaylorPoly.zero(), TaylorPoly([0, 1])],
                           fast=[FastFn.zero(), u_minus()])
        via_compose = compose_left({(2, 0): 1}, y)
        via_multiply = multiply(y, y)
        for n in range(4):
            assert via_compose.slow[n] == via_multiply.slow[n]
            assert via_compose.fast[n].tail == via_multiply.fast[n].tail
        # order-2 content: slow x^2 and fast (U^-)^2 with tail (0, 1/4, 0, -1/4)
        assert via_compose.slow[2] == TaylorPoly([0, 0, 1])
        tt = via_compose.fast[2].tail
        assert [tt.coefficient(m) for m in range(1, 5)] == \
               [0, Fraction(1, 4), 0, Fraction(-1, 4)]
        # cross term lands at order 3: 2x*U^- -> slow -1 and fast 2*T U^-
        assert via_compose.slow[3] == TaylorPoly([-1])

    def test_eta0_term_rejected(self):
        y = CombinedSeries.from_scalar(2, 3, 1)
        with pytest.raises(SeriesError):
            compose_left({(1, 0): 1}, y)


# ---------------------------------------------------------------------------
# inner/outer extraction and reconstruction


def example1_like_series(N=5):
    """eta*U^-(x/eta) - eta^2/2: the bounded-solution expansion for forcing
    x+1 at the simple attracting turning point (built by hand here)."""
    slow = [TaylorPoly.zero(), TaylorPoly.zero(), TaylorPoly([Fraction(-1, 2)])]
    fast = [FastFn.zero(), u_minus(), FastFn.zero()]
    return CombinedSeries(2, N, slow=slow[:N], fast=fast[:N])


class TestExtract:
    def test_outer_direct_formula(self):
        y = CombinedSeries(2, 3, slow=[TaylorPoly.zero(), TaylorPoly([0, 1])],
                           fast=[FastFn.from_tail([2], exact=True)])
        c1 = extract_outer(y, 1)
        assert c1.coefficient(1) == 1
        assert c1.coefficient(-1) == 2
        assert c1.pole_order == 1

    def test_outer_order_zero(self):
        y = CombinedSeries(2, 2, slow=[TaylorPoly([3, 1])])
        c0 = extract_outer(y, 0)
        assert c0 == LaurentPoly.part(TaylorPoly([3, 1]))

    def test_outer_example1(self):
        # oracle: the outer recursion gives y_1(x) = -g(x)/(2x) for g = x+1,
        # i.e. -1/2 - 1/(2x); it sits at eta-order 2
        y = example1_like_series()
        c2 = extract_outer(y, 2)
        assert c2.coefficient(0) == Fraction(-1, 2)
        assert c2.coefficient(-1) == Fraction(-1, 2)
        ora = LaurentPoly([Fraction(-1, 2), Fraction(-1, 2)], -1)
        assert c2 == ora
        # odd eta-order outer coefficients vanish
        assert extract_outer(y, 1).is_zero()

    def test_inner_direct(self):
        y = CombinedSeries(2, 3,
                           slow=[TaylorPoly([0, 1]), TaylorPoly([5])],
                           fast=[FastFn.zero(), FastFn.from_tail([7], exact=True)])
        poly, tail = extract_inner(y, 1)
        assert poly == TaylorPoly([5, 1])  # a_{1,0} + a_{0,1} X
        assert tail == AsymTail([7], complete=True)

    def test_inner_order_zero(self):
        y = CombinedSeries(2, 2, slow=[TaylorPoly([0, 2])],
                           fast=[FastFn.from_tail([1], exact=True)])
        poly, tail = extract_inner(y, 0)
        assert poly.is_zero()
        assert tail == AsymTail([1], complete=True)

    def test_inner_example1(self):
        y = example1_like_series()
        poly, tail = extract_inner(y, 1)
        assert poly.is_zero()
        assert tail.coefficient(1) == Fraction(-1, 2)


def random_series(rng, p=2, N=5, depth=6, exact=False):
    def coeff():
        if exact:
            return Fraction(rng.randrange(-64, 65), 64)
        return rng.uniform(-1, 1)

    slow = [TaylorPoly([coeff() for _ in range(rng.randrange(0, 4))]) for _ in range(N)]
    fast = [FastFn.from_tail([coeff() for _ in range(depth)], complete=True)
            for _ in range(N)]
    return CombinedSeries(p, N, slow, fast)


class TestReconstruct:
    def _round_trip(self, y, tol):
        N = y.N
        outer = [extract_outer(y, n) for n in range(N)]
        inner = [extract_inner(y, n) for n in range(N)]
        back = reconstruct_from_matching(outer, inner, y.p, tol=tol)
        for n in range(N):
            assert back.slow[n] == y.slow[n]
            assert back.fast[n].tail == y.fast[n].tail

    def test_round_trip_exact(self):
        import random

        rng = random.Random(7)
        for _ in range(5):
            self._round_trip(random_series(rng, exact=True), tol=0)

    def test_round_trip_float(self):
        import random

        rng = random.Random(11)
        for _ in range(5):
            self._round_trip(random_series(rng, exact=False), tol=1e-9)

    def test_pole_violation(self):
        outer = [LaurentPoly.zero(), LaurentPoly([1], -3)]
        inner = [(TaylorPoly.zero(), AsymTail([0] * 6)),
                 (TaylorPoly.zero(), AsymTail([0] * 6))]
        with pytest.raises(InfeasibleError) as exc:
            reconstruct_from_matching(outer, inner, 2)
        assert exc.value.n == 1

    def test_injected_fault(self):
        import random

        rng = random.Random(3)
        y = random_series(rng, exact=True)
        outer = [extract_outer(y, n) for n in range(y.N)]
        inner = [extract_inner(y, n) for n in range(y.N)]
        poly, tail = inner[2]
        bad = AsymTail([tail.coefficient(1) + 1] + list(tail.coeffs[1:]),
                       complete=True)
        inner[2] = (poly, bad)
        with pytest.raises(CompatibilityError) as exc:
            reconstruct_from_matching(outer, inner, 2, tol=0)
        assert (exc.value.n, exc.value.m) == (3, -1)

    def test_outer_slow_part_needs_inner_polynomial(self):
        # the outer coefficient 5x at order 0 must reappear as 5X in the
        # inner polynomial at order 1, which is zero here
        outer = [LaurentPoly([0, 5]), LaurentPoly.zero()]
        inner = [(TaylorPoly.zero(), AsymTail((), complete=True))] * 2
        with pytest.raises(CompatibilityError) as exc:
            reconstruct_from_matching(outer, inner, 2, tol=0)
        assert (exc.value.n, exc.value.m) == (1, 1)

    def test_unknown_tail_coefficient_is_not_read_as_zero(self):
        # the pole part x^-2 + 0 x^-1 at order 2 needs g_{1,1}, which a
        # tail of depth 0 does not know; the zero pole coefficient must not
        # count as matched
        outer = [LaurentPoly.zero(), LaurentPoly.zero(), LaurentPoly([1], -2)]
        inner = [(TaylorPoly.zero(), AsymTail([0, 1])),
                 (TaylorPoly.zero(), AsymTail(())),
                 (TaylorPoly.zero(), AsymTail.zero())]
        with pytest.raises(InsufficientTailError):
            reconstruct_from_matching(outer, inner, 2, tol=0)
        # known to depth 1 and zero there, the same data match
        inner[1] = (TaylorPoly.zero(), AsymTail([0]))
        back = reconstruct_from_matching(outer, inner, 2, tol=0)
        assert back.fast[0].tail == AsymTail([0, 1])


# ---------------------------------------------------------------------------
# evaluation


class TestEvaluate:
    def test_zero(self):
        assert evaluate_partial_sum(CombinedSeries.zero(2, 3), 0.4, 0.1) == 0.0

    def test_pure_slow(self):
        y = CombinedSeries(2, 2, slow=[TaylorPoly([0, 1])])
        assert evaluate_partial_sum(y, 0.5, 0.1) == pytest.approx(0.5)

    def test_negative_order_refused(self):
        y = CombinedSeries(2, 2, slow=[TaylorPoly([0, 1])])
        assert evaluate_partial_sum(y, 0.5, 0.1, 0) == 0.0  # the empty sum
        with pytest.raises(SeriesError, match="order -1"):
            evaluate_partial_sum(y, 0.5, 0.1, -1)

    def test_domain_violation_rejected(self):
        from cae.errors import DomainError

        g = FastFn(AsymTail([1.0]), (), lambda X: 1.0 / X, domain=(-8.0, 0.0))
        y = CombinedSeries(2, 1, fast=[g])
        assert evaluate_partial_sum(y, -0.4, 0.1) == pytest.approx(-0.25)
        with pytest.raises(DomainError):
            evaluate_partial_sum(y, 2.0, 0.1)

    def test_one_term_gaussian_layer(self):
        # eta*U^-(0) = sqrt(0.1*pi)/2 at x=0, eps=0.1
        y = CombinedSeries(2, 2, fast=[FastFn.zero(), u_minus()])
        eta = math.sqrt(0.1)
        val = evaluate_partial_sum(y, 0.0, eta)
        assert val == pytest.approx(math.sqrt(0.1 * math.pi) / 2, abs=1e-12)
        assert val == pytest.approx(0.2802495, abs=1e-7)


# ---------------------------------------------------------------------------
# serialization and metric


class TestStructure:
    def test_json_round_trip_exact(self):
        y = example1_like_series()
        doc = y.to_json()
        back = CombinedSeries.from_json(doc)
        for n in range(y.N):
            assert back.slow[n] == y.slow[n]
            assert back.fast[n].tail == y.fast[n].tail
        # basis survives, so evaluation still works
        assert back.fast[1](-2.0) == pytest.approx(y.fast[1](-2.0), abs=1e-12)

    def test_json_rationals_as_strings(self):
        y = CombinedSeries(2, 1, slow=[TaylorPoly([Fraction(1, 3)])])
        doc = y.to_json()
        assert doc["slow"][0][0] == "1/3"
        assert CombinedSeries.from_json(doc).slow[0].coefficient(0) == Fraction(1, 3)

    def test_valuation_and_metric(self):
        y = CombinedSeries(2, 4, slow=[TaylorPoly.zero(), TaylorPoly([1])])
        z = CombinedSeries.zero(2, 4)
        assert y.valuation() == 1
        assert z.valuation() == 4
        assert y.distance(z) == 0.5
