"""Turning-point engine tests: outer/inner recursions against exact
oracles, feasibility diagnosis, matching assembly, closed forms."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from cae.errors import BlowupError, CaeError, InfeasibleError, SeriesError
from cae.series import (
    Laurent,
    LaurentPoly,
    TaylorPoly,
    evaluate_partial_sum,
)
from cae import special
from cae.turning import (
    ODESpec,
    UnsupportedExpansionError,
    combined_from_matching,
    control_expansion,
    closed_form_series,
    dac_feasibility,
    inner_expansion,
    outer_expansion,
)

EX1 = ODESpec(p=2, h={(0, 0): 1, (1, 0): 1})          # eps y' = 2xy + eps(x+1)
E1 = ODESpec(p=4, h={(0, 0): -4}, P={(1, 1, 0): -1})  # eps y' = 4x^3 y - 4 eps - x y^2


class TestODESpec:
    def test_r_inference(self):
        assert EX1.r == 1
        assert E1.r == 1
        # riccati-type: h(x,0) ~ x^(p-2) gives the maximal weight
        rc = ODESpec(p=4, h={(2, 0): -1}, P={(0, 1, 1): -1})
        assert rc.r == 3

    def test_quasi_homogeneity(self):
        assert EX1.quasi_homogeneous
        assert not E1.quasi_homogeneous
        ok = ODESpec(p=4, h={(0, 0): 1}, P={(2, 1, 0): 1})  # j + rk = 3 = p-1
        assert ok.quasi_homogeneous and ok.reduced_inner_nonlinear

    def test_rejects_unnormalized_linear_term(self):
        with pytest.raises(SeriesError):
            ODESpec(p=2, P={(1, 0, 0): 1.0})

    def test_json_round_trip(self):
        doc = E1.to_json()
        back = ODESpec.from_json(doc)
        assert back == E1

    def test_unknown_keys_rejected(self):
        with pytest.raises(SeriesError):
            ODESpec.from_json({"p": 2, "bogus": 1})


class TestOuterExpansion:
    def test_example1_first_order(self):
        out = outer_expansion(EX1, 3)
        # v_1 = -(x+1)/(2x)
        assert out.orders[1] == LaurentPoly([Fraction(-1, 2), Fraction(-1, 2)], -1)
        assert out.orders[1].pole_order == 1

    def test_e1_first_orders(self):
        out = outer_expansion(E1, 5)
        assert out.orders[1] == LaurentPoly([1], -3)  # 1/x^3
        # v_2 = (1 - 3x)/(4 x^8)
        assert out.orders[2] == LaurentPoly([Fraction(1, 4), Fraction(-3, 4)], -8)

    def test_e1_pole_growth_and_leading_coefficients(self):
        out = outer_expansion(E1, 6)
        assert out.pole_orders[1:] == tuple(5 * n - 2 for n in range(1, 7))
        # independent oracle: a_n = (1/4) sum a_k a_(n-k), a_1 = 1
        a = [None, Fraction(1)]
        for n in range(2, 6):
            a.append(Fraction(1, 4) * sum(a[k] * a[n - k] for k in range(1, n)))
        assert a[1:5] == [Fraction(1), Fraction(1, 4), Fraction(1, 8), Fraction(5, 64)]
        for n in range(1, 6):
            lead = out.orders[n].coefficient(-(5 * n - 2))
            assert lead == a[n]
            assert lead > 0  # the obstruction never cancels

    def test_formal_residual_is_zero(self):
        # substitute the partial sum back into the equation, symbolically
        for spec, N in ((EX1, 5), (E1, 5)):
            out = outer_expansion(spec, N)
            p = spec.p
            ysum = {n: out.orders[n] for n in range(N + 1)}
            # powers of the partial sum per eps-order
            pows = {1: ysum}
            def upow(k, m):
                if k == 1:
                    return pows[1].get(m, LaurentPoly.zero())
                tab = pows.setdefault(k, {})
                if m not in tab:
                    acc = LaurentPoly.zero()
                    for i in range(1, m):
                        acc = acc + upow(1, i) * upow(k - 1, m - i)
                    tab[m] = acc
                return tab[m]
            for n in range(1, N + 1):
                rhs = LaurentPoly([spec.p]).shift(p - 1) * ysum[n]
                rhs = rhs + LaurentPoly.part(spec.h_coeff_poly(n - 1))
                for (j, k, l), c in spec.P.items():
                    m = n - l
                    if m >= k + 1:
                        rhs = rhs + upow(k + 1, m).scale(c).shift(j)
                resid = ysum[n - 1].derivative() - rhs
                assert resid.is_zero(), (spec, n, resid)


class TestFeasibility:
    def test_example1_passes(self):
        assert dac_feasibility(outer_expansion(EX1, 5)).passed

    def test_e1_fails_at_first_order(self):
        f = dac_feasibility(outer_expansion(E1, 5))
        assert not f.passed
        assert (f.witness, f.pole, f.bound) == (1, 3, 1)
        assert "pole order 3 at n=1 exceeds 1" in f.message

    def test_pole_free_passes(self):
        spec = ODESpec(p=2, h={(1, 0): 1})  # g = x: v_1 = -1/2, regular
        assert dac_feasibility(outer_expansion(spec, 4)).passed


class TestInnerExpansion:
    def test_example1_leading_is_u(self):
        inner = inner_expansion(EX1, 4, -1)
        w1 = inner.coeff(1)
        # W_1 = g(0) U^- = U^-; oracle: the flow image of the constant 1
        assert w1.poly.is_zero()
        assert [w1.tail.coefficient(m) for m in range(1, 4)] == \
               [Fraction(-1, 2), 0, Fraction(1, 4)]
        u = special.apply_j(2, -1, 1.0)
        for X in (-3.0, -1.0):
            assert w1(X) == pytest.approx(u(X), abs=1e-8)
        # W_2 = -1/2 exactly
        w2 = inner.coeff(2)
        assert w2.poly == TaylorPoly([Fraction(-1, 2)])
        assert w2.tail.is_zero()

    def test_zero_forcing(self):
        spec = ODESpec(p=2, h={})
        inner = inner_expansion(spec, 4, -1)
        for n in range(1, 4):
            c = inner.coeff(n)
            assert c is None or (c.poly.is_zero() and c.tail.is_zero())

    def test_control_orders_term_by_term(self):
        # eps y' = 4x^3 y + eps(g + alpha0), g = 3x^2+3x: order-by-order
        # flow images of the forcing monomials (oracle: apply_j per term)
        alpha0 = 0.7
        spec = ODESpec(p=4, h={(1, 0): 3, (2, 0): 3}, control=True)
        inner = inner_expansion(spec, 4, -1, alphas=[alpha0, 0.0, 0.0])
        w1 = inner.coeff(1)  # forcing alpha0
        u0 = special.apply_j(4, -1, alpha0)
        for X in (-2.0, -1.0):
            assert w1(X) == pytest.approx(u0(X), abs=1e-8)
        w2 = inner.coeff(2)  # forcing 3X
        u1 = special.apply_j(4, -1, lambda X: 3.0 * X,
                             v_series=Laurent([3.0], 1))
        for X in (-2.0, -1.0):
            assert w2(X) == pytest.approx(u1(X), abs=1e-8)

    def test_quasi_homogeneity_violation_rejected(self):
        with pytest.raises(InfeasibleError):
            inner_expansion(E1, 3, -1)

    def test_strictly_quasi_homogeneous_nonlinear(self):
        # eps y' = 2xy + eps + y*(eps y): P entry (0,1,1), e = 0+1+2+1-2 = 2
        spec = ODESpec(p=2, h={(0, 0): 1}, P={(0, 1, 1): 1})
        inner = inner_expansion(spec, 4, -1)
        w1 = inner.coeff(1)
        u = special.apply_j(2, -1, 1.0)
        for X in (-3.0, -1.5):
            assert w1(X) == pytest.approx(u(X), abs=1e-8)
        # order 3 picks up the U^2 forcing: oracle by direct flow solve
        w3 = inner.coeff(3)
        v = lambda X: u(X) ** 2
        vf = u.tail * u.tail
        u3 = special.apply_j(2, -1, v, v_series=vf)
        for X in (-3.0, -1.5):
            assert w3(X) == pytest.approx(u3(X), abs=1e-7)

    def test_reduced_nonlinear_leading_and_blowup(self):
        # Y' = 2XY + c0 + B Y^2: small data -> leading coefficient exists
        tame = ODESpec(p=2, h={(0, 0): Fraction(1, 10)}, P={(0, 1, 0): Fraction(1, 10)})
        inner = inner_expansion(tame, 2, -1)
        y0 = inner.coeff(1)
        # residual of the reduced equation along the ray
        for X in (-5.0, -2.0, -1.0):
            h = 1e-5
            der = (y0(X + h) - y0(X - h)) / (2 * h)
            rhs = 2 * X * y0(X) + 0.1 + 0.1 * y0(X) ** 2
            assert der == pytest.approx(rhs, abs=1e-6)
        # strong focusing blows up before the origin
        wild = ODESpec(p=2, h={(0, 0): 6}, P={(0, 1, 0): 3})
        with pytest.raises(BlowupError) as exc:
            inner_expansion(wild, 2, -1)
        assert exc.value.where is not None and exc.value.where < 0

        with pytest.raises(UnsupportedExpansionError):
            inner_expansion(tame, 3, -1)


# W_n of strictly quasi-homogeneous nonlinear specs (sigma = -1, N = 6) at
# nodes 256, 768, 1280, 1792 and 2047 of the 2048-point flow grid, as the
# adaptive RK45 flow solve (rtol 1e-11) computed them before the flow was
# stepped by its explicit solution
_RK45_VALUES = (
    (ODESpec(p=2, h={(0, 0): 1.0}, P={(1, 1, 0): -0.5}), {
        2: (0.0012264524470496287, 0.002321323458063889, 0.0057630880499967485, 0.02471100434622423, 0.05365045915076759),
        3: (4.214478046812311e-05, 0.00010800630532683662, 0.0004036727276154848, 0.002955033936319146, 0.007309807594279174),
        4: (1.7973498019974525e-06, 6.202802223413245e-06, 3.444030420873587e-05, 0.00041757434478802125, 0.0011908780596501447),
        5: (8.533774689285084e-08, 3.948713304113325e-07, 3.2247728661674564e-06, 6.343144288929026e-05, 0.00020843174882954104),
    }),
    (ODESpec(p=2, h={(0, 0): 1.0}, P={(2, 1, 0): 0.3}), {
        3: (0.005201811132688999, 0.00709395006756008, 0.010872169186504533, 0.01915141696826321, 0.020395592305369456),
        5: (0.0007654550306464057, 0.0010268728854686549, 0.0014995298045296437, 0.0021355736795025193, 0.0018886834609262535),
    }),
    (ODESpec(p=4, h={(1, 0): 1.0}, P={(3, 1, 0): 0.3}), {
        4: (-6.155799324721136e-06, -2.3494655344893243e-05, -0.00017054343689267245, -0.0027842681604671386, -0.004023784436306088),
    }),
    (ODESpec(p=2, h={(0, 0): 1.0, (1, 0): 0.5}, P={(0, 1, 1): -0.5}), {
        3: (-0.00017351556865141256, -0.0004559059094555265, -0.0018363820421822693, -0.019797668325936033, -0.15357142367819576),
        4: (0.0012384935133758475, 0.0023645241532371042, 0.006031875204154989, 0.03038324772529035, 0.12499999999924083),
        5: (-0.0022093454185877904, -0.0030626899464599082, -0.00492159900835891, -0.010205282344524292, 0.008389246943627027),
    }),
)
_NODE_INDEX = [256, 768, 1280, 1792, 2047]


def _nodes(p):
    return np.linspace(-(8.0 if p == 2 else 6.0), 0.0, 2048)[_NODE_INDEX]


def _inner_forcing(spec, inner, n):
    """v_n of W_n' = p X^(p-1) W_n + v_n, composed point by point from the
    spec and the computed lower orders (x = eta X, eps = eta^p)."""
    p = spec.p

    def W(i, X):
        w = inner.coeff(i)
        return 0.0 if w is None else w(X)

    def v(X):
        val = sum(float(c) * X ** j for (j, l), c in spec.h.items()
                  if j + p * l + 1 == n)
        for (j, k, l), c in spec.P.items():
            q = n - (j + p * l + 1 - p)
            for combo in itertools.product(range(q + 1), repeat=k + 1):
                if sum(combo) == q:
                    val += float(c) * X ** j * math.prod(W(i, X) for i in combo)
        return val

    return v


class TestGridNativeFlow:
    """Nonlinear inner orders stepped on the flow grid by the explicit
    solution of U' = p X^(p-1) U + v."""

    @pytest.mark.parametrize("spec, values", _RK45_VALUES)
    def test_matches_rk45_values(self, spec, values):
        inner = inner_expansion(spec, 6, -1)
        for n, want in values.items():
            got = inner.coeff(n)(_nodes(spec.p))
            assert np.abs(got - np.array(want)).max() <= 1e-12, n

    @pytest.mark.parametrize("spec", [_RK45_VALUES[2][0], _RK45_VALUES[3][0]])
    def test_grid_refinement(self, spec, monkeypatch):
        # a 16x finer grid contains the same nodes
        coarse = inner_expansion(spec, 6, -1)
        monkeypatch.setattr("cae.turning.apply_j",
                            functools.partial(special.apply_j, grid_n=16 * 2047 + 1))
        fine = inner_expansion(spec, 6, -1)
        X = _nodes(spec.p)
        for n in range(6):
            w = coarse.coeff(n)
            if w is not None and w.ray is not None:
                assert np.abs(w(X) - fine.coeff(n)(X)).max() <= 1e-12, n

    @pytest.mark.parametrize("spec", [s for s, _ in _RK45_VALUES])
    def test_flow_residual_every_order(self, spec):
        inner = inner_expansion(spec, 8, -1)
        rays = [n for n in range(8) if inner.coeff(n) is not None
                and inner.coeff(n).ray is not None]
        assert rays
        for n in rays:
            v = _inner_forcing(spec, inner, n)
            assert special.flow_residual(inner.coeff(n).ray, spec.p, v) <= 1e-8, n

    def test_no_ode_solver_or_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the inner orders must not call scipy here")

        monkeypatch.setattr(integrate, "solve_ivp", refuse)
        monkeypatch.setattr(integrate, "quad", refuse)
        for spec, _values in _RK45_VALUES:
            inner_expansion(spec, 6, -1)

    def test_coefficients_evaluate_elementwise(self):
        inner = inner_expansion(_RK45_VALUES[3][0], 6, -1)
        X = np.linspace(-7.0, 0.0, 9)
        for n in range(1, 6):
            w = inner.coeff(n)
            assert np.allclose(w(X), [w(x) for x in X], rtol=1e-14, atol=0)


class TestMatching:
    def test_example1_matches_closed_form(self):
        cs = combined_from_matching(EX1, 6, -1)
        cf = closed_form_series(TaylorPoly([1, 1]), 6)
        for n in range(6):
            assert cs.slow[n] == cf.slow[n]
            tn, to = cs.fast[n].tail, cf.fast[n].tail
            for m in range(1, 7):
                if tn.known_to(m) and to.known_to(m):
                    assert float(tn.coefficient(m)) == pytest.approx(
                        float(to.coefficient(m)), abs=1e-10
                    )

    def test_zero_forcing_zero_series(self):
        cs = combined_from_matching(ODESpec(p=2, h={}), 4, -1)
        assert all(cs.order_is_zero(n) for n in range(4))

    def test_counterexample_rejected(self):
        with pytest.raises(InfeasibleError) as exc:
            combined_from_matching(E1, 5, -1)
        assert exc.value.n == 1 and exc.value.pole == 3

    def test_matching_compatibility_identity(self):
        # rejected outer poles equal the fast tails under the re-indexing
        spec = ODESpec(p=2, h={(0, 0): 2, (1, 0): -1, (2, 0): Fraction(1, 3)})
        cs = combined_from_matching(spec, 7, -1)
        out = outer_expansion(spec, 3)
        for n in (1, 2, 3):
            m_eta = 2 * n
            if m_eta >= 7:
                continue
            v = out.orders[n]
            for mu in range(1, v.pole_order + 1):
                assert v.coefficient(-mu) == cs.fast[m_eta - mu].tail.coefficient(mu)

    @pytest.mark.parametrize("N", [19, 30, 40])
    def test_tail_depth_covers_every_checked_pole(self, N):
        # h = 1 + x + x^3: v_n has pole order 2n - 1, so from N = 19 on the
        # checked outer poles reach past 16 tail terms
        spec = ODESpec(p=2, h={(0, 0): 1, (1, 0): 1, (3, 0): 1})
        cs = combined_from_matching(spec, N, -1)
        out = outer_expansion(spec, (N - 1) // 2)
        poles = [v.pole_order for v in out.orders[1:]]
        assert max(poles) > 16
        assert cs.fast[1].tail.depth == max(poles)
        for n, v in enumerate(out.orders[1:], start=1):
            for mu in range(1, v.pole_order + 1):
                assert v.coefficient(-mu) == cs.fast[2 * n - mu].tail.coefficient(mu)

    def test_tail_depth_float_twin_order_19(self):
        h = {(0, 0): 1, (1, 0): 1, (3, 0): 1}
        exact = combined_from_matching(ODESpec(p=2, h=h), 19, -1)
        flt = combined_from_matching(
            ODESpec(p=2, h={k: float(c) for k, c in h.items()}), 19, -1)
        assert len(flt.fast[1].tail.coeffs) == 17
        _assert_close(_float_twin(exact.to_json()), flt.to_json())

    def test_plus_side(self):
        # the right-bounded branch carries the same tails with U^+ layers
        from cae.validate import bounded_solution_quadrature

        cs = combined_from_matching(EX1, 5, 1)
        cs_minus = combined_from_matching(EX1, 5, -1)
        for n in range(5):
            assert cs.slow[n] == cs_minus.slow[n]
            assert cs.fast[n].tail == cs_minus.fast[n].tail
        F = TaylorPoly([0, 0, 1])
        for eps in (0.05, 0.02):
            eta = math.sqrt(eps)
            for x in (0.0, 0.4, 0.9):
                truth = bounded_solution_quadrature(F, lambda t: t + 1.0, eps, x, 1)
                approx = evaluate_partial_sum(cs, x, eta, 5)
                assert abs(truth - approx) < 8 * eta ** 5

    def test_eps_dependent_forcing(self):
        # h(x, eps) = 1 + 2 eps enters the outer recursion and the inner
        # forcing at shifted orders; check against quadrature truth
        from cae.validate import bounded_solution_quadrature

        spec = ODESpec(p=2, h={(0, 0): 1, (0, 1): 2})
        cs = combined_from_matching(spec, 6, -1)
        F = TaylorPoly([0, 0, 1])
        for eps in (0.05, 0.02):
            eta = math.sqrt(eps)
            g = lambda t: 1.0 + 2.0 * eps
            for x in (-0.7, -0.2, 0.0):
                truth = bounded_solution_quadrature(F, g, eps, x, -1)
                approx = evaluate_partial_sum(cs, x, eta, 6)
                assert abs(truth - approx) < 10 * eta ** 6

    def test_nonlinear_quasi_homogeneous_matching(self):
        # eps y' = 2xy + eps + eps y^2: the order-3 fast part is the flow
        # image of (U^-)^2 (numeric), and the assembled series tracks the
        # actual equation launched from its own value on the attracting side
        from cae.validate import ode_solve

        spec = ODESpec(p=2, h={(0, 0): 1}, P={(0, 1, 1): 1})
        cs = combined_from_matching(spec, 5, -1)
        assert float(cs.fast[3].tail.coefficient(3)) == pytest.approx(-0.125, abs=1e-9)
        for eps, x0 in ((0.05, -1.5), (0.02, -1.0)):
            eta = math.sqrt(eps)
            rhs = lambda x, y: (2 * x * y + eps + eps * y * y) / eps
            y0 = evaluate_partial_sum(cs, x0, eta, 5)
            tr = ode_solve(rhs, (x0, -0.4), y0, tol=1e-11)
            approx = evaluate_partial_sum(cs, -0.4, eta, 5)
            assert abs(tr.final - approx) < 5 * eta ** 5

    def test_partial_sums_approximate_truth(self):
        # numeric: N-term sums against the bounded-solution quadrature
        from cae.validate import bounded_solution_quadrature

        spec = ODESpec(p=2, h={(0, 0): 2, (1, 0): -1, (2, 0): Fraction(1, 3)})
        cs = combined_from_matching(spec, 5, -1)
        F = TaylorPoly([0, 0, 1])
        g = lambda t: 2.0 - t + t * t / 3.0
        for eps in (0.05, 0.02):
            eta = math.sqrt(eps)
            for x in (-0.8, -0.3, 0.0):
                truth = bounded_solution_quadrature(F, g, eps, x, -1)
                approx = evaluate_partial_sum(cs, x, eta, 5)
                assert abs(truth - approx) < 8 * eta ** 5


class TestClosedForm:
    def test_forcing_x_plus_one(self):
        cf = closed_form_series(TaylorPoly([1, 1]), 8)
        assert cf.slow[2] == TaylorPoly([Fraction(-1, 2)])
        assert cf.fast[1].tail.coefficient(1) == Fraction(-1, 2)  # 1 * U^-
        for n in (3, 4, 5, 6, 7):
            if n % 2 == 0:
                assert cf.slow[n].is_zero()
            else:
                assert cf.fast[n].is_zero()

    def test_zero_forcing(self):
        cf = closed_form_series(TaylorPoly.zero(), 6)
        assert all(cf.order_is_zero(n) for n in range(6))

    def test_odd_forcing_kills_fast_part(self):
        cf = closed_form_series(TaylorPoly([0, 1, 0, Fraction(2, 7)]), 9)
        assert all(cf.fast[n].is_zero() for n in range(9))

    def test_matches_quadrature(self):
        from cae.validate import bounded_solution_quadrature

        g = TaylorPoly([0.3, -1.2, 0.5, 0.25])
        cf = closed_form_series(g, 6)
        F = TaylorPoly([0, 0, 1])
        for eps in (0.04, 0.02):
            eta = math.sqrt(eps)
            for x in (-0.9, -0.4, 0.0):
                truth = bounded_solution_quadrature(F, lambda t: g(t), eps, x, -1)
                approx = evaluate_partial_sum(cf, x, eta, 6)
                assert abs(truth - approx) < 10 * eta ** 6

    def test_repelling_variant_matches_quadrature(self):
        # eps y' = -2xy + eps g, y(0) = c0: truth by stable quadrature
        g = TaylorPoly([1.0, 0.5, -0.3])
        c0 = 0.4
        cf = closed_form_series(g, 6, kind="repelling_ic", ic=[c0])

        def truth(x, eps):
            f = lambda t: math.exp((t * t - x * x) / eps) * g(t)
            val, _ = integrate.quad(f, 0, x, epsabs=1e-13, epsrel=1e-13)
            return val + c0 * math.exp(-x * x / eps)

        for eps in (0.04, 0.02):
            eta = math.sqrt(eps)
            for x in (-0.6, -0.2, 0.3, 0.7):
                approx = evaluate_partial_sum(cf, x, eta, 6)
                assert abs(truth(x, eps) - approx) < 12 * eta ** 6

    def test_repelling_variant_with_ic_series(self):
        # quadratic forcing terminates the expansion, so the initial-value
        # series c = 0.4 - 0.2 eta^2 is reproduced exactly
        g = TaylorPoly([1.0, 0.5, -0.3])
        ic = [0.4, 0.0, -0.2]
        cf = closed_form_series(g, 6, kind="repelling_ic", ic=ic)

        def truth(x, eps):
            c_eta = sum(c * math.sqrt(eps) ** n for n, c in enumerate(ic))
            f = lambda t: math.exp((t * t - x * x) / eps) * g(t)
            val, _ = integrate.quad(f, 0, x, epsabs=1e-13, epsrel=1e-13)
            return val + c_eta * math.exp(-x * x / eps)

        for eps in (0.04, 0.02):
            eta = math.sqrt(eps)
            for x in (-0.7, -0.2, 0.3, 0.8):
                approx = evaluate_partial_sum(cf, x, eta, 6)
                assert abs(truth(x, eps) - approx) < 1e-12

    def test_repelling_variant_layer_serialization(self):
        # dawson and flat-exp basis terms survive the JSON round trip
        from cae.series import CombinedSeries

        g = TaylorPoly([1.0, 0.5, -0.3])
        cf = closed_form_series(g, 6, kind="repelling_ic", ic=[0.4, 0.0, -0.2])
        back = CombinedSeries.from_json(cf.to_json())
        for n in range(6):
            if cf.fast[n].is_zero():
                continue
            for X in (0.5, -1.2):
                assert back.fast[n](X) == pytest.approx(cf.fast[n](X), abs=1e-14)


class TestControlExpansion:
    def test_quadratic_forcing(self):
        ce = control_expansion(TaylorPoly([0, 0, 1]), 2, 5)
        assert ce.grading == "eps"
        assert list(ce.alphas) == [0, Fraction(-1, 2), 0, 0, 0]
        assert ce.ys[1] == TaylorPoly([0, Fraction(-1, 2)])
        # oracle: -gauss_moment(2,2,eps)/gauss_moment(2,0,eps) = -eps/2
        for eps in (0.5, 0.125):
            closed = -special.gauss_moment(2, 2, eps) / special.gauss_moment(2, 0, eps)
            assert closed == pytest.approx(-eps / 2, rel=1e-13)

    def test_zero_forcing(self):
        ce = control_expansion(TaylorPoly.zero(), 2, 4)
        assert all(a == 0 for a in ce.alphas)
        assert all(y.is_zero() for y in ce.ys)

    def test_constant_forcing(self):
        ce = control_expansion(TaylorPoly([1]), 2, 4)
        assert ce.alphas[0] == -1
        assert all(a == 0 for a in ce.alphas[1:])
        assert all(y.is_zero() for y in ce.ys)

    def test_solution_parts_have_no_pole(self):
        # y_{n+1} = (y_n' - alpha_n)/(2x) stays polynomial by construction;
        # verify the recursion identity on the produced parts
        g = TaylorPoly([Fraction(1), Fraction(-2), Fraction(3), Fraction(1, 2), Fraction(2)])
        ce = control_expansion(g, 2, 6)
        x = TaylorPoly([0, 1])
        lhs1 = x.scale(2) * ce.ys[1]
        assert lhs1 == (g + TaylorPoly([ce.alphas[0]])).scale(-1)
        for n in range(1, 5):
            lhs = x.scale(2) * ce.ys[n + 1]
            rhs = ce.ys[n].derivative() - TaylorPoly([ce.alphas[n]])
            assert lhs == rhs

    def test_delegation_for_higher_p(self):
        ce = control_expansion(TaylorPoly([0, 3, 3]), 4, 5)
        assert ce.grading == "eta"
        from scipy.special import gamma
        assert ce.alphas[2] == pytest.approx(-3 * gamma(0.75) / gamma(0.25), abs=1e-12)


# ---------------------------------------------------------------------------
# exact path as the oracle of the float path

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _float_twin(doc):
    """The float twin of an exact JSON value: "num/den" strings -> floats."""
    if isinstance(doc, dict):
        return {k: _float_twin(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_float_twin(v) for v in doc]
    if isinstance(doc, str) and "/" in doc:
        return float(Fraction(doc))
    return doc


def _assert_close(exact_doc, float_doc, path="doc"):
    """Same structure; numbers agree to 1e-9 absolute, the rest exactly."""
    if isinstance(exact_doc, dict):
        assert sorted(exact_doc) == sorted(float_doc), path
        for k in exact_doc:
            _assert_close(exact_doc[k], float_doc[k], f"{path}.{k}")
    elif isinstance(exact_doc, list):
        assert len(exact_doc) == len(float_doc), path
        for i, (a, b) in enumerate(zip(exact_doc, float_doc)):
            _assert_close(a, b, f"{path}[{i}]")
    elif isinstance(exact_doc, float):
        assert isinstance(float_doc, (int, float)), path
        assert not isinstance(float_doc, bool), path
        assert abs(exact_doc - float_doc) <= 1e-9, (path, exact_doc, float_doc)
    else:
        assert exact_doc == float_doc, path


class TestExactFloatAgreement:
    """Float paths against the exact (rational) ones, coefficient by
    coefficient, on small random y-linear specs."""

    @given(
        st.sampled_from((2, 4)),
        st.dictionaries(
            st.tuples(st.integers(0, 3), st.integers(0, 1)),
            small_rationals.filter(lambda c: c != 0),
            min_size=1, max_size=3,
        ),
        st.integers(2, 10),
        st.sampled_from((-1, 1)),
    )
    @settings(max_examples=40, deadline=None)
    def test_combined_from_matching(self, p, h, N, sigma):
        outcomes = []
        for coeffs in (h, {k: float(c) for k, c in h.items()}):
            try:
                outcomes.append(combined_from_matching(ODESpec(p=p, h=coeffs),
                                                       N, sigma))
            except CaeError as exc:
                outcomes.append(type(exc))
        exact, flt = outcomes
        if isinstance(exact, type):
            assert flt is exact
            return
        _assert_close(_float_twin(exact.to_json()), flt.to_json())

    @staticmethod
    def _twins(fn, p, h, *args):
        """fn on the exact spec and on its float twin; an error becomes its class."""
        outcomes = []
        for coeffs in (h, {k: float(c) for k, c in h.items()}):
            try:
                outcomes.append(fn(ODESpec(p=p, h=coeffs), *args))
            except CaeError as exc:
                outcomes.append(type(exc))
        return outcomes

    @staticmethod
    def _close_padded(exact, flt, what):
        """Coefficient lists equal to 1e-9 once both are padded with zeros."""
        n = max(len(exact), len(flt))
        a = [float(c) for c in exact] + [0.0] * (n - len(exact))
        b = [float(c) for c in flt] + [0.0] * (n - len(flt))
        assert all(abs(x - y) <= 1e-9 for x, y in zip(a, b)), (what, a, b)

    specs = (st.sampled_from((2, 4)),
             st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 1)),
                             small_rationals.filter(lambda c: c != 0),
                             min_size=1, max_size=3))

    @given(*specs, st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_outer_expansion(self, p, h, N):
        exact, flt = self._twins(outer_expansion, p, h, N)
        if isinstance(exact, type):
            assert flt is exact
            return
        assert len(exact) == len(flt)
        for n, (a, b) in enumerate(zip(exact.orders, flt.orders)):
            lo = min(a.offset, b.offset)
            self._close_padded([a.coefficient(e) for e in range(lo, a.top_degree + 1)],
                               [b.coefficient(e) for e in range(lo, b.top_degree + 1)],
                               f"v_{n}")

    @given(*specs, st.integers(1, 10), st.sampled_from((-1, 1)))
    @settings(max_examples=40, deadline=None)
    def test_inner_expansion(self, p, h, N, sigma):
        exact, flt = self._twins(inner_expansion, p, h, N, sigma)
        if isinstance(exact, type):
            assert flt is exact
            return
        assert (exact.p, exact.r, len(exact)) == (flt.p, flt.r, len(flt))
        for n, (a, b) in enumerate(zip(exact.coeffs, flt.coeffs)):
            assert (a is None) == (b is None), n
            if a is None:
                continue
            self._close_padded(a.poly.coeffs, b.poly.coeffs, f"W_{n} polynomial")
            assert a.tail.complete == b.tail.complete, n
            self._close_padded(a.tail.coeffs, b.tail.coeffs, f"W_{n} tail")
            assert [(t.kind, t.k) for t in a.basis] == [(t.kind, t.k) for t in b.basis]
            self._close_padded([t.coef for t in a.basis], [t.coef for t in b.basis],
                               f"W_{n} basis")

    @given(st.lists(small_rationals, min_size=1, max_size=5), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_closed_form_series(self, g, N):
        exact = closed_form_series(TaylorPoly(g), N)
        flt = closed_form_series(TaylorPoly([float(c) for c in g]), N)
        _assert_close(_float_twin(exact.to_json()), flt.to_json())

    @given(st.lists(small_rationals, min_size=1, max_size=5),
           st.sampled_from((2, 4)), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_control_expansion(self, g, p, N):
        exact = control_expansion(TaylorPoly(g), p, N)
        flt = control_expansion(TaylorPoly([float(c) for c in g]), p, N)
        assert exact.grading == flt.grading
        _assert_close([float(a) for a in exact.alphas],
                      [float(a) for a in flt.alphas])
        if p == 2:
            _assert_close([[float(c) for c in y.coeffs] for y in exact.ys],
                          [[float(c) for c in y.coeffs] for y in flt.ys])
