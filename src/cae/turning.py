"""Formal solutions of quasi-linear turning-point equations.

The normalized equation is

    eps y' = p x**(p-1) y + eps h(x, eps) + y P(x, y, eps)

with finite coefficient maps h[(j, l)] x**j eps**l and P[(j, k, l)] x**j
y**k eps**l (the P factor multiplies y, so a (j, k, l) entry contributes
x**j y**(k+1) eps**l to the right side).  The outer expansion in eps is a
Laurent recursion, exact over rationals; the inner expansion in the
stretched variable X = x/eta solves one linear flow equation per order.
Matching the two yields a combined series when the outer poles stay within
the admissible envelope, and the failure of that envelope is exactly the
obstruction reported by ``dac_feasibility``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _numerics
from ._scalar import is_exact, scalar_from_json, scalar_to_json
from .errors import (
    BlowupError,
    CaeError,
    InfeasibleError,
    SeriesError,
)
from .series import (
    AsymTail,
    BasisTerm,
    CombinedSeries,
    FastFn,
    Laurent,
    LaurentPoly,
    TaylorPoly,
    check_matching,
    shift_slow,
)
from .special import RayFn, apply_j, tail_of_j_series


class UnsupportedExpansionError(CaeError):
    """Inner orders past the leading one for equations whose reduced inner
    equation is nonlinear are not generated (out of the supported family)."""


# ---------------------------------------------------------------------------
# the equation data


@dataclass(frozen=True)
class ODESpec:
    """Turning-point equation data; see the module docstring for the form.

    ``r`` is the quasi-homogeneity weight: h(x, 0) must vanish to order
    r-1 and every eps-free P entry must satisfy j + r*k >= p - 1.  When
    omitted it is inferred from h.  ``control`` marks an additive eps*alpha
    control slot (resolved by the canard machinery).
    """

    p: int
    h: dict = field(default_factory=dict)
    P: dict = field(default_factory=dict)
    r: Optional[int] = None
    control: bool = False
    f: Optional[tuple] = None

    def __post_init__(self):
        if self.p < 2 or self.p % 2:
            raise SeriesError(f"p={self.p} must be an even integer >= 2")
        if self.f is not None:
            expect = (0,) * (self.p - 1) + (self.p,)
            if tuple(self.f) != expect:
                raise SeriesError(
                    "f must be the normalized p*x^(p-1); pre-normalize the "
                    "equation before building a spec"
                )
        h = {k: v for k, v in self.h.items() if v != 0}
        P = {k: v for k, v in self.P.items() if v != 0}
        for (j, l) in h:
            if j < 0 or l < 0:
                raise SeriesError("h indices must be nonnegative")
        for (j, k, l) in P:
            if j < 0 or k < 0 or l < 0:
                raise SeriesError("P indices must be nonnegative")
            if k == 0 and l == 0:
                raise SeriesError(
                    "an eps-free linear term x^j y belongs in f; "
                    "normalize it away before building a spec"
                )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "P", P)
        if self.r is None:
            object.__setattr__(self, "r", self._infer_r())
        if not 1 <= self.r <= self.p - 1:
            raise SeriesError(f"r={self.r} outside 1..{self.p - 1}")
        if self.control and self.r != 1:
            raise SeriesError("control specs need weight r = 1")

    def _infer_r(self) -> int:
        degs = [j for (j, l) in self.h if l == 0]
        if self.control:
            return 1
        if not degs:
            return self.p - 1
        return min(min(degs) + 1, self.p - 1)

    # -- structure queries --------------------------------------------------

    @property
    def exact(self) -> bool:
        return all(is_exact(c) for c in self.h.values()) and all(
            is_exact(c) for c in self.P.values()
        )

    @property
    def quasi_homogeneous(self) -> bool:
        """h(x,0) = O(x^(r-1)) and j + r*k >= p-1 on eps-free P entries."""
        for (j, l), c in self.h.items():
            if l == 0 and j < self.r - 1:
                return False
        for (j, k, l), c in self.P.items():
            if l == 0 and j + self.r * k < self.p - 1:
                return False
        return True

    @property
    def reduced_inner_nonlinear(self) -> bool:
        """True when an eps-free P entry sits on the quasi-homogeneity line
        j + r*k = p-1, which keeps a nonlinear term in the reduced inner
        equation."""
        return any(
            l == 0 and j + self.r * k == self.p - 1
            for (j, k, l) in self.P
        )

    @property
    def linear_in_y(self) -> bool:
        return not self.P

    def h_coeff_poly(self, l: int) -> TaylorPoly:
        """h_l(x) = sum_j h[(j,l)] x^j."""
        deg = max((j for (j, ll) in self.h if ll == l), default=-1)
        return TaylorPoly(
            [self.h.get((j, l), 0) for j in range(deg + 1)]
        )

    # -- serialization --------------------------------------------------

    def to_json(self):
        doc = {
            "p": self.p,
            "h": [
                {"j": j, "l": l, "c": scalar_to_json(c)}
                for (j, l), c in sorted(self.h.items())
            ],
            "P": [
                {"j": j, "k": k, "l": l, "c": scalar_to_json(c)}
                for (j, k, l), c in sorted(self.P.items())
            ],
            "r": self.r,
            "control": self.control,
        }
        return doc

    @staticmethod
    def from_json(doc) -> "ODESpec":
        h = {(e["j"], e["l"]): scalar_from_json(e["c"]) for e in doc.get("h", [])}
        P = {
            (e["j"], e["k"], e["l"]): scalar_from_json(e["c"])
            for e in doc.get("P", [])
        }
        extra = set(doc) - {"p", "f", "h", "P", "r", "control"}
        if extra:
            raise SeriesError(f"unknown spec fields: {sorted(extra)}")
        return ODESpec(
            p=doc["p"],
            h=h,
            P=P,
            r=doc.get("r"),
            control=doc.get("control", False),
            f=tuple(doc["f"]) if doc.get("f") else None,
        )


# ---------------------------------------------------------------------------
# outer expansion


@dataclass(frozen=True)
class OuterExpansion:
    """Formal solution sum v_n(x) eps**n; orders[0] is v_0 = 0."""

    p: int
    r: int
    orders: tuple

    @property
    def pole_orders(self) -> tuple:
        return tuple(v.pole_order for v in self.orders)

    def __len__(self):
        return len(self.orders)


def outer_expansion(spec: ODESpec, N: int) -> OuterExpansion:
    """Laurent recursion v_n = (v_{n-1}' - h_{n-1} - q_n) / (p x^(p-1)),
    where q_n collects the order-eps^n part of y*P(x, y, eps) along the
    partial sum.  Exact when the spec coefficients are exact; poles are
    recorded, never fatal here."""
    if N < 1:
        raise SeriesError("outer expansion needs N >= 1")
    p = spec.p
    inv_p = Fraction(1, p) if spec.exact else 1.0 / p
    vs = [LaurentPoly.zero()]
    # powers[k][m] = [eps^m] (sum v_nu eps^nu)^k, built incrementally
    powers = {1: {}}

    def upower(k: int, m: int) -> LaurentPoly:
        if k == 0:
            return LaurentPoly([1]) if m == 0 else LaurentPoly.zero()
        if k == 1:
            return powers[1].get(m, LaurentPoly.zero())
        table = powers.setdefault(k, {})
        if m not in table:
            acc = LaurentPoly.zero()
            for i in range(1, m):
                a = upower(1, i)
                if a.is_zero():
                    continue
                b = upower(k - 1, m - i)
                if not b.is_zero():
                    acc = acc + a * b
            table[m] = acc
        return table[m]

    for n in range(1, N + 1):
        h_prev = LaurentPoly.part(spec.h_coeff_poly(n - 1))
        q_n = LaurentPoly.zero()
        for (j, k, l), c in spec.P.items():
            m = n - l
            if m < k + 1:  # y^(k+1) has eps-valuation k+1
                continue
            term = upower(k + 1, m)
            if not term.is_zero():
                q_n = q_n + term.scale(c).shift(j)
        num = vs[n - 1].derivative() - h_prev - q_n
        vs.append(num.scale(inv_p).shift(-(p - 1)))
        powers[1][n] = vs[n]
    return OuterExpansion(p=p, r=spec.r, orders=tuple(vs))


@dataclass(frozen=True)
class Feasibility:
    passed: bool
    witness: Optional[int] = None
    pole: Optional[int] = None
    bound: Optional[int] = None

    def __bool__(self):
        return self.passed

    @property
    def message(self) -> str:
        if self.passed:
            return "pole orders admissible"
        return (
            f"pole order {self.pole} at n={self.witness} exceeds "
            f"{self.bound}"
        )


def dac_feasibility(outer: OuterExpansion) -> Feasibility:
    """Pass iff the outer pole orders stay within the quasi-linear envelope
    pole(v_n) <= p*(n-1) + r; the witness is the first violating n."""
    for n in range(1, len(outer)):
        bound = outer.p * (n - 1) + outer.r
        pole = outer.orders[n].pole_order
        if pole > bound:
            return Feasibility(False, witness=n, pole=pole, bound=bound)
    return Feasibility(True)


# ---------------------------------------------------------------------------
# inner expansion


def _j_monomial(p: int, sigma: int, l: int):
    """J-image of X**l as (polynomial part, u-basis terms); exact."""
    if l <= p - 2:
        return TaylorPoly.zero(), [BasisTerm("u", p, l + 1, sigma, Fraction(1))]
    if l == p - 1:
        return TaylorPoly([Fraction(-1, p)]), []
    poly, terms = _j_monomial(p, sigma, l - p)
    coef = Fraction(l - p + 1, p)
    head = TaylorPoly([0] * (l - p + 1) + [Fraction(-1, p)])
    return head + poly.scale(coef), [t.scale(coef) for t in terms]


@dataclass(frozen=True)
class InnerCoeff:
    """One coefficient W_n(X) of the inner expansion of y (order eta**n):
    a polynomial part, the decaying remainder's tail, a closed basis when
    the order was solved in closed form, or a numeric ray function."""

    order: int
    sigma: int
    poly: TaylorPoly
    tail: AsymTail
    basis: Optional[tuple] = None
    ray: Optional[RayFn] = None

    @property
    def formal(self) -> Laurent:
        return self.poly + self.tail

    def __call__(self, X):
        """W_n(X), elementwise for an array X."""
        if self.ray is not None:
            return self.ray(X)
        if self.basis is None:
            raise SeriesError(f"inner order {self.order} has no evaluator")
        val = self.poly.to_float()(X) + sum(t(X) for t in self.basis)
        return float(val) if np.ndim(val) == 0 else val

    def fast_part(self) -> FastFn:
        """W_n minus its polynomial part, as an evaluable fast coefficient."""
        if self.basis is not None:
            if self.basis:
                return FastFn(self.tail, self.basis)
            return FastFn(self.tail, (), None, exact=self.tail.complete)
        poly = self.poly
        ray = self.ray
        if ray is None:
            return FastFn(self.tail)
        return FastFn(
            self.tail, (), lambda X: ray(X) - float(poly(X)), domain=ray.domain
        )


@dataclass(frozen=True)
class InnerExpansion:
    """Inner coefficients of y per eta-order; orders below r are zero."""

    p: int
    r: int
    sigma: int
    coeffs: tuple  # entry n is InnerCoeff or None (zero order)

    def __len__(self):
        return len(self.coeffs)

    def coeff(self, n: int) -> Optional[InnerCoeff]:
        return self.coeffs[n]


def _g_polynomials(spec: ODESpec, N_G: int, alphas=None) -> list:
    """For y-linear specs: the forcing G_m(X) of each inner order is the
    polynomial sum of h entries with j + p*l = m + r - 1 (plus the control
    coefficient alpha_m)."""
    out = []
    for m in range(N_G):
        coeffs = {}
        for (j, l), c in spec.h.items():
            if j + spec.p * l == m + spec.r - 1:
                coeffs[j] = coeffs.get(j, 0) + c
        if alphas is not None and m < len(alphas) and alphas[m] != 0:
            coeffs[0] = coeffs.get(0, 0) + alphas[m]
        deg = max(coeffs, default=-1)
        out.append(TaylorPoly([coeffs.get(j, 0) for j in range(deg + 1)]))
    return out


def _solve_linear_order(p, sigma, G_poly: TaylorPoly, order, depth=16):
    poly = TaylorPoly.zero()
    terms = []
    for l, c in enumerate(G_poly.coeffs):
        if c == 0:
            continue
        pl, tl = _j_monomial(p, sigma, l)
        poly = poly + pl.scale(c)
        terms.extend(t.scale(c) for t in tl)
    tail = sum((t.tail(depth) for t in terms), AsymTail.zero())
    if not is_exact(sum(G_poly.coeffs, 0)):
        poly = poly.to_float()
        tail = tail.to_float()
    return InnerCoeff(order=order, sigma=sigma, poly=poly, tail=tail,
                      basis=tuple(terms))


def inner_expansion(
    spec: ODESpec,
    N: int,
    sigma: int,
    alphas: Optional[Sequence] = None,
    depth: int = 16,
    X_far: Optional[float] = None,
) -> InnerExpansion:
    """Inner coefficients W_n of y for eta-orders n < N, solved order by
    order from the stretched equation.

    y-linear specs are solved in closed form (polynomial parts plus u-basis
    combinations, exact tails).  Nonlinear specs satisfying the strict
    quasi-homogeneity condition get one numeric flow solve per order.  When
    the reduced inner equation itself is nonlinear, only that leading
    nonlinear coefficient is integrated (with blowup detection); higher
    orders are outside the supported family.
    """
    if sigma not in (-1, 1):
        raise SeriesError("sigma must be -1 or +1")
    if not spec.quasi_homogeneous:
        raise InfeasibleError(
            "spec violates the quasi-homogeneity condition "
            "(j + r*k >= p-1 on eps-free P entries); no inner expansion "
            "in the stretched variable exists",
        )
    if spec.control and alphas is None:
        raise SeriesError("control specs need resolved alphas; see the canard module")
    p, r = spec.p, spec.r
    n_orders = N - r  # number of Y_m to produce, m = 0..n_orders-1
    coeffs: list = [None] * N
    if n_orders <= 0:
        return InnerExpansion(p=p, r=r, sigma=sigma, coeffs=tuple(coeffs))

    G_polys = _g_polynomials(spec, n_orders, alphas)

    if spec.linear_in_y:
        for m in range(n_orders):
            coeffs[r + m] = _solve_linear_order(p, sigma, G_polys[m], r + m, depth)
        return InnerExpansion(p=p, r=r, sigma=sigma, coeffs=tuple(coeffs))

    if spec.reduced_inner_nonlinear:
        y0 = _reduced_nonlinear_leading(spec, sigma, X_far=X_far, depth=depth)
        coeffs[r] = y0
        if n_orders > 1:
            raise UnsupportedExpansionError(
                "higher inner orders for a nonlinear reduced inner equation "
                "are not generated; only the leading coefficient is solved"
            )
        return InnerExpansion(p=p, r=r, sigma=sigma, coeffs=tuple(coeffs))

    # strictly quasi-homogeneous nonlinear: each order is a linear flow
    # solve with forcing assembled from products of earlier orders
    solved: list = []
    if X_far is None:
        X_far = 8.0 if p == 2 else 6.0
    for m in range(n_orders):
        g_poly = G_polys[m]
        extra_terms = []  # (coef, X-power j, list of factor orders)
        for (j, k, l), c in spec.P.items():
            e = j + r * k + p * l + 1 - p
            mm = m - e
            if mm < 0:
                continue
            # [eta^mm] Y^(k+1), compositions of mm into k+1 parts >= 0
            for combo in _compositions(mm, k + 1):
                if any(i >= len(solved) for i in combo):
                    continue
                extra_terms.append((c, j, combo))
        if not extra_terms:
            solved.append(_solve_linear_order(p, sigma, g_poly, r + m, depth))
            coeffs[r + m] = solved[-1]
            continue
        factors = [[solved[i] for i in combo] for (_, _, combo) in extra_terms]

        def v_fn(X, g_poly=g_poly.to_float(), extra=extra_terms, facs=factors):
            val = g_poly(X)
            for (c, j, _), fl in zip(extra, facs):
                prod = float(c) * X ** j
                for f in fl:
                    prod = prod * f(X)
                val = val + prod
            return val

        v_formal = Laurent.part(g_poly)
        for (c, j, _), fl in zip(extra_terms, factors):
            term = Laurent([c], j)
            for f in fl:
                term = term * f.formal
            v_formal = v_formal + term
        ray = apply_j(p, sigma, v_fn, v_series=v_formal, X_far=X_far, depth=depth)
        solved.append(
            InnerCoeff(order=r + m, sigma=sigma,
                       poly=TaylorPoly.part(ray.tail).to_float(),
                       tail=AsymTail.part(ray.tail).to_float(), ray=ray)
        )
        coeffs[r + m] = solved[-1]
    return InnerExpansion(p=p, r=r, sigma=sigma, coeffs=tuple(coeffs))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _reduced_nonlinear_leading(spec: ODESpec, sigma: int, X_far=None,
                               depth=16) -> InnerCoeff:
    """Leading inner coefficient for a nonlinear reduced equation
    Y' = p X^(p-1) Y + c X^(r-1) + sum q_{jk} X^j Y^(k+1), integrated
    inward from its decaying tail; blowup before the origin is reported
    with its location."""
    p, r = spec.p, spec.r
    if X_far is None:
        X_far = 6.0 if p > 2 else 8.0
    c = spec.h.get((r - 1, 0), 0)
    qterms = [
        ((j, k), cc) for (j, k, l), cc in spec.P.items()
        if l == 0 and j + r * k == p - 1
    ]

    def rhs(X, y):
        val = p * X ** (p - 1) * y[0] + float(c) * X ** (r - 1)
        for (j, k), cc in qterms:
            val += float(cc) * X ** j * y[0] ** (k + 1)
        return [val]

    # formal tail of the nonlinear solution, by the same fixed-point
    # inversion with the nonlinear terms folded in iteratively
    v0 = Laurent([c], r - 1)
    u = tail_of_j_series(p, v0, depth)
    for _ in range(4):
        v = v0
        for (j, k), cc in qterms:
            term = Laurent([cc], j)
            for _i in range(k + 1):
                term = term * u
            v = v + term
        u = tail_of_j_series(p, v, depth)

    x0 = sigma * X_far
    y0 = float(u(x0))
    cap = 1e6
    blow = lambda X, y: abs(y[0]) - cap
    blow.terminal = True
    sol = _numerics.integrate.solve_ivp(rhs, (x0, 0.0), [y0], method="RK45",
                                        rtol=1e-10, atol=1e-12, events=[blow],
                                        dense_output=True)
    if sol.status == 1 or not sol.success:
        where = sol.t_events[0][0] if sol.status == 1 and len(sol.t_events[0]) else (
            sol.t[-1] if len(sol.t) else x0)
        raise BlowupError(
            f"reduced inner solution blows up at X={where:.6g} before the origin",
            where=where,
        )
    dense = sol.sol
    ray = RayFn(sigma=sigma, fn=lambda X: dense(X)[0],
                domain=(min(x0, 0.0), max(x0, 0.0)), tail=u)
    return InnerCoeff(order=r, sigma=sigma, poly=TaylorPoly.part(u).to_float(),
                      tail=AsymTail.part(u).to_float(), ray=ray)


# ---------------------------------------------------------------------------
# matching


def combined_from_matching(
    spec: ODESpec,
    N: int,
    sigma: int,
    tol: float = 1e-9,
) -> CombinedSeries:
    """Assemble the combined series to eta-order N: slow parts are the
    regular parts of the outer coefficients, fast parts the decaying parts
    of the inner coefficients, and the rejected pieces of each must agree
    under the matching identity (checked, tolerance ``tol``; exact specs
    compare exactly).  Fast tails are kept to 16 terms, or to the largest
    pole order of the checked outer coefficients when that is larger."""
    n_eps = max(1, (N - 1) // spec.p)
    outer = outer_expansion(spec, n_eps)
    feas = dac_feasibility(outer)
    if not feas:
        raise InfeasibleError(feas.message, n=feas.witness, pole=feas.pole,
                              bound=feas.bound)
    p = spec.p
    outer_n = [LaurentPoly.zero()] * N  # v_n sits at eta-order p*n
    for n, v in enumerate(outer.orders):
        if 0 < p * n < N:
            outer_n[p * n] = v
    depth = max([16] + [v.pole_order for v in outer_n])
    inner = inner_expansion(spec, N, sigma, depth=depth)
    zero = (TaylorPoly.zero(), AsymTail.zero())
    check_matching(outer_n, [zero if w is None else (w.poly, w.tail)
                             for w in inner.coeffs], tol)
    return CombinedSeries(p, N, [v.regular_part() for v in outer_n],
                          [FastFn.zero() if w is None else w.fast_part()
                           for w in inner.coeffs])


# ---------------------------------------------------------------------------
# closed forms for the simple attracting turning point (p = 2)


def closed_form_series(
    g: TaylorPoly,
    N: int,
    kind: str = "attracting",
    ic: Optional[Sequence] = None,
    depth: int = 12,
) -> CombinedSeries:
    """Combined series of the bounded solution of eps y' = 2 x y + eps g(x)
    (kind "attracting", left-bounded branch) or of the solution of
    eps y' = -2 x y + eps g(x) with initial value sum(ic_n eta^n) at x = 0
    (kind "repelling_ic"), built by iterating the half-derivative shift
    operator on g.

    Slow parts occupy even eta-orders; fast parts are multiples of the
    layer functions (u-basis, flat Gaussians, and the Dawson integral for
    the repelling variant).
    """
    if kind not in ("attracting", "repelling_ic"):
        raise SeriesError(f"unknown kind {kind!r}")
    half = Fraction(1, 2) if all(is_exact(c) for c in g.coeffs) else 0.5
    sign = 1 if kind == "attracting" else -1

    iterates = [g]  # (sign * D S / 2)^n g
    while 2 * len(iterates) + 2 <= N + 2:
        prev = iterates[-1]
        iterates.append(shift_slow(prev).derivative().scale(sign * half))

    slow = [TaylorPoly.zero() for _ in range(N)]
    fast = [FastFn.zero() for _ in range(N)]

    if kind == "attracting":
        for n in range(1, len(iterates) + 1):
            m = 2 * n
            if m < N:
                slow[m] = shift_slow(iterates[n - 1]).scale(-half)
        for n in range(len(iterates)):
            m = 2 * n + 1
            if m < N:
                c = iterates[n].coefficient(0)
                if c != 0:
                    fast[m] = FastFn.from_basis(
                        [BasisTerm("u", 2, 1, -1, c)], depth=depth
                    )
        return CombinedSeries(2, N, slow, fast)

    # repelling side with prescribed initial value
    ic = list(ic) if ic is not None else []
    ic += [0] * (N - len(ic))
    for n in range(1, len(iterates) + 1):
        m = 2 * n
        if m < N:
            slow[m] = shift_slow(iterates[n - 1]).scale(half)
    for n in range(len(iterates)):
        m = 2 * n + 1
        if m < N:
            terms = []
            b = iterates[n].coefficient(0)
            if b != 0:
                terms.append(BasisTerm("dawson", p=2, coef=b))
            if ic[m] != 0:
                terms.append(
                    BasisTerm("exp_poly", p=2, coef=1,
                              poly=TaylorPoly([ic[m]]))
                )
            if terms:
                fast[m] = FastFn.from_basis(terms, depth=depth)
    for n in range(0, N, 2):
        d_n = ic[n]
        if n >= 2 and (n - 2) // 2 < len(iterates):
            d_n = d_n - shift_slow(iterates[(n - 2) // 2]).scale(half).coefficient(0)
        if d_n != 0:
            fast[n] = FastFn.from_basis(
                [BasisTerm("exp_poly", p=2, coef=1, poly=TaylorPoly([d_n]))],
                depth=depth,
            )
    return CombinedSeries(2, N, slow, fast)


# ---------------------------------------------------------------------------
# control expansion (p = 2 closed recursion)


@dataclass(frozen=True)
class ControlExpansion:
    """Control coefficients and the pole-free formal solution parts.

    ``grading`` records the expansion variable of ``alphas``: "eps" for the
    p = 2 closed recursion, "eta" when delegated to the moment method."""

    alphas: tuple
    ys: Optional[tuple]
    grading: str


def control_expansion(g: TaylorPoly, p: int, N: int) -> ControlExpansion:
    """Control values making the formal solution of
    eps y' = p x^(p-1) y + eps (g(x) + alpha) pole-free at the origin.

    For p = 2 the recursion alpha_n = y_n'(0), y_{n+1} = S(y_n' - alpha_n)/2
    runs exactly (alphas graded in eps).  Other even p delegate to the
    moment method in the canard module (alphas graded in eta = eps^(1/p)).
    """
    if p == 2:
        half = Fraction(1, 2) if all(is_exact(c) for c in g.coeffs) else 0.5
        alphas = [-g.coefficient(0)]
        ys = [TaylorPoly.zero(), shift_slow(g).scale(-half)]
        for n in range(1, N):
            dy = ys[n].derivative()
            alpha_n = dy.coefficient(0)
            alphas.append(alpha_n)
            ys.append(shift_slow(dy).scale(half))
        return ControlExpansion(tuple(alphas[:N]), tuple(ys[: N + 1]), "eps")
    from . import canard

    spec = ODESpec(
        p=p,
        h={(j, 0): c for j, c in enumerate(g.coeffs) if c != 0},
        control=True,
    )
    alphas = canard.canard_control_series(spec, N)
    return ControlExpansion(tuple(alphas), None, "eta")
