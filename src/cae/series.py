"""Coefficient-level algebra of combined slow/fast formal series.

A combined series mixes a *slow* part (polynomials in x) and a *fast* part
(functions of the stretched variable X = x/eta that vanish at infinity and
carry an asymptotic tail in powers of 1/X), one pair per power of the root
parameter eta, where eps = eta**p.

All containers are immutable after construction and every operation is a
pure function, so values can be shared freely.  Coefficients may be floats
or exact rationals (``int``/``Fraction``); exact inputs stay exact through
the purely algebraic operations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    CompatibilityError,
    DomainError,
    InfeasibleError,
    InsufficientTailError,
    MissingEvaluatorError,
    NonDifferentiableError,
    SeriesError,
)
from ._scalar import is_exact, scalar_from_json, scalar_to_json

DEFAULT_TAIL_DEPTH = 8


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# polynomials in the slow variable


class TaylorPoly:
    """Polynomial sum(c_m * x**m); also used for polynomial parts in X."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        object.__setattr__(self, "coeffs", tuple(_trim(coeffs)))

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TaylorPoly is immutable")

    @staticmethod
    def zero() -> "TaylorPoly":
        return TaylorPoly(())

    @staticmethod
    def constant(c) -> "TaylorPoly":
        return TaylorPoly((c,))

    @staticmethod
    def x(degree: int = 1) -> "TaylorPoly":
        return TaylorPoly((0,) * degree + (1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: int):
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return 0

    def __eq__(self, other):
        return isinstance(other, TaylorPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "TaylorPoly") -> "TaylorPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return TaylorPoly(
            [self.coefficient(m) + other.coefficient(m) for m in range(n)]
        )

    def __sub__(self, other: "TaylorPoly") -> "TaylorPoly":
        return self + (-other)

    def __neg__(self) -> "TaylorPoly":
        return TaylorPoly([-c for c in self.coeffs])

    def scale(self, s) -> "TaylorPoly":
        return TaylorPoly([s * c for c in self.coeffs])

    def __mul__(self, other: "TaylorPoly") -> "TaylorPoly":
        if self.is_zero() or other.is_zero():
            return TaylorPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return TaylorPoly(out)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "TaylorPoly":
        return TaylorPoly([m * c for m, c in enumerate(self.coeffs)][1:])

    def integral(self, lower=0) -> "TaylorPoly":
        """Antiderivative vanishing at ``lower``."""
        raw = [0] + [
            c / (m + 1) if not is_exact(c) else Fraction(c, m + 1)
            for m, c in enumerate(self.coeffs)
        ]
        prim = TaylorPoly(raw)
        c0 = prim(lower)
        return TaylorPoly([-c0] + list(raw[1:]))

    def truncate(self, degree: int) -> "TaylorPoly":
        return TaylorPoly(self.coeffs[: degree + 1])

    def to_float(self) -> "TaylorPoly":
        return TaylorPoly([float(c) for c in self.coeffs])

    def __repr__(self):
        return f"TaylorPoly({list(self.coeffs)!r})"


def shift_slow(a: TaylorPoly) -> TaylorPoly:
    """Drop the constant term and divide by x: returns (a(x) - a(0))/x.

    The defining identity a(x) = a(0) + x * shift_slow(a)(x) holds exactly
    on coefficients, and the degree drops by one.
    """
    return TaylorPoly(a.coeffs[1:])


class LaurentPoly:
    """Finite Laurent polynomial sum(c_m x**m), m = -K..M, exact pole order."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, coeffs: Sequence = (), offset: int = 0):
        # coeffs[i] multiplies x**(offset + i)
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            offset += 1
        coeffs = _trim(coeffs)
        if not coeffs:
            offset = 0
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly(())

    @staticmethod
    def from_taylor(a: TaylorPoly) -> "LaurentPoly":
        return LaurentPoly(a.coeffs, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: int):
        i = m - self.offset
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    @property
    def pole_order(self) -> int:
        """Largest k with a nonzero x**-k coefficient (0 if regular)."""
        return max(0, -self.offset)

    @property
    def top_degree(self) -> int:
        if not self.coeffs:
            return 0
        return self.offset + len(self.coeffs) - 1

    def regular_part(self) -> TaylorPoly:
        return TaylorPoly(
            [self.coefficient(m) for m in range(0, self.top_degree + 1)]
        )

    def pole_part(self) -> "LaurentPoly":
        return LaurentPoly(
            [self.coefficient(m) for m in range(self.offset, 0)], self.offset
        )

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.coeffs == other.coeffs
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.coeffs, self.offset))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.offset, other.offset)
        hi = max(self.top_degree, other.top_degree)
        return LaurentPoly(
            [self.coefficient(m) + other.coefficient(m) for m in range(lo, hi + 1)],
            lo,
        )

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly([-c for c in self.coeffs], self.offset)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "LaurentPoly":
        return LaurentPoly([s * c for c in self.coeffs], self.offset)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.is_zero() or other.is_zero():
            return LaurentPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return LaurentPoly(out, self.offset + other.offset)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by x**k."""
        return LaurentPoly(self.coeffs, self.offset + k)

    def derivative(self) -> "LaurentPoly":
        return LaurentPoly(
            [(self.offset + i) * c for i, c in enumerate(self.coeffs)],
            self.offset - 1,
        )

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.offset

    def __repr__(self):
        return f"LaurentPoly({list(self.coeffs)!r}, offset={self.offset})"


# ---------------------------------------------------------------------------
# asymptotic tails at infinity


class AsymTail:
    """Truncated series sum(g_m X**-m), m >= 1; no constant term by design.

    ``complete=True`` asserts that every coefficient beyond the stored ones
    is exactly zero (the tail is a finite exact expression).
    """

    __slots__ = ("coeffs", "complete")

    def __init__(self, coeffs: Sequence = (), complete: bool = False):
        coeffs = list(coeffs)
        if complete:
            coeffs = _trim(coeffs)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "complete", bool(complete))

    def __setattr__(self, *a):
        raise AttributeError("AsymTail is immutable")

    @staticmethod
    def zero() -> "AsymTail":
        return AsymTail((), complete=True)

    @property
    def depth(self) -> int:
        """Largest m for which g_m is known (infinite when complete)."""
        return len(self.coeffs)

    def known_to(self, m: int) -> bool:
        return self.complete or m <= len(self.coeffs)

    def coefficient(self, m: int):
        """g_m for m >= 1; raises beyond the stored depth unless complete."""
        if m < 1:
            raise SeriesError("tail indices start at m=1")
        if m <= len(self.coeffs):
            return self.coeffs[m - 1]
        if self.complete:
            return 0
        raise InsufficientTailError(
            f"tail coefficient m={m} beyond stored depth {len(self.coeffs)}"
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, AsymTail):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        def get(t, m):
            return t.coeffs[m - 1] if m <= len(t.coeffs) else 0
        return self.complete == other.complete and all(
            get(self, m) == get(other, m) for m in range(1, n + 1)
        )

    def __hash__(self):
        return hash((tuple(_trim(self.coeffs)), self.complete))

    def _combine_depth(self, other: "AsymTail") -> int:
        if self.complete and other.complete:
            return -1  # marker: complete
        if self.complete:
            return other.depth
        if other.complete:
            return self.depth
        return min(self.depth, other.depth)

    def __add__(self, other: "AsymTail") -> "AsymTail":
        d = self._combine_depth(other)
        if d < 0:
            n = max(self.depth, other.depth)
            return AsymTail(
                [self.coefficient(m) + other.coefficient(m) for m in range(1, n + 1)],
                complete=True,
            )
        return AsymTail(
            [self.coefficient(m) + other.coefficient(m) for m in range(1, d + 1)]
        )

    def __neg__(self):
        return AsymTail([-c for c in self.coeffs], self.complete)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "AsymTail":
        return AsymTail([s * c for c in self.coeffs], self.complete)

    def __mul__(self, other: "AsymTail") -> "AsymTail":
        """Cauchy product; result starts at m=2."""
        if self.complete and other.complete:
            if not self.coeffs or not other.coeffs:
                return AsymTail.zero()
            depth = self.depth + other.depth
            comp = True
        else:
            a = self.depth if not self.complete else other.depth
            b = other.depth if not other.complete else self.depth
            depth = min(a, b) + 1
            comp = False
        out = [0] * depth
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for j, d_ in enumerate(other.coeffs):
                m = i + j + 2
                if m <= depth:
                    out[m - 1] += c * d_
        return AsymTail(out, complete=comp)

    def derivative(self) -> "AsymTail":
        """d/dX of sum(g_m X**-m) = sum(-m g_m X**-(m+1))."""
        return AsymTail(
            [0] + [-(m) * c for m, c in zip(range(1, self.depth + 1), self.coeffs)],
            self.complete,
        )

    def partial_sum(self, X, terms: Optional[int] = None):
        """Horner evaluation in 1/X of the first ``terms`` coefficients."""
        n = self.depth if terms is None else min(terms, self.depth)
        acc = 0.0
        for m in range(n, 0, -1):
            acc = acc / X + self.coeffs[m - 1]
        return acc / X if n else 0.0

    def to_float(self) -> "AsymTail":
        return AsymTail([float(c) for c in self.coeffs], self.complete)

    def __repr__(self):
        star = ", complete" if self.complete else ""
        return f"AsymTail({list(self.coeffs)!r}{star})"


def shift_fast(g: AsymTail) -> AsymTail:
    """Drop g_1 and reindex: the tail of X*g(X) - g_1."""
    if not g.coeffs:
        if g.complete:
            return g
        raise InsufficientTailError("cannot shift an empty non-complete tail")
    return AsymTail(g.coeffs[1:], g.complete)


# ---------------------------------------------------------------------------
# evaluable fast coefficients


class BasisTerm:
    """Closed-form decaying basis element, coef times one of:

    - kind "u":        U_k^sigma(X), the polynomial-growth-free solution of
                       U' = p X**(p-1) U + X**(k-1) on the sigma side;
    - kind "exp_poly": exp(-X**p) * poly(X)  (flat: zero tail);
    - kind "dawson":   exp(-X**2) * integral_0^X exp(T**2) dT;
    - kind "ell_prime": X**(p-1)/(X**p + 1), the log-kernel derivative.
    """

    __slots__ = ("kind", "p", "k", "sigma", "coef", "poly")

    def __init__(self, kind, p=2, k=1, sigma=-1, coef=1, poly=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "poly", poly)

    def __setattr__(self, *a):
        raise AttributeError("BasisTerm is immutable")

    def scale(self, s):
        return BasisTerm(self.kind, self.p, self.k, self.sigma, s * self.coef, self.poly)

    def tail(self, depth: int) -> AsymTail:
        from . import special  # cycle-free at call time

        if self.kind == "u":
            poly, tail = special.u_tail(self.p, self.k, depth).to_poly_tail()
            if not poly.is_zero():
                raise SeriesError("u basis term with polynomial growth")
            return tail.scale(self.coef)
        if self.kind == "exp_poly":
            return AsymTail((), complete=True)  # flat: every tail coefficient is 0
        if self.kind == "dawson":
            # D' = 1 - 2 X D  =>  D = (1 - D')/(2X)
            coeffs = [0] * depth
            cur = {}
            for _ in range(depth + 2):
                new = {1: Fraction(1, 2)}
                for m, c in cur.items():
                    # derivative term: -(m) c X^-(m+1) -> divided by 2X
                    new[m + 2] = new.get(m + 2, 0) + Fraction(m, 2) * c
                cur = {m: c for m, c in new.items() if m <= depth}
            for m, c in cur.items():
                coeffs[m - 1] = self.coef * c
            return AsymTail(coeffs)
        if self.kind == "ell_prime":
            # X^(p-1)/(X^p+1) = sum_{j>=0} (-1)^j X^(-jp-1)
            coeffs = [0] * depth
            j = 0
            while j * self.p + 1 <= depth:
                coeffs[j * self.p] = self.coef * (-1) ** j
                j += 1
            return AsymTail(coeffs)
        raise SeriesError(f"unknown basis kind {self.kind!r}")

    def __call__(self, X):
        from . import special

        if self.kind == "u":  # elementwise on arrays
            return float(self.coef) * special.eval_u(self.p, self.k, self.sigma, X)
        if self.kind == "exp_poly":
            return self.coef * math.exp(-float(X) ** self.p) * self.poly(X)
        if self.kind == "dawson":
            from scipy.special import dawsn

            return self.coef * float(dawsn(X))
        if self.kind == "ell_prime":
            X = float(X)
            return self.coef * X ** (self.p - 1) / (X ** self.p + 1.0)
        raise SeriesError(f"unknown basis kind {self.kind!r}")

    def to_json(self):
        d = {"kind": self.kind, "p": self.p, "coef": scalar_to_json(self.coef)}
        if self.kind == "u":
            d["k"] = self.k
            d["sigma"] = "+" if self.sigma > 0 else "-"
        if self.kind == "exp_poly":
            d["poly"] = [scalar_to_json(c) for c in self.poly.coeffs]
        return d

    @staticmethod
    def from_json(d):
        sigma = 1 if d.get("sigma", "-") == "+" else -1
        poly = None
        if "poly" in d:
            poly = TaylorPoly([scalar_from_json(c) for c in d["poly"]])
        return BasisTerm(
            d["kind"], d.get("p", 2), d.get("k", 1), sigma,
            scalar_from_json(d["coef"]), poly,
        )

    def __repr__(self):
        return f"BasisTerm({self.kind!r}, p={self.p}, k={self.k}, sigma={self.sigma}, coef={self.coef})"


class FastFn:
    """A fast coefficient g(X): an asymptotic tail plus optional ways to
    evaluate it (a closed-form basis, an exact finite tail, or a raw
    evaluator restricted to a declared interval)."""

    __slots__ = ("tail", "basis", "evaluator", "exact", "domain")

    def __init__(
        self,
        tail: AsymTail = AsymTail((), complete=True),
        basis: Sequence[BasisTerm] = (),
        evaluator: Optional[Callable] = None,
        exact: bool = False,
        domain: Optional[tuple] = None,
    ):
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "evaluator", evaluator)
        object.__setattr__(self, "exact", bool(exact))
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, *a):
        raise AttributeError("FastFn is immutable")

    @staticmethod
    def zero() -> "FastFn":
        return FastFn(AsymTail.zero(), (), None, exact=True)

    @staticmethod
    def from_tail(coeffs, complete=False, exact=False) -> "FastFn":
        return FastFn(AsymTail(coeffs, complete=complete or exact), exact=exact)

    @staticmethod
    def from_basis(terms, depth=DEFAULT_TAIL_DEPTH) -> "FastFn":
        terms = [t for t in terms if t.coef != 0]
        tail = AsymTail([0] * depth)
        for t in terms:
            tail = tail + t.tail(depth)
        return FastFn(tail, terms)

    def is_zero(self) -> bool:
        return (
            self.tail.is_zero()
            and not self.basis
            and (self.evaluator is None)
        )

    @property
    def can_eval(self) -> bool:
        return self.exact or bool(self.basis) or self.evaluator is not None

    def __call__(self, X):
        if self.evaluator is not None:
            if self.domain is not None and not (self.domain[0] <= X <= self.domain[1]):
                raise DomainError(
                    f"X={X} outside evaluator domain [{self.domain[0]}, {self.domain[1]}]"
                )
            return self.evaluator(X)
        if self.basis:
            return math.fsum(float(t(X)) for t in self.basis)
        if self.exact:
            return self.tail.partial_sum(X)
        raise MissingEvaluatorError("fast coefficient has no evaluator")

    def _merged_domain(self, other):
        if self.domain is None:
            return other.domain
        if other.domain is None:
            return self.domain
        return (max(self.domain[0], other.domain[0]), min(self.domain[1], other.domain[1]))

    def __add__(self, other: "FastFn") -> "FastFn":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        tail = self.tail + other.tail
        if self.exact and other.exact:
            return FastFn(tail, (), None, exact=True)
        if self.basis and other.basis and self.evaluator is None \
                and other.evaluator is None and not self.exact and not other.exact:
            return FastFn(tail, (*self.basis, *other.basis))
        if self.can_eval and other.can_eval:
            f, g = self, other
            return FastFn(
                tail, (), lambda X: float(f(X)) + float(g(X)),
                domain=self._merged_domain(other),
            )
        return FastFn(tail)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "FastFn":
        if s == 0:
            return FastFn.zero()
        ev = None
        if self.evaluator is not None:
            f = self.evaluator
            ev = lambda X: s * f(X)
        return FastFn(
            self.tail.scale(s),
            tuple(t.scale(s) for t in self.basis),
            ev,
            exact=self.exact,
            domain=self.domain,
        )

    def __mul__(self, other: "FastFn") -> "FastFn":
        if self.is_zero() or other.is_zero():
            return FastFn.zero()
        tail = self.tail * other.tail
        if self.exact and other.exact:
            return FastFn(tail, (), None, exact=True)
        if self.can_eval and other.can_eval:
            f, g = self, other
            return FastFn(
                tail, (), lambda X: f(X) * g(X), domain=self._merged_domain(other)
            )
        return FastFn(tail)

    def shift(self) -> "FastFn":
        """The fast part of X*g(X): drops g_1 and keeps evaluability."""
        g1 = self.tail.coefficient(1)
        tail = shift_fast(self.tail)
        if self.exact:
            return FastFn(tail, (), None, exact=True)
        if self.can_eval:
            f = self
            g1f = float(g1)
            return FastFn(
                tail, (), lambda X: X * float(f(X)) - g1f, domain=self.domain
            )
        return FastFn(tail)

    def derivative(self) -> "FastFn":
        """Termwise tail derivative; closed forms propagate where known."""
        tail = self.tail.derivative()
        if self.exact:
            return FastFn(tail, (), None, exact=True)
        if self.basis:
            terms_eval = []
            for t in self.basis:
                terms_eval.append(_basis_derivative_eval(t))
            if all(e is not None for e in terms_eval):
                evs = list(terms_eval)
                return FastFn(
                    tail, (), lambda X: math.fsum(e(X) for e in evs)
                )
        return FastFn(tail)

    def re_tail(self, tail: AsymTail) -> "FastFn":
        return FastFn(tail, self.basis, self.evaluator, self.exact, self.domain)

    def to_json(self):
        d = {
            "tail": [scalar_to_json(c) for c in self.tail.coeffs],
            "complete": self.tail.complete,
            "exact": self.exact,
        }
        if self.basis:
            d["basis"] = [t.to_json() for t in self.basis]
        return d

    @staticmethod
    def from_json(d) -> "FastFn":
        tail = AsymTail(
            [scalar_from_json(c) for c in d.get("tail", [])],
            complete=d.get("complete", False) or d.get("exact", False),
        )
        basis = tuple(BasisTerm.from_json(t) for t in d.get("basis", []))
        return FastFn(tail, basis, None, exact=d.get("exact", False))

    def __repr__(self):
        tags = []
        if self.exact:
            tags.append("exact")
        if self.basis:
            tags.append(f"basis[{len(self.basis)}]")
        if self.evaluator:
            tags.append("eval")
        return f"FastFn({self.tail!r}{', ' + '+'.join(tags) if tags else ''})"


def _basis_derivative_eval(t: BasisTerm):
    from . import special

    if t.kind == "u":
        # U' = p X^(p-1) U + X^(k-1); switch to the differentiated tail for
        # large |X| to dodge the cancellation between the two terms.
        dtail = t.tail(DEFAULT_TAIL_DEPTH + 4).derivative()

        def ev(X, t=t, dtail=dtail):
            if abs(X) >= 12.0:
                return float(dtail.partial_sum(X))
            u = special.eval_u(t.p, t.k, t.sigma, X)
            return t.coef * (t.p * X ** (t.p - 1) * u + X ** (t.k - 1))

        return ev
    if t.kind == "exp_poly":
        def ev(X, t=t):
            q = t.poly
            dq = q.derivative()
            return t.coef * math.exp(-float(X) ** t.p) * (
                dq(X) - t.p * X ** (t.p - 1) * q(X)
            )

        return ev
    if t.kind == "dawson":
        dtail = t.tail(DEFAULT_TAIL_DEPTH + 2).derivative()

        def ev(X, t=t, dtail=dtail):
            if abs(X) >= 12.0:
                return float(dtail.partial_sum(X))
            from scipy.special import dawsn

            return t.coef * (1.0 - 2.0 * X * float(dawsn(X)))

        return ev
    if t.kind == "ell_prime":
        def ev(X, t=t):
            X = float(X)
            num = (t.p - 1) * X ** (t.p - 2) * (X ** t.p + 1) - t.p * X ** (2 * t.p - 2)
            return t.coef * num / (X ** t.p + 1) ** 2

        return ev
    return None


# ---------------------------------------------------------------------------
# the combined series


class LogComponent:
    """Log part produced by antidifferentiation: sum(r_k eta**k) * ell(X),
    with kernel ell(X) = (1/p) log(X**p + 1).  Zero when all residues are."""

    __slots__ = ("residues", "kernel_p")

    def __init__(self, residues: Sequence, kernel_p: int):
        object.__setattr__(self, "residues", tuple(residues))
        object.__setattr__(self, "kernel_p", kernel_p)

    def __setattr__(self, *a):
        raise AttributeError("LogComponent is immutable")

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    def kernel(self, X):
        return math.log(float(X) ** self.kernel_p + 1.0) / self.kernel_p

    def kernel_derivative_term(self) -> BasisTerm:
        return BasisTerm("ell_prime", p=self.kernel_p)

    def __call__(self, x, eta):
        acc = 0.0
        for k, r in enumerate(self.residues, start=1):
            acc += float(r) * eta ** k
        return acc * self.kernel(x / eta)

    def to_json(self):
        return {
            "residues": [scalar_to_json(r) for r in self.residues],
            "kernel_p": self.kernel_p,
        }

    @staticmethod
    def from_json(d):
        return LogComponent(
            [scalar_from_json(r) for r in d["residues"]], d["kernel_p"]
        )

    def __repr__(self):
        return f"LogComponent({list(self.residues)!r}, kernel_p={self.kernel_p})"


class CombinedSeries:
    """Truncated combined series sum_{n<N} (slow_n(x) + fast_n(x/eta)) eta**n
    with eps = eta**p."""

    __slots__ = ("p", "N", "slow", "fast")

    def __init__(self, p: int, N: int, slow=None, fast=None):
        if p < 1:
            raise SeriesError("root power p must be >= 1")
        slow = list(slow) if slow is not None else []
        fast = list(fast) if fast is not None else []
        slow += [TaylorPoly.zero()] * (N - len(slow))
        fast += [FastFn.zero()] * (N - len(fast))
        if len(slow) != N or len(fast) != N:
            raise SeriesError("slow/fast lists longer than the truncation order")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "slow", tuple(slow))
        object.__setattr__(self, "fast", tuple(fast))

    def __setattr__(self, *a):
        raise AttributeError("CombinedSeries is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(p: int, N: int) -> "CombinedSeries":
        return CombinedSeries(p, N)

    @staticmethod
    def from_slow(p: int, N: int, polys: Sequence[TaylorPoly]) -> "CombinedSeries":
        return CombinedSeries(p, N, slow=list(polys))

    @staticmethod
    def from_scalar(p: int, N: int, c) -> "CombinedSeries":
        return CombinedSeries(p, N, slow=[TaylorPoly.constant(c)])

    # -- structure ----------------------------------------------------------

    def order_is_zero(self, n: int) -> bool:
        return self.slow[n].is_zero() and self.fast[n].is_zero()

    def valuation(self) -> int:
        """min n with a nonzero coefficient pair; N for the zero series."""
        for n in range(self.N):
            if not self.order_is_zero(n):
                return n
        return self.N

    def distance(self, other: "CombinedSeries") -> float:
        return 2.0 ** (-(self - other).valuation())

    def truncate(self, N: int) -> "CombinedSeries":
        if N > self.N:
            raise SeriesError("cannot extend a series by truncation")
        return CombinedSeries(self.p, N, list(self.slow[:N]), list(self.fast[:N]))

    def shifted(self, k: int) -> "CombinedSeries":
        """Multiply by eta**k (orders beyond N drop off)."""
        if k == 0:
            return self
        slow = [TaylorPoly.zero()] * k + list(self.slow[: self.N - k])
        fast = [FastFn.zero()] * k + list(self.fast[: self.N - k])
        return CombinedSeries(self.p, self.N, slow, fast)

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other: "CombinedSeries"):
        if self.p != other.p:
            raise SeriesError(f"mismatched root powers p={self.p} vs p={other.p}")

    def __add__(self, other: "CombinedSeries") -> "CombinedSeries":
        self._check_compatible(other)
        N = min(self.N, other.N)
        return CombinedSeries(
            self.p,
            N,
            [self.slow[n] + other.slow[n] for n in range(N)],
            [self.fast[n] + other.fast[n] for n in range(N)],
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s) -> "CombinedSeries":
        return CombinedSeries(
            self.p,
            self.N,
            [a.scale(s) for a in self.slow],
            [g.scale(s) for g in self.fast],
        )

    def __mul__(self, other: "CombinedSeries") -> "CombinedSeries":
        return multiply(self, other)

    # -- serialization ------------------------------------------------------

    def to_json(self, log: Optional[LogComponent] = None):
        doc = {
            "p": self.p,
            "N": self.N,
            "slow": [[scalar_to_json(c) for c in a.coeffs] for a in self.slow],
            "fast": [g.to_json() for g in self.fast],
        }
        if log is not None:
            doc["log"] = log.to_json()
        return doc

    @staticmethod
    def from_json(doc) -> "CombinedSeries":
        slow = [TaylorPoly([scalar_from_json(c) for c in row]) for row in doc["slow"]]
        fast = [FastFn.from_json(d) for d in doc["fast"]]
        return CombinedSeries(doc["p"], doc["N"], slow, fast)

    def __repr__(self):
        return f"CombinedSeries(p={self.p}, N={self.N})"


# ---------------------------------------------------------------------------
# operations


def multiply(y: CombinedSeries, z: CombinedSeries) -> CombinedSeries:
    """Coefficient-exact product, truncated at min(N_y, N_z).

    Slow*slow products stay polynomial, fast*fast products multiply at tail
    (and evaluator) level, and mixed slow*fast monomials are expanded into
    slow and fast contributions at successive orders via the iterated
    shift identities a(x) = a(0) + x*Sa(x) and X g(X) = g_1 + Tg(X).
    """
    y._check_compatible(z)
    N = min(y.N, z.N)
    slow = [TaylorPoly.zero() for _ in range(N)]
    fast = [FastFn.zero() for _ in range(N)]

    def add_mixed(base: int, a: TaylorPoly, g: FastFn):
        # contributions of a(x) * g(x/eta) at orders base, base+1, ...;
        # both directions vanish beyond nu = deg(a)
        if a.is_zero() or g.is_zero():
            return
        budget = N - base
        c0 = a.coefficient(0)
        if c0 != 0:
            fast[base] = fast[base] + g.scale(c0)
        sp = a
        tf = g
        tf_order = 0
        for nu in range(1, min(budget, a.degree + 1)):
            sp = shift_slow(sp)
            if not sp.is_zero():
                g_nu = g.tail.coefficient(nu)  # raises if truncated too short
                if g_nu != 0:
                    slow[base + nu] = slow[base + nu] + sp.scale(g_nu)
            a_nu = a.coefficient(nu)
            if a_nu != 0:
                while tf_order < nu:
                    tf = tf.shift()
                    tf_order += 1
                fast[base + nu] = fast[base + nu] + tf.scale(a_nu)

    for n1 in range(min(y.N, N)):
        a, g = y.slow[n1], y.fast[n1]
        for n2 in range(min(z.N, N - n1)):
            b, h = z.slow[n2], z.fast[n2]
            base = n1 + n2
            if not a.is_zero() and not b.is_zero():
                slow[base] = slow[base] + a * b
            if not g.is_zero() and not h.is_zero():
                fast[base] = fast[base] + g * h
            add_mixed(base, a, h)
            add_mixed(base, b, g)
    return CombinedSeries(y.p, N, slow, fast)


def differentiate(y: CombinedSeries) -> CombinedSeries:
    """d/dx; order-n output is slow_n' + (fast_{n+1})'(X).

    Requires the leading fast part to vanish identically; the result is one
    order shorter (the fast derivative at the top order is not available).
    """
    if not y.fast[0].is_zero():
        raise NonDifferentiableError(
            "leading fast coefficient is nonzero; the combined series has no "
            "derivative (divide by eta first)"
        )
    N = y.N - 1
    if N < 0:
        raise SeriesError("cannot differentiate an empty series")
    slow = [y.slow[n].derivative() for n in range(N)]
    fast = [y.fast[n + 1].derivative() for n in range(N)]
    return CombinedSeries(y.p, N, slow, fast)


def differentiate_with_log(
    y: CombinedSeries, log: LogComponent
) -> CombinedSeries:
    """Derivative of y plus the log component sum(r_k eta^k) ell(x/eta)."""
    out = differentiate(y)
    slow = list(out.slow)
    fast = list(out.fast)
    term = log.kernel_derivative_term()
    for k, r in enumerate(log.residues, start=1):
        n = k - 1  # d/dx [eta^k ell(x/eta)] = eta^(k-1) ell'(X)
        if r != 0 and n < out.N:
            fast[n] = fast[n] + FastFn.from_basis(
                [term.scale(r)], depth=max(DEFAULT_TAIL_DEPTH, out.N + 2)
            )
    return CombinedSeries(out.p, out.N, slow, fast)


def antiderivative(y: CombinedSeries, r) -> tuple:
    """Antidifferentiate in x from base point ``r``.

    Returns ``(Y, log)`` with slow_n(Y) = integral_r^x slow_n, the fast
    antiderivatives appearing one order higher, and a log component holding
    the residue sequence r_k = g_{k-1,1} against the fixed kernel
    ell(X) = (1/p) log(X**p + 1).
    """
    from . import special

    p = y.p
    N = y.N
    slow = [y.slow[n].integral(r) if not y.slow[n].is_zero() else TaylorPoly.zero() for n in range(N)]
    fast = [FastFn.zero() for _ in range(N)]
    residues = []
    for n in range(N):
        g = y.fast[n]
        if g.is_zero():
            residues.append(0)
            continue
        g1 = g.tail.coefficient(1)
        residues.append(g1)
        if n + 1 >= N:
            continue
        fast[n + 1] = _fast_antiderivative(g, g1, p)
    log = LogComponent(residues, p)
    if not log.is_zero():
        # evaluators are mandatory wherever a residue must be subtracted
        for n, r_k in enumerate(residues):
            if r_k != 0 and not y.fast[n].can_eval:
                raise MissingEvaluatorError(
                    f"fast order {n} has residue {r_k} but no evaluator"
                )
    return CombinedSeries(p, N, slow, fast), log


def _fast_antiderivative(g: FastFn, g1, p: int) -> FastFn:
    """H(X) = integral_{sigma*inf}^X (g - g1*ell') with ell' = X^(p-1)/(X^p+1);
    reduces to G(X) = -integral_X^inf g when g1 == 0."""
    from . import special
    # tail: integrate termwise; ell' contributes at m = j*p+1
    depth = g.tail.depth if not g.tail.complete else max(g.tail.depth, DEFAULT_TAIL_DEPTH)
    h = [0] * depth  # integrand tail coefficients h_m
    for m in range(2, depth + 1):
        h[m - 1] = g.tail.coefficient(m)
    if g1 != 0:
        j = 1
        while j * p + 1 <= depth:
            h[j * p] = h[j * p] - g1 * (-1) ** j
            j += 1
    out = [0] * max(0, depth - 1)
    for mu in range(1, depth):
        c = h[mu]  # h_{mu+1}
        if c != 0:
            out[mu - 1] = Fraction(-c, mu) if is_exact(c) else -c / mu
    tail = AsymTail(out, complete=g.tail.complete and g1 == 0)
    if g.exact and g1 == 0:
        return FastFn(tail, (), None, exact=True)
    if not g.can_eval:
        return FastFn(tail)

    gf = g

    def ev(X, gf=gf, g1=g1, p=p):
        return special.decaying_antiderivative(gf, g1, p, X)

    return FastFn(tail, (), ev, domain=g.domain)


def compose_left(P, y: CombinedSeries) -> CombinedSeries:
    """Substitute y into P(y) = sum p_{jk} y**j eta**k.

    ``P`` maps (j, k) to a coefficient (scalar, TaylorPoly, FastFn or
    CombinedSeries).  Requires val(y) >= 1 so the sum converges in the
    valuation metric; the result is truncated at y.N.
    """
    if y.valuation() < 1:
        raise SeriesError("left composition requires a series without eta^0 term")
    p, N = y.p, y.N

    def lift(c) -> CombinedSeries:
        if isinstance(c, CombinedSeries):
            if c.p != p:
                raise SeriesError("coefficient series has mismatched p")
            return c.truncate(min(c.N, N))
        if isinstance(c, TaylorPoly):
            return CombinedSeries.from_slow(p, N, [c])
        if isinstance(c, FastFn):
            return CombinedSeries(p, N, fast=[c])
        return CombinedSeries.from_scalar(p, N, c)

    out = CombinedSeries.zero(p, N)
    powers = {0: CombinedSeries.from_scalar(p, N, 1)}

    def y_pow(j):
        if j not in powers:
            powers[j] = multiply(y_pow(j - 1), y)
        return powers[j]

    for (j, k), c in P.items():
        if k >= N:
            continue
        if j > 0 and j * y.valuation() + k >= N:
            continue
        term = lift(c)
        if j:
            term = multiply(term, y_pow(j))
        out = out + term.shifted(k)
    return out


def extract_outer(y: CombinedSeries, n: int) -> LaurentPoly:
    """Outer (Poincare-type) coefficient c_n = slow_n + pole corrections
    collected from the tails of the lower fast parts."""
    if not 0 <= n < y.N:
        raise SeriesError(f"order {n} outside truncation {y.N}")
    out = LaurentPoly.from_taylor(y.slow[n])
    for l in range(n):
        m = n - l
        if not y.fast[l].tail.known_to(m):
            raise InsufficientTailError(
                f"outer order {n} needs tail depth {m} at fast order {l}"
            )
        g_lm = y.fast[l].tail.coefficient(m)
        if g_lm != 0:
            out = out + LaurentPoly([g_lm], l - n)
    return out


def extract_inner(y: CombinedSeries, n: int) -> tuple:
    """Inner coefficient h_n as (polynomial part in X, tail): the tail is
    fast_n's and the polynomial collects slow Taylor coefficients on the
    anti-diagonal."""
    if not 0 <= n < y.N:
        raise SeriesError(f"order {n} outside truncation {y.N}")
    poly = TaylorPoly([y.slow[n - l].coefficient(l) for l in range(n + 1)])
    return poly, y.fast[n].tail


def reconstruct_from_matching(
    outer: Sequence[LaurentPoly],
    inner: Sequence[tuple],
    p: int,
    tol: float = 1e-9,
) -> CombinedSeries:
    """Rebuild a combined series from outer and inner expansion coefficients.

    slow_n is the regular part of outer[n]; the fast tail at order n is the
    tail part of inner[n].  Every overlapping coefficient must satisfy the
    matching identity c_{n,m} = z_{n+m,-m}; the first violation (and any
    pole-order or degree violation) aborts the reconstruction.
    """
    N = min(len(outer), len(inner))
    for n in range(N):
        if outer[n].pole_order > n:
            raise InfeasibleError(
                f"outer order {n} has pole order {outer[n].pole_order} > {n}",
                n=n, pole=outer[n].pole_order, bound=n,
            )
        poly_n = inner[n][0]
        if poly_n.degree > n:
            raise InfeasibleError(
                f"inner order {n} has polynomial degree {poly_n.degree} > {n}",
                n=n, pole=poly_n.degree, bound=n,
            )

    def close(a, b):
        if tol == 0:
            return a == b
        return abs(float(a) - float(b)) <= tol

    slow = [outer[n].regular_part() for n in range(N)]
    fast = [FastFn(inner[n][1]) for n in range(N)]

    # pole side: c_{n,-mu} must equal the tail coefficient g_{n-mu, mu}
    for n in range(N):
        for mu in range(1, n + 1):
            c = outer[n].coefficient(-mu)
            t = inner[n - mu][1]
            z = t.coefficient(mu) if t.known_to(mu) else 0
            if not close(c, z):
                raise CompatibilityError(
                    f"matching violated at outer order n={n}, pole x^-{mu}: "
                    f"{c} != tail coefficient {z}",
                    n=n, m=-mu,
                )
    # polynomial side: inner poly coeff of X^l must equal c_{n-l, l}
    for n in range(N):
        poly_n = inner[n][0]
        for l in range(0, min(poly_n.degree, n) + 1):
            z = poly_n.coefficient(l)
            c = outer[n - l].coefficient(l)
            if not close(z, c):
                raise CompatibilityError(
                    f"matching violated at inner order n={n}, X^{l}: "
                    f"{z} != outer coefficient {c}",
                    n=n, m=l,
                )
    return CombinedSeries(p, N, slow, fast)


def evaluate_partial_sum(y: CombinedSeries, x, eta, N: Optional[int] = None):
    """sum_{n<N} (slow_n(x) + fast_n(x/eta)) * eta**n as a float."""
    if N is None:
        N = y.N
    if N > y.N:
        raise SeriesError(f"partial-sum order {N} beyond truncation {y.N}")
    X = x / eta
    total = 0.0
    for n in range(N):
        v = float(y.slow[n](x)) if not y.slow[n].is_zero() else 0.0
        g = y.fast[n]
        if not g.is_zero():
            v += float(g(X))
        total += v * eta ** n
    return total


def evaluate_with_log(y: CombinedSeries, log: LogComponent, x, eta, N=None):
    return evaluate_partial_sum(y, x, eta, N) + log(x, eta)
