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

import functools
import math
from dataclasses import dataclass
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
from . import _numerics
from ._scalar import is_exact, scalar_from_json, scalar_to_json

DEFAULT_TAIL_DEPTH = 8


# ---------------------------------------------------------------------------
# the truncated-Laurent core and its three views


def _window(c, offset: int, lo: int, hi: int) -> list:
    """Coefficients of the powers lo..hi of the storage ``c`` starting at
    power ``offset``: stored values where there are any, int 0 elsewhere."""
    i, j = lo - offset, hi + 1 - offset  # the window as slice bounds of c
    if j <= 0 or i >= len(c):  # no overlap
        return [0] * (hi - lo + 1)
    return [0] * -i + list(c[i if i > 0 else 0:j]) + [0] * (j - len(c))


def _lead(c) -> int:
    """Number of leading zeros of ``c``."""
    i = 0
    while i < len(c) and c[i] == 0:
        i += 1
    return i


def _fill(obj, dense: tuple, offset: int, low):
    # the slot setters, bound once: cheaper than object.__setattr__
    _set_dense(obj, dense)
    _set_offset(obj, offset)
    _set_low(obj, low)
    return obj


class Laurent:
    """Truncated Laurent series sum(c_e t**e) in one base variable t.

    ``dense[i]`` multiplies t**(offset + i).  ``low`` is the lowest power
    whose coefficient is known, or None for a complete series, whose
    coefficients outside ``dense`` are exactly 0.  Reading a coefficient
    below ``low`` raises InsufficientTailError; no caller may read it as 0.

    Slow parts use t = x.  Fast parts use t = X, so the tail coefficient
    g_m sits at power -m.  Stored coefficients keep the type their
    arithmetic gave them (a Fraction zero stays a Fraction).  A plain
    Laurent trims zeros at both ends; the subclasses TaylorPoly and
    AsymTail are views that keep only the powers >= 0, or < 0, of what
    they are built from.
    """

    __slots__ = ("dense", "offset", "low")

    def __init__(self, dense: Sequence = (), offset: int = 0,
                 low: Optional[int] = None):
        _fill(self, *self._norm(list(dense), offset, low))

    @classmethod
    def _new(cls, c: list, offset: int, low):
        return _fill(object.__new__(cls), *cls._norm(c, offset, low))

    @staticmethod
    def _norm(c: list, offset: int, low):
        if low is not None and offset < low:
            del c[:low - offset]
            offset = low
        while c and c[-1] == 0:
            c.pop()
        i = _lead(c)
        return tuple(c[i:]), offset + i if c else 0, low

    @classmethod
    def part(cls, s: "Laurent"):
        """``s`` read through this class: the powers it keeps, stored its way."""
        return cls._new(list(s.dense), s.offset, s.low)

    @classmethod
    @functools.cache  # one shared instance per class
    def zero(cls):
        return cls._new([], 0, None)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple:
        return self.dense

    @property
    def top_degree(self) -> int:
        """Highest stored power (0 for the zero series)."""
        return self.offset + len(self.dense) - 1 if self.dense else 0

    def coefficient(self, e: int):
        """The coefficient of t**e; raises below the known bound."""
        i = e - self.offset
        if 0 <= i < len(self.dense):
            return self.dense[i]
        if self.low is not None and e < self.low:
            raise InsufficientTailError(
                f"coefficient of power {e} unknown: known down to power {self.low}"
            )
        return 0

    def is_zero(self) -> bool:
        if self.low is None:  # complete series are trimmed
            return not self.dense
        return all(c == 0 for c in self.dense)

    def __eq__(self, other):
        return (type(self) is type(other) and self.dense == other.dense
                and self.offset == other.offset and self.low == other.low)

    def __hash__(self):
        return hash((self.dense, self.offset, self.low))

    def __add__(self, other: "Laurent"):
        a, b, ea, eb = self.dense, other.dense, self.offset, other.offset
        if ea == eb and len(a) == len(b):
            out = [x + y for x, y in zip(a, b)]
        else:
            lo = min(ea if a else eb, eb if b else ea)
            hi = max(ea + len(a), eb + len(b)) - 1
            out = [x + y for x, y in zip(_window(a, ea, lo, hi), _window(b, eb, lo, hi))]
            ea = lo
        la, lb = self.low, other.low
        low = lb if la is None else la if lb is None else max(la, lb)
        return (type(self) if type(other) is type(self) else Laurent)._new(out, ea, low)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s):
        return type(self)._new([s * c for c in self.dense], self.offset, self.low)

    def __mul__(self, other: "Laurent"):
        """Cauchy product, known down to the lowest power that no unknown
        coefficient of either factor reaches."""
        cls = type(self) if type(other) is type(self) else Laurent
        a, b, la, lb = self.dense, other.dense, self.low, other.low
        e = self.offset + other.offset
        if (not a and la is None) or (not b and lb is None):
            return cls._new([], 0, None)  # exact zero
        low, skip = None, 0  # skip: first index i + j kept
        if la is not None or lb is not None:
            ta = self.offset + len(a) - 1 if a else la - 1
            tb = other.offset + len(b) - 1 if b else lb - 1
            low = max(l + t for l, t in ((la, tb), (lb, ta)) if l is not None)
            skip = low - e
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x == 0:
                continue
            if skip <= i:
                for k, y in enumerate(b, i):
                    out[k] += x * y
            else:
                for k, y in enumerate(b[skip - i:], skip):
                    out[k] += x * y
        return cls._new(out, e, low)

    def derivative(self):
        e = self.offset
        return type(self)._new([(e + i) * c for i, c in enumerate(self.dense)],
                               e - 1, None if self.low is None else self.low - 1)

    def integral(self):
        """Termwise antiderivative with no constant term; the coefficient of
        t**-1 must vanish."""
        out = []
        for e, c in enumerate(self.dense, self.offset + 1):
            if e == 0 and c != 0:
                raise SeriesError("t**-1 has no power-law antiderivative")
            out.append(c if c == 0 else Fraction(c, e) if is_exact(c) else c / e)
        return type(self)._new(out, self.offset + 1,
                               None if self.low is None else self.low + 1)

    def shift(self, k: int):
        """Multiply by t**k."""
        return type(self)._new(list(self.dense), self.offset + k,
                               None if self.low is None else self.low + k)

    def truncate(self, low: int):
        """Forget every coefficient below power ``low``."""
        if self.low is not None:
            low = max(low, self.low)
        return type(self)._new(list(self.dense), self.offset, low)

    def to_float(self):
        return type(self)._new([float(c) for c in self.dense], self.offset, self.low)

    def __call__(self, x):
        """Value of the stored coefficients at x: Horner in x over the
        powers >= 0 and in 1/x over the powers < 0."""
        val = 0
        if self.offset == 0:  # a polynomial; this loop runs inside quadratures
            for a in reversed(self.dense):
                val = val * x + a
            return val
        c, e = self.dense, self.offset
        k = min(max(-e, 0), len(c))  # entries at negative powers
        for a in reversed(c[k:]):
            val = val * x + a
        if e > 0:
            val = val * x ** e
        if not k:
            return val
        neg = 0
        for a in c[:k]:
            neg = neg / x + a
        for _ in range(1 - e - k):  # down from the highest negative power
            neg = neg / x
        return neg + val if k < len(c) else neg

    def __repr__(self):
        return f"Laurent({list(self.dense)!r}, offset={self.offset}, low={self.low})"


_set_dense, _set_offset, _set_low = (Laurent.dense.__set__, Laurent.offset.__set__,
                                     Laurent.low.__set__)


class TaylorPoly(Laurent):
    """Polynomial sum(c_m * x**m); also used for polynomial parts in X.

    Reading a series through TaylorPoly keeps its powers >= 0.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence = ()):
        _fill(self, *self._norm(list(coeffs), 0, None))

    @staticmethod
    def _norm(c: list, offset: int, low):
        if low is not None and low > 0:
            raise InsufficientTailError(f"polynomial part unknown below power {low}")
        if offset < 0:
            c = c[-offset:]
        elif offset > 0:
            c = [0] * offset + c
        while c and c[-1] == 0:
            c.pop()
        return tuple(c), 0, None

    @property
    def degree(self) -> int:
        return len(self.dense) - 1  # -1 for the zero polynomial

    def integral(self, lower=0) -> "TaylorPoly":
        """Antiderivative vanishing at ``lower``."""
        prim = Laurent.integral(self)
        return prim - TaylorPoly([prim(lower)])

    def __repr__(self):
        return f"TaylorPoly({list(self.dense)!r})"


def shift_slow(a: TaylorPoly) -> TaylorPoly:
    """Drop the constant term and divide by x: returns (a(x) - a(0))/x.

    The defining identity a(x) = a(0) + x * shift_slow(a)(x) holds exactly
    on coefficients, and the degree drops by one.
    """
    return a.shift(-1)


class LaurentPoly(Laurent):
    """Finite Laurent polynomial sum(c_m x**m), m = -K..M, exact pole order."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence = (), offset: int = 0):
        _fill(self, *self._norm(list(coeffs), offset, None))  # coeffs[i] at x**(offset + i)

    @property
    def pole_order(self) -> int:
        """Largest k with a nonzero x**-k coefficient (0 if regular)."""
        return max(0, -self.offset)

    def regular_part(self) -> TaylorPoly:
        return TaylorPoly.part(self)

    def __repr__(self):
        return f"LaurentPoly({list(self.dense)!r}, offset={self.offset})"


class AsymTail(Laurent):
    """Truncated series sum(g_m X**-m), m >= 1; no constant term by design.

    ``complete=True`` asserts that every coefficient beyond the stored ones
    is exactly zero (the tail is a finite exact expression).  Reading a
    series through AsymTail keeps its powers < 0, stored down to the known
    bound.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence = (), complete: bool = False):
        c = list(coeffs)[::-1]
        _fill(self, *self._norm(c, -len(c), None if complete else -len(c)))

    @staticmethod
    def _norm(c: list, offset: int, low):
        low = None if low is None else min(low, 0)
        lo = offset if low is None else low
        if lo != offset or offset + len(c) != 0:  # not stored on lo..-1 yet
            c = _window(c, offset, lo, -1)
        if low is None:  # trim the zeros at the deep end
            c = c[_lead(c):]
        return tuple(c), -len(c), low

    @property
    def coeffs(self) -> tuple:
        """(g_1, g_2, ..., g_depth)."""
        return self.dense[::-1]

    @property
    def complete(self) -> bool:
        return self.low is None

    @property
    def depth(self) -> int:
        """Largest m for which g_m is stored (every m when complete)."""
        return len(self.dense)

    def known_to(self, m: int) -> bool:
        return self.low is None or -m >= self.low

    def coefficient(self, m: int):
        """g_m for m >= 1; raises beyond the known depth."""
        if m < 1:
            raise SeriesError("tail indices start at m=1")
        if m <= len(self.dense):
            return self.dense[-m]
        return Laurent.coefficient(self, -m)  # 0 when complete, else raises

    partial_sum = Laurent.__call__  # Horner in 1/X over the stored coefficients

    def __repr__(self):
        star = ", complete" if self.complete else ""
        return f"AsymTail({list(self.coeffs)!r}{star})"


def shift_fast(g: AsymTail) -> AsymTail:
    """Drop g_1 and reindex: the tail of X*g(X) - g_1."""
    return g.shift(1)


# ---------------------------------------------------------------------------
# evaluable fast coefficients


@dataclass(frozen=True, eq=False, slots=True)
class BasisTerm:
    """Closed-form decaying basis element, coef times one of:

    - kind "u":        U_k^sigma(X), the polynomial-growth-free solution of
                       U' = p X**(p-1) U + X**(k-1) on the sigma side;
    - kind "exp_poly": exp(-X**p) * poly(X)  (flat: zero tail);
    - kind "dawson":   exp(-X**2) * integral_0^X exp(T**2) dT;
    - kind "ell_prime": X**(p-1)/(X**p + 1), the log-kernel derivative.
    """

    kind: str
    p: int = 2
    k: int = 1
    sigma: int = -1
    coef: object = 1
    poly: Optional[TaylorPoly] = None

    def scale(self, s):
        return BasisTerm(self.kind, self.p, self.k, self.sigma, s * self.coef, self.poly)

    def tail(self, depth: int) -> AsymTail:
        from . import special  # cycle-free at call time

        if self.kind == "u":
            return special.u_tail(self.p, self.k, depth).scale(self.coef)
        if self.kind == "exp_poly":
            return AsymTail((), complete=True)  # flat: every tail coefficient is 0
        if self.kind == "dawson":
            # D' = 1 - 2 X D  =>  D = (1 - D')/(2X), iterated to its fixed point
            d = Laurent()
            for _ in range(depth + 2):
                d = (Laurent([1]) - d.derivative()).shift(-1).scale(Fraction(1, 2)).truncate(-depth)
            return AsymTail.part(d).scale(self.coef)
        if self.kind == "ell_prime":
            # X^(p-1)/(X^p+1) = sum_{j>=0} (-1)^j X^(-jp-1)
            return AsymTail([0 if i % self.p else self.coef * (-1) ** (i // self.p)
                             for i in range(depth)])
        raise SeriesError(f"unknown basis kind {self.kind!r}")

    def __call__(self, X):
        from . import special

        if self.kind == "u":  # elementwise on arrays
            return float(self.coef) * special.eval_u(self.p, self.k, self.sigma, X)
        if self.kind == "exp_poly":
            return self.coef * math.exp(-float(X) ** self.p) * self.poly(X)
        if self.kind == "dawson":
            return self.coef * float(_numerics.special.dawsn(X))
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


@dataclass(frozen=True, eq=False, slots=True)
class FastFn:
    """A fast coefficient g(X): an asymptotic tail plus optional ways to
    evaluate it (a closed-form basis, an exact finite tail, or a raw
    evaluator restricted to a declared interval)."""

    tail: AsymTail = AsymTail.zero()
    basis: tuple = ()  # of BasisTerm
    evaluator: Optional[Callable] = None
    exact: bool = False
    domain: Optional[tuple] = None

    @staticmethod
    @functools.cache  # one shared instance
    def zero() -> "FastFn":
        return FastFn(AsymTail.zero(), (), None, exact=True)

    @staticmethod
    def from_tail(coeffs, complete=False, exact=False) -> "FastFn":
        return FastFn(AsymTail(coeffs, complete=complete or exact), exact=exact)

    @staticmethod
    def from_basis(terms, depth=DEFAULT_TAIL_DEPTH) -> "FastFn":
        terms = tuple(t for t in terms if t.coef != 0)
        return FastFn(sum((t.tail(depth) for t in terms), AsymTail([0] * depth)), terms)

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
        evs = [_basis_derivative_eval(t) for t in self.basis]
        if evs and None not in evs:
            return FastFn(tail, (), lambda X: math.fsum(e(X) for e in evs))
        return FastFn(tail)

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

    if t.kind in ("u", "dawson"):
        # switch to the differentiated tail for large |X| to dodge the
        # cancellation between the two terms of the closed form
        dtail = t.tail(DEFAULT_TAIL_DEPTH + (4 if t.kind == "u" else 2)).derivative()

        def ev(X, t=t, dtail=dtail):
            if abs(X) >= 12.0:
                return float(dtail.partial_sum(X))
            if t.kind == "u":  # U' = p X^(p-1) U + X^(k-1)
                u = special.eval_u(t.p, t.k, t.sigma, X)
                return t.coef * (t.p * X ** (t.p - 1) * u + X ** (t.k - 1))
            # D' = 1 - 2 X D
            return t.coef * (1.0 - 2.0 * X * float(_numerics.special.dawsn(X)))

        return ev
    if t.kind == "exp_poly":
        def ev(X, t=t):
            q = t.poly
            dq = q.derivative()
            return t.coef * math.exp(-float(X) ** t.p) * (
                dq(X) - t.p * X ** (t.p - 1) * q(X)
            )

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


@dataclass(frozen=True, eq=False, slots=True)
class LogComponent:
    """Log part produced by antidifferentiation: sum(r_k eta**k) * ell(X),
    with kernel ell(X) = (1/p) log(X**p + 1).  Zero when all residues are."""

    residues: tuple
    kernel_p: int

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    def kernel(self, X):
        return math.log(float(X) ** self.kernel_p + 1.0) / self.kernel_p

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
            tuple(scalar_from_json(r) for r in d["residues"]), d["kernel_p"]
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
        return CombinedSeries(p, N, slow=[TaylorPoly([c])])

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
    fast = list(out.fast)
    term = BasisTerm("ell_prime", p=log.kernel_p)  # d/dX of the log kernel
    for k, r in enumerate(log.residues, start=1):
        n = k - 1  # d/dx [eta^k ell(x/eta)] = eta^(k-1) ell'(X)
        if r != 0 and n < out.N:
            fast[n] = fast[n] + FastFn.from_basis(
                [term.scale(r)], depth=max(DEFAULT_TAIL_DEPTH, out.N + 2)
            )
    return CombinedSeries(out.p, out.N, out.slow, fast)


def antiderivative(y: CombinedSeries, r) -> tuple:
    """Antidifferentiate in x from base point ``r``.

    Returns ``(Y, log)`` with slow_n(Y) = integral_r^x slow_n, the fast
    antiderivatives appearing one order higher, and a log component holding
    the residue sequence r_k = g_{k-1,1} against the fixed kernel
    ell(X) = (1/p) log(X**p + 1).
    """
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
    log = LogComponent(tuple(residues), p)
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

    h = g.tail  # integrand tail, with g1*ell' taken off (its X^-1 term is g1)
    if g1 != 0:
        depth = max(h.depth, DEFAULT_TAIL_DEPTH) if h.complete else h.depth
        h = h - BasisTerm("ell_prime", p=p, coef=g1).tail(depth)
    tail = h.integral()
    if g.exact and g1 == 0:
        return FastFn(tail, (), None, exact=True)
    if not g.can_eval:
        return FastFn(tail)
    ev = functools.partial(special.decaying_antiderivative, g, g1, p)
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
    poles = [y.fast[n - m].tail.coefficient(m) for m in range(n, 0, -1)]
    return LaurentPoly.part(y.slow[n]) + LaurentPoly(poles, -n)


def extract_inner(y: CombinedSeries, n: int) -> tuple:
    """Inner coefficient h_n as (polynomial part in X, tail): the tail is
    fast_n's and the polynomial collects slow Taylor coefficients on the
    anti-diagonal."""
    if not 0 <= n < y.N:
        raise SeriesError(f"order {n} outside truncation {y.N}")
    poly = TaylorPoly([y.slow[n - l].coefficient(l) for l in range(n + 1)])
    return poly, y.fast[n].tail


def check_matching(outer: Sequence[LaurentPoly], inner: Sequence[tuple],
                   tol: float = 1e-9) -> None:
    """Check the matching identity c_{n,m} = z_{n+m,-m} between outer
    coefficients (one LaurentPoly in x per eta-order n) and inner ones (one
    (TaylorPoly, AsymTail) pair in X per eta-order).

    Both sides are compared both ways: every stored tail coefficient against
    its outer partner, every outer pole coefficient against the tail that
    must carry it, and the inner polynomials against the outer Taylor
    coefficients on each anti-diagonal.  Values that are both exact compare
    exactly, others to ``tol``.  A pole coefficient beyond its tail's known
    depth raises InsufficientTailError; a pole order or polynomial degree
    above n raises InfeasibleError; a violated identity raises
    CompatibilityError with its (n, m).
    """
    N = min(len(outer), len(inner))
    # c_{k,e} = rows[k][k + e] for e = -k..N-1-k, read once per outer order
    rows = [_window(v.dense, v.offset, -k, N - 1 - k) for k, v in enumerate(outer[:N])]

    def check(n, m, z, c):
        if z == c or (tol and not (is_exact(z) and is_exact(c))
                      and abs(float(z) - float(c)) <= tol):
            return
        if m < 0:
            raise CompatibilityError(
                f"matching violated at outer order n={n}, pole x^{m}: "
                f"{c} != tail coefficient {z}",
                n=n, m=m,
            )
        raise CompatibilityError(
            f"matching violated at inner order n={n}, X^{m}: "
            f"{z} != outer coefficient {c}",
            n=n, m=m,
        )

    for n in range(N):
        v, (poly, tail) = outer[n], inner[n]
        if v.pole_order > n:
            raise InfeasibleError(
                f"outer order {n} has pole order {v.pole_order} > {n}",
                n=n, pole=v.pole_order, bound=n,
            )
        if poly.degree > n:
            raise InfeasibleError(
                f"inner order {n} has polynomial degree {poly.degree} > {n}",
                n=n, pole=poly.degree, bound=n,
            )
        # the stored tail coefficients g_{n,mu} against c_{n+mu,-mu}
        k = min(tail.depth, N - 1 - n)
        have, want = list(tail.coeffs[:k]), [rows[n + mu][n] for mu in range(1, k + 1)]
        if have != want:
            for mu in range(1, k + 1):
                check(n + mu, -mu, have[mu - 1], want[mu - 1])
        # outer poles c_{n,-mu} beyond what the tail g_{n-mu} stores
        for mu in range(1, v.pole_order + 1):
            t = inner[n - mu][1]
            if mu > t.depth:
                check(n, -mu, t.coefficient(mu), rows[n][n - mu])
        # the inner polynomial coefficients z_{n,l} against c_{n-l,l}
        have = list(poly.dense) + [0] * (n - poly.degree)
        want = [rows[n - l][n] for l in range(n + 1)]
        if have != want:
            for l in range(n + 1):
                check(n, l, have[l], want[l])


def reconstruct_from_matching(
    outer: Sequence[LaurentPoly],
    inner: Sequence[tuple],
    p: int,
    tol: float = 1e-9,
) -> CombinedSeries:
    """Rebuild a combined series from outer and inner expansion coefficients.

    slow_n is the regular part of outer[n]; the fast tail at order n is the
    tail part of inner[n].  The data must pass ``check_matching``.
    """
    check_matching(outer, inner, tol)
    N = min(len(outer), len(inner))
    return CombinedSeries(p, N, [outer[n].regular_part() for n in range(N)],
                          [FastFn(inner[n][1]) for n in range(N)])


def evaluate_partial_sum(y: CombinedSeries, x, eta, N: Optional[int] = None):
    """sum_{n<N} (slow_n(x) + fast_n(x/eta)) * eta**n as a float."""
    if N is None:
        N = y.N
    if N > y.N:
        raise SeriesError(f"partial-sum order {N} beyond truncation {y.N}")
    if N < 0:
        raise SeriesError(f"partial-sum order {N} is negative")
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
