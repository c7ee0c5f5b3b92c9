"""Seeded op generators and independent checks for the three workloads.

A workload is an endless sequence of cycles.  Cycle k of seed s is built
from ``random.Random(f"{workload}:{s}:{k}")`` alone, so the same seed gives
byte-identical inputs whatever ran before, and every cycle has the same
shape (op kinds and sizes); the seed only moves the values inside that
shape.  This keeps the run-to-run spread of the
timing medians small while every input still comes from the seed.

An op is one timed call: either ``cae.cli.main(argv)`` with stdout and
stderr captured, or one public library function.  Its check runs after the
timer stops and compares the result with a reference computed another way
(mpmath quadrature, the known Union Jack constant, symmetry, the exact
rational path, an identity of the series algebra, or the inner equation
assembled here from the spec).  A check raises ``CheckFailed``; it returns
the relative errors of the float results it compared with a reference.

No op of a cycle is expected to fail.  Inputs that hit a known defect of
the program are generated apart, by ``defect_ops``, from the seed alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

import cae.cli
from cae import series as S
from cae import turning as T
from cae.canard import canard_control_series
from cae.special import flow_residual
from cae.validate import bounded_solution_quadrature

# Union Jack connection constant to the digits given in the source paper.
KNOWN_C0 = 0.36217594111186

# Known defects of the program at the commit that introduced this
# benchmark, by the symptom their failure message shows.  The timed cycles
# avoid them; each workload's ``defect_ops`` are inputs that hit them, run
# untimed once per run, so the report shows which defects still reproduce.
# A defect op that fails with another symptom makes the run incorrect.
# perfbench/README.md describes each.
DEFECTS = {
    # fast tails kept to a fixed depth of 16, unknown coefficients read as 0
    "depth16": re.compile(r"fast tail value 0|InsufficientTailError|needs tail depth"),
    # numeric inner evaluators built on [-8, 0] only
    "domain8": re.compile(r"outside evaluator domain \[-8"),
    # the quad truth misses boundary layers narrower than about 1e-4
    "narrow_layer": re.compile(r"truth at x=\S+, eps=\S+: \S+ vs mpmath|: slope -\d"),
    # empty or growth-side grids print a table and exit 0
    "refused_exit0": re.compile(r"exit code 0 on an input that must be refused"),
}
# Lowest order of cae expand, by p, that fails with "depth16".
DEPTH16_FIRST_FAILING = {2: 19, 4: 21}


class CheckFailed(Exception):
    pass


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    inputs: str
    defect: Optional[str] = None
    prepare: Optional[Callable[[], None]] = None


@dataclass
class Workspace:
    """Directory the generated input files are written to."""

    root: str

    def write(self, name: str, text: str) -> str:
        path = f"{self.root}/{name}"
        with open(path, "w") as fh:
            fh.write(text)
        return path


def cli_op(kind, ws_files: dict, argv, check, defect=None, prepare=None) -> Op:
    """Op that runs ``cae <argv>`` in-process; ``ws_files`` holds the
    contents of the files argv names, so they are part of the inputs."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cae.cli.main(list(argv))
        return CliResult(rc, out.getvalue(), err.getvalue())

    inputs = json.dumps({"argv": argv, "files": ws_files}, sort_keys=True)
    return Op(kind, call, check, inputs, defect, prepare)


def expect_rc0(res: CliResult):
    if res.rc != 0:
        raise CheckFailed(f"exit code {res.rc}: {res.err.strip()}")


def rel_err(a, ref) -> float:
    a, ref = float(a), float(ref)
    if a == ref:
        return 0.0
    return abs(a - ref) / max(abs(ref), 1e-300)


def rand_frac(rng, lo=-5, hi=5, den=6) -> Fraction:
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, den))


def log_uniform(rng, lo, hi) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def spec_doc(p, h: dict, P: Optional[dict] = None, exact=True, control=False):
    conv = (lambda c: f"{c.numerator}/{c.denominator}") if exact else float
    doc = {"p": p, "h": [{"j": j, "l": l, "c": conv(c)}
                         for (j, l), c in sorted(h.items())]}
    if P:
        doc["P"] = [{"j": j, "k": k, "l": l, "c": conv(c)}
                    for (j, k, l), c in sorted(P.items())]
    if control:
        doc["control"] = True
    return json.dumps(doc, sort_keys=True)


def fmt(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# checks of the canard ops (workload "ode" below)


def _check_union_jack(tol, mirror):
    ref = -KNOWN_C0 if mirror else KNOWN_C0

    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        c0 = doc["value"]
        if not abs(c0 - ref) <= tol:
            raise CheckFailed(f"c0 = {c0!r}, reference {ref!r}, tol {tol:g}")
        if not doc["residuals"]["anchor"] < 1e-6:
            raise CheckFailed(f"anchor residual {doc['residuals']['anchor']!r}")
        return [rel_err(c0, ref)]

    return check


def _reduced_vd0(D: float, T_far: float = 8.0) -> float:
    """V(0) of the solution of V' = T V + V^2 + D that decays at +infinity.

    Anchored at T_far on its asymptotic series sum w_m T^-m (odd m, w_1 =
    -D), whose coefficients follow from matching powers of T, then
    integrated inward with DOP853.  Inward, perturbations shrink like
    exp(-T^2 / 2), so the anchor's truncation error is damped away."""
    w = {1: -D}
    for m in range(3, 14, 2):
        w[m] = -(m - 2) * w[m - 2] - sum(w[i] * w[m - 1 - i] for i in range(1, m - 1, 2))
    v_far = math.fsum(c * T_far ** -m for m, c in w.items())
    sol = solve_ivp(lambda t, v: [t * v[0] + v[0] * v[0] + D], (T_far, 0.0), [v_far],
                    method="DOP853", rtol=1e-13, atol=1e-16)
    if not sol.success:
        raise CheckFailed(f"reference integration failed at D = {D!r}")
    return float(sol.y[0][-1])


def angular_residual(c: float, e: float) -> float:
    """Connection residual of the angular canard problem at value c:
    gamma(e) V(0, (c - d(e)) / gamma(e)^2) + (the same at -e), with
    d + d^2 = e and gamma^2 = 1 + 2 d; the canard value is its root."""
    total = 0.0
    for s in (e, -e):
        g2 = math.sqrt(1.0 + 4.0 * s)  # gamma^2 = 1 + 2 d
        d = 2.0 * s / (1.0 + g2)
        total += math.sqrt(g2) * _reduced_vd0((c - d) / g2)
    return total


def _check_angular(eps):
    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        vals = doc["values"]
        if [v["eps"] for v in vals] != eps:
            raise CheckFailed("eps values not echoed")
        by_eps = {v["eps"]: v["value"] for v in vals}
        if not all(math.isfinite(v) for v in by_eps.values()):
            raise CheckFailed("non-finite canard value")
        tol = doc["residuals"]["root_tol"]
        errs = []
        for e in eps[::2]:
            # the value curve is even in eps (today this holds bit for bit,
            # as the program's residual is symmetric in e; the reference
            # root below is what checks the value)
            c, c_minus = by_eps[e], by_eps[-e]
            if not abs(c - c_minus) <= 2 * tol:
                raise CheckFailed(f"c({e}) = {c!r} but c({-e}) = {c_minus!r}")
            # the reference residual changes sign within 2 tol of c; one
            # secant step across that bracket gives the reference root
            lo, mid, hi = (angular_residual(c + k * tol, e) for k in (-2, 0, 2))
            if not lo * hi < 0:
                raise CheckFailed(f"c({e}) = {c!r}: the reference residual does "
                                  f"not change sign within {2 * tol:g} of it")
            ref = c - mid * 4 * tol / (hi - lo)
            errs += [rel_err(c, ref), rel_err(c_minus, ref)]
        return errs

    return check


# ---------------------------------------------------------------------------
# validate-linear


def _linear_spec(rng, p, shape):
    """Exact y-linear spec.  p = 2: h = c0 (+ c1 x when shape is odd) plus
    c eps x^j with j = shape // 2.  p = 4: h = c x^(r-1) with r = shape, so
    h vanishes to order r - 1.  On these families the tables reach their
    asymptotic slopes within the eps ranges used here."""
    if p == 2:
        h = {(j, 0): rand_frac(rng) for j in range(1 + shape % 2)}
        h[(shape // 2, 1)] = rand_frac(rng)
        return h
    return {(shape - 1, 0): rand_frac(rng)}


class ValidateLinear:
    """cae validate on exact y-linear specs: quadrature truth and
    partial-sum evaluation do the work."""

    name = "validate-linear"
    imports = ("cae.cli", "cae.validate")
    warmup = ["validate", "--spec", "{spec}", "--orders", "1,2,3",
              "--eps", "0.04,0.02,0.01,0.005", "--xgrid", "-1:0:4"]
    warmup_spec = spec_doc(2, {(0, 0): Fraction(1)})
    # (p, orders, eps0, lo) of the valid tables; the seed moves eps0 up by
    # at most 5 % and lo inwards by at most 3 %, so each slot costs about
    # the same every run.  eps halves from eps0 (span 8x), lo:0:64 grids.
    # Order 1 is left out: its sup error over the grid is still
    # pre-asymptotic at these eps for some specs (slope below 0.7).
    SLOTS = ((2, 0, (2, 3, 4), 0.012, -1.0), (4, 2, (2, 3, 4), 0.018, -0.6),
             (2, 1, (2, 3, 4, 5), 0.015, -0.8), (4, 3, (2, 3, 4, 5), 0.011, -0.9),
             (2, 2, (3, 4, 5), 0.019, -0.55), (4, 2, (3, 4, 5), 0.014, -0.75),
             (2, 3, (2, 3, 4, 5), 0.01, -0.65), (4, 3, (2, 3, 4, 5), 0.016, -0.95),
             (2, 0, (3, 4, 5), 0.017, -0.7), (4, 2, (2, 3, 4), 0.013, -0.85),
             (2, 1, (3, 4, 5, 6), 0.011, -0.5), (4, 3, (3, 4, 5, 6), 0.02, -1.0))

    def cycle(self, seed: int, k: int, ws: Workspace) -> list:
        rng = random.Random(f"validate-linear:{seed}:{k}")
        return [self._table_op(rng, ws, f"lin{i}.json", p, shape, list(orders),
                               eps0 * rng.uniform(1.0, 1.05),
                               lo * rng.uniform(0.97, 1.0))
                for i, (p, shape, orders, eps0, lo) in enumerate(self.SLOTS)]

    def defect_ops(self, seed: int, ws: Workspace) -> list:
        rng = random.Random(f"validate-linear:{seed}:defects")
        # p = 4 down to eps ~ 2e-4 near x = -1, where the boundary layer is
        # narrower than the quadrature truth resolves
        ops = [self._table_op(rng, ws, "narrow.json", 4, 2, [4, 5, 6],
                              log_uniform(rng, 0.0012, 0.0018),
                              rng.uniform(-1.0, -0.97), "narrow_layer")]
        # inputs the docs say must be refused: an empty grid, and a p = 2
        # grid on the growth side
        grids = (f"{fmt(round(rng.uniform(-1.0, -0.5), 3))}:0:0",
                 f"0:{fmt(round(rng.uniform(0.5, 1.0), 3))}:{rng.randint(5, 16)}")
        for i, (p, grid) in enumerate(zip((rng.choice((2, 4)), 2), grids)):
            name = f"refused{i}.json"
            text = spec_doc(p, _linear_spec(rng, p, rng.randint(2, 3)))
            argv = ["validate", "--spec", ws.write(name, text), "--orders", "1,2,3",
                    "--eps", "0.04,0.02,0.01,0.005", "--xgrid", grid]
            ops.append(cli_op("cli.validate.refused", {name: text}, argv,
                              _check_refused, defect="refused_exit0"))
        return ops

    @staticmethod
    def _table_op(rng, ws, name, p, shape, orders, eps0, lo, defect=None):
        h = _linear_spec(rng, p, shape)
        eps = [eps0 / 2 ** i for i in range(4)]
        lo = fmt(round(lo, 3))
        spot = rng.randrange(64)
        text = spec_doc(p, h)
        path = ws.write(name, text)
        argv = ["validate", "--spec", path, "--orders",
                ",".join(map(str, orders)), "--eps",
                ",".join(fmt(e) for e in eps), "--xgrid", f"{lo}:0:64"]
        return cli_op("cli.validate", {name: text}, argv,
                      _check_table(p, h, orders, eps, lo, spot), defect)


def _check_refused(res: CliResult):
    if res.rc == 0:
        raise CheckFailed("exit code 0 on an input that must be refused")
    return []


def truth_mpmath(p, h, eps, x) -> float:
    """Bounded solution of eps y' = p x^(p-1) y + eps h(x, eps) on the left
    half-line, by mpmath quadrature of its integral form at 20 digits."""
    with mpmath.workdps(20):
        X, E = mpmath.mpf(x), mpmath.mpf(eps)
        coeffs = [(j, l, mpmath.mpf(c.numerator) / c.denominator)
                  for (j, l), c in h.items()]

        def f(s):
            t = X - s
            g = mpmath.fsum(c * t ** j * E ** l for j, l, c in coeffs)
            return mpmath.exp((X ** p - t ** p) / E) * g

        scale = E ** (mpmath.mpf(1) / p)
        if x != 0:
            scale = min(scale, E / (p * abs(X) ** (p - 1)))
        pts = [0] + [scale * 4 ** i for i in range(6)] + [mpmath.inf]
        return float(mpmath.quad(f, pts))


def truth_library(p, h, eps, x) -> float:
    F = S.TaylorPoly([0] * p + [1])
    terms = [(j, l, float(c)) for (j, l), c in h.items()]
    g = lambda t: sum(c * t ** j * eps ** l for j, l, c in terms)
    return bounded_solution_quadrature(F, g, eps, x, -1)


def parse_table(text: str, orders, eps) -> dict:
    """{N: (rows [(eps, err)], slope or 'degenerate')} from a validate CSV."""
    lines = text.strip().split("\n")
    if lines[0] != "N,eps,sup_error,slope":
        raise CheckFailed(f"bad header {lines[0]!r}")
    blocks: dict = {}
    for line in lines[1:]:
        n, e, err, slope = line.split(",")
        rows, _ = blocks.setdefault(int(n), ([], None))
        rows.append((float(e), float(err)))
        if slope:
            blocks[int(n)] = (rows, slope)
    if sorted(blocks) != sorted(orders):
        raise CheckFailed(f"orders {sorted(blocks)} != {orders}")
    for n, (rows, slope) in blocks.items():
        if [e for e, _ in rows] != eps or slope is None:
            raise CheckFailed(f"order {n}: rows do not match the eps list")
        if not all(math.isfinite(err) and err >= 0 for _, err in rows):
            raise CheckFailed(f"order {n}: bad sup error")
    return blocks


def _check_table(p, h, orders, eps, lo, spot):
    def check(res: CliResult):
        expect_rc0(res)
        blocks = parse_table(res.out, orders, eps)
        x = float(np.linspace(float(lo), 0.0, 64)[spot])
        series = T.combined_from_matching(T.ODESpec(p=p, h=h), max(orders) + 1, -1)
        errs = []
        for i, e in enumerate(eps):
            t_ref = truth_mpmath(p, h, e, x)
            t_lib = truth_library(p, h, e, x)
            errs.append(rel_err(t_lib, t_ref))
            if not abs(t_lib - t_ref) <= 1e-9 * max(1.0, abs(t_ref)):
                raise CheckFailed(f"truth at x={x}, eps={e}: {t_lib!r} vs mpmath {t_ref!r}")
            for n, (rows, slope) in blocks.items():
                pointwise = abs(S.evaluate_partial_sum(series, x, e ** (1.0 / p), n) - t_ref)
                floor = 1e-10 * max(1.0, abs(t_ref))
                if slope == "degenerate":
                    if pointwise > floor:
                        raise CheckFailed(
                            f"order {n} table degenerate but the error at "
                            f"x={x}, eps={e} is {pointwise:.3g}")
                elif pointwise > rows[i][1] * (1 + 1e-9) + floor:
                    raise CheckFailed(
                        f"order {n}: sup error {rows[i][1]:.3g} below the "
                        f"error {pointwise:.3g} at x={x}, eps={e}")
        for n, (rows, slope) in blocks.items():
            if slope != "degenerate" and not float(slope) >= n - 0.3:
                raise CheckFailed(f"order {n}: slope {slope} < {n - 0.3}")
        return errs

    return check


# ---------------------------------------------------------------------------
# expand-exact


def _num(v):
    return Fraction(v) if isinstance(v, str) else float(v)


def _doc_numbers(doc) -> list:
    """Every coefficient of a combined-series JSON document, in order."""
    out = []
    for row in doc["slow"]:
        out.append([_num(c) for c in row])
    for f in doc["fast"]:
        out.append([_num(c) for c in f["tail"]])
        out.append([_num(b["coef"]) for b in f.get("basis", [])])
    return out


def _compare_exact_float(exact_doc, float_doc) -> list:
    a, b = _doc_numbers(exact_doc), _doc_numbers(float_doc)
    if len(a) != len(b):
        raise CheckFailed("float and exact documents differ in shape")
    errs = []
    for ra, rb in zip(a, b):
        n = max(len(ra), len(rb))
        ra = ra + [Fraction(0)] * (n - len(ra))
        rb = rb + [0.0] * (n - len(rb))
        for ca, cb in zip(ra, rb):
            if not abs(float(ca) - cb) <= 1e-9 * max(1.0, abs(float(ca))):
                raise CheckFailed(f"float path {cb!r} vs exact {ca}")
            if ca != 0:
                errs.append(rel_err(cb, ca))
    return errs


def tails_agree(a, b) -> bool:
    """Fast tails equal on the depth both know."""
    depth = min(a.depth if not a.complete else 10 ** 9,
                b.depth if not b.complete else 10 ** 9,
                max(a.depth, b.depth))
    return all(a.coefficient(m) == b.coefficient(m) for m in range(1, depth + 1))


def same_series(a, b, what: str):
    if a.N != b.N or a.p != b.p:
        raise CheckFailed(f"{what}: N/p differ")
    for n in range(a.N):
        if a.slow[n] != b.slow[n]:
            raise CheckFailed(f"{what}: slow part {n} differs")
        if not tails_agree(a.fast[n].tail, b.fast[n].tail):
            raise CheckFailed(f"{what}: fast tail {n} differs")


def gevrey_reference(norms, p):
    """Least-squares line through (n, log norm_n - log Gamma(n/p + 1)) over
    the nonzero norms, in closed form with math.lgamma."""
    pts = [(n, math.log(v) - math.lgamma(n / p + 1.0))
           for n, v in enumerate(norms) if v != 0]
    m = len(pts)
    sx = sum(n for n, _ in pts)
    sy = sum(y for _, y in pts)
    sxx = sum(n * n for n, _ in pts)
    sxy = sum(n * y for n, y in pts)
    slope = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    intercept = (sy - slope * sx) / m
    return math.exp(intercept), math.exp(slope)


class ExpandExact:
    """Millisecond exact-rational ops: cae expand (exact and float twins, on
    both sides of the fixed tail depth 16), the series algebra on the
    result, the closed forms, control series, resonance and Gevrey fits."""

    name = "expand-exact"
    imports = ("cae.cli", "cae.series", "cae.turning", "cae.gevrey",
               "cae.resonance")
    warmup = ["expand", "--spec", "{spec}", "--order", "8"]
    warmup_spec = spec_doc(2, {(0, 0): Fraction(1), (1, 0): Fraction(1)})

    def cycle(self, seed: int, k: int, ws: Workspace) -> list:
        rng = random.Random(f"expand-exact:{seed}:{k}")
        p = 2 if k % 2 == 0 else 4
        h = _linear_spec(rng, p, rng.randint(0, 3) if p == 2 else rng.randint(2, 3))
        h[(max(j for j, _l in h) + 1, 0)] = rand_frac(rng)
        exact_text, float_text = spec_doc(p, h), spec_doc(p, h, exact=False)
        exact_path = ws.write("exact.json", exact_text)
        float_path = ws.write("float.json", float_text)
        side = rng.choice(("minus", "plus"))
        # N_hi is past the fixed tail depth 16 but below the orders that
        # fail (see defect_ops)
        n_lo, n_mid = rng.randint(4, 10), rng.randint(11, 16)
        n_hi = rng.randint(17, DEPTH16_FIRST_FAILING[p] - 1)
        ctx: dict = {}
        ops = []

        def expand(path, n, name, text, check):
            argv = ["expand", "--spec", path, "--order", str(n), "--side", side]
            ops.append(cli_op("cli.expand", {name: text}, argv, check))

        for n in (n_lo, n_mid, n_hi):
            expand(exact_path, n, "exact.json", exact_text, _keep_doc(ctx, n, p))
            expand(float_path, n, "float.json", float_text, _check_float_twin(ctx, n))

        # the series algebra on the N_lo result
        w = S.CombinedSeries.from_slow(
            p, n_lo, [S.TaylorPoly([rand_frac(rng), rand_frac(rng)]),
                      S.TaylorPoly([rand_frac(rng)])])
        c = rand_frac(rng)
        desc = f"{exact_text}|{n_lo}|{side}|{w.to_json()}|{c}"
        y = lambda: ctx["y"]

        def from_json():
            ctx["y"] = S.CombinedSeries.from_json(ctx[n_lo])
            return ctx["y"]

        def check_round_trip(r):
            if r.to_json() != ctx[n_lo]:
                raise CheckFailed("JSON round trip changed the series")
            return []

        ops.append(Op("series.from_json", from_json, check_round_trip, desc))

        def check_commutes(r):
            same_series(r, S.multiply(w, y()), "y*w vs w*y")
            return []

        ops.append(Op("series.multiply", lambda: S.multiply(y(), w),
                      check_commutes, desc))

        def check_compose(r):
            same_series(r, S.multiply(y(), y()) + y().scale(c), "P(y)")
            return []

        ops.append(Op("series.compose_left",
                      lambda: S.compose_left({(2, 0): 1, (1, 0): c}, y()),
                      check_compose, desc))

        def check_product_rule(r):
            ref = (S.multiply(S.differentiate(y()), w.truncate(n_lo - 1))
                   + S.multiply(y().truncate(n_lo - 1), S.differentiate(w)))
            same_series(r, ref, "(y w)'")
            return []

        ops.append(Op("series.differentiate",
                      lambda: S.differentiate(S.multiply(y(), w)),
                      check_product_rule, desc))

        def check_antiderivative(r):
            Y, log = r
            same_series(S.differentiate_with_log(Y, log), y().truncate(n_lo - 1),
                        "d/dx antiderivative")
            return []

        ops.append(Op("series.antiderivative",
                      lambda: S.antiderivative(y(), 0), check_antiderivative, desc))

        def rematch():
            outer = [S.extract_outer(y(), n) for n in range(n_lo)]
            inner = [S.extract_inner(y(), n) for n in range(n_lo)]
            return S.reconstruct_from_matching(outer, inner, p, tol=0)

        def check_rematch(r):
            same_series(r, y(), "extract/reconstruct")
            return []

        ops.append(Op("series.reconstruct_from_matching", rematch,
                      check_rematch, desc))

        # closed forms and control series on a p = 2 forcing g
        g = S.TaylorPoly([rand_frac(rng) for _ in range(rng.randint(1, 4))])
        n_cf = rng.randint(4, 14)
        gdesc = f"{g.coeffs}|{n_cf}"

        def check_closed_form(r):
            ctx["closed_form"] = r
            spec = T.ODESpec(p=2, h={(j, 0): cj for j, cj in enumerate(g.coeffs)})
            same_series(r, T.combined_from_matching(spec, n_cf, -1),
                        "closed form vs matching")
            return []

        ops.append(Op("turning.closed_form_series",
                      lambda: T.closed_form_series(g, n_cf), check_closed_form,
                      gdesc))

        def check_control(r):
            spec = T.ODESpec(p=2, h={(j, 0): cj for j, cj in enumerate(g.coeffs)},
                             control=True)
            eta = canard_control_series(spec, 2 * n_cf)
            errs = []
            for n, a in enumerate(r.alphas):
                if not abs(eta[2 * n] - float(a)) <= 1e-9 * max(1.0, abs(float(a))):
                    raise CheckFailed(f"alpha_{n}: {a} vs moment method {eta[2 * n]!r}")
                if a != 0:
                    errs.append(rel_err(eta[2 * n], a))
            return errs

        ops.append(Op("turning.control_expansion",
                      lambda: T.control_expansion(g, 2, n_cf), check_control,
                      gdesc))

        # cae canard criterion on a control spec of either p
        hc = {(j, 0): rand_frac(rng) for j in range(rng.randint(1, 5))}
        crit_text = spec_doc(p, hc, control=True)
        crit_path = ws.write("control.json", crit_text)
        order = rng.randint(2, 8)
        ops.append(cli_op("cli.canard.criterion", {"control.json": crit_text},
                          ["canard", "criterion", "--spec", crit_path,
                           "--order", str(order)],
                          _check_criterion(p, hc, order)))

        # cae resonance: D = beta/alpha an admissible integer or not
        alpha = rng.randint(1, 4)
        if rng.random() < 0.5:
            D = p * rng.randint(0, 3) + rng.randint(0, 1)
        else:
            D = rng.choice([rng.randint(0, 6) + 0.5, -rng.randint(1, 3)]
                           + ([p * rng.randint(0, 2) + rng.randint(2, p - 1)]
                              if p > 2 else []))
        beta = alpha * D
        ops.append(cli_op("cli.resonance", {},
                          ["resonance", "--alpha", fmt(alpha), "--beta", fmt(beta),
                           "--p", str(p)],
                          _check_resonance(alpha, beta, p)))

        # cae gevrey fit on the tail norms of the closed-form layer term
        def write_norms():
            norms = [abs(float(c)) for c in ctx["closed_form"].fast[1].tail.coeffs]
            ctx["norms"] = norms
            ws.write("norms.csv", "".join(f"{v!r}\n" for v in norms))

        ops.append(cli_op("cli.gevrey", {}, ["gevrey", "fit", "--coeffs",
                                            f"{ws.root}/norms.csv", "--p", "2"],
                          _check_gevrey(ctx, 2), prepare=write_norms))
        return ops


    def defect_ops(self, seed: int, ws: Workspace) -> list:
        rng = random.Random(f"expand-exact:{seed}:defects")
        ops = []
        for p in (2, 4):
            h = _linear_spec(rng, p, rng.randint(0, 3) if p == 2 else rng.randint(2, 3))
            h[(max(j for j, _l in h) + 1, 0)] = rand_frac(rng)
            n = rng.randint(DEPTH16_FIRST_FAILING[p], 24)
            side = rng.choice(("minus", "plus"))
            ctx: dict = {}
            for exact, check in ((True, _keep_doc(ctx, n, p)), (False, _check_float_twin(ctx, n))):
                name = f"depth{p}{'exact' if exact else 'float'}.json"
                text = spec_doc(p, h, exact=exact)
                argv = ["expand", "--spec", ws.write(name, text), "--order", str(n),
                        "--side", side]
                ops.append(cli_op("cli.expand", {name: text}, argv, check, "depth16"))
        return ops


def _keep_doc(ctx, n, p):
    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        if doc["N"] != n or doc["p"] != p:
            raise CheckFailed("wrong N or p in the expansion")
        ctx[n] = doc
        return []

    return check


def _check_float_twin(ctx, n):
    def check(res: CliResult):
        expect_rc0(res)
        if n not in ctx:
            raise CheckFailed("float path succeeded where the exact path failed")
        return _compare_exact_float(ctx[n], json.loads(res.out))

    return check


def _check_criterion(p, hc, order):
    """alpha_n = -h_n M_n / M_0 with M_j = (2/p) Gamma((j+1)/p) for even j
    (the Gaussian-type moments of exp(-s^p)), zero for odd n."""

    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        alphas = doc["alphas"]
        if len(alphas) != order or doc["p"] != p:
            raise CheckFailed("wrong number of control coefficients")
        m0 = math.gamma(1.0 / p)
        errs = []
        for n, a in enumerate(alphas):
            ref = 0.0 if n % 2 else -float(hc.get((n, 0), 0)) * math.gamma((n + 1) / p) / m0
            if not abs(a - ref) <= 1e-12 * max(1.0, abs(ref)):
                raise CheckFailed(f"alpha_{n} = {a!r}, moment formula {ref!r}")
            if ref != 0:
                errs.append(rel_err(a, ref))
        return errs

    return check


def _check_resonance(alpha, beta, p):
    D = beta / alpha
    admissible = D >= 0 and D == int(D) and int(D) % p in (0, 1)

    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        if doc["condition"] is not admissible:
            raise CheckFailed(f"condition {doc['condition']} for D = {D}")
        if not admissible:
            return []
        z = [Fraction(c) for c in doc["Z0"]]
        if len(z) != int(D) + 1 or z[-1] != 1:
            raise CheckFailed("Z0 is not monic of degree D")
        # Z'' - alpha X^(p-1) Z' + beta X^(p-2) Z = 0, coefficient by
        # coefficient, in exact arithmetic on the printed floats
        res_c = [Fraction(0)] * (len(z) + p)
        for m, c in enumerate(z):
            if m >= 2:
                res_c[m - 2] += m * (m - 1) * c
            if m >= 1:
                res_c[m + p - 2] -= Fraction(alpha) * m * c
            res_c[m + p - 2] += Fraction(beta) * c
        scale = max(abs(c) for c in z) * (1 + alpha + abs(beta) + len(z) ** 2)
        worst = float(max(abs(c) for c in res_c) / scale)
        if worst > 1e-12:
            raise CheckFailed(f"Z0 residual {worst:.3g}")
        if not doc["riccati_residual"] <= 1e-6:
            raise CheckFailed(f"riccati residual {doc['riccati_residual']!r}")
        return [worst]

    return check


def _check_gevrey(ctx, p):
    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        C, L1 = gevrey_reference(ctx["norms"], p)
        errs = [rel_err(doc["C"], C), rel_err(doc["L1"], L1)]
        if max(errs) > 1e-8:
            raise CheckFailed(f"fit C={doc['C']!r}, L1={doc['L1']!r} vs {C!r}, {L1!r}")
        return errs

    return check


# ---------------------------------------------------------------------------
# ode: canard connection problems and nonlinear expansions


def _nonlinear_spec(rng, p, kind):
    """Strictly quasi-homogeneous nonlinear spec: every eps-free P entry
    lies strictly above the line j + r k = p - 1.  ``kind`` fixes the
    structure; the seed moves each coefficient within +-5 % of a centre
    value, which keeps the cost of the flow solves close across seeds."""

    def near(c):
        return round(c * rng.uniform(0.95, 1.05), 4)

    if p == 4:
        return {(1, 0): near(1.0)}, {(3, 1, 0): near(0.3)}
    h = {(0, 0): near(1.0)}
    if kind == 0:
        return h, {(1, 1, 0): near(-0.5)}
    if kind == 1:
        h[(1, 0)] = near(0.5)
        return h, {(0, 1, 1): near(-0.5)}
    return h, {(2, 1, 0): near(0.3)}


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def inner_forcing(spec, inner, n):
    """Forcing v_n of the order-eta^n inner equation
    W_n' = p X^(p-1) W_n + v_n(X), assembled from the spec: with
    x = eta X, eps = eta^p and y = sum eta^i W_i,
    v_n = sum_{j+pl+1=n} h_jl X^j
        + sum_{(j,k,l)} c X^j [eta^(n-(j+pl+1-p))] (sum eta^i W_i)^(k+1)."""
    p = spec.p
    W = [c for c in inner.coeffs]

    def v(X):
        val = 0.0
        for (j, l), c in spec.h.items():
            if j + p * l + 1 == n:
                val += float(c) * X ** j
        for (j, k, l), c in spec.P.items():
            q = n - (j + p * l + 1 - p)
            if q < 0:
                continue
            total = 0.0
            for combo in _compositions(q, k + 1):
                prod = 1.0
                for i in combo:
                    prod *= W[i](X) if W[i] is not None else 0.0
                total += prod
            val += float(c) * X ** j * total
        return val

    return v


class Ode:
    """Python-RHS solve_ivp: the Union Jack bisection and the angular brentq
    of cae canard, the numeric flow solves of cae expand on strictly
    quasi-homogeneous nonlinear specs, and cae validate on a nonlinear spec,
    whose truth is a Runge-Kutta trajectory."""

    name = "ode"
    imports = ("cae.cli", "cae.canard", "cae.special", "cae.turning",
               "cae.validate")
    warmup = ["expand", "--spec", "{spec}", "--order", "4"]
    warmup_spec = spec_doc(2, {(0, 0): 1.0}, {(1, 1, 0): -0.5}, exact=False)

    # Bisection halves [0, 1] until the width is below tol, so the work and
    # the result depend on ceil(log2(1/tol)) only: every tol drawn here
    # takes 27 steps, and every cycle costs the same.
    TOL_RANGE = (2.0 ** -27 * 1.01, 1e-8)
    # Log-spaced centres over (0.005, 0.1) of the angular eps values.  Each
    # angular op runs e, -e near 0.028 (where the error of a root found to
    # the default tolerance is largest, so acc_digits stays put between
    # seeds) and e', -e' near one of the other centres, chosen by the seed
    # and the cycle.  The seed moves each value by at most 3 %.
    EPS_CENTRES = (0.0055, 0.0083, 0.0124, 0.0186, 0.028, 0.042, 0.063, 0.095)
    # (p, order, spec kind) of the nonlinear expand ops of a cycle.  Of the
    # 17 ops of a cycle, six cost under 0.2 s and six over 0.5 s, so the
    # median is the middle one of the five p = 2, N = 5 ops; op_cpu_p90_s lies
    # between the two p = 4 ops, about 5 s each.
    SLOTS = ((2, 3, 0), (2, 3, 0), (2, 4, 1), (2, 4, 2), (2, 4, 2), (2, 5, 2)) \
        + ((2, 5, 1),) * 5 + ((2, 6, 0), (4, 5, 0), (4, 5, 0))
    # Run order of the ops as generated (0 Union Jack, 1 angular, 2-15 the
    # expand slots, 16 validate): the five N = 5 ops that set the median
    # are spread over the whole cycle, between the multi-second ops.  This
    # machine's CPU speed moves by 10-25 % over a few seconds, and the
    # median of five ops run in one 1.5 s stretch would carry that stretch's
    # speed alone.
    ORDER = (8, 0, 2, 3, 9, 14, 4, 1, 10, 5, 16, 11, 6, 15, 13, 12, 7)

    def cycle(self, seed: int, k: int, ws: Workspace) -> list:
        rng = random.Random(f"ode:{seed}:{k}")
        tol = log_uniform(rng, *self.TOL_RANGE)
        mirror = (seed + k) % 2 == 1
        argv = ["canard", "unionjack", "--tol", fmt(tol)] + (["--mirror"] if mirror else [])
        ops = [cli_op("cli.canard.unionjack", {}, argv, _check_union_jack(tol, mirror))]

        others = [c for c in self.EPS_CENTRES if c != 0.028]
        e1, e2 = (round(c * rng.uniform(0.97, 1.03), 6)
                  for c in (0.028, others[(seed + k) % len(others)]))
        eps = [e1, -e1, e2, -e2]
        argv = ["canard", "angular", "--eps", ",".join(fmt(e) for e in eps)]
        ops.append(cli_op("cli.canard.angular", {}, argv, _check_angular(eps)))

        for i, (p, n, kind) in enumerate(self.SLOTS):
            ops.append(_nonlinear_expand_op(rng, ws, f"nl{i}.json", p, n, kind))

        grid = f"{fmt(round(rng.uniform(-0.6, -0.4), 3))}:0:8"
        ops.append(_nonlinear_validate_op(rng, ws, "nlv.json", grid))
        return [ops[i] for i in self.ORDER]

    def defect_ops(self, seed: int, ws: Workspace) -> list:
        rng = random.Random(f"ode:{seed}:defects")
        # the README-sized grid reaches X = -11 at eps 0.0125
        return [_nonlinear_validate_op(rng, ws, "nlv-domain.json", "-1:0:16", "domain8")]


def _nonlinear_expand_op(rng, ws, name, p, n, kind) -> Op:
    h, P = _nonlinear_spec(rng, p, kind)
    text = spec_doc(p, h, P, exact=False)
    path = ws.write(name, text)
    solves: list = []
    op = cli_op(f"cli.expand.nonlinear.p{p}", {name: text},
                ["expand", "--spec", path, "--order", str(n)],
                _check_nonlinear(p, h, P, n, solves))
    op.call = keeping_results(T, "inner_expansion", solves, op.call)
    return op


def _nonlinear_validate_op(rng, ws, name, grid, defect=None) -> Op:
    h, P = _nonlinear_spec(rng, 2, 0)
    text = spec_doc(2, h, P, exact=False)
    path = ws.write(name, text)
    eps = [0.1, 0.05, 0.025, 0.0125]
    orders = [2, 3, 4]
    argv = ["validate", "--spec", path, "--orders", ",".join(map(str, orders)),
            "--eps", ",".join(fmt(e) for e in eps), "--xgrid", grid]
    return cli_op("cli.validate.nonlinear", {name: text}, argv,
                  _check_nonlinear_table(orders, eps), defect)


def keeping_results(module, name, sink: list, call):
    """``call`` with ``module.name`` replaced, while it runs, by a wrapper
    that appends each result to ``sink``: the check can then inspect the
    objects the op built instead of building them again."""

    def run():
        orig = getattr(module, name)

        def keep(*args, **kwargs):
            out = orig(*args, **kwargs)
            sink.append(out)
            return out

        setattr(module, name, keep)
        try:
            return call()
        finally:
            setattr(module, name, orig)

    return run


def _check_nonlinear(p, h, P, n, solves):
    def check(res: CliResult):
        expect_rc0(res)
        doc = json.loads(res.out)
        if doc["N"] != n or len(doc["fast"]) != n:
            raise CheckFailed("wrong order count in the expansion")
        spec = T.ODESpec(p=p, h=h, P=P)
        # the op's own inner solve, released by this check; solved again if
        # the program no longer makes exactly one turning.inner_expansion
        # call per expansion
        inner = solves.pop() if len(solves) == 1 else T.inner_expansion(spec, n, -1)
        solves.clear()
        errs = []
        for i, w in enumerate(inner.coeffs):
            if w is None:
                continue
            if [float(c) for c in doc["fast"][i]["tail"]] != \
                    [float(c) for c in w.tail.coeffs]:
                raise CheckFailed(f"printed tail {i} differs from the inner solve")
            if w.ray is None:
                continue
            r = flow_residual(w.ray, p, inner_forcing(spec, inner, i))
            if not r <= 1e-6:
                raise CheckFailed(f"inner order {i}: flow residual {r:.3g}")
            errs.append(r)
        return errs

    return check


def _check_nonlinear_table(orders, eps):
    def check(res: CliResult):
        expect_rc0(res)
        blocks = parse_table(res.out, orders, eps)
        for n, (rows, slope) in blocks.items():
            if slope == "degenerate":
                raise CheckFailed(f"order {n}: nonlinear table reads degenerate")
            if not float(slope) >= n - 0.3:
                raise CheckFailed(f"order {n}: slope {slope} < {n - 0.3}")
        return []

    return check


WORKLOADS = {w.name: w for w in (Ode(), ValidateLinear(), ExpandExact())}
