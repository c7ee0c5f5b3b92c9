"""Command-line front end.

Subcommands: expand, validate, special, gevrey, canard, resonance.
Exit codes: 0 success, 2 feasibility/matching failure, 1 usage or I/O
error; validate reports its tables and exits 0 whatever their slopes.
Output is deterministic: '.' decimal CSV, floats at 17 significant digits,
no timestamps (a version field appears only under --stamp).
File formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, _numerics
from ._scalar import fmt17
from .errors import BlowupError, CaeError, CompatibilityError, InfeasibleError
from .series import CombinedSeries, TaylorPoly, evaluate_partial_sum
from .special import eval_u, u_tail
from .turning import ODESpec, combined_from_matching
from .validate import bounded_solution_quadrature, check_grid, error_scaling
from .gevrey import gevrey_fit
from .canard import (
    angular_canard_value,
    canard_control_series,
    union_jack_anchor_residual,
    union_jack_connection,
)
from .resonance import ResonanceCase, condition_check, riccati_leading_check, z0_polynomial

USAGE_ERROR, OK, CHECK_FAILED = 1, 0, 2


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(doc, stamp: bool) -> str:
    if stamp:
        doc = dict(doc)
        doc["stamp"] = {"version": __version__}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _list(text: str, kind, flag: str) -> list:
    """A nonempty comma list of ``kind`` values; CaeError otherwise."""
    try:
        values = [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        values = []
    if not values:
        raise CaeError(f"{flag} wants a comma list of {kind.__name__}s, got {text!r}")
    return values


def _grid(text: str):
    try:
        lo, hi, n = text.split(":")
        return np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise CaeError(f"--xgrid wants lo:hi:n with n >= 0, got {text!r}") from None


def _load_spec(path: str) -> ODESpec:
    with open(path) as fh:
        doc = json.load(fh)
    return ODESpec.from_json(doc)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_expand(args) -> int:
    spec = _load_spec(args.spec)
    sigma = -1 if args.side == "minus" else 1
    series = combined_from_matching(spec, args.order, sigma, tol=args.tol)
    doc = series.to_json()
    _emit(_json_dump(doc, args.stamp), args.out)
    return OK


def _cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    sigma = -1 if args.side == "minus" else 1
    orders = _list(args.orders, int, "--orders")
    eps_list = _list(args.eps, float, "--eps")
    x_grid = _grid(args.xgrid)
    check_grid(x_grid, sigma)
    series = combined_from_matching(spec, max(orders) + 1, sigma)
    truth = _truth_for(spec, series, sigma, x_grid, eps_list)

    tables = [error_scaling(series, truth, eps_list, x_grid, N) for N in orders]

    lines = ["N,eps,sup_error,slope"]
    for N, tab in zip(orders, tables):
        for i, (eps, err) in enumerate(tab.rows):
            last = i == len(tab.rows) - 1
            slope = ""
            if last:
                slope = "degenerate" if tab.degenerate else fmt17(tab.slope)
            lines.append(f"{N},{fmt17(eps)},{fmt17(err)},{slope}")
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def _truth_for(spec: ODESpec, series: CombinedSeries, sigma: int, x_grid,
               eps_list):
    """truth(x, eps) over the grid points: quadrature for y-linear specs;
    otherwise, for every eps of ``eps_list`` at once, one batched Taylor
    shot through the grid (see ``values``), where a blowup before a grid
    point raises BlowupError naming that point and the eps whose member
    blew up."""
    F = TaylorPoly([0] * spec.p + [1])
    if spec.linear_in_y:
        def g_eps(eps):
            polys = _h_at(spec, eps)
            deg = max(polys, default=-1)
            return TaylorPoly([polys.get(j, 0.0) for j in range(deg + 1)])

        def truth(x, eps):
            g = g_eps(eps)
            return bounded_solution_quadrature(F, lambda t: g(t), eps, x, sigma)

        return truth

    edge = min(x_grid) - 0.25 if sigma < 0 else max(x_grid) + 0.25
    stops = sorted(set(map(float, x_grid)), reverse=sigma > 0)
    eps_list = list(map(float, eps_list))

    @functools.cache
    def values():
        """{(x, eps): truth} over the grid: one shot of every eps as one
        batch, each launched from the series value beyond the grid edge,
        that lands on every grid point."""
        y0 = [evaluate_partial_sum(series, edge, eps ** (1.0 / spec.p))
              for eps in eps_list]
        try:
            y = _numerics.shoot(_folded_terms(spec, np.array(eps_list)),
                                edge, stops, y0)
        except BlowupError as exc:
            x = next(x for x in stops if sigma * x < sigma * exc.where)
            raise BlowupError(f"the truth blows up at x={exc.where:.6g}, before "
                              f"the grid point x={x!r}, at "
                              f"eps={eps_list[exc.member]!r}",
                              where=exc.where) from None
        return {(x, eps): v for x, row in zip(stops, y.tolist())
                for eps, v in zip(eps_list, row)}

    return lambda x, eps: values()[float(x), float(eps)]


def _h_at(spec: ODESpec, eps: float) -> dict:
    """{j: sum_l h[(j, l)] eps^l}: the forcing h(x, eps) at this eps."""
    polys = {}
    for (j, l), c in spec.h.items():
        polys[j] = polys.get(j, 0.0) + float(c) * eps ** l
    return polys


def _folded_terms(spec: ODESpec, eps: np.ndarray) -> list:
    """The monomial table (c, j, n) of dy/dt for eps y' = p t^(p-1) y +
    eps h(t, eps) + y P(t, y, eps) at each eps of the array, every eps
    power and coefficient folded into one array per monomial, one batch
    member per eps."""
    folded = {(spec.p - 1, 1): spec.p / eps}
    for j, c in _h_at(spec, eps).items():
        folded[j, 0] = folded.get((j, 0), 0.0) + c
    for (j, k, l), c in spec.P.items():
        folded[j, k + 1] = folded.get((j, k + 1), 0.0) + float(c) * eps ** l / eps
    return [(c, j, n) for (j, n), c in folded.items()]


def _cmd_special(args) -> int:
    sigma = -1 if args.sigma == "minus" else 1
    val = eval_u(args.p, args.k, sigma, args.x)
    tail = u_tail(args.p, args.k, depth=args.depth)
    lines = [f"# U_{args.k}^{args.sigma}({fmt17(args.x)}) = {fmt17(val)}",
             "M,partial,abs_diff"]
    terms = [(m, c) for m, c in enumerate(tail.coeffs, start=1) if c != 0]
    try:
        powers = [args.x ** (-m) for m, _ in terms]
    except (ZeroDivisionError, OverflowError):
        raise CaeError(f"no tail partial sums at X = {args.x!r}: they run "
                       f"in powers of 1/X, which overflow") from None
    partial = 0.0
    for i, ((_, c), power) in enumerate(zip(terms, powers), start=1):
        partial += float(c) * power
        lines.append(f"{i},{fmt17(partial)},{fmt17(abs(partial - val))}")
    _emit("\n".join(lines) + "\n", args.out)
    return OK


def _cmd_gevrey(args) -> int:
    with open(args.coeffs) as fh:
        norms = []
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                norms.append(abs(float(line.split(",")[0])))
            except ValueError:
                raise CaeError(f"{args.coeffs} line {i}: not a number: {line!r}") from None
    fit = gevrey_fit(norms, args.p)
    doc = {
        "inv_order": fit.inv_order,
        "C": fit.C,
        "L1": fit.L1,
        "residual": fit.residual,
        "degenerate": fit.degenerate,
        "sub_gevrey": fit.sub_gevrey,
    }
    _emit(_json_dump(doc, args.stamp), args.out)
    return OK


def _cmd_canard(args) -> int:
    if args.problem == "unionjack":
        res = union_jack_connection(tol=args.tol, mirror=args.mirror)
        doc = {
            "value": res.value,
            "iterations": res.evaluations,
            "residuals": {
                "mismatch": res.mismatch,
                "anchor": union_jack_anchor_residual(res.value),
            },
        }
    elif args.problem == "angular":
        eps_list = _list(args.eps, float, "--eps")
        values = angular_canard_value(eps_list, tol=args.tol).tolist()
        doc = {
            "values": [{"eps": e, "value": v} for e, v in zip(eps_list, values)],
            "residuals": {"root_tol": args.tol},
        }
    else:  # criterion
        if args.spec is None:
            raise CaeError("canard criterion needs --spec")
        spec = _load_spec(args.spec)
        alphas = canard_control_series(spec, args.order)
        doc = {"alphas": alphas, "grading": "eta", "p": spec.p}
    _emit(_json_dump(doc, args.stamp), args.out)
    return OK


def _cmd_resonance(args) -> int:
    case = ResonanceCase(args.alpha, args.beta, args.p)
    ok = condition_check(case)
    doc = {"condition": ok, "D": float(case.D), "Z0": None,
           "riccati_residual": None}
    if ok:
        z = z0_polynomial(case)
        doc["Z0"] = [float(c) for c in z.coeffs]
        doc["riccati_residual"] = riccati_leading_check(
            case, [3.0, -3.0, 5.0, -5.0, 10.0, -10.0]
        )
    _emit(_json_dump(doc, args.stamp), args.out)
    return OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `cae` parser, built once per process: parsing leaves it
    unchanged, so every call of `main` reuses it."""
    ap = argparse.ArgumentParser(
        prog="cae",
        description="combined slow/fast expansions at turning points",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--stamp", action="store_true",
                       help="add a version field to JSON output")

    p = sub.add_parser("expand", help="combined series of a turning-point spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--side", choices=["minus", "plus"], default="minus")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p)
    p.set_defaults(run=_cmd_expand)

    p = sub.add_parser("validate", help="error-scaling table against ground truth")
    p.add_argument("--spec", required=True)
    p.add_argument("--orders", required=True, help="comma list, e.g. 1,2,3")
    p.add_argument("--eps", required=True, help="comma list, decreasing")
    p.add_argument("--xgrid", required=True, help="lo:hi:n")
    p.add_argument("--side", choices=["minus", "plus"], default="minus")
    common(p)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("special", help="special-function values and tails")
    p.add_argument("fn", choices=["U"])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--sigma", choices=["minus", "plus"], default="minus")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--depth", type=int, default=12)
    common(p)
    p.set_defaults(run=_cmd_special)

    p = sub.add_parser("gevrey", help="Gevrey constant fitting")
    p.add_argument("action", choices=["fit"])
    p.add_argument("--coeffs", required=True, help="CSV file, one norm per line")
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(run=_cmd_gevrey)

    p = sub.add_parser("canard", help="canard values")
    p.add_argument("problem", choices=["unionjack", "angular", "criterion"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--eps", default="0.01,0.02,0.04")
    p.add_argument("--spec", default=None)
    p.add_argument("--order", type=int, default=4)
    common(p)
    p.set_defaults(run=_cmd_canard)

    p = sub.add_parser("resonance", help="resonance condition and Z0")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--p", type=int, required=True)
    common(p)
    p.set_defaults(run=_cmd_resonance)

    return ap


_VALUE_FLAGS = {"--xgrid", "--x", "--eps", "--alpha", "--beta", "--tol"}


def _merge_negative_values(argv):
    """Join '--flag -value' into '--flag=-value' so argparse does not read
    leading-dash values (negative numbers, lo:hi:n grids) as options."""
    out = []
    it = iter(argv)
    for a in it:
        if a in _VALUE_FLAGS:
            try:
                v = next(it)
            except StopIteration:
                out.append(a)
                break
            out.append(f"{a}={v}")
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else OK
    try:
        return args.run(args)
    except (InfeasibleError, CompatibilityError) as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return CHECK_FAILED
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return USAGE_ERROR
    except CaeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
