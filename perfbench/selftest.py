"""Self-test of the benchmark's generators and checks.

    python3 perfbench/selftest.py

1. One seed regenerates byte-identical inputs, and another seed does not.
2. On cycle 0 of every workload each op passes its check, and each
   known-defect input passes or fails only with its defect's symptom.
3. With a reference perturbed (KNOWN_C0 + 1e-6, the mpmath truth scaled
   by 1 + 1e-6, the angular canard residual's root shifted by 1e-6, the
   Gevrey reference constant scaled by 1 + 1e-6, the inner-equation
   forcing shifted by 1e-3) the ops that use it fail, so the checks are
   not vacuous.

Exits 0 when all of this holds.  Takes about two minutes.
"""

from __future__ import annotations

import shutil
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins the BLAS thread count before numpy loads)
import workloads  # noqa: E402


@contextmanager
def patched(name, value):
    orig = getattr(workloads, name)
    setattr(workloads, name, value)
    try:
        yield
    finally:
        setattr(workloads, name, orig)


def scaled(fn, factor):
    def wrapper(*args):
        out = fn(*args)
        return tuple(v * factor for v in out) if isinstance(out, tuple) else out * factor
    return wrapper


_forcing = workloads.inner_forcing


def shifted_forcing(spec, inner, n):
    v = _forcing(spec, inner, n)
    return lambda X: v(X) + 1e-3


_angular = workloads.angular_residual


def shifted_angular(c, e):
    return _angular(c + 1e-6, e)


# workload -> [(reference to perturb, perturbed value, op kind that uses it)]
PERTURB = {
    "ode": [("KNOWN_C0", workloads.KNOWN_C0 + 1e-6, "cli.canard.unionjack"),
            ("angular_residual", shifted_angular, "cli.canard.angular"),
            ("inner_forcing", shifted_forcing, "cli.expand.nonlinear.p2")],
    "validate-linear": [("truth_mpmath", scaled(workloads.truth_mpmath, 1 + 1e-6),
                         "cli.validate")],
    "expand-exact": [("gevrey_reference", scaled(workloads.gevrey_reference, 1 + 1e-6),
                      "cli.gevrey")],
}


def inputs_of(wl, seed, ws, cycles=3):
    ops = [op for k in range(cycles) for op in wl.cycle(seed, k, ws)]
    return [op.inputs for op in ops + wl.defect_ops(seed, ws)]


def main() -> int:
    problems = []
    tmp = HERE.parent / ".perfbench_tmp" / "selftest"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        ws = workloads.Workspace(str(tmp))
        for name, wl in workloads.WORKLOADS.items():
            a, b = inputs_of(wl, 11, ws), inputs_of(wl, 11, ws)
            if a != b:
                problems.append(f"{name}: seed 11 gave different inputs twice")
            if a == inputs_of(wl, 12, ws):
                problems.append(f"{name}: seeds 11 and 12 gave the same inputs")

            runner = run.Runner(wl, 11, ws)
            runner.run_cycles(cycles=1)
            for kind, _cpu, ok, msg, _defect, _wall in runner.records:
                if not ok:
                    problems.append(f"{name}: {kind} failed: {msg}")
            defects = run.Runner(wl, 11, ws)
            defects.run_defects()
            for r in defects.records:
                if not r[2] and not run.reproduces(r):
                    problems.append(f"{name}: {r[0]} ({r[4]}) failed otherwise: {r[3]}")

            print(f"{name}: {len(runner.records)} ops and "
                  f"{len(defects.records)} known-defect inputs checked")
            for attr, value, target in PERTURB[name]:
                with patched(attr, value):
                    bad = run.Runner(wl, 11, ws)
                    for op in wl.cycle(11, 0, ws):
                        if op.kind == target:
                            bad.run_op(op)
                if not bad.records or any(r[2] for r in bad.records):
                    problems.append(f"{name}: perturbed {attr} left a {target} op passing")
                print(f"  {len(bad.records)} {target} ops fail against a perturbed {attr}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
