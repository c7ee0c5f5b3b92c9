"""Benchmark of the cae library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process, one client, closed loop: each op starts when the previous one
and its check have finished.  Whole cycles of ops (see workloads.py) run
until the timed op time reaches ``--seconds``.  The workload's
known-defect inputs then run once, untimed, and the report says which
defects still reproduce.

Ops are timed in process CPU time, which leaves out the time a shared
virtual machine's host gives the CPU to others.  The CPU time of the same
op still moves with the machine's speed, by 10-35 % between runs a few
minutes apart.  So a fixed reference kernel (``reference_kernel``) is timed
after every quarter second of op time, and the time metrics are CPU seconds at
a nominal speed: the op CPU times times ``REF_NOMINAL_S`` over the mean
kernel time of the run.  The kernel is benchmark code only, so a change in
the program moves these figures as much as it moves the ops' CPU time.  Raw
CPU and wall times are printed in the report lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layer
boundaries (tracing.py), prints the per-layer metrics, replays the same
cycles untraced for the tracing overhead, and writes the spans to
``.perfbench_out/``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Steady environment: serial BLAS/OpenMP, cae's default serial path.  Set
# before numpy is imported, here and in the set-up probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("CAE_THREADS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60
# Op CPU time between two samples of the reference kernel, and the
# kernel's typical CPU time between ops on the machine the baseline in
# README.md was measured on (the nominal speed).
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.038


def run_probe(modules, argv, tmp: Path, importtime=False) -> subprocess.CompletedProcess:
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "probe.py"), str(SRC), ",".join(modules), json.dumps(argv)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=tmp,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return proc


def setup_seconds(wl, argv, tmp: Path) -> list:
    """CPU seconds of a fresh interpreter that imports the workload's cae
    modules and runs its warm-up command, as the probe reports them."""
    return [float(run_probe(wl.imports, argv, tmp).stdout.split()[-1])
            for _ in range(SETUP_SAMPLES)]


def scipy_import_seconds(wl, tmp: Path) -> float:
    """Self time of every scipy module in ``python -X importtime`` of the
    workload's set-up import, median of three fresh interpreters."""
    samples = []
    for _ in range(3):
        err = run_probe(wl.imports, [], tmp, importtime=True).stderr
        total_us = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)", line)
            if m and (m.group(2) == "scipy" or m.group(2).startswith("scipy.")):
                total_us += int(m.group(1))
        samples.append(total_us / 1e6)
    return statistics.median(samples)


def reference_kernel() -> float:
    """CPU seconds of a fixed piece of work of the kinds the program does:
    scipy RK45 and quad on Python callbacks, exact rational arithmetic and
    JSON.  The garbage collector is off meanwhile, as its cost grows with
    the program's heap."""
    from fractions import Fraction

    from scipy.integrate import quad, solve_ivp

    gc.disable()
    try:
        t0 = time.process_time()
        solve_ivp(lambda t, y: [y[1], -y[0] * (1.0 + 0.1 * t)], (0.0, 15.0), [1.0, 0.0],
                  rtol=1e-9, atol=1e-12)
        for w in (10.0, 20.0, 30.0):
            quad(lambda x: math.exp(-x * x) * math.cos(w * x), -5.0, 5.0,
                 epsabs=1e-13, limit=200)
        c = [Fraction(1, k + 1) for k in range(80)]
        total = Fraction(0)
        for i in range(80):
            for j in range(0, 80 - i, 2):
                total += c[i] * c[j]
        doc = {"rows": [[str(total * Fraction(i, j + 2)) for j in range(20)]
                        for i in range(20)]}
        json.loads(json.dumps(doc, sort_keys=True))
        return time.process_time() - t0
    finally:
        gc.enable()


class Runner:
    """Runs whole cycles, times each op, then checks it."""

    def __init__(self, wl, seed, ws, tracer=None):
        self.wl, self.seed, self.ws, self.tracer = wl, seed, ws, tracer
        # (kind, CPU seconds, ok, failure message, defect the input is
        # meant to hit or None, wall seconds)
        self.records = []
        self.rel_errs = []
        # (number of records before it, CPU s) of each reference sample
        self.ref = []

    def run_op(self, op):
        from workloads import CheckFailed

        if self.tracer is not None:
            self.tracer.op_id = len(self.records)
        exc = res = None
        dt = wall = 0.0
        try:
            if op.prepare is not None:
                op.prepare()  # untimed: writes an input derived from an earlier op
            if self.tracer is not None:
                self.tracer.recording = True
            w0, t0 = time.perf_counter(), time.process_time()
            try:
                res = op.call()
            finally:
                dt = time.process_time() - t0
                wall = time.perf_counter() - w0
                if self.tracer is not None:
                    self.tracer.recording = False
        except Exception as e:  # the op failed; its failure is counted below
            exc = e
        msg = None
        if exc is not None:
            msg = f"{type(exc).__name__}: {exc}"
        else:
            try:
                self.rel_errs.extend(op.check(res))
            except CheckFailed as e:
                msg = str(e)
            except Exception as e:  # a malformed result breaks the check
                msg = f"check raised {type(e).__name__}: {e}"
        self.records.append((op.kind, dt, msg is None, msg, op.defect, wall))

    def run_cycles(self, seconds=None, cycles=None):
        """Whole cycles until the timed op time reaches ``seconds`` (or for
        exactly ``cycles`` cycles); returns the number of cycles run."""
        k = 0
        timed = since_ref = 0.0
        self.ref.append((0, reference_kernel()))
        while True:
            for op in self.wl.cycle(self.seed, k, self.ws):
                self.run_op(op)
                timed += self.records[-1][1]
                since_ref += self.records[-1][1]
                if since_ref >= REF_EVERY_S:
                    self.ref.append((len(self.records), reference_kernel()))
                    since_ref = 0.0
            k += 1
            if (cycles is not None and k >= cycles
                    or cycles is None and timed >= seconds):
                self.ref.append((len(self.records), reference_kernel()))
                return k

    def run_defects(self):
        """The workload's known-defect inputs, once each."""
        for op in self.wl.defect_ops(self.seed, self.ws):
            self.run_op(op)

    @property
    def timed_seconds(self):
        return sum(r[1] for r in self.records)

    @property
    def wall_seconds(self):
        return sum(r[5] for r in self.records)

    def nominal_seconds(self) -> list:
        """Each op's CPU time at the nominal speed: times REF_NOMINAL_S over
        the mean of the run's reference samples."""
        mean_ref = math.fsum(t for _, t in self.ref) / len(self.ref)
        return [r[1] * REF_NOMINAL_S / mean_ref for r in self.records]


def quantile(values, q):
    """Linear-interpolated quantile of a sorted list."""
    pos = (len(values) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    if values[hi] == math.inf:
        return values[hi]
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def latency_quantiles(times, recs, qs) -> list:
    """Quantiles of the op times; a failed op counts as slower than every
    successful one (a quantile that lands on failures reports the slowest
    op)."""
    lat = sorted(t if r[2] else math.inf for t, r in zip(times, recs))
    worst = max(times)
    return [min(quantile(lat, x), worst) for x in qs]


def end_to_end(runner, setup) -> dict:
    recs = runner.records
    ok = sum(1 for r in recs if r[2])
    nominal = runner.nominal_seconds()
    p50, p90 = latency_quantiles(nominal, recs, (0.5, 0.9))
    rel = max(runner.rel_errs, default=0.0)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ref_s": (p50, "s"),
        "op_p90_ref_s": (p90, "s"),
        "ok_ops_per_ref_s": (ok / math.fsum(nominal), "1/s"),
        "acc_digits": (-math.log10(max(rel, 1e-17)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def environment() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, cpu {cpu}, nproc {os.cpu_count()}")


def reproduces(record) -> bool:
    """Whether a known-defect input failed with its defect's symptom."""
    from workloads import DEFECTS

    return not record[2] and DEFECTS[record[4]].search(record[3]) is not None


def report(runner, defects, metrics: dict, extra_lines=()):
    recs = runner.records
    failed = [r for r in recs if not r[2]]
    cpu50, cpu90 = latency_quantiles([r[1] for r in recs], recs, (0.5, 0.9))
    wall50, wall90 = latency_quantiles([r[5] for r in recs], recs, (0.5, 0.9))
    print(f"# {environment()}")
    print(f"# ops {len(recs)} (failed {len(failed)}); CPU {runner.timed_seconds:.3f} s, "
          f"p50 {cpu50:.6g} s, p90 {cpu90:.6g} s; wall {runner.wall_seconds:.3f} s, "
          f"p50 {wall50:.6g} s, p90 {wall90:.6g} s")
    kinds = sorted({r[0] for r in recs})
    for kind in kinds:
        rs = [r for r in recs if r[0] == kind]
        med = statistics.median(r[1] for r in rs)
        nf = sum(1 for r in rs if not r[2])
        print(f"#   {kind:36s} n={len(rs):5d} failed={nf:4d} median CPU={med:.6f} s")
    for r in failed:
        print(f"# FAILED {r[0]}: {r[3][:160]}")
    for name in sorted({r[4] for r in defects.records}):
        rs = [r for r in defects.records if r[4] == name]
        hit = sum(1 for r in rs if reproduces(r))
        print(f"# known defect {name}: reproduced by {hit} of {len(rs)} inputs")
    for r in defects.records:
        if not r[2] and not reproduces(r):
            print(f"# FAILED known-defect input {r[0]} ({r[4]}): {r[3][:160]}")
    ref = [t for _, t in runner.ref]
    print(f"# reference kernel {statistics.median(ref):.5f} CPU s (median of {len(ref)}, "
          f"min {min(ref):.5f}, max {max(ref):.5f}; nominal {REF_NOMINAL_S})")
    for line in extra_lines:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cae" / "cli.py").is_file():
        sys.stderr.write(f"no program sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import cae

    if Path(cae.__file__).resolve().parent != SRC / "cae":
        sys.stderr.write(f"cae imported from {cae.__file__}, not {SRC}\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]

    tmp = ROOT / ".perfbench_tmp" / f"{wl.name}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        ws = workloads.Workspace(str(tmp))
        warmup = [a.replace("{spec}", ws.write("warmup.json", wl.warmup_spec))
                  if a == "{spec}" else a for a in wl.warmup]
        if args.trace == 0:
            setup = setup_seconds(wl, warmup, tmp)
        else:
            scipy_s = scipy_import_seconds(wl, tmp)
        # fill the program's caches in this process before timing
        workloads.cli_op("warmup", {}, warmup, None).call()

        tracer = None
        if args.trace:
            from tracing import Tracer, summarize

            tracer = Tracer()
            tracer.install()
        runner = Runner(wl, args.seed, ws, tracer)
        try:
            cycles = runner.run_cycles(seconds=args.seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()

        defects = Runner(wl, args.seed, ws)
        defects.run_defects()

        recs = runner.records
        failed = sum(1 for r in recs if not r[2])
        # a known-defect input may pass (the defect is fixed) or fail with
        # its defect's symptom; any other failure is a wrong result
        other = sum(1 for r in defects.records if not r[2] and not reproduces(r))
        result = {"correct": failed == 0 and other == 0, "attempted": len(recs),
                  "failed": failed}
        if args.trace == 0:
            metrics = end_to_end(runner, setup)
            report(runner, defects, metrics, [
                f"setup samples (CPU s) {setup}",
                f"op latency samples {len(recs)} in {cycles} cycles"])
        else:
            plain = Runner(wl, args.seed, ws)
            plain.run_cycles(cycles=cycles)
            metrics = summarize(tracer.spans, len(recs))
            metrics["setup.scipy_import_s"] = (scipy_s, "s")
            metrics["trace.overhead_ratio"] = (
                math.fsum(runner.nominal_seconds()) / math.fsum(plain.nominal_seconds()),
                "ratio")
            metrics["defects.reproduced"] = (
                sum(1 for r in defects.records if reproduces(r)), "count")
            out = ROOT / ".perfbench_out"
            out.mkdir(exist_ok=True)
            spans_path = out / f"spans-{wl.name}-{args.seed}.jsonl"
            tracer.write(spans_path)
            layers = sorted(((v[0], k) for k, v in metrics.items()
                             if k.count(".") == 1 and k.endswith(".self_s")
                             or k.startswith("scipy.") and k.endswith(".s")),
                            reverse=True)
            report(runner, defects, metrics, [
                f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
                "largest layer self times per op: " + ", ".join(
                    f"{k} {v:.4g} s" for v, k in layers[:4])])
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
