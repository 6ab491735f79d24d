#!/usr/bin/env python3
"""Benchmark of cavdip: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload offres --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cavdip is imported from ``src``
and nowhere else.  The load is a closed loop: one client, one process,
one thread.  A run makes at least MIN_PASSES whole passes over the
seed's op list, and more while another one fits into ``--seconds``,
checks every output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``).  See README.md for the workloads and the
meaning of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

#: operations are timed in CPU time of this single-threaded process, which
#: is their latency minus any wait for a CPU that other programs on a
#: shared machine hold; set-up and run length use wall time
cpu = time.process_time

#: fresh interpreters that time the set-up; setup_s is their median
SETUP_PROBES = 5
#: every operation runs at least this often in a run; its latency is the
#: least of its times, the one least disturbed by other programs
MIN_PASSES = 3
#: share of --seconds the traced run spends on the untraced prefix that
#: tracing overhead is measured against
OVERHEAD_SHARE = 0.25
#: Kd of the baseline count of green_imaginary_freq calls for one v_off
#: point at Kr = 0.2 and the default QuadSpec (3349, 1909 and 1429 for the
#: code this benchmark was defined on)
BASELINE_KD = (0.02, 2.0, 20.0)

END_TO_END = {"setup_s": "s", "points_per_s": "1/s", "point_ms_p50": "ms",
              "point_ms_p90": "ms", "ok_frac": "fraction",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no cavdip source, bad argument)."""


def import_cavdip():
    """Import cavdip from the checkout's ``src`` only."""
    if not os.path.isdir(os.path.join(SRC, "cavdip")):
        raise BenchError(f"no cavdip sources under {SRC}")
    sys.path.insert(0, SRC)
    import cavdip
    import cavdip.cli
    import cavdip.errors
    import cavdip.green
    import cavdip.verification
    import cavdip.vdw
    where = os.path.dirname(os.path.abspath(cavdip.__file__))
    if where != os.path.join(SRC, "cavdip"):
        raise BenchError(f"cavdip imported from {where}, not from {SRC}")
    return cavdip


def setup(workload, seed, workdir):
    """Import cavdip, write and load the documents, build the op list."""
    cavdip = import_cavdip()
    ops = workloads.build_ops(workload, seed, workdir)
    for op in ops:
        if "doc" in op:
            cavdip.load_two_atom_config(op["doc"])
    return cavdip, ops


def probe_setup(workload, seed):
    """Child side of setup_s: time one set-up in this fresh interpreter."""
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        setup(workload, seed, workdir)
        print(repr(time.perf_counter() - t0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(workload, seed):
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    """Outcome of the operations of a run, pass by pass."""

    def __init__(self):
        self.latencies = [[]]    # CPU seconds per operation, per pass
        self.busy = [0.0]        # CPU seconds inside the program, per pass
        self.attempted = 0
        self.failed = 0          # typed errors plus gate failures
        self.incorrect = 0       # outputs that failed the gate, crashes
        self.rows = self.rows_skipped = 0
        self.problems = []
        self.first_pass = []     # busy seconds after each op of pass one

    def new_pass(self):
        self.latencies.append([])
        self.busy.append(0.0)

    def add(self, latency, n=1, failed=0, incorrect=0, problems=()):
        self.latencies[-1].extend([latency / n] * n)
        self.busy[-1] += latency
        self.attempted += n
        self.failed += failed
        self.incorrect += incorrect
        self.problems.extend(problems)


class Runner:
    def __init__(self, cavdip, workload):
        self.cv = cavdip
        self.refs = gate.load_refs(workload)
        self.scales = gate.column_scales(self.refs)
        self.tracer = None

    def execute(self, op, tally):
        """Run one op, time the program, then check its output."""
        kind = op["kind"]
        if self.tracer:
            self.tracer.op = op["ref"]
        if kind in ("eval", "sweep"):
            buf = io.StringIO()
            t0 = cpu()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(buf):
                rc = self._guard(self.cv.cli.main, op["argv"])
            dt = cpu() - t0
            if kind == "eval":
                self._check_eval(op, rc, buf.getvalue(), dt, tally)
            else:
                self._check_sweep(op, rc, buf.getvalue(), dt, tally)
        elif kind == "cross":
            t0 = cpu()
            res = self._guard(self._cross, op["kr"], op["kd"])
            dt = cpu() - t0
            if isinstance(res, dict):
                problems = gate.compare_cross(res)
                tally.add(dt, failed=bool(problems),
                          incorrect=bool(problems),
                          problems=[f"{op['ref']} gate: {p}"
                                    for p in problems])
            else:
                self._add_error(op, res, dt, tally)
        else:
            t0 = cpu()
            res = self._guard(self.cv.verification.run_checks, "quick")
            dt = cpu() - t0
            if isinstance(res, tuple):
                bad = [r.line() for r in res[0] if not r.passed]
                tally.add(dt, failed=bool(bad), incorrect=bool(bad),
                          problems=bad)
            else:
                self._add_error(op, res, dt, tally)

    def _guard(self, fn, *args):
        """fn(*args), or the exception it raised (typed or not)."""
        try:
            return fn(*args)
        except Exception as exc:    # classified by _add_error
            return exc

    def _add_error(self, op, exc, dt, tally, n=1, text=""):
        """Count a failed op: a typed cavdip error or a crash."""
        typed = isinstance(exc, (int, self.cv.errors.CavdipError))
        what = (f"exit code {exc}: {text.strip()[:160]}"
                if isinstance(exc, int) else repr(exc))
        tally.add(dt, n=n, failed=n, incorrect=0 if typed else n,
                  problems=[f"{op['ref']} {'failed' if typed else 'crashed'}"
                            f": {what}"])

    def _cross(self, kr, kd):
        g = self.cv.green
        geom = g.CavityGeometry(r=kr, d=kd)
        return {
            "modesum": g.green_modesum(geom, 1.0).as_array(),
            "series": g.green_reflection_series(geom, 1.0).green.as_array(),
            "kk": g.kramers_kronig_re(geom, 1.0).as_array(),
            "imagfreq": g.green_imaginary_freq(geom, 1.0).as_array(),
            "oracle": g.to_spherical(
                g.greens_q_integral_oracle(geom, 1.0)).as_array(),
            "dk": g.d_dk_k2_re_green(geom, 1.0, check=True),
        }

    def _reference(self, op):
        return (self.refs[op["ref"]], self.scales[op["ref"]],
                gate.RTOL[op["family"].split(":")[0]
                          if op["kind"] == "eval" else "sweep"])

    def _check_eval(self, op, rc, text, dt, tally):
        if rc != 0:
            self._add_error(op, rc, dt, tally, text=text)
            return
        ref, scale, rtol = self._reference(op)
        values = json.loads(text)["values"]
        problems = gate.compare(values, ref, scale, rtol)
        tally.add(dt, failed=bool(problems), incorrect=bool(problems),
                  problems=[f"{op['ref']} gate: {p}" for p in problems])

    def _check_sweep(self, op, rc, text, dt, tally):
        ref, scale, rtol = self._reference(op)
        n = len(ref["rows"])
        if rc != 0:
            self._add_error(op, rc, dt, tally, n=n, text=text)
            return
        with open(op["argv"][-1], encoding="utf-8") as fh:
            sweep = gate.parse_sweep_csv(fh.read())
        bad = gate.compare_sweep(sweep, ref, scale, rtol)
        n = len(sweep["rows"])
        tally.rows += n
        tally.rows_skipped += sum(row[-1].startswith("threshold")
                                  for row in sweep["rows"])
        failed = n if -1 in bad else len(bad)
        tally.add(dt, n=n, failed=failed, incorrect=failed,
                  problems=[f"{op['ref']} gate: row {r}: {p}"
                            for r, ps in bad.items() for p in ps])

    def run(self, ops, seconds):
        """At least MIN_PASSES whole passes over ``ops``, and more while
        another one fits in ``seconds``."""
        tally = Tally()
        t_start = time.perf_counter()
        passes = 0
        while True:
            for op in ops:
                self.execute(op, tally)
                if passes == 0:
                    tally.first_pass.append(tally.busy[0])
            passes += 1
            elapsed = time.perf_counter() - t_start
            if passes >= MIN_PASSES and \
                    elapsed * (passes + 1) / passes > seconds:
                return tally, passes
            tally.new_pass()


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, setup_s):
    """Timings from each operation's least CPU time over the passes."""
    least = [min(times) for times in zip(*tally.latencies)]
    ok = (tally.attempted - tally.failed) / len(tally.latencies)
    values = {
        "setup_s": setup_s,
        "points_per_s": ok / sum(least),
        "point_ms_p50": 1e3 * quantile(least, 50),
        "point_ms_p90": 1e3 * quantile(least, 90),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def traced(runner, workload, ops, seconds):
    """Per-layer metrics: an untraced prefix, then traced passes."""
    import tracing

    prefix = Tally()
    n_prefix = 0
    while n_prefix < len(ops) and prefix.busy[0] < OVERHEAD_SHARE * seconds:
        runner.execute(ops[n_prefix], prefix)
        n_prefix += 1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        baseline = {}
        if workload == "offres":
            vdw, green = runner.cv.vdw, runner.cv.green
            for kd in BASELINE_KD:
                before = tracer.layer("green.imagfreq").calls
                vdw.v_off_dimensionless(green.CavityGeometry(r=0.2, d=kd),
                                        1.0)
                baseline[kd] = tracer.layer("green.imagfreq").calls - before
            tracer.reset()
        runner.tracer = tracer
        tally, passes = runner.run(ops, seconds)
    finally:
        runner.tracer = None
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{workload}.jsonl"))

    metrics = tracer.metrics(passes)
    for kd in BASELINE_KD:
        metrics[f"vdw.v_off.baseline_calls_kd{kd:g}"] = (
            baseline.get(kd, 0), "count")
    rows = tally.rows
    metrics["cli.sweep.rows"] = (rows / passes, "count")
    metrics["cli.sweep.rows_skipped"] = (tally.rows_skipped / passes, "count")
    metrics["cli.sweep.rows_ok_ratio"] = (
        (rows - tally.rows_skipped) / rows if rows else 0.0, "fraction")
    metrics["trace.overhead_frac"] = (
        tally.first_pass[n_prefix - 1] / prefix.busy[0] - 1.0, "fraction")
    return tally, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cavdip, ops = setup(args.workload, args.seed, workdir)
        runner = Runner(cavdip, args.workload)
        missing = [op["ref"] for op in ops
                   if op["kind"] in ("eval", "sweep")
                   and op["ref"] not in runner.refs]
        if missing:
            raise BenchError(f"no stored reference for {missing[:3]}; "
                             "run perfbench/make_refs.py")
        if args.trace:
            tally, metrics = traced(runner, args.workload, ops, args.seconds)
        else:
            setup_s = measure_setup(args.workload, args.seed)
            tally, _ = runner.run(ops, args.seconds)
            metrics = end_to_end(tally, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in list(dict.fromkeys(tally.problems))[:20]:
        print(p, file=sys.stderr)
    print(json.dumps({
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
