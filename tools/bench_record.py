#!/usr/bin/env python3
"""Record the end-to-end cost of a cavdip checkout in one JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json
    python3 tools/bench_record.py --tree ../parent --out parent.json
    python3 tools/bench_record.py --out BENCH_<n>.json --baseline parent.json

Measures the checkout at ``--tree`` (default: the one this script lives
in) and writes one record:

* every workload that ``BENCHMARK.json`` lists, through
  ``perfbench/run.py --trace 0`` at seed 1 with the file's run length;
* the wall and CPU time of ``cavdip sweep --preset P`` for every preset
  that ``cavdip presets`` lists, and of ``cavdip verify --level full``;
* the least wall time of five runs of ``cavdip eval --quantity Q`` for
  ``w_off``, ``w_res`` and ``w_static`` on fixed documents of the
  benchmark catalogue (``EVALS``), for ``v_off`` at r/d = 1e-3 and 1e-5,
  and for ``v_static`` at r/d = 1e-3 and 0.01 (``EVAL_ARGS``);
* the state of the machine: ``nproc``, the load average before and after,
  and the least time of a short CPU calibration loop, so that two
  records are compared through their calibrations, not as raw seconds.

``--baseline`` copies an earlier record (of the parent, say) into the new
one under ``"baseline"``, so one file holds both sides of a comparison.
The script only reads ``BENCHMARK.json``; ``perfbench/run.py`` writes its
own work files under ``perfbench/out/`` as usual.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: seed of the perfbench runs
SEED = 1
#: one child command may not run longer than this (fig4 took ~200 s on the
#: code before the closed imaginary-frequency sums)
TIMEOUT_S = 3600
#: iterations and repeats of the calibration loop
CALIBRATION_N = 2_000_000
CALIBRATION_REPEATS = 5
#: (quantity, catalogue kind) of each timed ``cavdip eval``; the document
#: is ``perfbench/workloads.make_doc(kind, 0)``
EVALS = (("w_off", "ground"), ("w_res", "dis"), ("w_res", "ident"),
         ("w_static", "static"))
#: arguments of each timed ``cavdip eval`` without a document: v_off and
#: v_static at r << d, where the tensor comes from the image sums
EVAL_ARGS = (("--quantity", "v_off", "--kr", "0.2", "--kd", "200"),
             ("--quantity", "v_off", "--kr", "0.2", "--kd", "20000"),
             ("--quantity", "v_static", "--r-over-d", "1e-3"),
             ("--quantity", "v_static", "--r-over-d", "0.01"))
#: runs of each timed ``cavdip eval``; the least wall time is kept
EVAL_REPEATS = 5


def calibrate() -> float:
    """Least wall time of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def machine_state() -> dict:
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "calibration_s": calibrate(),
            "calibration_loop": f"sum(i*i) for i < {CALIBRATION_N}, "
                                f"least of {CALIBRATION_REPEATS}"}


def timed(argv, cwd, env) -> dict:
    """Run ``argv``; its wall time, the CPU time of its process tree, its
    exit code and the last line of its output."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S, check=False)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime
                                                - before.ru_stime)
    lines = (proc.stdout.strip() or proc.stderr.strip()).splitlines()
    return {"wall_s": wall, "cpu_s": cpu, "returncode": proc.returncode,
            "last_line": lines[-1] if lines else ""}


def git_state(tree) -> dict:
    """HEAD of the checkout and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=tree, capture_output=True,
                              text=True, check=False).stdout.strip()
    return {"head": git("rev-parse", "HEAD") or "unknown",
            "modified": bool(git("status", "--porcelain",
                                 "--untracked-files=no"))}


def timed_evals(tree, env, cavdip, tmp) -> dict:
    """The fastest of ``EVAL_REPEATS`` runs of each ``EVALS`` and
    ``EVAL_ARGS`` entry."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import workloads
    cases = {}
    for quantity, kind in EVALS:
        doc = os.path.join(tmp, f"{kind}-0.json")
        with open(doc, "w", encoding="utf-8") as fh:
            json.dump(workloads.make_doc(kind, 0), fh)
        cases[f"{quantity}:{kind}/0"] = ("--quantity", quantity, "--config",
                                         doc)
    for args in EVAL_ARGS:
        cases[" ".join(args[1:])] = args
    out = {}
    for key, args in cases.items():
        runs = [timed([*cavdip, "eval", *args], tree, env)
                for _ in range(EVAL_REPEATS)]
        best = min(runs, key=lambda run: run["wall_s"])
        out[key] = dict(best, runs=EVAL_REPEATS)
    return out


def record(tree: str) -> dict:
    with open(os.path.join(tree, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cavdip = [sys.executable, "-m", "cavdip.cli"]
    out = {"git": git_state(tree), "python": sys.version.split()[0],
           "machine_before": machine_state(), "workloads": {}, "sweeps": {}}

    seconds = str(bench.get("run_seconds", 20))
    for wl in bench["workloads"]:
        res = timed([sys.executable, *bench["command"][1:], "--workload",
                     wl["name"], "--seed", str(SEED), "--seconds", seconds,
                     "--trace", "0"], tree, env)
        try:
            res["result"] = json.loads(res["last_line"])
        except json.JSONDecodeError:
            res["result"] = None
        out["workloads"][wl["name"]] = res

    listing = subprocess.run([*cavdip, "presets"], cwd=tree, env=env,
                             capture_output=True, text=True, check=True)
    presets = [ln.split(":", 1)[0] for ln in listing.stdout.splitlines()
               if ":" in ln]
    with tempfile.TemporaryDirectory() as tmp:
        for name in presets:
            out["sweeps"][name] = timed(
                [*cavdip, "sweep", "--preset", name, "--out",
                 os.path.join(tmp, f"{name}.csv")], tree, env)
        out["verify_full"] = timed(
            [*cavdip, "verify", "--level", "full", "--json",
             os.path.join(tmp, "verify.json")], tree, env)
        out["evals"] = timed_evals(tree, env, cavdip, tmp)
    out["machine_after"] = machine_state()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--tree", default=os.path.dirname(HERE),
                    help="cavdip checkout to measure (default: this one)")
    ap.add_argument("--baseline", help="earlier record to embed")
    args = ap.parse_args(argv)
    rec = record(args.tree)
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            rec["baseline"] = json.load(fh)
    text = json.dumps(rec, indent=2) + "\n"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
