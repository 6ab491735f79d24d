#!/usr/bin/env python3
"""Store the reference outputs the benchmark's correctness gate uses.

    python3 perfbench/make_refs.py [offres] [presets] [small_ratio]

Evaluates every lattice point and catalogue document of the named
workloads (all three by default) through ``cavdip.cli.main``, exactly as
a benchmark run does, and writes ``perfbench/refs/<workload>.json``.
An identical-atom document whose derivative cross-check raises
DerivativeMismatchError gets the analytic-path value that the same
evaluation returns with the check off, and the error message under
``seed_error``; a run still counts that evaluation as failed.
References are taken once, from the program the benchmark was defined
on; regenerate them only when an output is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

import gate
import run
import workloads


def _identical_without_check(cavdip, doc_path):
    """w_res as ``cavdip eval`` computes it, with the derivative check off."""
    cfg = cavdip.load_two_atom_config(doc_path)
    res = cavdip.vdw.w_res_two_excited_identical(
        cfg, cavdip.SeriesSpec(rel_tol=1e-10), None, derivative_check=False)
    return {"w_a_J": res.w_a, "w_b_J": res.w_b,
            "phase_shift_J": res.phase_shift,
            "phase_shift_rate_rad_s": res.phase_shift_rate,
            "n_channels": len(res.breakdown),
            "skipped_channels": len(res.skipped_channels)}


def reference(cavdip, op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = cavdip.cli.main(op["argv"])
    if op["kind"] == "sweep":
        if rc != 0:
            raise SystemExit(f"{op['ref']}: {buf.getvalue()}")
        with open(op["argv"][-1], encoding="utf-8") as fh:
            return gate.parse_sweep_csv(fh.read())
    if rc == 0:
        values = json.loads(buf.getvalue())["values"]
        values.pop("breakdown", None)
        return values
    err = buf.getvalue().strip()
    if op["family"].startswith("w_res:ident"):
        values = _identical_without_check(cavdip, op["doc"])
        values["seed_error"] = err
        return values
    raise SystemExit(f"{op['ref']}: no reference ({err})")


def main(names):
    cavdip = run.import_cavdip()
    workdir = os.path.join(run.OUT, f"refs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(os.path.join(run.HERE, "refs"), exist_ok=True)
    try:
        for name in names or workloads.LATTICE:
            refs = {}
            for family, size in workloads.LATTICE[name].items():
                for index in range(size):
                    op = workloads.make_op(family, index, workdir)
                    t0 = time.perf_counter()
                    refs[op["ref"]] = reference(cavdip, op)
                    print(f"{op['ref']} {time.perf_counter() - t0:.4f} s"
                          + (" seed_error" if "seed_error" in refs[op["ref"]]
                             else ""), flush=True)
            path = os.path.join(run.HERE, "refs", f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh, indent=0, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
