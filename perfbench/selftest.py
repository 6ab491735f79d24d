#!/usr/bin/env python3
"""Self-test of the cavdip benchmark.

    python3 perfbench/selftest.py

Checks that the same seed gives the same inputs, that the metric names
and units a run prints match BENCHMARK.json, and that the correctness
gate flags deliberately perturbed outputs.  Exits 1 on the first failed
check.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import gate
import run
import workloads

ROOT = os.path.dirname(run.HERE)


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def same_seed_same_inputs():
    def inputs(seed):
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
            out = []
            for name in workloads.WORKLOADS:
                for op in workloads.build_ops(name, seed, workdir):
                    op = {k: v for k, v in op.items() if k != "doc"}
                    op["argv"] = [os.path.basename(a)
                                  for a in op.get("argv", ())]
                    out.append(op)
            docs = {}
            for name in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, name), encoding="utf-8") as fh:
                    docs[name] = fh.read()
            return out, docs

    first = inputs(11)
    expect(first == inputs(11), "seed 11 gave two different input sets")
    expect(first[0] != inputs(12)[0], "seeds 11 and 12 gave the same ops")


def metric_names_match():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", "presets", "--seed", "1", "--seconds", "1",
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"result keys {sorted(result)}")
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in bench[key]}
        expect(got == want, f"{key}: printed {got} but declared {want}")


def gate_flags_perturbed_outputs():
    def flags(got, want, key, family, scales):
        return bool(gate.compare(got, want, scales[key], gate.RTOL[family]))

    refs = gate.load_refs("offres")
    scales = gate.column_scales(refs)
    ref = refs["v_off/100"]
    expect(not flags(ref, ref, "v_off/100", "v_off", scales),
           "the gate flags an unchanged v_off output")
    expect(flags(dict(ref, vpm=ref["vpm"] * (1 + 1e-3)), ref, "v_off/100",
                 "v_off", scales),
           "the gate misses V+- off by 1e-3")
    # the tiny V++ at Kd = 0.02 may move far more than its own size
    ref = refs["v_off/0"]
    expect(not flags(dict(ref, vpp=ref["vpp"] * (1 + 2e-4)), ref, "v_off/0",
                     "v_off", scales),
           "the gate flags a 2e-4 change of the tiny V++ at Kd = 0.02")

    refs = gate.load_refs("presets")
    scales = gate.column_scales(refs)
    ref = refs["w_res:ident/2"]
    expect(flags(dict(ref, w_a_J=ref["w_a_J"] * (1 + 1e-4)), ref,
                 "w_res:ident/2", "w_res", scales),
           "the gate misses w_a off by 1e-4")
    sweep = refs["sweep/fig7"]
    scale = scales["sweep/fig7"]
    expect(not gate.compare_sweep(sweep, sweep, scale, gate.RTOL["sweep"]),
           "the gate flags an unchanged fig7 sweep")
    bad = copy.deepcopy(sweep)
    bad["rows"][80][sweep["header"].index("ratio_pm")] *= 1 + 1e-4
    expect(list(gate.compare_sweep(bad, sweep, scale,
                                   gate.RTOL["sweep"])) == [80],
           "the gate does not flag exactly the perturbed fig7 row")

    g = np.array([1.0 + 0.5j, -0.3 + 0.1j, 0.7 - 0.2j])
    res = {"modesum": g, "series": g.copy(), "kk": g.real.copy(),
           "imagfreq": np.array([0.4, -0.1, 0.2]),
           "oracle": np.array([0.4, -0.1, 0.2])}
    expect(not gate.compare_cross(res), "the gate flags agreeing tensors")
    res["kk"] = res["kk"] * (1 + 1e-3)
    expect(gate.compare_cross(res),
           "the gate misses a Kramers-Kronig result off by 1e-3")


def main():
    os.makedirs(run.OUT, exist_ok=True)
    for check in (same_seed_same_inputs, metric_names_match,
                  gate_flags_perturbed_outputs):
        try:
            check()
        except CheckFailed as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
