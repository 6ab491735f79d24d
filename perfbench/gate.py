"""Correctness gate of the cavdip benchmark.

Outputs are compared with the references ``make_refs.py`` stored.  The
tolerance of a value scales with the largest magnitude of its column:
over the whole reference grid for grid quantities, over the sweep for
preset sweeps, and over the document's own energies (per unit) for the
``w_*`` documents.  So a tiny entry such as V++ at Kd = 0.02, which is
below 1e-6 of its column maximum, may move by far more than its own
size without being a failure, while any visible change of the curve is.

The crosscheck workload has no stored references: there the independent
representations of the Green tensor must agree with each other at the
tolerances the README states.
"""

from __future__ import annotations

import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

#: relative tolerance, as a share of the column's largest magnitude;
#: quadrature-based quantities run at rel_tol 1e-6 (fig4) or 1e-8, the
#: mode and static sums at 1e-10
RTOL = {"v_off": 1e-5, "w_off": 1e-5, "v_res": 1e-6, "green_modesum": 1e-6,
        "v_static": 1e-6, "w_res": 1e-6, "w_static": 1e-6, "sweep": 1e-6}
#: diagnostics, not results: a later change may legitimately move them
IGNORED = {"breakdown", "n00", "npp", "npm", "m_used", "truncation",
           "diagnostics"}
GRID_FAMILIES = ("v_off", "v_res", "green_modesum", "v_static")

#: crosscheck agreement (README): mode sums vs reflection series 1e-5,
#: Kramers-Kronig round trip 1e-4, imaginary frequency vs the defining
#: q-integral 1e-7, each relative to the tensor's largest component
CROSS_TOL = {"series": 1e-5, "kk": 1e-4, "oracle": 1e-7}


def load_refs(workload: str) -> dict:
    path = os.path.join(HERE, "refs", f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def column_scales(refs: dict) -> dict:
    """key -> {field: scale} for every stored reference."""
    grid_max: dict = {}
    for key, ref in refs.items():
        family = key.split("/")[0]
        if family in GRID_FAMILIES:
            top = grid_max.setdefault(family, {})
            for f, v in _floats(ref).items():
                top[f] = max(top.get(f, 0.0), abs(v))
    scales = {}
    for key, ref in refs.items():
        family = key.split("/")[0]
        if family in GRID_FAMILIES:
            scales[key] = grid_max[family]
        elif family == "sweep":
            scales[key] = {
                f: max((abs(row[n]) for row in ref["rows"]
                        if isinstance(row[n], float)), default=0.0)
                for n, f in enumerate(ref["header"])}
        else:
            vals = _floats(ref)
            by_unit: dict = {}
            for f, v in vals.items():
                unit = f.rsplit("_", 1)[-1]
                by_unit[unit] = max(by_unit.get(unit, 0.0), abs(v))
            scales[key] = {f: by_unit[f.rsplit("_", 1)[-1]] for f in vals}
    return scales


def _floats(values: dict) -> dict:
    return {f: float(v) for f, v in values.items()
            if f not in IGNORED and isinstance(v, float)}


def compare(values: dict, ref: dict, scale: dict, rtol: float) -> list[str]:
    """Problems of one evaluation's output against its reference."""
    problems = []
    for f, want in ref.items():
        if f in IGNORED or f == "seed_error":
            continue
        got = values.get(f)
        if got is None:
            problems.append(f"{f}: missing")
        elif isinstance(want, float):
            if not isinstance(got, (int, float)):
                problems.append(f"{f}: {got!r} vs reference {want!r}")
                continue
            tol = rtol * scale.get(f, abs(want))
            if not abs(float(got) - want) <= tol:
                problems.append(f"{f}: {got!r} vs reference {want!r} "
                                f"(tol {tol:.3e})")
        elif got != want:
            problems.append(f"{f}: {got!r} vs reference {want!r}")
    return problems


def parse_sweep_csv(text: str) -> dict:
    """{"header": [...], "rows": [[cell, ...]]} of a sweep CSV file."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",", len(header) - 1)
        rows.append([_cell(c) for c in cells[:-1]] + [cells[-1]])
    return {"header": header, "rows": rows}


def _cell(text):
    if text == "":
        return ""
    try:
        return int(text)
    except ValueError:
        return float(text)


def compare_sweep(sweep: dict, ref: dict, scale: dict,
                  rtol: float) -> dict:
    """Problems of a parsed sweep against its reference, by row index;
    row -1 means the sweep as a whole does not match."""
    if sweep["header"] != ref["header"]:
        return {-1: [f"header {sweep['header']} vs {ref['header']}"]}
    if len(sweep["rows"]) != len(ref["rows"]):
        return {-1: [f"{len(sweep['rows'])} rows vs {len(ref['rows'])}"]}
    bad = {}
    for n, (row, want) in enumerate(zip(sweep["rows"], ref["rows"])):
        problems = compare(dict(zip(sweep["header"], row)),
                           dict(zip(ref["header"], want)), scale, rtol)
        if problems:
            bad[n] = problems
    return bad


def compare_cross(res: dict) -> list[str]:
    """Agreement of the representations evaluated at one (Kr, Kd)."""
    problems = []
    ms = res["modesum"]

    def check(name, got, want):
        scale = float(np.max(np.abs(want)))
        dev = float(np.max(np.abs(got - want)))
        if not dev <= CROSS_TOL[name] * scale:
            problems.append(f"{name}: deviation {dev:.3e} > "
                            f"{CROSS_TOL[name]:.0e} x {scale:.3e}")

    check("series", res["series"], ms)
    check("kk", res["kk"], ms.real)
    check("oracle", res["oracle"], res["imagfreq"])
    return problems
