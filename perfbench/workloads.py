"""Seeded inputs of the cavdip benchmark workloads.

Every input is drawn from a finite lattice: grid points of the published
sweeps and numbered catalogue documents.  ``make_refs.py`` stores the
reference output of every lattice point once, so a run can check whatever
its seed drew.  The seed chooses which lattice points a run uses (one per
stratum, so every seed covers the whole range) and in which order.

The program sees only what a user would give it: atoms documents written
to a work directory, and ``cavdip`` argv lists.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("offres", "presets", "small_ratio", "crosscheck")

#: fig4's own Kd grid (200 log points) at Kr = 0.2, fig4 tolerances
OFFRES_KR = 0.2
FIG4_KD = [0.02 * 1000.0 ** (i / 199) for i in range(200)]
FIG4_REL_TOL = "1e-06"
#: fig6's Kr grid (200 linear points) at Kd = 200, where r/d <= 0.06
SMALL_KD = 200.0
SMALL_KR = [0.25 + 11.75 * i / 199 for i in range(200)]
#: green_modesum at fixed Kr and log-uniform r/d in [1e-4, 1e-2]
MODESUM_KR = 0.5
MODESUM_ROD = [1e-4 * 100.0 ** (i / 127) for i in range(128)]
#: v_static just above the free-space switch, r/d in [0.005, 0.02]
STATIC_ROD = [0.005 * 4.0 ** (i / 127) for i in range(128)]
PRESET_SWEEPS = ("fig6-d2", "fig6-d20", "fig7")

#: documents per catalogue kind
CATALOGUE = 16
#: kind -> (state_a, state_b, identical atoms, r/d range, r range in nm,
#: static field)
DOC_KINDS = {
    "ground": (0, 0, False, (0.2, 0.3), (80.0, 120.0), False),
    "static": (0, 0, False, (0.05, 2.0), (20.0, 400.0), True),
    "one": (1, 0, False, (0.05, 2.0), (20.0, 400.0), False),
    "dis": (1, 1, False, (0.05, 2.0), (20.0, 400.0), False),
    "ident": (1, 1, True, (0.05, 2.0), (20.0, 400.0), False),
    "one_small": (1, 0, False, (1e-3, 1e-2), (5.0, 60.0), False),
    "ident_small": (1, 1, True, (1e-3, 1e-2), (5.0, 60.0), False),
}

#: crosscheck draws (Kr, Kd) log-uniformly in this box, one point per
#: cell of a CROSS_CELLS x CROSS_CELLS grid, and redraws Kd closer than
#: CROSS_GUARD (in units of pi) to a mode threshold, as the seed's own
#: double-pole check does
CROSS_KR = (0.2, 2.0)
CROSS_KD = (2.0, 20.0)
CROSS_CELLS = 10
CROSS_GUARD = 0.02


#: every lattice family a workload draws from, with its size; make_refs.py
#: stores a reference for each of its points
LATTICE = {
    "offres": {"v_off": len(FIG4_KD), "w_off:ground": CATALOGUE},
    "presets": {**{name: 1 for name in PRESET_SWEEPS},
                **{f"w_res:{k}": CATALOGUE for k in ("one", "dis", "ident")},
                "w_static:static": CATALOGUE},
    "small_ratio": {"v_res": len(SMALL_KR), "green_modesum": len(MODESUM_ROD),
                    "v_static": len(STATIC_ROD),
                    "w_res:one_small": CATALOGUE,
                    "w_res:ident_small": CATALOGUE},
}


def _loguniform(rng, lo, hi):
    return lo * (hi / lo) ** rng.random()


def _complex(rng, scale):
    mag = rng.uniform(0.2, 1.0) * scale
    ph = rng.uniform(0.0, 2.0 * math.pi)
    return [mag * math.cos(ph), mag * math.sin(ph)]


def _atom(rng, label):
    """Two- or three-level atom with optical transitions (SI units)."""
    w1 = rng.uniform(1.8e15, 3.2e15)
    levels = [{"index": 0, "omega": 0.0, "unit": "rad/s"},
              {"index": 1, "omega": w1, "unit": "rad/s"}]
    pairs = [(0, 1)]
    if rng.random() < 0.5:
        levels.append({"index": 2, "omega": w1 + rng.uniform(0.5e15, 1.2e15),
                       "unit": "rad/s"})
        pairs.append((1, 2))
    dipoles = [{"from": i, "to": j, "d0": _complex(rng, 3e-29),
                "dplus": _complex(rng, 1.5e-29),
                "dminus": _complex(rng, 1.5e-29)} for i, j in pairs]
    return {"label": label, "levels": levels, "dipoles": dipoles}


def make_doc(kind: str, index: int) -> dict:
    """Catalogue document ``index`` of ``kind`` (independent of the seed)."""
    state_a, state_b, identical, rod, r_nm, field = DOC_KINDS[kind]
    rng = random.Random(f"cavdip-bench/{kind}/{index}")
    atoms = [_atom(rng, "A")] if identical else [_atom(rng, "A"),
                                                 _atom(rng, "B")]
    r = _loguniform(rng, *r_nm)
    # document i draws r/d from the i-th of CATALOGUE log strata: the cost
    # of an evaluation follows r/d, so a stratified pick of documents
    # costs about the same for every seed
    lo, hi = math.log(rod[0]), math.log(rod[1])
    r_over_d = math.exp(lo + (hi - lo) * (index + rng.random()) / CATALOGUE)
    doc = {"atoms": atoms,
           "config": {"state_a": state_a, "state_b": state_b, "r": r,
                      "d": r / r_over_d, "length_unit": "nm"}}
    if field:
        doc["field"] = {"cartesian": [rng.uniform(-1.0, 1.0) * 1e5
                                      for _ in range(3)]}
    return doc


def _stratified(rng, n, bins):
    """One index drawn from each of ``bins`` equal strata of range(n)."""
    return [rng.randrange(b * n // bins, (b + 1) * n // bins)
            for b in range(bins)]


def _centred(rng, n, bins, half):
    """One index within ``half`` of each of ``bins`` evenly spaced centres."""
    return [round((b + 0.5) * n / bins) + rng.randint(-half, half)
            for b in range(bins)]


def make_op(family: str, index: int, workdir: str) -> dict:
    """The operation that evaluates lattice point ``index`` of ``family``.

    ``family`` is a grid name, a preset sweep, or ``w_<quantity>:<kind>``
    for catalogue documents, which are written to ``workdir``.  The op's
    ``ref`` names its stored reference.
    """
    op = {"kind": "eval", "ref": f"{family}/{index}", "family": family}
    if family == "v_off":
        args = ["--kr", repr(OFFRES_KR), "--kd", repr(FIG4_KD[index]),
                "--include-free", "--rel-tol", FIG4_REL_TOL]
    elif family == "v_res":
        args = ["--kr", repr(SMALL_KR[index]), "--kd", repr(SMALL_KD)]
    elif family == "green_modesum":
        args = ["--kr", repr(MODESUM_KR), "--kd",
                repr(MODESUM_KR / MODESUM_ROD[index])]
    elif family == "v_static":
        args = ["--r-over-d", repr(STATIC_ROD[index])]
    elif family in PRESET_SWEEPS:
        return {"kind": "sweep", "ref": f"sweep/{family}", "family": family,
                "argv": ["sweep", "--preset", family, "--out",
                         os.path.join(workdir, f"{family}.csv")]}
    else:
        quantity, kind = family.split(":")
        path = os.path.join(workdir, f"{kind}-{index}.json")
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(make_doc(kind, index), fh)
        op["doc"] = path
        family, args = quantity, ["--config", path]
    op["argv"] = ["eval", "--quantity", family, *args, "--format", "json"]
    return op


def build_ops(workload: str, seed: int, workdir: str) -> list[dict]:
    """The op list of one pass of ``workload`` for ``seed``.

    Documents go to ``workdir``.  The same seed gives the same list.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"cavdip-bench/{workload}/{seed}")

    def grid(family, indices):
        return [make_op(family, i, workdir) for i in indices]

    def docs(quantity, kind, n):
        return grid(f"{quantity}:{kind}", _stratified(rng, CATALOGUE, n))

    if workload == "offres":
        # v_off's cost is a step function of Kd (it drops by up to a third
        # between neighbouring grid points), so the bins are narrow: with
        # wide ones a run's cost would follow the seed more than the program
        ops = grid("v_off", _centred(rng, len(FIG4_KD), 8, 1))
        ops += docs("w_off", "ground", 1)
    elif workload == "presets":
        ops = [make_op(name, 0, workdir) for name in PRESET_SWEEPS]
        for kind in ("one", "dis", "ident"):
            ops += docs("w_res", kind, 2)
        ops += docs("w_static", "static", 2)
    elif workload == "small_ratio":
        ops = grid("v_res", _stratified(rng, len(SMALL_KR), 50))
        ops += grid("green_modesum", _stratified(rng, len(MODESUM_ROD), 32))
        ops += grid("v_static", _stratified(rng, len(STATIC_ROD), 64))
        # the whole catalogues: whether an identical-atom document fails
        # its derivative cross-check is a property of the document, so
        # every seed runs all of them and fails the same ones
        ops += docs("w_res", "one_small", CATALOGUE)
        ops += docs("w_res", "ident_small", CATALOGUE)
    else:
        ops = [{"kind": "verify", "ref": "verify/quick"}]
        for cell in range(CROSS_CELLS * CROSS_CELLS):
            cr, cd = divmod(cell, CROSS_CELLS)
            kr = _cell_draw(rng, CROSS_KR, cr)
            while True:
                kd = _cell_draw(rng, CROSS_KD, cd)
                frac = kd / math.pi
                if abs(frac - round(frac)) >= CROSS_GUARD:
                    break
            ops.append({"kind": "cross", "ref": f"cross/{cell}",
                        "kr": kr, "kd": kd})
    rng.shuffle(ops)
    return ops


def _cell_draw(rng, box, cell):
    lo, hi = math.log(box[0]), math.log(box[1])
    width = (hi - lo) / CROSS_CELLS
    return math.exp(lo + width * (cell + rng.random()))
