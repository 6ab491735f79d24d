"""Command line interface: single evaluations, parameter sweeps, and the
built-in verification suite.

Sweeps emit CSV (or JSON) with ``#``-prefixed metadata lines recording the
tool version, tolerances and conventions; rows threshold-skipped during a
sweep are flagged in the diagnostics column instead of aborting the run.
Dimensionless sweeps use the reference wavenumber K as the inverse length
unit, so the axes are the products Kr, Kd (or the ratio r/d).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .atoms import load_two_atom_config
from .errors import CavdipError, ConfigError, ThresholdError
from .green import (CavityGeometry, free_space_green, green_imaginary_freq,
                    green_modesum, green_reflection_series, to_spherical)
from .quadrature import QuadSpec
from .static import (StaticField, v_static_dimensionless, v_static_free,
                     w_static_full)
from .vdw import (v_off_dimensionless, v_off_free_dimensionless,
                  v_res_dimensionless, w_off_full, w_resonant)
from .verification import run_checks

QUANTITIES = ("green_modesum", "green_series", "green_imagfreq", "v_off",
              "v_res", "v_static", "w_off", "w_res", "w_static")

SIGN_NOTE = ("reflection-series sign: (-1)^m for in-plane components, "
             "constant for axial (adjudicated against mode sums)")

PRESETS = {
    "fig4": {
        "quantity": "v_off",
        "grid": {"variable": "Kd", "start": 0.02, "stop": 20.0,
                 "points": 200, "spacing": "log"},
        "fixed": {"Kr": 0.2},
        "tolerances": {"rel_tol": 1e-6},
        "include_free": True,
        "description": "off-resonant tensor vs Kd at Kr = 0.2, with "
                       "free-space reference columns",
    },
    "fig6-d2": {
        "quantity": "v_res",
        "grid": {"variable": "Kr", "start": 0.25, "stop": 12.0,
                 "points": 200, "spacing": "linear"},
        "fixed": {"Kd": 2.0},
        "include_free": True,
        "description": "resonant tensors vs Kr at Kd = 2",
    },
    "fig6-d20": {
        "quantity": "v_res",
        "grid": {"variable": "Kr", "start": 0.25, "stop": 12.0,
                 "points": 200, "spacing": "linear"},
        "fixed": {"Kd": 20.0},
        "include_free": True,
        "description": "resonant tensors vs Kr at Kd = 20",
    },
    "fig7": {
        "quantity": "v_static",
        "grid": {"variable": "r_over_d", "start": 0.02, "stop": 8.0,
                 "points": 160, "spacing": "log"},
        "fixed": {},
        "include_free": True,
        "description": "electrostatic tensor vs r/d, normalized by the "
                       "free-space forms",
    },
}


def _eval_point(quantity, params, tols, config=None, field=None,
                include_free=False):
    """One evaluation; returns an ordered dict of output columns."""
    spec = tols["quad"]
    guard = tols["guard_band"]
    # the w_* quantities read Kr/Kd or r_over_d, not both, and need none
    needs = {"green_modesum": ("Kr", "Kd"), "green_series": ("Kr", "Kd"),
             "green_imagfreq": ("Kr", "Kd"), "v_off": ("Kr", "Kd"),
             "v_res": ("Kr", "Kd"), "v_static": ("r_over_d",)}
    for p in needs.get(quantity, ()):
        if p not in params:
            raise ConfigError(f"quantity {quantity!r} needs parameter "
                              f"{p} (flag --{p.lower().replace('_', '-')})")
    reads = needs.get(quantity) or (
        ("r_over_d",) if "r_over_d" in params else ("Kr", "Kd"))
    unread = ", ".join(sorted(set(params) - set(reads)))
    if unread:
        raise ConfigError(f"quantity {quantity!r} does not read {unread} "
                          f"(it reads {' and '.join(reads)})")
    if quantity in ("green_modesum", "green_series", "v_res"):
        geom = CavityGeometry(r=params["Kr"], d=params["Kd"])
        if quantity == "green_modesum":
            g = green_modesum(geom, 1.0, guard_band=guard)
            return {"re_par": g.g_par.real, "im_par": g.g_par.imag,
                    "re_perp": g.g_perp.real, "im_perp": g.g_perp.imag,
                    "re_00": g.g_00.real, "im_00": g.g_00.imag}
        if quantity == "green_series":
            res = green_reflection_series(geom, 1.0, tols["m_max"], spec)
            g = res.green
            return {"re_par": g.g_par.real, "im_par": g.g_par.imag,
                    "re_perp": g.g_perp.real, "im_perp": g.g_perp.imag,
                    "re_00": g.g_00.real, "im_00": g.g_00.imag,
                    "m_used": res.m_used,
                    "truncation": res.truncation_estimate}
        va, vb = v_res_dimensionless(geom, 1.0, guard_band=guard)
        out = {"va_00": va.v00, "va_pp": va.vpp, "va_pm": va.vpm,
               "vb_00": vb.v00, "vb_pp": vb.vpp, "vb_pm": vb.vpm}
        if include_free:
            sfs = to_spherical(free_space_green(params["Kr"], 1.0)).as_array()
            va_f = sfs.real**2 - sfs.imag**2
            vb_f = sfs.real**2 + sfs.imag**2
            out.update({"va_00_free": va_f[2], "va_pp_free": va_f[1],
                        "va_pm_free": va_f[0], "vb_00_free": vb_f[2],
                        "vb_pp_free": vb_f[1], "vb_pm_free": vb_f[0]})
        return out
    if quantity == "green_imagfreq":
        geom = CavityGeometry(r=params["Kr"], d=params["Kd"])
        g = green_imaginary_freq(geom, 1.0)
        return {"g_pm": g.g_pm, "g_pp": g.g_pp, "g_00": g.g_00}
    if quantity == "v_off":
        geom = CavityGeometry(r=params["Kr"], d=params["Kd"])
        v = v_off_dimensionless(geom, 1.0, spec)
        out = {"v00": v.v00, "vpp": v.vpp, "vpm": v.vpm}
        if include_free:
            vf = v_off_free_dimensionless(params["Kr"], spec)
            out.update({"v00_free": vf.v00, "vpp_free": vf.vpp,
                        "vpm_free": vf.vpm})
        return out
    if quantity == "v_static":
        rod = params["r_over_d"]
        geom = CavityGeometry(r=rod, d=1.0)
        v = v_static_dimensionless(geom)
        out = {"v00": v.v00, "vpp": v.vpp, "vpm": v.vpm,
               "n00": v.n_used[0], "npp": v.n_used[1], "npm": v.n_used[2]}
        if include_free:
            vf = v_static_free(geom)
            out.update({"v00_free": vf.v00, "vpp_free": vf.vpp,
                        "vpm_free": vf.vpm,
                        "ratio_00": v.v00 / vf.v00,
                        "ratio_pp": v.vpp / vf.vpp,
                        "ratio_pm": v.vpm / vf.vpm})
        return out
    # dimensional quantities need the two-atom configuration
    if config is None:
        raise ConfigError(f"quantity {quantity!r} needs --config with an "
                          "atoms document")
    cfg = config
    if "Kr" in params or "Kd" in params:
        k_ref = _reference_wavenumber(cfg)
        r = params.get("Kr", cfg.geometry.r * k_ref) / k_ref
        d = params.get("Kd", cfg.geometry.d * k_ref) / k_ref
        cfg = dataclasses.replace(cfg, geometry=CavityGeometry(r=r, d=d))
    elif "r_over_d" in params:
        cfg = dataclasses.replace(cfg, geometry=CavityGeometry(
            r=params["r_over_d"] * cfg.geometry.d, d=cfg.geometry.d))
    if quantity == "w_off":
        res = w_off_full(cfg, spec)
    elif quantity == "w_res":
        res = w_resonant(cfg, guard_band=guard)
    else:
        if field is None:
            raise ConfigError("w_static needs a 'field' section in the "
                              "configuration document")
        res = w_static_full(cfg, field)
    out = {"w_a_J": res.w_a, "w_b_J": res.w_b,
           "phase_shift_J": res.phase_shift,
           "phase_shift_rate_rad_s": res.phase_shift_rate,
           "n_channels": len(res.breakdown),
           "skipped_channels": len(res.skipped_channels)}
    out["breakdown"] = [
        {"i": c.i, "j": c.j, "tag": c.tag, "k_eval": c.k_eval,
         "w_a_J": c.w_a, "w_b_J": c.w_b, "phase_J": c.phase,
         **({"skipped": True, "reason": c.reason} if c.skipped else {})}
        for c in res.breakdown]
    return out


def _reference_wavenumber(cfg):
    """K from the first downward transition of atom A (else 1/r)."""
    a = cfg.state_a
    down = [i for i in cfg.atom_a.coupled_to(a) if i < a]
    if down:
        return (cfg.atom_a.omega(a) - cfg.atom_a.omega(down[0])) \
            / cfg.constants.c
    up = cfg.atom_a.coupled_to(a)
    if up:
        return abs(cfg.atom_a.omega(up[0]) - cfg.atom_a.omega(a)) \
            / cfg.constants.c
    return 1.0 / cfg.geometry.r


def _load_atoms(path):
    """The configuration and static field of an atoms document, read once."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON: {exc}") from None
    return load_two_atom_config(doc), _parse_field(doc.get("field"))


def _json_object(value, what):
    """``value`` if it is a JSON object, else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object")
    return value


def _parse_field(obj) -> StaticField | None:
    if obj is None:
        return None
    _json_object(obj, "field section")
    try:
        if "cartesian" in obj:
            ex, ey, ez = obj["cartesian"]
            return StaticField.from_cartesian(float(ex), float(ey), float(ez))
        if "spherical" in obj:
            sph = obj["spherical"]

            def cplx(v):
                return complex(v[0], v[1]) if isinstance(v, (list, tuple)) \
                    else complex(v)

            return StaticField((cplx(sph.get("e0", 0.0)),
                                cplx(sph.get("eplus", 0.0)),
                                cplx(sph.get("eminus", 0.0))))
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed field section: {exc}") from None
    raise ConfigError("field section needs 'cartesian' or 'spherical'")


def _tolerances(args, overrides=None):
    overrides = _json_object({} if overrides is None else overrides,
                             "'tolerances'")
    rel = overrides.get("rel_tol", args.rel_tol)
    abs_tol = overrides.get("abs_tol", 1e-12)
    guard = overrides.get("guard_band", args.guard_band)
    try:
        m_max = int(overrides.get("m_max", args.m_max))
        quad = QuadSpec(rel_tol=rel, abs_tol=abs_tol)
        if guard is not None and not guard >= 0:
            raise ValueError(f"guard_band {guard!r} must be >= 0")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad tolerances: {exc}") from None
    return {
        "quad": quad,
        "m_max": m_max,
        "guard_band": guard,
        "rel_tol": rel,
        "abs_tol": abs_tol,
    }


def _metadata_lines(quantity, grid, fixed, tols):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return [
        f"# cavdip {__version__}",
        f"# generated: {stamp}",
        f"# quantity: {quantity}",
        f"# grid: {grid}",
        f"# fixed: {json.dumps(fixed, sort_keys=True)}",
        f"# tolerances: rel_tol={tols['rel_tol']!r} "
        f"abs_tol={tols['abs_tol']!r} m_max={tols['m_max']} "
        f"guard_band={tols['guard_band']!r}",
        f"# {SIGN_NOTE}",
    ]


def _format_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def cmd_eval(args) -> int:
    tols = _tolerances(args)
    config = field = None
    if args.config:
        config, field = _load_atoms(args.config)
    flags = {"Kr": args.kr, "Kd": args.kd, "r_over_d": args.r_over_d}
    params = {name: v for name, v in flags.items() if v is not None}
    row = _eval_point(args.quantity, params, tols, config, field,
                      include_free=args.include_free)
    if args.format == "json":
        print(json.dumps({"quantity": args.quantity, "params": params,
                          "values": row}, indent=2, default=float))
    else:
        breakdown = row.pop("breakdown", None)
        for k, v in params.items():
            print(f"{k} = {_format_cell(v)}")
        for k, v in row.items():
            print(f"{args.quantity}.{k} = {_format_cell(v)}")
        for c in breakdown or ():
            status = f" SKIPPED ({c['reason']})" if c.get("skipped") else ""
            print(f"  channel (i={c['i']}, j={c['j']}, {c['tag']}): "
                  f"w_a = {_format_cell(c['w_a_J'])} J, "
                  f"w_b = {_format_cell(c['w_b_J'])} J, "
                  f"phase = {_format_cell(c['phase_J'])} J{status}")
    return 0


def _grid_values(grid):
    try:
        start, stop = float(grid["start"]), float(grid["stop"])
        points = int(grid["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed grid: {exc!r}") from None
    if points < 2:
        raise ConfigError("grid needs points >= 2")
    if not start < stop:
        raise ConfigError("grid needs start < stop")
    spacing = grid.get("spacing", "linear")
    if spacing == "log":
        if start <= 0:
            raise ConfigError("log spacing needs start > 0")
        return np.geomspace(start, stop, points)
    if spacing == "linear":
        return np.linspace(start, stop, points)
    raise ConfigError(f"unknown spacing {spacing!r}")


def cmd_sweep(args) -> int:
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"available: {', '.join(sorted(PRESETS))}")
        sweep = dict(PRESETS[args.preset])
    elif args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                sweep = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"malformed sweep JSON: {exc}") from None
    else:
        raise ConfigError("sweep needs --preset or --config")
    _json_object(sweep, "sweep document")
    quantity = sweep.get("quantity")
    if quantity not in QUANTITIES:
        raise ConfigError(f"unknown quantity {quantity!r}")
    grid = _json_object(sweep.get("grid"), "'grid'")
    variable = grid.get("variable")
    if variable not in ("Kr", "Kd", "r_over_d"):
        raise ConfigError(f"unknown sweep variable {variable!r}")
    fixed = _json_object(sweep.get("fixed", {}), "'fixed'")
    if not all(type(v) in (int, float) for v in fixed.values()):
        raise ConfigError("the values of 'fixed' must be numbers")
    output = _json_object(sweep.get("output", {}), "'output'")
    if variable in fixed:
        raise ConfigError(f"swept variable {variable!r} also in 'fixed'")
    include_free = sweep.get("include_free", args.include_free)
    if not isinstance(include_free, bool):
        raise ConfigError("'include_free' must be true or false")
    tols = _tolerances(args, sweep.get("tolerances"))
    config = field = None
    if quantity.startswith("w_"):
        atoms_doc = sweep.get("atoms_config") or args.atoms
        if not atoms_doc:
            raise ConfigError(f"{quantity} sweeps need an atoms document "
                              "(--atoms or 'atoms_config')")
        config, field = _load_atoms(atoms_doc)

    values = _grid_values(grid)

    def one(value):
        params = dict(fixed)
        params[variable] = float(value)
        try:
            row = _eval_point(quantity, params, tols, config, field,
                              include_free)
            row.pop("breakdown", None)  # per-channel detail is eval-only
            return params, row, ""
        except ThresholdError as err:
            return params, None, f"threshold: {err}"

    if args.threads > 1:
        # the Bessel kernels release the GIL; map keeps the input order
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(one, values))
    else:
        results = [one(value) for value in values]

    columns = None
    for _, row, _ in results:
        if row is not None:
            columns = list(row.keys())
            break
    if columns is None:
        raise ThresholdError("every sweep point fell inside a threshold "
                             "guard band")
    header = [variable] + columns + ["diagnostics"]
    grid_desc = (f"variable={variable} start={grid['start']} "
                 f"stop={grid['stop']} points={grid['points']} "
                 f"spacing={grid.get('spacing', 'linear')}")
    meta = _metadata_lines(quantity, grid_desc, fixed, tols)

    out_path = args.out or output.get("path")
    fmt = args.format or output.get("format", "csv")
    lines = []
    if fmt == "csv":
        lines.extend(meta)
        lines.append(",".join(header))
        for params, row, diag in results:
            cells = [_format_cell(params[variable])]
            if row is None:
                cells.extend([""] * len(columns))
            else:
                cells.extend(_format_cell(row.get(c, "")) for c in columns)
            cells.append(diag)
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "metadata": {"tool": f"cavdip {__version__}",
                         "quantity": quantity, "grid": grid, "fixed": fixed,
                         "tolerances": {"rel_tol": tols["rel_tol"],
                                        "abs_tol": tols["abs_tol"],
                                        "m_max": tols["m_max"]},
                         "sign_convention": SIGN_NOTE},
            "rows": [dict(params, **(row or {}), diagnostics=diag)
                     for params, row, diag in results],
        }
        text = json.dumps(payload, indent=2, default=float) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        skipped = sum(1 for _, row, _ in results if row is None)
        print(f"wrote {len(results)} rows ({skipped} threshold-skipped) "
              f"to {out_path}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    results, ok = run_checks(args.level)
    for res in results:
        print(res.line())
    if args.json:
        payload = {"level": args.level, "passed": ok,
                   "checks": [{"name": r.name, "passed": r.passed,
                               "detail": r.detail, "elapsed_s": r.elapsed}
                              for r in results]}
        text = json.dumps(payload, indent=2)  # before the file is opened
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(f"verify {args.level}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_presets(_args) -> int:
    for name in sorted(PRESETS):
        p = PRESETS[name]
        grid = p["grid"]
        print(f"{name}: {p['quantity']} vs {grid['variable']} "
              f"[{grid['start']}, {grid['stop']}] ({grid['points']} pts, "
              f"{grid['spacing']}) fixed={p['fixed']} -- {p['description']}")
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once: parse_args leaves it unchanged, and
    one parser per call left argparse's reference cycles to the garbage
    collector, which raised the peak memory of repeated in-process calls."""
    ap = argparse.ArgumentParser(
        prog="cavdip",
        description="Cavity-confined dipole-dipole interactions: Green "
                    "tensor, van der Waals and electrostatic potentials.")
    ap.add_argument("--version", action="version",
                    version=f"cavdip {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--rel-tol", type=float, default=1e-8,
                        help="relative quadrature tolerance")
    common.add_argument("--m-max", type=int, default=500,
                        help="reflection-series order cap")
    common.add_argument("--guard-band", type=float, default=None,
                        help="threshold guard band (1/length)")

    pe = sub.add_parser("eval", parents=[common],
                        help="single-point evaluation")
    pe.add_argument("--quantity", required=True, choices=QUANTITIES)
    pe.add_argument("--config", help="atoms JSON document (w_* quantities)")
    pe.add_argument("--kr", dest="kr", type=float, help="Kr product")
    pe.add_argument("--kd", dest="kd", type=float, help="Kd product")
    pe.add_argument("--r-over-d", dest="r_over_d", type=float)
    pe.add_argument("--include-free", action="store_true",
                    help="add free-space reference values")
    pe.add_argument("--format", choices=("text", "json"), default="text")

    ps = sub.add_parser("sweep", parents=[common],
                        help="grid sweep to CSV/JSON")
    ps.add_argument("--config", help="sweep configuration JSON")
    ps.add_argument("--preset", help="named preset (see 'presets')")
    ps.add_argument("--atoms", help="atoms JSON for w_* sweeps")
    ps.add_argument("--out", help="output path (default stdout)")
    ps.add_argument("--format", choices=("csv", "json"))
    ps.add_argument("--include-free", action="store_true")
    ps.add_argument("--threads", type=int, default=1)

    pv = sub.add_parser("verify", help="run the cross-validation suite")
    pv.add_argument("--level", choices=("quick", "full"), default="quick")
    pv.add_argument("--json", help="write machine-readable verdict here")

    pp = sub.add_parser("presets", help="list sweep presets")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up per call: the parser is cached, a cmd_* may be rebound
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except CavdipError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
