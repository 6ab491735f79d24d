"""Command-line surface: eval, sweep, verify, presets, exit codes."""

import json
import math

import pytest

from cavdip.cli import main
from cavdip.verification import (check_fig4_shape, check_imagfreq_oracle,
                                 check_representation_equivalence,
                                 check_static_free_limit)


def test_eval_green_modesum_prints_components(capsys):
    code = main(["eval", "--quantity", "green_modesum",
                 "--kr", "1.0", "--kd", "5.0"])
    out = capsys.readouterr().out
    assert code == 0
    for col in ("re_par", "im_par", "re_perp", "im_perp", "re_00", "im_00"):
        assert f"green_modesum.{col} = " in out


def test_eval_json_format(capsys):
    code = main(["eval", "--quantity", "v_static", "--r-over-d", "0.5",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"]["v00"] == pytest.approx(0.13395440945651552)


def test_eval_threshold_exit_code(capsys):
    code = main(["eval", "--quantity", "green_modesum",
                 "--kr", "1.0", "--kd", str(math.pi)])
    assert code == 3


def test_eval_missing_parameter_exit_code(atoms_json, capsys):
    code = main(["eval", "--quantity", "v_off"])
    assert code == 2
    # a flag the quantity does not read is refused, not echoed as used
    for argv in (["--quantity", "v_static", "--r-over-d", "0.1",
                  "--kr", "5", "--kd", "3"],
                 ["--quantity", "v_off", "--kr", "0.2", "--kd", "2",
                  "--r-over-d", "0.1"],
                 ["--quantity", "w_off", "--config", str(atoms_json),
                  "--kr", "1", "--r-over-d", "0.1"]):
        assert main(["eval", *argv]) == 2, argv
        assert "does not read" in capsys.readouterr().err


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code = main(["eval", "--quantity", "w_off", "--config", str(bad)])
    assert code == 2


def test_eval_w_quantities_from_document(atoms_json, capsys):
    code = main(["eval", "--quantity", "w_off", "--config", str(atoms_json),
                 "--rel-tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    w_a = float(out.split("w_off.w_a_J = ")[1].splitlines()[0])
    assert w_a < 0  # ground-state pair attracts
    assert "channel (i=1, j=1, off)" in out  # per-channel breakdown shown

    code = main(["eval", "--quantity", "w_static",
                 "--config", str(atoms_json)])
    out = capsys.readouterr().out
    assert code == 0
    assert "w_static.phase_shift_rate_rad_s" in out


def test_eval_w_off_far_outside_a_thin_cavity(atoms_json, tmp_path, capsys):
    """r = 100 um, d = 100 nm (r/d = 1000): the cancellation of the
    zeta-integral form used to end in a quadrature error (exit 4)."""
    doc = json.loads(atoms_json.read_text())
    doc["config"].update(r=1e5, d=100.0)
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    code = main(["eval", "--quantity", "w_off", "--config", str(path),
                 "--format", "json"])
    assert code == 0
    w_a = json.loads(capsys.readouterr().out)["values"]["w_a_J"]
    assert math.isfinite(w_a) and w_a < 0


@pytest.mark.parametrize("field", [{"cartesian": [1.0, 2.0]},
                                   {"cartesian": ["a", 0.0, 0.0]},
                                   {"spherical": [1.0]}, [1.0]])
def test_malformed_field_exit_code(field, atoms_json, capsys):
    """A malformed field section exits 2 with a message, not with a
    traceback, for every quantity that loads the document."""
    doc = json.loads(atoms_json.read_text())
    doc["field"] = field
    atoms_json.write_text(json.dumps(doc))
    for quantity in ("w_static", "w_off"):
        assert main(["eval", "--quantity", quantity, "--config",
                     str(atoms_json)]) == 2
    assert "error: " in capsys.readouterr().err


def test_eval_degenerate_exit_code(tmp_path, capsys):
    doc = {
        "atoms": [{"label": "deg", "levels": [
            {"index": 0, "omega": 0.0, "unit": "rad/s"},
            {"index": 1, "omega": 0.0, "unit": "rad/s"}],
            "dipoles": [{"from": 0, "to": 1, "d0": [1e-29, 0.0],
                         "dplus": [0.0, 0.0], "dminus": [0.0, 0.0]}]}],
        "config": {"state_a": 0, "state_b": 0, "r": 100.0, "d": 500.0,
                   "length_unit": "nm"},
    }
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    assert main(["eval", "--quantity", "w_off", "--config", str(path)]) == 5


def _sweep_doc(tmp_path, **overrides):
    doc = {
        "quantity": "green_modesum",
        "grid": {"variable": "Kd", "start": math.pi - 0.1,
                 "stop": math.pi + 0.1, "points": 3, "spacing": "linear"},
        "fixed": {"Kr": 1.0},
        "tolerances": {"rel_tol": 1e-8},
    }
    doc.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def test_sweep_flags_threshold_rows(tmp_path, capsys):
    path = _sweep_doc(tmp_path)
    out_csv = tmp_path / "out.csv"
    code = main(["sweep", "--config", str(path), "--out", str(out_csv)])
    assert code == 0
    lines = [l for l in out_csv.read_text().splitlines()
             if l and not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    assert header.startswith("Kd,")
    assert header.endswith(",diagnostics")
    assert len(rows) == 3
    # the middle grid point sits exactly on the first mode threshold
    assert "threshold" in rows[1]
    assert "threshold" not in rows[0] and "threshold" not in rows[2]


def test_sweep_deterministic_and_parsable(tmp_path):
    path = _sweep_doc(tmp_path, grid={"variable": "Kr", "start": 0.5,
                                      "stop": 2.0, "points": 4,
                                      "spacing": "log"},
                      fixed={"Kd": 5.0})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["sweep", "--config", str(path), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(b)]) == 0
    data = lambda p: [l for l in p.read_text().splitlines()
                      if not l.startswith("#")]
    assert data(a) == data(b)
    # values parse back losslessly (shortest round-trip floats)
    row = data(a)[1].split(",")
    assert float(row[1]) == float(row[1])


def test_sweep_threads_match_serial(tmp_path):
    path = _sweep_doc(tmp_path, grid={"variable": "Kr", "start": 0.5,
                                      "stop": 2.0, "points": 5,
                                      "spacing": "linear"},
                      fixed={"Kd": 5.0})
    a, b = tmp_path / "serial.csv", tmp_path / "par.csv"
    assert main(["sweep", "--config", str(path), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(b),
                 "--threads", "4"]) == 0
    strip = lambda p: [l for l in p.read_text().splitlines()
                       if not l.startswith("#")]
    assert strip(a) == strip(b)


def test_sweep_json_format(tmp_path, capsys):
    path = _sweep_doc(tmp_path, grid={"variable": "Kr", "start": 0.5,
                                      "stop": 1.0, "points": 2,
                                      "spacing": "linear"},
                      fixed={"Kd": 5.0})
    code = main(["sweep", "--config", str(path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metadata"]["quantity"] == "green_modesum"
    assert len(payload["rows"]) == 2


def test_sweep_validates_grid(tmp_path, capsys):
    path = _sweep_doc(tmp_path, grid={"variable": "Kd", "start": 2.0,
                                      "stop": 1.0, "points": 3,
                                      "spacing": "linear"},
                      fixed={})
    assert main(["sweep", "--config", str(path)]) == 2
    path = _sweep_doc(tmp_path, fixed={"Kd": 1.0})
    assert main(["sweep", "--config", str(path)]) == 2  # swept also fixed
    # malformed documents exit 2 with a message, not with a traceback
    full = {"variable": "Kd", "start": 4.0, "stop": 5.0, "points": 2}
    malformed = [{"grid": [1.0]}, {"grid": dict(full, points="x")},
                 {"tolerances": {"rel_tol": 0.0}}]
    malformed += [{"grid": {k: v for k, v in full.items() if k != key}}
                  for key in full]
    for overrides in malformed:
        path = _sweep_doc(tmp_path, **overrides)
        assert main(["sweep", "--config", str(path)]) == 2, overrides
    kr_grid = dict(full, variable="Kr")
    malformed = [{"fixed": [1]}, {"grid": kr_grid, "fixed": {"Kd": "a"}},
                 {"tolerances": "x"}, {"tolerances": {"guard_band": "x"}},
                 {"output": "x.csv"}]
    for overrides in malformed:
        path = _sweep_doc(tmp_path, **overrides)
        assert main(["sweep", "--config", str(path)]) == 2, overrides
    # keys the quantity does not read, and a non-boolean include_free
    static_grid = {"variable": "r_over_d", "start": 0.1, "stop": 0.2,
                   "points": 2}
    malformed = [{"fixed": {"Kr": 1.0, "Kx": 1.0}},
                 {"quantity": "v_static", "grid": static_grid,
                  "fixed": {"Kx": 1, "Kr": 3}},
                 {"quantity": "v_static", "grid": static_grid,
                  "fixed": {}, "include_free": "no"}]
    for overrides in malformed:
        path = _sweep_doc(tmp_path, **overrides)
        assert main(["sweep", "--config", str(path)]) == 2, overrides
    for doc in ([1, 2], {"quantity": "green_modesum", "fixed": {"Kr": 1}}):
        path.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(path)]) == 2, doc
    path = _sweep_doc(tmp_path, grid=full, tolerances={})
    assert main(["sweep", "--config", str(path)]) == 0
    assert main(["sweep", "--config", str(path), "--rel-tol", "-1"]) == 2
    assert main(["eval", "--quantity", "v_off", "--kr", "0.2", "--kd", "2",
                 "--rel-tol", "-1"]) == 2


def test_sweep_w_off_scales_geometry(tmp_path, atoms_json):
    """w_* sweeps scale the document geometry through the reference
    wavenumber so the grid is the dimensionless Kd."""
    doc = {
        "quantity": "w_off",
        "grid": {"variable": "Kd", "start": 4.0, "stop": 12.0,
                 "points": 3, "spacing": "linear"},
        "fixed": {"Kr": 1.2},
        "tolerances": {"rel_tol": 1e-6},
        "atoms_config": str(atoms_json),
    }
    path = tmp_path / "wsweep.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "w.csv"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")]
    header, data = rows[0], rows[1:]
    assert header[1] == "w_a_J"
    w = [float(r[1]) for r in data]
    assert all(v < 0 for v in w)       # ground pair attracts everywhere
    assert len(set(w)) == 3            # geometry really varies


def test_main_dispatches_by_name_at_call_time(tmp_path, monkeypatch, capsys):
    """A cmd_* function rebound after the parser was built (as a tracer
    wraps it) is the one that runs."""
    import cavdip.cli as cli
    assert main(["presets"]) == 0                     # parser now cached
    seen = []
    monkeypatch.setattr(cli, "cmd_sweep", lambda args: seen.append(args) or 0)
    assert main(["sweep", "--preset", "fig7"]) == 0
    assert len(seen) == 1 and seen[0].preset == "fig7"


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("fig4", "fig6-d2", "fig6-d20", "fig7"):
        assert name in out


def test_preset_fig7_runs_small(tmp_path, capsys, monkeypatch):
    import cavdip.cli as cli
    small = dict(cli.PRESETS["fig7"])
    small["grid"] = dict(small["grid"], points=5)
    monkeypatch.setitem(cli.PRESETS, "fig7", small)
    out_csv = tmp_path / "fig7.csv"
    assert main(["sweep", "--preset", "fig7", "--out", str(out_csv)]) == 0
    text = out_csv.read_text()
    assert "ratio_pm" in text
    assert "# cavdip" in text


def test_verify_quick_cli(tmp_path, capsys):
    verdict = tmp_path / "verdict.json"
    code = main(["verify", "--level", "quick", "--json", str(verdict)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify quick: PASS" in out
    payload = json.loads(verdict.read_text())
    assert payload["passed"] is True
    assert any(c["name"].startswith("representation-equivalence")
               for c in payload["checks"])


def test_verify_full_json_cli(tmp_path, capsys):
    """Every full-level check passes and the verdict file is complete
    JSON (a numpy bool in a check used to abort the write midway)."""
    verdict = tmp_path / "full.json"
    code = main(["verify", "--level", "full", "--json", str(verdict)])
    assert code == 0
    with open(verdict, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 11
    assert all(c["passed"] is True for c in payload["checks"])


@pytest.mark.parametrize("flag", ["--rel-tol", "--m-max", "--guard-band"])
def test_verify_rejects_evaluation_flags(flag, capsys):
    """verify reads none of the evaluation tolerances, so it refuses them."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verification_catches_sign_mutation():
    """Flipping the reflection-series sign convention must break the
    representation-equivalence check (mutation smoke test)."""
    res = check_representation_equivalence(reduced=True,
                                           sign_convention="printed")
    assert not res.passed


def test_verification_catches_image_sign_mutation(monkeypatch):
    """Flipping the in-plane image sign must break the image-route half
    of the imaginary-frequency oracle check (mutation smoke test)."""
    import cavdip.green as green
    assert check_imagfreq_oracle().passed
    monkeypatch.setattr(green, "_INPLANE_SIGN", 1.0)
    assert not check_imagfreq_oracle().passed


def test_verification_catches_static_route_mutation(monkeypatch):
    """A V+- x 1.001 error in the k^2 = 0 mode sums must break the static
    check, which compares them with free space plus the images."""
    import cavdip.green as green
    assert check_static_free_limit().passed
    mode_sums = green._mode_sums

    def mutant(r, d, k2, *args, **kwargs):
        out = mode_sums(r, d, k2, *args, **kwargs)
        out[0, k2 == 0] *= 1.001
        return out

    monkeypatch.setattr(green, "_mode_sums", mutant)
    assert not check_static_free_limit().passed


def test_verification_catches_v_off_mutation(monkeypatch):
    """A V_off x 1.001 error must break the fig4 check, which compares
    three of its points with the adaptive rule."""
    import cavdip.verification as verification
    from cavdip.vdw import PotentialTensor
    assert check_fig4_shape().passed
    v_off = verification.v_off_dimensionless

    def mutant(*args, **kwargs):
        v = v_off(*args, **kwargs)
        return PotentialTensor(*(1.001 * v.as_array()), family=v.family)

    monkeypatch.setattr(verification, "v_off_dimensionless", mutant)
    assert not check_fig4_shape().passed
