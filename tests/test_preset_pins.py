"""The published sweep presets against their stored outputs.

``tests/data/<preset>.csv`` holds the output of ``cavdip sweep --preset
<preset>`` as first generated.  Every metadata line but the time stamp
must match exactly, and every result column to 1e-6 of its largest
magnitude over the sweep, the tolerance of the benchmark's gate.  A
change that moves a stored value on purpose regenerates the file and
says which values moved, by how much and why.
"""

import math
from pathlib import Path

import pytest

from cavdip.cli import main

DATA = Path(__file__).parent / "data"
RTOL = 1e-6
#: term counts of the static sums: diagnostics, not results
IGNORED = {"n00", "npp", "npm"}


def _split(text):
    meta = [ln for ln in text.splitlines()
            if ln.startswith("#") and not ln.startswith("# generated:")]
    rows = [ln.split(",") for ln in text.splitlines()
            if ln and not ln.startswith("#")]
    return meta, rows[0], rows[1:]


@pytest.mark.parametrize("preset", ["fig6-d2", "fig6-d20", "fig7"])
def test_preset_matches_stored_output(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.csv"
    assert main(["sweep", "--preset", preset, "--out", str(out)]) == 0
    meta, header, rows = _split(out.read_text())
    want_meta, want_header, want_rows = _split(
        (DATA / f"{preset}.csv").read_text())
    assert meta == want_meta
    assert header == want_header
    assert len(rows) == len(want_rows)
    for c, name in enumerate(header):
        if name in IGNORED:
            continue
        if name == "diagnostics":
            assert [r[c] for r in rows] == [r[c] for r in want_rows]
            continue
        want = [float(r[c]) for r in want_rows]
        tol = RTOL * max(abs(v) for v in want)
        worst = max(abs(float(r[c]) - v) for r, v in zip(rows, want))
        assert math.isfinite(worst) and worst <= tol, (name, worst, tol)
