"""The PI region-map script under scripts/ runs to completion, with its
output in a temp directory.  The other experiments are shipped configs,
run by tests/test_cli.py."""

import json
import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_planar_pi_study_maps_the_regions(tmp_path, monkeypatch, capsys):
    """The 8 x 6 (kp, ki) grid is printed and written; the exponential-rate
    region lies inside the relaxed one, and both are proper subsets."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["planar_pi_study.py", "--out", "planar"])
    runpy.run_path(str(SCRIPTS / "planar_pi_study.py"), run_name="__main__")
    assert "RATE: exponential-rate region" in capsys.readouterr().out
    rows = json.loads((tmp_path / "planar" / "pi_regions.json").read_text())["regions"]
    assert len(rows) == 48
    rate = {(r["kp"], r["ki"]) for r in rows if r["rate_region"]}
    relaxed = {(r["kp"], r["ki"]) for r in rows if r["relaxed_region"]}
    assert rate < relaxed < {(r["kp"], r["ki"]) for r in rows}
