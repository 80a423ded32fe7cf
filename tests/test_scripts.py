"""The experiment scripts under scripts/ run to completion and pass their
own checks, on a short horizon and with their outputs in a temp directory."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,args,done,written",
    [
        ("run_envelope_grid.py", ["--t-final", "5", "--out", "grid"], "27/27 cells passed", "grid/grid.csv"),
        ("robustness_sweep.py", ["--t-final", "5"], "all checks passed", None),
        (
            "planar_pi_study.py",
            ["--out", "planar"],
            "proven globally asymptotically stable",
            "planar/planar_study.json",
        ),
    ],
    ids=["run_envelope_grid", "robustness_sweep", "planar_pi_study"],
)
def test_script_succeeds(script, args, done, written, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script, *args])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    assert code == 0
    assert done in capsys.readouterr().out
    if written:
        assert (tmp_path / written).is_file()


def test_robustness_sweep_fails_a_rising_v(tmp_path, monkeypatch, capsys):
    """The script judges each run as ``simulate`` does: V reported rising
    fails it although every envelope holds."""
    import dataclasses

    from pidcert import simulator

    real = simulator.lyapunov_monitor
    monkeypatch.setattr(
        simulator, "lyapunov_monitor",
        lambda traj: dataclasses.replace(real(traj), nonincreasing_pass=False),
    )
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["robustness_sweep.py", "--t-final", "5"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / "robustness_sweep.py"), run_name="__main__")
    assert exc.value.code == 2
    out = capsys.readouterr().out
    assert "envelope=FAIL" not in out
    assert "V increases" in out and "SOME CHECKS FAILED" in out
