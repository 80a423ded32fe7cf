"""Every mode runs on numpy alone: after a run no module of scipy is loaded.

Both integrators, the certificate path, the class audit and the planar
verdict are numpy code; a stray import would load scipy (and its memory) for
every run.  Checked in a fresh interpreter so other tests' imports do not
leak in.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pidcert

SRC = Path(pidcert.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

PROBE = """
import sys
import pidcert
from pidcert import cli

assert cli.run(sys.argv[1], sys.argv[2], out_dir=sys.argv[3]) == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""

KI_ZERO = {"gains": {"kp": 2.0, "ki": 0.0}, "y_star": 1.0, "necessity": {"case": "ki_zero"}}


@pytest.mark.parametrize(
    "mode,config,output,edit",
    [
        ("gains", "gains_pid.json", "gains.json", {}),
        ("certify", "certify_pid.json", "certificate.json", {}),
        ("verify-class", "verify_class.json", "validation.json", {}),
        # solves the scalar equilibrium, then audits the plant on the grid
        ("planar", "planar_sufficiency.json", "planar.json", {}),
        ("planar", "planar_necessity.json", "planar.json", KI_ZERO),
        ("planar", "planar_necessity.json", "planar.json", {}),
        # certifies, integrates, audits and writes the CSV
        ("simulate", "simulate_sinusoidal.json", "trajectory.csv", {}),
        ("simulate", "simulate_sinusoidal.json", "trajectory.csv", {"integrator": "rk4_fixed"}),
        ("sweep", "sweep_small.json", "sweep.csv", {}),
    ],
    ids=[
        "gains", "certify", "verify-class", "planar", "planar-ki_zero",
        "planar-unstable_linear", "simulate-rk45", "simulate-rk4", "sweep",
    ],
)
def test_mode_loads_no_scipy(tmp_path, mode, config, output, edit):
    path = CONFIGS / config
    if edit:
        path = tmp_path / config
        path.write_text(json.dumps(json.loads((CONFIGS / config).read_text()) | edit))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, mode, str(path), str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / output).exists()


def test_the_package_imports_no_scipy():
    """No module of the package names scipy, so no code path can load it."""
    for path in Path(pidcert.__file__).parent.glob("*.py"):
        lines = path.read_text().splitlines()
        assert not [ln for ln in lines if "import scipy" in ln or "from scipy" in ln], path.name
