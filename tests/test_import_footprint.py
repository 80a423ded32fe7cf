"""The certificate path, the class audit, the planar verdict with its grid
audit and a fixed-step simulation run on numpy alone.

scipy is imported only inside the adaptive integrator; a stray top-level
import would load it (and its memory) for every run.  Checked in a fresh
interpreter so other tests' imports do not leak in.
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
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[:2] in (["scipy", "linalg"], ["scipy", "optimize"], ["scipy", "integrate"])
)
assert not loaded, loaded
"""


@pytest.mark.parametrize(
    "mode,config,output,edit",
    [
        ("certify", "certify_pid.json", "certificate.json", {}),
        ("verify-class", "verify_class.json", "validation.json", {}),
        # solves the scalar equilibrium, then audits the plant on the grid
        ("planar", "planar_sufficiency.json", "planar.json", {}),
        # certifies, integrates with fixed-step RK4, audits and writes the CSV
        ("simulate", "simulate_sinusoidal.json", "trajectory.csv", {"integrator": "rk4_fixed"}),
    ],
    ids=["certify", "verify-class", "planar", "simulate-rk4"],
)
def test_mode_loads_no_scipy_solvers(tmp_path, mode, config, output, edit):
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
