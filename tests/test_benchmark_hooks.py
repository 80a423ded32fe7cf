"""The benchmark's tracer patches pidcert's functions by module attribute
(``perfbench/tracing.py``).  These tests keep those names resolvable: a
rename in ``src/`` that the tracer still patches fails here, not only in a
traced benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

from pidcert import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_unpatch_restores_every_attribute(tracing):
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patched)
    try:
        wrapped = {(owner.__name__, attr) for owner, attr, _ in patched}
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, (owner.__name__, attr)
    finally:
        tracer.unpatch()
    assert {
        ("pidcert.simulator", "envelope_audit"),
        ("pidcert.simulator", "lyapunov_monitor"),
        ("pidcert.simulator", "fit_decay"),
        ("pidcert.cli", "run"),
    } <= wrapped
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner.__name__, attr)


def test_a_traced_sweep_records_the_checks_of_its_verdict(tracing, tmp_path):
    """``judge`` reaches the traced checks, and ``cli.run`` is the mode's span."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "kind": "PID",
        "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
        "plants": [{"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}}],
        "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
        "setpoints": [0.5],
        "sim": {"t_final": 2.0},
    }))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tracer.active = True
        code = cli.run("sweep", str(cfg), out_dir=str(tmp_path / "out"))
        tracer.active = False
    finally:
        tracer.unpatch()
    assert code == 0
    assert {
        "cli.sweep",
        "simulator.envelope_audit",
        "simulator.lyapunov_monitor",
        "simulator.fit_decay",
    } <= set(tracer.names)
