"""Tests of the benchmark itself: seeded inputs, the output oracle, the traced
per-layer metrics and the refusal to run without sources.

Run from the repository root:  python3 -m pytest perfbench
"""

import csv
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pidcert import certificates, gain_sets, plant_models  # noqa: E402
from pidcert.gain_sets import PD, PI, PID  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    def draw(seed, sub):
        w = workloads.WORKLOADS[name](seed, tmp_path / sub)
        ops = [w.warmup()] + w.block() + w.block()
        return json.dumps([op.inputs for op in ops], sort_keys=True)

    assert draw(5, "a") == draw(5, "b")
    assert draw(5, "a") != draw(6, "c")


def test_generated_gains_and_plants_stay_in_class(tmp_path):
    rng = np.random.default_rng(2)
    w = workloads.Sweep(2, tmp_path)
    for op in w.block():
        bounds = op.inputs["bounds"]
        L1, L2 = bounds.get("L1", bounds.get("L")), bounds.get("L2", 0.0)
        for plant in op.inputs["plants"]:
            declared = plant_models.build_family(plant["family"], plant["params"]).declared_bounds
            assert declared.L1 <= L1 and declared.L2 <= L2 and declared.b_lower >= bounds["b_lower"]
    for kind in (PID, PD, PI):
        ub = workloads.draw_bounds(kind, rng)
        assert gain_sets.membership(workloads.draw_gains(kind, ub, rng), ub).member
        assert not gain_sets.membership(workloads.draw_gains(kind, ub, rng, member=False), ub).member


@pytest.mark.parametrize("kind", [PID, PD, PI])
def test_oracle_fails_alpha_above_the_corner_minimum(kind):
    op = workloads.certify_op(kind, 1, np.random.default_rng(3))
    member, alpha, lam_q0 = op.call()
    good = op.check((member, alpha, lam_q0))
    assert good.ok and good.items == 1
    ref = good.certs[0][3]
    assert not op.check((member, 1.01 * ref, lam_q0)).ok
    assert not op.check((member, alpha, 0.5 * alpha)).ok


def test_oracle_reads_sweep_csv_by_column_name(tmp_path):
    op = workloads.sweep_op(PI, 1, 1, 1, np.random.default_rng(4), workloads.ConfigDir(tmp_path), "s")
    assert op.check(op.call()).ok
    path = tmp_path / "s" / "out" / "sweep.csv"
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = list(reader.fieldnames)
        rows = list(reader)
    for r in rows:
        if r["member"] == "True":
            r["alpha"] = repr(1.01 * float(r["alpha"]) + 1.0)
    fields.reverse()  # column order must not matter
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    assert not op.check(0).ok


def test_traced_run_reports_every_layer_and_the_seed_gaps():
    rng = np.random.default_rng(7)
    ops = [workloads.certify_op(kind, 1, rng) for kind in (PID, PD, PI)]
    original = certificates.certify_margin
    tracer = tracing.Tracer()
    tracing.install(tracer)
    certs = []
    try:
        for op in ops:
            tracer.active = True
            result = op.call()
            tracer.active = False
            certs += op.check(result).certs
    finally:
        tracer.unpatch()
    assert certificates.certify_margin is original
    layers = tracing.per_layer(tracer, len(ops), certs, 0.0)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == [n for n, _ in tracing.per_layer_names()]
    assert set(layers) == {m["name"] for m in bench["per_layer"]}
    assert layers["certificates.certify_margin.PID.gap"][0] == pytest.approx(0.2, abs=1e-6)
    assert layers["certificates.certify_margin.PI.gap"][0] == pytest.approx(0.0, abs=1e-6)
    assert 0.0 < layers["certificates.certify_margin.PD.gap"][0] < 1.0
    assert layers["certificates.certify_margin.PID.n1.mean_ms"][1] == 1
    assert layers["gain_sets.membership.calls"][0] >= 1.0


def test_speedometer_scales_wall_time_by_the_reference_samples_around_a_call():
    def boom():
        raise ValueError("boom")

    meter = speed.Speedometer()
    result, error, wall, calibrated = meter.timed(lambda: 7)
    assert result == 7 and error is None
    assert len(meter.ref) == 2 * speed.SAMPLES_PER_SIDE
    assert calibrated == pytest.approx(wall * speed.REF_NOMINAL_S / statistics.median(meter.ref))
    _, raised, _, _ = meter.timed(boom)
    assert isinstance(raised, ValueError)
    # one preempted sample does not move the factor much
    first = 2 * speed.SAMPLES_PER_SIDE
    before = meter.factor(first)
    meter.ref[first] *= 100.0
    assert meter.factor(first) > 0.5 * before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
