"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The tracer wraps pidcert's public functions from outside the package, at the
module attribute each caller looks up (``simulator`` and ``planar_pi`` bind
some functions by name at import, and ``cli`` reaches plants through
``plant_models.build_family``). A span is recorded per call while an
operation is active: name, start, end, parent span and operation id, kept in
flat arrays and written out when the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from array import array
from collections import defaultdict

import numpy as np

from pidcert import certificates, cli, equilibrium, gain_sets, matrix_kernel, planar_pi, plant_models, simulator

KINDS = ("PID", "PD", "PI")
DIMS = (1, 3, 8)
CLI_MODES = ("simulate", "sweep", "verify-class", "planar")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None):
        """Traced version of ``fn``; ``name`` is a string or a function of
        (args, kwargs), ``after(result, args, kwargs)`` updates counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, name, after=None, wrapper=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original) if wrapper else self.wrap(original, name, after))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of pidcert."""
    t = tracer
    count = t.counters

    for owner in (gain_sets, certificates):
        t.patch(owner, "membership", "gain_sets.membership")
    t.patch(certificates, "certify_margin",
            lambda a, k: f"certificates.certify_margin.{_arg(a, k, 0, 'kind')}.n{_arg(a, k, 3, 'n')}")
    t.patch(certificates, "q_report", lambda a, k: f"certificates.q_report.n{_arg(a, k, 4, 'n')}")
    t.patch(certificates, "build_P", "certificates.build_P")
    t.patch(matrix_kernel, "eig_extrema", "matrix_kernel.eig_extrema")
    t.patch(matrix_kernel, "operator_norm", "matrix_kernel.operator_norm")

    def traced_builder(build):
        @functools.wraps(build)
        def build_traced(*args, **kwargs):
            plant = build(*args, **kwargs)
            plant.f = t.wrap(plant.f, "plant_models.f")
            return plant

        return build_traced

    for owner in (plant_models, planar_pi):
        t.patch(owner, "build_family", None, wrapper=traced_builder)

    def count_samples(report, args, kwargs):
        count["validate_class_membership.samples"] += report.samples

    t.patch(plant_models, "validate_class_membership", "plant_models.validate_class_membership", count_samples)
    for owner in (equilibrium, simulator, planar_pi):
        t.patch(owner, "solve_equilibrium", "equilibrium.solve_equilibrium")

    def simulate_name(args, kwargs):
        cfg = _arg(args, kwargs, 0, "cfg")
        return "simulator.simulate." + ("rk4" if cfg.integrator == simulator.RK4_FIXED else "rk45")

    def count_trajectory(traj, args, kwargs):
        count["simulate.samples"] += traj.times.size

    for owner in (simulator, planar_pi):
        t.patch(owner, "simulate", simulate_name, count_trajectory)
    for fn in ("envelope_audit", "lyapunov_monitor", "fit_decay"):
        t.patch(simulator, fn, f"simulator.{fn}")

    def count_bytes(result, args, kwargs):
        count["to_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    t.patch(simulator.Trajectory, "to_csv", "simulator.to_csv", count_bytes)
    t.patch(planar_pi, "jacobian_conditions", "planar_pi.jacobian_conditions")
    t.patch(planar_pi, "necessity_counterexample", "planar_pi.necessity_counterexample")
    t.patch(cli, "run", lambda a, k: f"cli.{_arg(a, k, 0, 'mode')}")


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("gain_sets.membership.calls", "calls/op"), ("gain_sets.membership.total_ms", "ms/op")]
    out += [(f"certificates.certify_margin.{k}.n{n}.mean_ms", "ms") for k in KINDS for n in DIMS]
    out += [(f"certificates.certify_margin.{k}.gap", "frac") for k in KINDS]
    out += [(f"certificates.q_report.n{n}.mean_ms", "ms") for n in DIMS]
    out += [("certificates.build_P.mean_us", "us")]
    for fn in ("eig_extrema", "operator_norm"):
        out += [(f"matrix_kernel.{fn}.calls", "calls/op"), (f"matrix_kernel.{fn}.total_ms", "ms/op")]
    out += [
        ("plant_models.f.calls", "calls/op"),
        ("plant_models.f.mean_us", "us"),
        ("simulator.simulate.f_calls_per_sample", "calls/sample"),
        ("plant_models.validate_class_membership.per_sample_us", "us"),
        ("equilibrium.solve_equilibrium.calls", "calls/op"),
        ("equilibrium.solve_equilibrium.mean_us", "us"),
        ("simulator.simulate.rk45.mean_ms", "ms"),
        ("simulator.simulate.rk4.mean_ms", "ms"),
    ]
    out += [(f"simulator.{fn}.mean_us", "us") for fn in ("envelope_audit", "lyapunov_monitor", "fit_decay")]
    out += [("simulator.to_csv.mean_ms", "ms"), ("simulator.to_csv.bytes", "bytes")]
    out += [(f"planar_pi.{fn}.mean_ms", "ms") for fn in ("jacobian_conditions", "necessity_counterexample")]
    out += [(f"cli.{mode}.self_ms", "ms") for mode in CLI_MODES]
    out += [("trace.overhead_frac", "frac")]
    return out


def per_layer(tracer: Tracer, ops: int, certs: list, overhead: float) -> dict[str, tuple[float, int]]:
    """Per-layer metric -> (value, samples behind it).

    ``ops`` is the number of traced operations; ``certs`` holds
    (kind, n, alpha, alpha_ref) of every certificate they issued. A layer
    the workload never reaches reads 0 with 0 samples.
    """
    nid = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
    self_time = dur.copy()
    nested = parent >= 0
    np.subtract.at(self_time, parent[nested], dur[nested])

    ids = {name: i for i, name in enumerate(tracer.names)}
    masks: dict[str, np.ndarray] = {}

    def mask(name):
        if name not in masks:
            masks[name] = nid == ids.get(name, -1)
        return masks[name]

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def total(name, scale, arr=dur):
        return float(arr[mask(name)].sum()) * scale

    def mean(name, scale, arr=dur):
        c = calls(name)
        return (total(name, scale, arr) / c if c else 0.0), c

    per_op = max(ops, 1)
    out: dict[str, tuple[float, int]] = {}
    m = "gain_sets.membership"
    out[f"{m}.calls"] = (calls(m) / per_op, calls(m))
    out[f"{m}.total_ms"] = (total(m, 1e3) / per_op, calls(m))
    for k in KINDS:
        for n in DIMS:
            out[f"certificates.certify_margin.{k}.n{n}.mean_ms"] = mean(f"certificates.certify_margin.{k}.n{n}", 1e3)
        gaps = [1.0 - alpha / ref for kind, _, alpha, ref in certs if kind == k]
        out[f"certificates.certify_margin.{k}.gap"] = (statistics.median(gaps) if gaps else 0.0, len(gaps))
    for n in DIMS:
        out[f"certificates.q_report.n{n}.mean_ms"] = mean(f"certificates.q_report.n{n}", 1e3)
    out["certificates.build_P.mean_us"] = mean("certificates.build_P", 1e6)
    for fn in ("matrix_kernel.eig_extrema", "matrix_kernel.operator_norm"):
        out[f"{fn}.calls"] = (calls(fn) / per_op, calls(fn))
        out[f"{fn}.total_ms"] = (total(fn, 1e3) / per_op, calls(fn))

    f = "plant_models.f"
    out[f"{f}.calls"] = (calls(f) / per_op, calls(f))
    out[f"{f}.mean_us"] = mean(f, 1e6)
    # f calls made inside a simulate span (spans are stored parents first)
    sim_ids = {ids[s] for s in ("simulator.simulate.rk45", "simulator.simulate.rk4") if s in ids}
    under_sim = np.zeros(nid.size, dtype=bool)
    for i in range(nid.size):
        p = parent[i]
        if p >= 0:
            under_sim[i] = under_sim[p] or nid[p] in sim_ids
    f_in_sim = int(np.count_nonzero(under_sim & mask(f)))
    samples = tracer.counters["simulate.samples"]
    out["simulator.simulate.f_calls_per_sample"] = (f_in_sim / samples if samples else 0.0, int(samples))

    v = "plant_models.validate_class_membership"
    vs = tracer.counters["validate_class_membership.samples"]
    out[f"{v}.per_sample_us"] = (total(v, 1e6) / vs if vs else 0.0, int(vs))
    e = "equilibrium.solve_equilibrium"
    out[f"{e}.calls"] = (calls(e) / per_op, calls(e))
    out[f"{e}.mean_us"] = mean(e, 1e6)
    out["simulator.simulate.rk45.mean_ms"] = mean("simulator.simulate.rk45", 1e3)
    out["simulator.simulate.rk4.mean_ms"] = mean("simulator.simulate.rk4", 1e3)
    for fn in ("envelope_audit", "lyapunov_monitor", "fit_decay"):
        out[f"simulator.{fn}.mean_us"] = mean(f"simulator.{fn}", 1e6)
    out["simulator.to_csv.mean_ms"] = mean("simulator.to_csv", 1e3)
    c = calls("simulator.to_csv")
    out["simulator.to_csv.bytes"] = (tracer.counters["to_csv.bytes"] / c if c else 0.0, c)
    for fn in ("jacobian_conditions", "necessity_counterexample"):
        out[f"planar_pi.{fn}.mean_ms"] = mean(f"planar_pi.{fn}", 1e3)
    for mode in CLI_MODES:
        out[f"cli.{mode}.self_ms"] = mean(f"cli.{mode}", 1e3, self_time)
    out["trace.overhead_frac"] = (overhead, ops)
    return out
