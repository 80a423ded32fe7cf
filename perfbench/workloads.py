"""Seeded workloads of the pidcert benchmark: inputs, operations and oracle.

Each workload yields blocks of operations drawn from one seeded generator. A
block has a fixed composition (kinds, dimensions, CLI modes) and only the
numbers inside it are drawn, so runs with different seeds do the same mix of
work. pidcert receives only the generated gains, bounds, frozen points and
config files. Every output is checked against references computed here,
never against pidcert's own report of how it computed them.

Forward compatibility: the benchmark passes no ``strategy``, ``samples``,
``safety`` or ``seed`` to ``certify_margin``, writes no ``samples``,
``safety`` or ``certify_samples`` key into a certificate-issuing config,
passes no ``workers``, reads no ``method``, ``seed``, ``samples`` or
``near_violations`` field, and reads sweep CSV columns by name.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pidcert import certificates, cli, gain_sets
from pidcert.certificates import FrozenUncertainty
from pidcert.gain_sets import PD, PI, PID, GainVector, UncertaintyBounds

# alpha may exceed the attained corner minimum by rounding only
ALPHA_REL_TOL = 1e-9

SIM_HORIZON = 30.0
SWEEP_HORIZON = 20.0


@dataclass
class Outcome:
    """Oracle verdict on one operation."""

    ok: bool
    items: int
    why: str = ""
    # (kind, n, alpha, alpha_ref) of every certificate the operation issued
    certs: list = field(default_factory=list)


@dataclass
class Op:
    """One closed-loop request: ``call`` is timed, ``check`` is not."""

    label: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], Outcome]


# ---------------------------------------------------------------------------
# Draws
# ---------------------------------------------------------------------------


def draw_bounds(kind: str, rng: np.random.Generator) -> UncertaintyBounds:
    # the region's boundary, and so the gains and the stiffness of every
    # trajectory, scale with (L1 + L2) / b_lower: kept within a narrow band
    if kind == PI:
        return UncertaintyBounds.first_order(L=rng.uniform(0.8, 1.2), b_lower=rng.uniform(0.8, 1.0))
    return UncertaintyBounds(
        L1=rng.uniform(0.8, 1.2), L2=rng.uniform(0.8, 1.2), b_lower=rng.uniform(0.8, 1.0)
    )


def _region_threshold(kind: str, kp: float, ki: float, kd: float, ub: UncertaintyBounds) -> float:
    """Smallest c with c*(kp, ki, kd) in the region (PID and PD regions are semi-cones).

    For PI this is the smallest kp/kp_unit for the given ki, with kp_unit = 1.
    """
    if kind == PI:
        L, b = ub.L, ub.b_lower
        return (L + math.sqrt(L * L + 4.0 * b * (ki + L * L / (4.0 * b)))) / (2.0 * b)
    s = (ub.L1 + ub.L2) / ub.b_lower
    return max(
        s * (kp + kd) / (kp * kp - 2.0 * ki * kd),
        (kp / ub.b_lower + s * (kp + kd)) / (kd * kd),
    )


def draw_gains(kind: str, ub: UncertaintyBounds, rng: np.random.Generator, member: bool = True) -> GainVector:
    """A gain vector strictly inside (or, with ``member=False``, outside) the region."""
    # a narrow band past the boundary: integration cost grows with the gains
    scale = rng.uniform(1.4, 1.7) if member else rng.uniform(0.3, 0.7)
    if kind == PI:
        ki = rng.uniform(0.5, 2.0)
        g = GainVector(PI, kp=scale * _region_threshold(PI, 1.0, ki, 0.0, ub), ki=ki)
    else:
        kp, kd = rng.uniform(1.8, 2.2, size=2)
        ki = rng.uniform(0.2, 0.25) * kp * kp / kd if kind == PID else 0.0
        c = scale * _region_threshold(kind, kp, ki, kd, ub)
        g = GainVector(kind, kp=c * kp, ki=c * ki, kd=c * kd)
    if gain_sets.membership(g, ub).member != member:
        raise RuntimeError(f"generator bug: {g} membership is not {member} for {ub}")
    return g


def draw_frozen(kind: str, ub: UncertaintyBounds, n: int, rng: np.random.Generator) -> dict:
    """A point strictly inside the uncertainty ball, as plain lists."""

    def ball(L):
        d = rng.standard_normal((n, n))
        return d * (L * rng.uniform(0.0, 0.99) / np.linalg.norm(d, 2))

    w = rng.standard_normal((n, n))
    skew = rng.standard_normal((n, n))
    theta = ub.b_lower * np.eye(n) + w @ w.T * (0.5 / n) + (skew - skew.T) / 2.0
    a = ball(ub.L1)
    b = None if kind == PI else ball(ub.L2).tolist()
    return {"a": a.tolist(), "theta": theta.tolist(), "b": b}


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def alpha_ref(kind: str, g: GainVector, ub: UncertaintyBounds, n: int) -> float:
    """Attained corner minimum of lambda_min(-(P A0 + A0^T P)).

    The corners A = +-L1 I, B = +-L2 I with theta = b_lower I lie in the
    uncertainty ball (two corners for PI), so no sound margin exceeds this.
    """
    P = certificates.build_P(kind, g, ub, n)
    eye = np.eye(n)
    theta = ub.b_lower * eye
    b_signs = (None,) if kind == PI else (1.0, -1.0)
    lams = []
    for sa in (1.0, -1.0):
        for sb in b_signs:
            b = None if sb is None else sb * ub.L2 * eye
            fu = FrozenUncertainty(a=sa * ub.L1 * eye, theta=theta, b=b)
            A0 = certificates.assemble_A(kind, g, fu, n)
            Q0 = -(P @ A0 + A0.T @ P)
            lams.append(np.linalg.eigvalsh((Q0 + Q0.T) / 2.0)[0])
    return float(min(lams))


def alpha_sound(alpha: float, ref: float) -> bool:
    return 0.0 < alpha <= ref * (1.0 + ALPHA_REL_TOL)


def _fail(why: str) -> Outcome:
    return Outcome(ok=False, items=0, why=why)


def _bounds_node(ub: UncertaintyBounds) -> dict:
    if ub.order == gain_sets.FIRST_ORDER:
        return {"L": ub.L, "b_lower": ub.b_lower}
    return {"L1": ub.L1, "L2": ub.L2, "b_lower": ub.b_lower}


def _gains_node(g: GainVector) -> dict:
    return {"kp": g.kp, "ki": g.ki, "kd": g.kd}


# ---------------------------------------------------------------------------
# certify: membership, certify_margin and q_report, called directly
# ---------------------------------------------------------------------------

# One block of 24.  Op latency clusters by (kind, n): n = 1 < n = 3 < n = 8
# < PID, and PID n = 1 < n = 3 < n = 8.  The mix puts each reported
# percentile inside a cluster, away from its edges, so a slow or fast op at a
# cluster's edge does not move it: the median falls a third of the way into
# the PD/PI n = 3 ops (ranks 10-15 of 24), and PID is a minority (4 of 24)
# whose n = 3 ops hold the 90th percentile (ranks 21-22).  PID ops are most
# of the time, so a block of 24 keeps about 100 ops or more in a run even
# when the host is slow.
CERTIFY_BLOCK = (
    [(PID, 1), (PID, 3), (PID, 3), (PID, 8)]
    + [(PD, 1)] * 5 + [(PD, 3)] * 3 + [(PD, 8)] * 2
    + [(PI, 1)] * 5 + [(PI, 3)] * 3 + [(PI, 8)] * 2
)


def certify_op(kind: str, n: int, rng: np.random.Generator) -> Op:
    ub = draw_bounds(kind, rng)
    g = draw_gains(kind, ub, rng)
    frozen = draw_frozen(kind, ub, n, rng)
    inputs = {"kind": kind, "n": n, "bounds": _bounds_node(ub), "gains": _gains_node(g), "frozen": frozen}
    fu = FrozenUncertainty(
        a=np.array(frozen["a"]),
        theta=np.array(frozen["theta"]),
        b=None if frozen["b"] is None else np.array(frozen["b"]),
    )
    ref = alpha_ref(kind, g, ub, n)

    def call():
        member = gain_sets.membership(g, ub).member
        cert = certificates.certify_margin(kind, g, ub, n)
        q = certificates.q_report(kind, g, ub, fu, n)
        return member, cert.alpha, q.lambda_min_Q0

    def check(result) -> Outcome:
        member, alpha, lam_q0 = result
        cert = [(kind, n, alpha, ref)]
        if not member:
            return Outcome(False, 0, "membership rejected a region-interior gain", cert)
        if not alpha_sound(alpha, ref):
            return Outcome(False, 0, f"alpha {alpha!r} not in (0, alpha_ref {ref!r}]", cert)
        if not lam_q0 >= alpha:
            return Outcome(False, 0, f"lambda_min(Q0) {lam_q0!r} < alpha {alpha!r}", cert)
        return Outcome(True, 1, certs=cert)

    return Op(f"certify.{kind}.n{n}", inputs, call, check)


# ---------------------------------------------------------------------------
# CLI workloads: generated config files, one cli.run per op
# ---------------------------------------------------------------------------


class ConfigDir:
    """Writes generated configs and receives CLI outputs, one slot per block position."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def write(self, slot_name: str, config: dict) -> tuple[Path, Path]:
        """Config path and an empty output directory for one op."""
        slot = self.root / slot_name
        slot.mkdir(parents=True, exist_ok=True)
        path = slot / "config.json"
        path.write_text(json.dumps(config, indent=1, sort_keys=True))
        out = slot / "out"
        # the oracle must never read what an earlier op left behind
        shutil.rmtree(out, ignore_errors=True)
        return path, out


def _cli_call(mode: str, config_path: Path, out_dir: Path) -> Callable[[], int]:
    def call() -> int:
        # the CLI echoes its report; the caller of a batch run discards it
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.run(mode, str(config_path), out_dir=str(out_dir))

    return call


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _vec(rng, n: int, radius: float) -> list:
    return rng.uniform(-radius, radius, size=n).tolist()


# Integration cost grows with how far a trajectory starts from its setpoint,
# so sweeps draw directions and jitter, not distances: every seed then asks
# for about the same amount of work.


def _setpoints(rng, k: int, radius: float = 1.5) -> list:
    """k setpoints spread evenly over [-radius, radius], each jittered."""
    return (np.linspace(-radius, radius, k) + rng.uniform(-0.1, 0.1, size=k)).tolist()


def _sphere(rng, n: int, radius: float = 1.0) -> list:
    """A point at distance ``radius`` from the origin in a random direction."""
    d = rng.standard_normal(n)
    return (radius * d / np.linalg.norm(d)).tolist()


# Plants are drawn inside the bounds they are certified for (declared L1, L2
# no larger and b_lower no smaller), so every cell stays in class.


def _second_order_scalar_plants(ub: UncertaintyBounds, rng) -> list:
    sign = lambda: float(rng.choice([-1.0, 1.0]))
    return [
        {"family": "sinusoidal_scalar",
         "params": {"c1": sign() * ub.L1 * _u(rng, 0.5, 1.0), "c2": ub.L2 * _u(rng, 0.5, 1.0)}},
        {"family": "nonaffine_cubic_u",
         "params": {"c1": sign() * ub.L1 * _u(rng, 0.5, 1.0), "c2": sign() * ub.L2 * _u(rng, 0.5, 1.0),
                    "b_lower": ub.b_lower * _u(rng, 1.0, 1.5)}},
    ]


def _pd_plants(ub: UncertaintyBounds, rng) -> list:
    return [
        {"family": "tanh_coupled",
         "params": {"n": 2, "l1": ub.L1 * _u(rng, 0.5, 1.0), "l2": ub.L2 * _u(rng, 0.5, 1.0),
                    "b_lower": ub.b_lower * _u(rng, 1.0, 1.5), "w_scale": _u(rng, 0.0, 0.5)}},
        {"family": "rotation_gain",
         "params": {"b_lower": ub.b_lower * _u(rng, 1.0, 1.5), "s": _u(rng, 2.0, 3.0),
                    "a1": -ub.L1 * _u(rng, 0.5, 1.0), "a2": -ub.L2 * _u(rng, 0.5, 1.0)}},
    ]


def _first_order_plants(ub: UncertaintyBounds, rng) -> list:
    return [
        {"family": "sinusoidal_scalar",
         "params": {"order": "first_order", "c1": ub.L * _u(rng, 0.5, 1.0)}},
        {"family": "nonaffine_cubic_u",
         "params": {"order": "first_order", "c1": ub.L * _u(rng, 0.5, 1.0),
                    "b_lower": ub.b_lower * _u(rng, 1.0, 1.5)}},
        {"family": "linear_matrix",
         "params": {"order": "first_order", "A": [[-ub.L * _u(rng, 0.5, 1.0)]],
                    "Theta": [[ub.b_lower * _u(rng, 1.0, 1.5)]]}},
    ]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# (kind, member gain sets, setpoints, x0s) of each sweep in a block; each
# sweep adds one non-member gain set.  Integration dominates: many short
# trajectories per certificate.  The three sizes are far apart (PI < PD <
# PID), so the median op is always a PD sweep and the 90th percentile a PID
# sweep.  Sweeps are kept small so that a run holds many blocks, and the
# median of the PD sweeps rests on many of them.
SWEEP_BLOCK = (
    (PID, 1, 3, 2),
    (PD, 1, 1, 6),
    (PI, 1, 1, 2),
)


def sweep_op(kind: str, members: int, n_setpoints: int, n_x0s: int, rng, configs: ConfigDir, slot: str) -> Op:
    ub = draw_bounds(kind, rng)
    if kind == PID:
        plants, n = _second_order_scalar_plants(ub, rng), 1
    elif kind == PD:
        plants, n = _pd_plants(ub, rng), 2
    else:
        plants, n = _first_order_plants(ub, rng), 1
    gains = [draw_gains(kind, ub, rng) for _ in range(members)]
    outsider = draw_gains(kind, ub, rng, member=False)
    if kind == PD:
        # PD regulates to uncontrolled equilibria only: y* = 0 for both families
        setpoints = [[0.0] * n]
    else:
        setpoints = _setpoints(rng, n_setpoints)
    state_dim = n if kind == PI else 2 * n
    x0s = [_sphere(rng, state_dim) for _ in range(n_x0s)]
    config = {
        "mode": "sweep",
        "kind": kind,
        "bounds": _bounds_node(ub),
        "plants": plants,
        "gain_sets": [_gains_node(g) for g in gains + [outsider]],
        "setpoints": setpoints,
        "x0s": x0s,
        "sim": {"t_final": SWEEP_HORIZON, "dt_max": 0.01},
    }
    path, out = configs.write(slot, config)
    refs = {(g.kp, g.ki, g.kd): alpha_ref(kind, g, ub, n) for g in gains}
    expected = len(plants) * members * len(setpoints) * len(x0s)

    def check(code) -> Outcome:
        if code != 0:
            return _fail(f"sweep exit code {code}")
        with open(out / "sweep.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["cell"] != "pass_fraction"]
        certified = [r for r in rows if r["member"] == "True"]
        certs = {}
        for r in certified:
            key = (float(r["kp"]), float(r["ki"]), float(r["kd"]))
            if key in refs and r["alpha"]:
                certs[key] = (kind, n, float(r["alpha"]), refs[key])
        out_certs = list(certs.values())
        if len(certified) != expected or len(certs) != len(refs):
            return Outcome(False, 0, f"{len(certified)} certified cells, expected {expected}", out_certs)
        bad = [r["cell"] for r in certified if r["envelope_pass"] != "True" or r["error"]]
        if bad:
            return Outcome(False, 0, f"cells {bad} failed the envelope or raised", out_certs)
        unsound = [c for c in out_certs if not alpha_sound(c[2], c[3])]
        if unsound:
            return Outcome(False, 0, f"unsound alpha {unsound}", out_certs)
        return Outcome(True, expected, certs=out_certs)

    return Op(f"sweep.{kind}", config, _cli_call("sweep", path, out), check)


# ---------------------------------------------------------------------------
# oneshot
# ---------------------------------------------------------------------------


def simulate_op(kind: str, integrator: str, rng, configs: ConfigDir, slot: str) -> Op:
    ub = draw_bounds(kind, rng)
    g = draw_gains(kind, ub, rng)
    if kind == PD:
        plant = _pd_plants(ub, rng)[0]
        n = 2
        y_star = [0.0, 0.0]
        x0 = _vec(rng, 4, 1.0)
    else:
        # fixed-step RK4 at dt = 0.01 is unstable on the cubic input of
        # nonaffine_cubic_u once |u| grows, so that plant runs adaptive only
        plant = _first_order_plants(ub, rng)[1 if integrator == "rk45_adaptive" else 0]
        n = 1
        y_star = _vec(rng, 1, 1.5)
        x0 = _vec(rng, 1, 1.0)
    config = {
        "mode": "simulate",
        "kind": kind,
        "plant": plant,
        "bounds": _bounds_node(ub),
        "gains": _gains_node(g),
        "y_star": y_star,
        "x0": x0,
        "t_final": SIM_HORIZON,
        "dt_max": 0.01,
        "integrator": integrator,
    }
    path, out = configs.write(slot, config)
    ref = alpha_ref(kind, g, ub, n)

    def check(code) -> Outcome:
        if code != 0:
            return _fail(f"simulate exit code {code}")
        summary = _read_json(out / "summary.json")
        alpha = summary["certificate"]["alpha"]
        certs = [(kind, n, alpha, ref)]
        if not (out / "trajectory.csv").is_file():
            return Outcome(False, 0, "no trajectory.csv", certs)
        if summary["envelope_pass"] is not True or summary["v_nonincreasing"] is not True:
            return Outcome(False, 0, "envelope or V audit failed", certs)
        if not alpha_sound(alpha, ref):
            return Outcome(False, 0, f"alpha {alpha!r} not in (0, alpha_ref {ref!r}]", certs)
        return Outcome(True, 1, certs=certs)

    return Op(f"simulate.{kind}.{integrator}", config, _cli_call("simulate", path, out), check)


def _class_params(family: str, n: int, first_order: bool, rng) -> dict:
    if family == "tanh_coupled":
        return {"n": n, "l1": _u(rng, 0.5, 1.5), "l2": _u(rng, 0.5, 1.5),
                "b_lower": _u(rng, 0.6, 1.5), "w_scale": _u(rng, 0.0, 0.5)}
    if family == "rotation_gain":
        return {"b_lower": _u(rng, 0.6, 1.5), "s": _u(rng, 1.0, 10.0),
                "a1": _u(rng, -1.5, 1.5), "a2": _u(rng, -1.5, 1.5)}
    if family == "linear_matrix":
        skew = rng.standard_normal((n, n))
        theta = _u(rng, 0.6, 1.5) * np.eye(n) + (skew - skew.T) / 2.0
        return {"A1": rng.uniform(-0.5, 0.5, (n, n)).tolist(), "A2": rng.uniform(-0.5, 0.5, (n, n)).tolist(),
                "Theta": theta.tolist()}
    params = {"c1": _u(rng, -1.5, 1.5)}
    if family == "nonaffine_cubic_u":
        params["b_lower"] = _u(rng, 0.6, 1.5)
    if first_order:
        params["order"] = "first_order"
    else:
        params["c2"] = _u(rng, 0.0, 1.5)
    return params


def verify_class_op(family: str, n: int, first_order: bool, samples: int, rng, configs: ConfigDir, slot: str) -> Op:
    params = _class_params(family, n, first_order, rng)
    # samples is the class audit's own sample count, not a certificate setting
    config = {"mode": "verify-class", "plant": {"family": family, "params": params},
              "samples": samples, "box_radius": _u(rng, 2.0, 10.0)}
    path, out = configs.write(slot, config)

    def check(code) -> Outcome:
        if code != 0:
            return _fail(f"verify-class exit code {code}")
        if _read_json(out / "validation.json")["passes"] is not True:
            return _fail("class validation did not pass")
        return Outcome(True, 1)

    order = ".first_order" if first_order else ""
    return Op(f"verify-class.{family}{order}.n{n}", config, _cli_call("verify-class", path, out), check)


def planar_op(case: str, rng, configs: ConfigDir, slot: str) -> Op:
    L, b = _u(rng, 0.5, 1.5), _u(rng, 0.6, 1.0)
    bounds = {"L": L, "b_lower": b}
    if case == "sufficiency":
        c1 = _u(rng, 0.5, 1.5)
        config = {"mode": "planar",
                  "plant": {"family": "sinusoidal_scalar", "params": {"order": "first_order", "c1": c1}},
                  "gains": {"kp": abs(c1) * _u(rng, 1.2, 3.0), "ki": _u(rng, 0.5, 2.0)},
                  "y_star": _u(rng, -1.5, 1.5),
                  "grid": {"radius": 20.0, "points": 41}}
        key, verdict = "jacobian_conditions", "sufficiency"
    elif case == "ki_zero":
        config = {"mode": "planar", "bounds": bounds,
                  "gains": {"kp": L / b * _u(rng, 1.5, 3.0), "ki": 0.0},
                  "y_star": float(rng.choice([-1.0, 1.0])) * _u(rng, 0.5, 1.5),
                  "necessity": {"case": "ki_zero"}}
        key, verdict = "necessity", "nonconvergent"
    else:
        config = {"mode": "planar", "bounds": bounds,
                  "gains": {"kp": L / b * _u(rng, 0.2, 0.8), "ki": _u(rng, 0.5, 2.0)},
                  "y_star": 0.0,
                  "necessity": {"case": "unstable_linear"}}
        key, verdict = "necessity", "nonconvergent"
    path, out = configs.write(slot, config)

    def check(code) -> Outcome:
        if code != 0:
            return _fail(f"planar exit code {code}")
        if _read_json(out / "planar.json")[key][verdict] is not True:
            return _fail(f"planar {case}: {verdict} is not True")
        return Outcome(True, 1)

    return Op(f"planar.{case}", config, _cli_call("planar", path, out), check)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """A seeded stream of operation blocks plus one warm-up operation."""

    name = ""

    def __init__(self, seed: int, work_dir: Path):
        self.rng = np.random.default_rng(seed)
        self.configs = ConfigDir(work_dir)

    def warmup(self) -> Op:
        raise NotImplementedError

    def block(self) -> list:
        raise NotImplementedError


class Certify(Workload):
    name = "certify"

    def warmup(self) -> Op:
        return certify_op(PD, 3, self.rng)

    def block(self) -> list:
        order = self.rng.permutation(len(CERTIFY_BLOCK))
        return [certify_op(*CERTIFY_BLOCK[i], self.rng) for i in order]


class Sweep(Workload):
    name = "sweep"

    def warmup(self) -> Op:
        return sweep_op(PI, 1, 1, 1, self.rng, self.configs, "warmup")

    def block(self) -> list:
        return [
            sweep_op(*spec, self.rng, self.configs, f"sweep-{i}")
            for i, spec in enumerate(SWEEP_BLOCK)
        ]


# (mode, arguments) of each single invocation in a block of 19.  The three
# fixed-step RK4 runs are the slowest ops (3 of 19), so the 90th latency
# percentile falls inside their cluster, on a PI run, not at its edge.
ONESHOT_BLOCK = (
    ("simulate", (PD, "rk45_adaptive")),
    ("simulate", (PD, "rk4_fixed")),
    ("simulate", (PI, "rk45_adaptive")),
    ("simulate", (PI, "rk4_fixed")),
    ("simulate", (PI, "rk4_fixed")),
    ("verify-class", ("tanh_coupled", 2, False, 300)),
    ("verify-class", ("tanh_coupled", 8, False, 100)),
    ("verify-class", ("rotation_gain", 2, False, 300)),
    ("verify-class", ("linear_matrix", 3, False, 100)),
    ("verify-class", ("sinusoidal_scalar", 1, False, 300)),
    ("verify-class", ("nonaffine_cubic_u", 1, False, 300)),
    ("verify-class", ("sinusoidal_scalar", 1, True, 300)),
    ("verify-class", ("nonaffine_cubic_u", 1, True, 300)),
    ("planar", ("sufficiency",)),
    ("planar", ("sufficiency",)),
    ("planar", ("ki_zero",)),
    ("planar", ("ki_zero",)),
    ("planar", ("unstable_linear",)),
    ("planar", ("unstable_linear",)),
)

_ONESHOT_BUILDERS = {"simulate": simulate_op, "verify-class": verify_class_op, "planar": planar_op}


class Oneshot(Workload):
    name = "oneshot"

    def warmup(self) -> Op:
        return simulate_op(PI, "rk45_adaptive", self.rng, self.configs, "warmup")

    def block(self) -> list:
        return [
            _ONESHOT_BUILDERS[mode](*args, self.rng, self.configs, f"oneshot-{i}")
            for i, (mode, args) in enumerate(ONESHOT_BLOCK)
        ]


WORKLOADS = {w.name: w for w in (Certify, Sweep, Oneshot)}
