"""Closed-loop simulation and trajectory-level audits.

PID, PD and PI close the same loop and differ only in which state blocks
exist: the integral of the error ``i``, the position ``x`` and the velocity
``v``.  ``gain_sets.LAYOUT`` lists the blocks of each kind in state-vector
order; the right-hand side, the control law, the initial state, the shifted
coordinates z, the envelope and the CSV header are all built from it, as is
the closed-loop matrix of ``certificates``.

The controller is computed from measured state only: the derivative channel
uses edot = -v directly (the setpoint is constant), never a numerical
difference of e.  The integral channel is an extra state block adjoined to
the ODE.  After integration e, edot and u are rebuilt with array operations
on the whole trajectory; PI's edot = -f(x, u) is one plant call on all
samples.  Trajectories are recorded both in physical coordinates and in the
shifted coordinates z used by the certificates, so the exponential envelope
and the Lyapunov decrease can be checked pointwise.

``simulate_batch`` integrates N closed loops that share the kind, n, the
horizon, the integrator and its tolerances as one stacked system: the states
form an (N, dim) array, one right-hand side evaluates every cell's control
law with (N, 1) gains and (N, n) setpoints and calls the plant once for each
run of adjacent cells that share it, and the integrator runs once.  Fixed-step RK4 advances each cell
exactly as a one-cell run does.  RK45 shares one step size across the cells,
so it is given rtol/sqrt(N) and atol/sqrt(N): solve_ivp's RMS error norm over
the stacked state is then sqrt(sum_c norm_c^2) >= max_c norm_c, where norm_c
is the norm a one-cell run at the configured tolerances tests, and every
accepted step passes each cell's own test.  ``simulate`` is the one-cell
batch.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .certificates import LyapunovCertificate
from .equilibrium import solve_equilibrium
from .errors import CertificateError, IntegrationError, UsageError
from .gain_sets import LAYOUT, ORDER, SECOND_ORDER, GainVector, covers
from .plant_models import PlantModel, equilibrium_shift_check

RK4_FIXED = "rk4_fixed"
RK45_ADAPTIVE = "rk45_adaptive"
# envelope_audit's tolerance, relative to the initial envelope value
ENVELOPE_RTOL = 1e-7


def _split(kind: str, n: int, s: np.ndarray) -> dict:
    """Named blocks of a state vector, or of a (samples, dim) state array."""
    return {name: s[..., k * n : (k + 1) * n] for k, name in enumerate(LAYOUT[kind])}


def _control(gains: tuple, blocks: dict, e: np.ndarray) -> np.ndarray:
    """u = kp e + ki i + kd edot with edot = -v, for the blocks the kind has.

    ``gains`` is (kp, ki, kd), as scalars or as (cells, 1) columns.  Missing
    terms are left out rather than added as zeros, which would turn a -0.0
    into 0.0.
    """
    kp, ki, kd = gains
    u = kp * e
    if "i" in blocks:
        u = u + ki * blocks["i"]
    if "v" in blocks:
        u = u + kd * -blocks["v"]
    return u


@dataclass
class SimConfig:
    plant: PlantModel
    gains: GainVector
    y_star: np.ndarray
    x0: np.ndarray
    t_final: float
    dt_max: float = 0.01
    integrator: str = RK45_ADAPTIVE
    rtol: float = 1e-8
    atol: float = 1e-10
    integral_state0: Optional[np.ndarray] = None

    def __post_init__(self):
        if not self.t_final > 0:
            raise UsageError("t_final must be > 0")
        if not self.dt_max > 0:
            raise UsageError("dt_max must be > 0")
        if self.integrator not in (RK4_FIXED, RK45_ADAPTIVE):
            raise UsageError(f"unknown integrator {self.integrator!r}")
        kind = self.gains.kind
        if self.plant.order != ORDER[kind]:
            raise UsageError(f"{kind} control needs a {ORDER[kind].replace('_', '-')} plant")
        n = self.plant.n
        self.y_star = np.atleast_1d(np.asarray(self.y_star, dtype=float)).reshape(n)
        want = 2 * n if self.plant.order == SECOND_ORDER else n
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float)).reshape(want)
        if self.integral_state0 is not None:
            self.integral_state0 = np.atleast_1d(
                np.asarray(self.integral_state0, dtype=float)
            ).reshape(n)


@dataclass
class Trajectory:
    """One recorded closed loop.  ``nfev`` and ``status`` are the
    integrator's, shared by the ``cells`` closed loops integrated with it."""

    kind: str
    n: int
    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    edots: np.ndarray
    controls: np.ndarray
    y_star: np.ndarray
    z: Optional[np.ndarray] = None
    u_star: Optional[np.ndarray] = None
    v_values: Optional[np.ndarray] = None
    envelope: Optional[np.ndarray] = None
    envelope_margin: Optional[np.ndarray] = None
    cert: Optional[LyapunovCertificate] = None
    nfev: Optional[int] = None
    status: Optional[int] = None
    cells: int = 1

    def error_signal(self) -> np.ndarray:
        """|e(t)|, plus |edot(t)| for the kinds with a velocity block (PID, PD)."""
        e = np.linalg.norm(self.errors, axis=1)
        if "v" not in LAYOUT[self.kind]:
            return e
        return e + np.linalg.norm(self.edots, axis=1)

    def to_csv(self, path) -> None:
        def cols(prefix):
            return [f"{prefix}_{j}" for j in range(self.n)]

        header = ["t"]
        for prefix in [*LAYOUT[self.kind].values(), "e", "edot", "u"]:
            header += cols(prefix)
        header += ["V", "envelope_margin"]
        body = np.column_stack(
            [self.times, self.states, self.errors, self.edots, self.controls]
        )
        tail = (self.v_values, self.envelope_margin)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(body.shape[0]):
                row = [repr(v) for v in body[k].tolist()]
                row += ["" if a is None else repr(float(a[k])) for a in tail]
                writer.writerow(row)


@dataclass
class AuditReport:
    passes: bool
    min_margin: float
    first_violation_time: Optional[float]
    atol_envelope: float
    samples: int


@dataclass
class MonitorReport:
    v_initial: float
    v_final: float
    nonincreasing_pass: bool
    max_increase: float
    decrease_pass: bool
    worst_decrease_excess: float


@dataclass
class Cell:
    """One closed loop that passed its pre-checks, with its equilibrium
    input u* (None for PID/PI with ki = 0, where there is none to solve)."""

    cfg: SimConfig
    cert: Optional[LyapunovCertificate]
    u_star: Optional[np.ndarray]


def prepare_cell(cfg: SimConfig, cert: Optional[LyapunovCertificate] = None) -> Cell:
    """Check a run against its certificate and solve for u*.

    The certificate must match the run's kind, dimension and gains and cover
    the plant's declared bounds; a PD certificate needs y* to be an
    uncontrolled equilibrium, f(y*, 0, 0) = 0.
    """
    plant, g = cfg.plant, cfg.gains
    n = plant.n
    layout = LAYOUT[g.kind]
    if cert is not None:
        if cert.kind != g.kind or cert.n != n:
            raise UsageError("certificate kind/dimension does not match the run")
        cg = cert.gains
        if (cg.kp, cg.ki, cg.kd) != (g.kp, g.ki, g.kd):
            raise UsageError("certificate gains do not match the configured gains")
        if not covers(cert.bounds, plant.declared_bounds):
            raise CertificateError(
                f"out of class: the plant's declared {plant.declared_bounds} "
                f"are not inside the certificate's {cert.bounds}"
            )

    # u* for the shifted coordinates; PD regulation assumes f(y*,0,0)=0
    ustar = None
    if "i" in layout and g.ki > 0:
        ustar = solve_equilibrium(plant, cfg.y_star).u_star
    elif "i" not in layout:
        # PD regulation is only guaranteed at uncontrolled equilibria
        if cert is not None and not equilibrium_shift_check(plant, cfg.y_star):
            raise UsageError(
                "PD envelope certification needs f(y*, 0, 0) = 0; "
                "the configured setpoint is not an uncontrolled equilibrium"
            )
        ustar = np.zeros(n)
    return Cell(cfg=cfg, cert=cert, u_star=ustar)


def _plant_runs(cells: Sequence[Cell]) -> list:
    """(plant, rows) for each run of adjacent cells that share one plant."""
    runs, start = [], 0
    for _, group in itertools.groupby(cells, key=lambda c: id(c.cfg.plant)):
        stop = start + len(list(group))
        runs.append((cells[start].cfg.plant, slice(start, stop)))
        start = stop
    return runs


def _rhs_factory(cells: Sequence[Cell]):
    """Right-hand side of the stacked system, on the flattened (cells, dim) state."""
    kind, n = cells[0].cfg.gains.kind, cells[0].cfg.plant.n
    layout = LAYOUT[kind]
    shape = (len(cells), len(layout) * n)
    gains = tuple(
        np.array([[getattr(c.cfg.gains, k)] for c in cells]) for k in ("kp", "ki", "kd")
    )
    y = np.array([c.cfg.y_star for c in cells])
    runs = _plant_runs(cells)
    plant_state = [k for k in layout if k != "i"]  # (x, v) or (x,)

    def rhs(t, s):
        b = _split(kind, n, s.reshape(shape))
        e = y - b["x"]
        u = _control(gains, b, e)
        if len(runs) == 1:
            f = runs[0][0].eval_checked(*(b[k] for k in plant_state), u)
        else:  # the runs are adjacent slices that cover the cells in order
            f = np.concatenate(
                [
                    plant.eval_checked(*(b[k][rows] for k in plant_state), u[rows])
                    for plant, rows in runs
                ]
            )
        # d/dt of (i, x, v) is (e, v, f); a kind without i or v drops its entry
        rate = {"i": e, "x": b.get("v", f), "v": f}
        return np.concatenate([rate[k] for k in layout], axis=1).reshape(-1)

    return rhs


def _initial_state(cfg: SimConfig) -> np.ndarray:
    if "i" not in LAYOUT[cfg.gains.kind]:
        return cfg.x0
    i0 = cfg.integral_state0 if cfg.integral_state0 is not None else np.zeros(cfg.plant.n)
    return np.concatenate([i0, cfg.x0])


def _integrate_rk4(rhs, s0: np.ndarray, t_final: float, dt: float):
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    times = [0.0]
    states = [s0.copy()]
    t, s = 0.0, s0.copy()
    for k in range(n_steps):
        h = min(dt, t_final - t)
        k1 = rhs(t, s)
        k2 = rhs(t + h / 2.0, s + h / 2.0 * k1)
        k3 = rhs(t + h / 2.0, s + h / 2.0 * k2)
        k4 = rhs(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if not np.all(np.isfinite(s)):
            raise IntegrationError(f"state became non-finite at t = {t:.6g}")
        times.append(t)
        states.append(s.copy())
    return np.array(times), np.array(states), 4 * n_steps, 0


def _integrate_rk45(rhs, s0: np.ndarray, cfg: SimConfig, cells: int):
    # deferred: scipy is needed only for adaptive integration
    from scipy.integrate import solve_ivp

    n_rec = max(2, int(round(cfg.t_final / cfg.dt_max)) + 1)
    t_eval = np.linspace(0.0, cfg.t_final, n_rec)
    # each cell's own error test holds when the stacked RMS norm passes
    scale = math.sqrt(cells)
    sol = solve_ivp(
        rhs,
        (0.0, cfg.t_final),
        s0,
        method="RK45",
        t_eval=t_eval,
        rtol=cfg.rtol / scale,
        atol=cfg.atol / scale,
    )
    if not sol.success:
        t_last = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(
            f"adaptive integration failed at t = {t_last:.6g}: {sol.message}"
        )
    return sol.t, sol.y.T, sol.nfev, sol.status


def _trajectory(cell: Cell, times: np.ndarray, states: np.ndarray, stats: dict) -> Trajectory:
    """e, edot, u, z and the envelope of one cell, from its recorded states."""
    cfg, cert, ustar = cell.cfg, cell.cert, cell.u_star
    plant, g = cfg.plant, cfg.gains
    kind, n = g.kind, plant.n
    layout = LAYOUT[kind]
    b = _split(kind, n, states)
    errors = cfg.y_star - b["x"]
    controls = _control((g.kp, g.ki, g.kd), b, errors)
    edots = -b["v"] if "v" in layout else -plant.eval_checked(b["x"], controls)

    # z = (i - u*/ki, e, edot) over the blocks the kind has; i needs u* and ki > 0
    z = None
    if "i" not in layout or (g.ki > 0 and ustar is not None):
        shifted = {"x": errors, "v": edots}
        if "i" in layout:
            shifted["i"] = b["i"] - ustar / g.ki
        z = np.hstack([shifted[k] for k in layout])

    traj = Trajectory(
        kind=kind,
        n=n,
        times=times,
        states=states,
        errors=errors,
        edots=edots,
        controls=controls,
        y_star=cfg.y_star.copy(),
        z=z,
        u_star=ustar,
        cert=cert,
        **stats,
    )
    if cert is not None:
        if z is None:
            raise UsageError("cannot evaluate the certificate without z coordinates")
        traj.v_values = np.einsum("ki,ij,kj->k", z, cert.P, z)
        # envelope scale |e(0)| + |edot(0)| + |u*| over the blocks the kind has
        s0_env = float(np.linalg.norm(errors[0]))
        if "v" in layout:
            s0_env += float(np.linalg.norm(edots[0]))
        if "i" in layout:
            s0_env += float(np.linalg.norm(ustar))
        traj.envelope = cert.M * np.exp(-cert.lambda_decay * times) * s0_env
        traj.envelope_margin = traj.envelope - traj.error_signal()
    return traj


def simulate_batch(cells: Sequence[Cell]) -> Iterator[Trajectory]:
    """Integrate prepared closed loops as one stacked system.

    The cells must share the kind, n, t_final, dt_max, integrator and
    tolerances.  The integration runs when the first trajectory is asked
    for; the trajectories then follow in cell order, each built only when it
    is asked for, so a caller that consumes them one at a time never holds
    them all.
    """
    cells = list(cells)
    if not cells:
        raise UsageError("a batch needs at least one cell")

    def shared(c: SimConfig):
        return (c.gains.kind, c.plant.n, c.t_final, c.dt_max, c.integrator, c.rtol, c.atol)

    cfg = cells[0].cfg
    if any(shared(c.cfg) != shared(cfg) for c in cells):
        raise UsageError(
            "cells of one batch must share the kind, n, t_final, dt_max, "
            "integrator and tolerances"
        )
    s0 = np.concatenate([_initial_state(c.cfg) for c in cells])
    rhs = _rhs_factory(cells)
    if cfg.integrator == RK4_FIXED:
        times, states, nfev, status = _integrate_rk4(rhs, s0, cfg.t_final, cfg.dt_max)
    else:
        times, states, nfev, status = _integrate_rk45(rhs, s0, cfg, len(cells))
    stats = {"nfev": int(nfev), "status": int(status), "cells": len(cells)}
    dim = s0.size // len(cells)
    for k, cell in enumerate(cells):
        # row-major, so e, edot, u and z rebuilt from it are row-major too
        own = np.ascontiguousarray(states[:, k * dim : (k + 1) * dim])
        yield _trajectory(cell, times, own, stats)


def simulate(cfg: SimConfig, cert: Optional[LyapunovCertificate] = None) -> Trajectory:
    """Integrate one closed loop and record the full trajectory: the
    one-cell batch.

    When a certificate is supplied its (M, lambda) envelope is evaluated at
    every sample time.
    """
    return next(simulate_batch([prepare_cell(cfg, cert)]))


def fit_decay(traj: Trajectory, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares exponential fit of the error signal on a time window.

    Returns (lambda_emp, M_emp) from log signal ~ log(M_emp) - lambda_emp*t.
    Samples below the 1e-14 floor truncate the window.
    """
    lo, hi = window
    if not lo < hi:
        raise UsageError("window must satisfy t_lo < t_hi")
    t = traj.times
    sig = traj.error_signal()
    mask = (t >= lo) & (t <= hi)
    if not np.any(mask):
        raise UsageError("window does not intersect the trajectory")
    tw = t[mask]
    sw = sig[mask]
    below = np.nonzero(sw < 1e-14)[0]
    if below.size:
        tw, sw = tw[: below[0]], sw[: below[0]]
    if tw.size < 2:
        raise UsageError("window has fewer than two usable samples")
    slope, intercept = np.polyfit(tw, np.log(sw), 1)
    return float(-slope), float(math.exp(intercept))


def envelope_audit(traj: Trajectory) -> AuditReport:
    """Check the recorded envelope margin at every sample time.

    Any sample more than ``ENVELOPE_RTOL`` times the initial envelope value
    below the envelope fails the audit.
    """
    if traj.envelope_margin is None:
        raise UsageError("trajectory has no envelope margins to audit")
    atol_envelope = ENVELOPE_RTOL * float(traj.envelope[0])
    margin = traj.envelope_margin
    violations = np.nonzero(margin < -atol_envelope)[0]
    first_violation = float(traj.times[violations[0]]) if violations.size else None
    return AuditReport(
        passes=violations.size == 0,
        min_margin=float(np.min(margin)),
        first_violation_time=first_violation,
        atol_envelope=atol_envelope,
        samples=int(margin.size),
    )


def lyapunov_monitor(
    traj: Trajectory,
    cert: LyapunovCertificate,
    nonincrease_rel: float = 1e-6,
    decrease_rel: float = 1e-5,
) -> MonitorReport:
    """Audit V(z) = z^T P z along the trajectory.

    (i) V must be non-increasing up to nonincrease_rel * V(0);
    (ii) each discrete step must satisfy the decrease inequality
         dV <= -alpha * min(|z_k|, |z_{k+1}|)^2 * dt + decrease_rel * V(t_k),
    the additive slack absorbing sampling and integration error.
    """
    if traj.kind != cert.kind:
        raise UsageError("certificate kind does not match the trajectory")
    if traj.z is None:
        raise UsageError("trajectory has no z coordinates")
    z = traj.z
    t = traj.times
    v = (
        traj.v_values
        if traj.v_values is not None
        else np.einsum("ki,ij,kj->k", z, cert.P, z)
    )
    v0 = float(v[0])
    dv = np.diff(v)
    max_increase = float(np.max(dv)) if dv.size else 0.0
    noninc = max_increase <= nonincrease_rel * max(v0, 1e-300)
    zn2 = np.sum(z * z, axis=1)
    min_zn2 = np.minimum(zn2[:-1], zn2[1:])
    dt = np.diff(t)
    excess = dv + cert.alpha * min_zn2 * dt - decrease_rel * v[:-1]
    worst = float(np.max(excess)) if excess.size else 0.0
    return MonitorReport(
        v_initial=v0,
        v_final=float(v[-1]),
        nonincreasing_pass=bool(noninc),
        max_increase=max_increase,
        decrease_pass=bool(worst <= 0.0),
        worst_decrease_excess=worst,
    )
