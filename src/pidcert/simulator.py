"""Closed-loop simulation and trajectory-level audits.

The controller is computed from measured state only: the derivative channel
uses edot = -x2 directly (the setpoint is constant), never a numerical
difference of e.  The integral channel is an extra state block adjoined to
the ODE.  Trajectories are recorded both in physical coordinates and in the
shifted coordinates z used by the certificates, so the exponential envelope
and the Lyapunov decrease can be checked pointwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import LyapunovCertificate
from .equilibrium import solve_equilibrium
from .errors import IntegrationError, UsageError
from .gain_sets import FIRST_ORDER, PD, PI, PID, SECOND_ORDER, GainVector
from .plant_models import PlantModel, equilibrium_shift_check

RK4_FIXED = "rk4_fixed"
RK45_ADAPTIVE = "rk45_adaptive"


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
        n = self.plant.n
        self.y_star = np.atleast_1d(np.asarray(self.y_star, dtype=float)).reshape(n)
        want = 2 * n if self.plant.order == SECOND_ORDER else n
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float)).reshape(want)
        if self.integral_state0 is not None:
            self.integral_state0 = np.atleast_1d(
                np.asarray(self.integral_state0, dtype=float)
            ).reshape(n)
        kind = self.gains.kind
        if kind in (PID, PD) and self.plant.order != SECOND_ORDER:
            raise UsageError(f"{kind} control needs a second-order plant")
        if kind == PI and self.plant.order != FIRST_ORDER:
            raise UsageError("PI control needs a first-order plant")


@dataclass
class Trajectory:
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

    def error_signal(self) -> np.ndarray:
        """|e(t)| for PI, |e(t)| + |edot(t)| for PID/PD."""
        e = np.linalg.norm(self.errors, axis=1)
        if self.kind == PI:
            return e
        return e + np.linalg.norm(self.edots, axis=1)

    def initial_envelope_value(self) -> float:
        if self.envelope is None:
            raise UsageError("trajectory has no envelope (simulate with a certificate)")
        return float(self.envelope[0])

    def to_csv(self, path) -> None:
        n = self.n
        state_cols = []
        if self.kind in (PID, PI):
            state_cols += [f"i_{j}" for j in range(n)]
        if self.kind in (PID, PD):
            state_cols += [f"x1_{j}" for j in range(n)] + [f"x2_{j}" for j in range(n)]
        else:
            state_cols += [f"x_{j}" for j in range(n)]
        header = (
            ["t"]
            + state_cols
            + [f"e_{j}" for j in range(n)]
            + [f"edot_{j}" for j in range(n)]
            + [f"u_{j}" for j in range(n)]
            + ["V", "envelope_margin"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.times.size):
                row = [repr(float(self.times[k]))]
                row += [repr(float(v)) for v in self.states[k]]
                row += [repr(float(v)) for v in self.errors[k]]
                row += [repr(float(v)) for v in self.edots[k]]
                row += [repr(float(v)) for v in self.controls[k]]
                row.append("" if self.v_values is None else repr(float(self.v_values[k])))
                row.append(
                    ""
                    if self.envelope_margin is None
                    else repr(float(self.envelope_margin[k]))
                )
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


def _controller(kind: str, g: GainVector, n: int):
    if kind == PID:
        def u_of(e, edot, istate):
            return g.kp * e + g.ki * istate + g.kd * edot
    elif kind == PD:
        def u_of(e, edot, istate):
            return g.kp * e + g.kd * edot
    else:
        def u_of(e, edot, istate):
            return g.kp * e + g.ki * istate
    return u_of


def _rhs_factory(cfg: SimConfig):
    plant, g, y = cfg.plant, cfg.gains, cfg.y_star
    n = plant.n
    kind = g.kind
    u_of = _controller(kind, g, n)
    if kind == PID:
        def rhs(t, s):
            istate, x1, x2 = s[:n], s[n : 2 * n], s[2 * n :]
            e = y - x1
            u = u_of(e, -x2, istate)
            return np.concatenate([e, x2, plant.eval_checked(x1, x2, u)])
        dim = 3 * n
    elif kind == PD:
        def rhs(t, s):
            x1, x2 = s[:n], s[n:]
            e = y - x1
            u = u_of(e, -x2, None)
            return np.concatenate([x2, plant.eval_checked(x1, x2, u)])
        dim = 2 * n
    else:
        def rhs(t, s):
            istate, x = s[:n], s[n:]
            e = y - x
            u = u_of(e, None, istate)
            return np.concatenate([e, plant.eval_checked(x, u)])
        dim = 2 * n
    return rhs, dim


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
    return np.array(times), np.array(states)


def _integrate_rk45(rhs, s0: np.ndarray, cfg: SimConfig):
    # deferred: scipy is needed only for adaptive integration
    from scipy.integrate import solve_ivp

    n_rec = max(2, int(round(cfg.t_final / cfg.dt_max)) + 1)
    t_eval = np.linspace(0.0, cfg.t_final, n_rec)
    sol = solve_ivp(
        rhs,
        (0.0, cfg.t_final),
        s0,
        method="RK45",
        t_eval=t_eval,
        rtol=cfg.rtol,
        atol=cfg.atol,
    )
    if not sol.success:
        t_last = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(
            f"adaptive integration failed at t = {t_last:.6g}: {sol.message}"
        )
    return sol.t, sol.y.T


def simulate(
    cfg: SimConfig,
    cert: Optional[LyapunovCertificate] = None,
    u_star: Optional[np.ndarray] = None,
) -> Trajectory:
    """Integrate the closed loop and record the full trajectory.

    When a certificate is supplied its (M, lambda) envelope is evaluated at
    every sample time; the equilibrium input u* is solved for on demand.
    """
    plant, g = cfg.plant, cfg.gains
    n = plant.n
    kind = g.kind
    if cert is not None:
        if cert.kind != kind or cert.n != n:
            raise UsageError("certificate kind/dimension does not match the run")
        cg = cert.gains
        if (cg.kp, cg.ki, cg.kd) != (g.kp, g.ki, g.kd):
            raise UsageError("certificate gains do not match the configured gains")

    # u* for the shifted coordinates; PD regulation assumes f(y*,0,0)=0
    ustar = None
    if u_star is not None:
        ustar = np.atleast_1d(np.asarray(u_star, dtype=float)).reshape(n)
    elif kind in (PID, PI) and g.ki > 0:
        ustar = solve_equilibrium(plant, cfg.y_star).u_star
    elif kind == PD:
        # PD regulation is only guaranteed at uncontrolled equilibria
        if cert is not None and not equilibrium_shift_check(plant, cfg.y_star):
            raise UsageError(
                "PD envelope certification needs f(y*, 0, 0) = 0; "
                "the configured setpoint is not an uncontrolled equilibrium"
            )
        ustar = np.zeros(n)

    rhs, dim = _rhs_factory(cfg)
    s0 = np.zeros(dim)
    if kind in (PID, PI):
        if cfg.integral_state0 is not None:
            s0[:n] = cfg.integral_state0
        s0[n:] = cfg.x0
    else:
        s0[:] = cfg.x0

    if cfg.integrator == RK4_FIXED:
        times, states = _integrate_rk4(rhs, s0, cfg.t_final, cfg.dt_max)
    else:
        times, states = _integrate_rk45(rhs, s0, cfg)

    u_of = _controller(kind, g, n)
    N = times.size
    errors = np.zeros((N, n))
    edots = np.zeros((N, n))
    controls = np.zeros((N, n))
    for k in range(N):
        s = states[k]
        if kind == PID:
            istate, x1, x2 = s[:n], s[n : 2 * n], s[2 * n :]
            e, ed = cfg.y_star - x1, -x2
            u = u_of(e, ed, istate)
        elif kind == PD:
            x1, x2 = s[:n], s[n:]
            e, ed = cfg.y_star - x1, -x2
            u = u_of(e, ed, None)
        else:
            istate, x = s[:n], s[n:]
            e = cfg.y_star - x
            u = u_of(e, None, istate)
            ed = -plant.eval_checked(x, u)
        errors[k], edots[k], controls[k] = e, ed, u

    z = None
    if kind == PD:
        z = np.hstack([errors, edots])
    elif g.ki > 0 and ustar is not None:
        z0 = states[:, :n] - ustar / g.ki
        if kind == PID:
            z = np.hstack([z0, errors, edots])
        else:
            z = np.hstack([z0, errors])

    v_values = None
    envelope = None
    margin = None
    if cert is not None:
        if z is None:
            raise UsageError("cannot evaluate the certificate without z coordinates")
        v_values = np.einsum("ki,ij,kj->k", z, cert.P, z)
        s0_env = _envelope_initial(kind, errors[0], edots[0], ustar)
        envelope = cert.M * np.exp(-cert.lambda_decay * times) * s0_env
        sig = np.linalg.norm(errors, axis=1)
        if kind != PI:
            sig = sig + np.linalg.norm(edots, axis=1)
        margin = envelope - sig

    return Trajectory(
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
        v_values=v_values,
        envelope=envelope,
        envelope_margin=margin,
        cert=cert,
    )


def _envelope_initial(kind: str, e0: np.ndarray, edot0: np.ndarray, ustar) -> float:
    e = float(np.linalg.norm(e0))
    if kind == PI:
        return e + float(np.linalg.norm(ustar))
    total = e + float(np.linalg.norm(edot0))
    if kind == PID:
        total += float(np.linalg.norm(ustar))
    return total


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


def envelope_audit(
    traj: Trajectory,
    atol_envelope: Optional[float] = None,
) -> AuditReport:
    """Check the recorded envelope margin at every sample time.

    Any sample more than ``atol_envelope`` below the envelope fails the
    audit; the default tolerance is 1e-7 of the initial envelope value.
    """
    if traj.envelope_margin is None:
        raise UsageError("trajectory has no envelope margins to audit")
    if atol_envelope is None:
        atol_envelope = 1e-7 * traj.initial_envelope_value()
    margin = traj.envelope_margin
    violations = np.nonzero(margin < -atol_envelope)[0]
    first_violation = float(traj.times[violations[0]]) if violations.size else None
    return AuditReport(
        passes=violations.size == 0,
        min_margin=float(np.min(margin)),
        first_violation_time=first_violation,
        atol_envelope=float(atol_envelope),
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
