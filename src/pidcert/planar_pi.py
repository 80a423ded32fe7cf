"""Planar analysis of scalar PI loops: global-stability Jacobian conditions
and the counterexamples showing the relaxed gain region is necessary.

For a scalar first-order plant under PI control the shifted closed loop is a
planar vector field G(z0, z1) = (z1, g(z1, ki*z0 + kp*z1)) with
g(x, u) = -f(y* - x, u + u*).  If the Jacobian of G has everywhere-negative
trace and everywhere-positive determinant, its eigenvalues stay in the open
left half plane globally and the origin is globally asymptotically stable.
Outside the relaxed region, explicit linear plants defeat regulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import PlantError, UsageError
from .gain_sets import FIRST_ORDER, PI, GainVector, UncertaintyBounds, pi_relaxed_membership
from .plant_models import PlantModel, build_family
from .simulator import SimConfig, simulate


@dataclass
class PlanarField:
    """Shifted planar closed-loop field for a scalar first-order plant."""

    plant: PlantModel
    gains: GainVector
    y_star: float
    u_star: float

    @staticmethod
    def build(plant: PlantModel, gains: GainVector, y_star: float) -> "PlanarField":
        if plant.order != FIRST_ORDER or plant.n != 1:
            raise UsageError("planar analysis needs a scalar first-order plant")
        if gains.kind != PI:
            raise UsageError("planar analysis needs PI gains")
        ustar = solve_equilibrium(plant, [y_star]).u_star[0]
        return PlanarField(plant=plant, gains=gains, y_star=float(y_star), u_star=float(ustar))

    def _plant_args(self, x: float, u: float):
        return (
            np.array([self.y_star - x]),
            np.array([u + self.u_star]),
        )

    def g_value(self, x: float, u: float) -> float:
        xa, ua = self._plant_args(x, u)
        return -float(self.plant.eval_checked(xa, ua)[0])

    def value(self, z0: float, z1: float) -> tuple[float, float]:
        u = self.gains.ki * z0 + self.gains.kp * z1
        return z1, self.g_value(z1, u)

    def jacobian(self, z0: np.ndarray, z1: np.ndarray) -> np.ndarray:
        """Field Jacobians [[0, 1], [ki*g_u, g_x + kp*g_u]] at the points
        (z0[k], z1[k]) of two equal-shape arrays: shape z0.shape + (2, 2),
        from one call of ``jac_x1`` and one of ``jac_u``."""
        z0, z1 = np.asarray(z0, dtype=float), np.asarray(z1, dtype=float)
        u = self.gains.ki * z0 + self.gains.kp * z1
        xa = (self.y_star - z1)[..., None]
        ua = (u + self.u_star)[..., None]
        gx = np.asarray(self.plant.jac_x1(xa, ua), dtype=float)[..., 0, 0]
        gu = -np.asarray(self.plant.jac_u(xa, ua), dtype=float)[..., 0, 0]
        jac = np.empty(z0.shape + (2, 2))
        jac[..., 0, 0] = 0.0
        jac[..., 0, 1] = 1.0
        jac[..., 1, 0] = self.gains.ki * gu
        jac[..., 1, 1] = gx + self.gains.kp * gu
        return jac


@dataclass
class ConditionReport:
    """Grid extremes of the field Jacobian's trace and determinant; each
    ``*_point`` is the first grid point (z0, z1) that attains its extreme."""

    max_trace: float
    min_det: float
    sufficiency: bool
    analytic_trace_bound: float
    grid_points: int
    max_trace_point: tuple[float, float]
    min_det_point: tuple[float, float]


@dataclass
class CounterexampleReport:
    case: str
    e_inf_analytic: Optional[float]
    e_inf_observed: Optional[float]
    max_re_eigenvalue: Optional[float]
    nonconvergent: bool


def jacobian_conditions(
    field: PlanarField,
    radius: float = 20.0,
    points: int = 41,
) -> ConditionReport:
    """Sample trace/determinant of the field Jacobian over a square grid.

    The grid is an audit; the globally valid statement is the analytic trace
    bound L - kp*b, which the sampled maximum must respect (a violation means
    the plant breaks its declared derivative bounds).  All grid points are
    evaluated in one vectorised pass; a non-finite Jacobian is a PlantError
    naming its first grid point.
    """
    if points < 2:
        raise UsageError("grid needs at least 2 points per axis")
    g = field.gains
    ub = field.plant.declared_bounds
    bound = ub.L - g.kp * ub.b_lower
    axis = np.linspace(-radius, radius, points)
    z0, z1 = np.repeat(axis, points), np.tile(axis, points)  # z0-major order
    jac = field.jacobian(z0, z1)

    def at(k) -> tuple[float, float]:
        return float(z0[k]), float(z1[k])

    bad = ~np.isfinite(jac).all(axis=(1, 2))
    if bad.any():
        raise PlantError(f"field Jacobian is not finite at (z0, z1) = {at(np.argmax(bad))}")
    trace = jac[:, 0, 0] + jac[:, 1, 1]
    det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
    kt, kd = int(np.argmax(trace)), int(np.argmin(det))
    max_trace, min_det = float(trace[kt]), float(det[kd])
    if max_trace > bound + 1e-8:
        raise PlantError(
            f"sampled trace {max_trace:.6g} exceeds the analytic bound {bound:.6g} "
            f"at (z0, z1) = {at(kt)}; "
            "plant violates its declared derivative bounds"
        )
    return ConditionReport(
        max_trace=max_trace,
        min_det=min_det,
        sufficiency=bool(max_trace < 0.0 and min_det > 0.0),
        analytic_trace_bound=float(bound),
        grid_points=points * points,
        max_trace_point=at(kt),
        min_det_point=at(kd),
    )


def _linear_first_order(ub: UncertaintyBounds) -> PlantModel:
    return build_family(
        "linear_matrix",
        {"order": FIRST_ORDER, "A": [[ub.L]], "Theta": [[ub.b_lower]]},
    )


def necessity_counterexample(
    case: str,
    ub: UncertaintyBounds,
    gains: GainVector,
    y_star: float,
) -> CounterexampleReport:
    """Exhibit failure of regulation for gains outside the relaxed PI region.

    ``ki_zero``: pure proportional control on the linear extreme plant leaves
    the steady-state offset e_inf = L*y*/(L - b*kp) (nonzero when y* != 0);
    the run lasts 40 time constants 1/(b*kp - L).
    ``unstable_linear``: with ki != 0 but gains outside the region, the linear
    closed-loop matrix has an eigenvalue with nonnegative real part and the
    simulated error does not decay over a run of 20 time units.
    """
    if ub.order != FIRST_ORDER:
        raise UsageError("necessity cases use first-order bounds")
    if gains.kind != PI:
        raise UsageError("necessity cases use PI gains")
    L, b = ub.L, ub.b_lower
    plant = _linear_first_order(ub)

    if case == "ki_zero":
        if gains.ki != 0.0:
            raise UsageError("ki_zero case requires ki == 0")
        if y_star == 0.0:
            raise UsageError("ki_zero case requires a nonzero setpoint")
        if L - b * gains.kp >= 0:
            raise UsageError("ki_zero case expects a stable proportional loop (kp*b > L)")
        e_inf = L * y_star / (L - b * gains.kp)
        cfg = SimConfig(
            plant=plant,
            gains=gains,
            y_star=np.array([y_star]),
            x0=np.zeros(1),
            t_final=40.0 / (b * gains.kp - L),
        )
        traj = simulate(cfg)
        e_obs = float(traj.errors[-1, 0])
        return CounterexampleReport(
            case=case,
            e_inf_analytic=float(e_inf),
            e_inf_observed=e_obs,
            max_re_eigenvalue=None,
            nonconvergent=bool(abs(e_inf) > 1e-9 and abs(e_obs - e_inf) < 1e-4),
        )

    if case == "unstable_linear":
        if gains.ki == 0.0:
            raise UsageError("unstable_linear case requires ki != 0")
        if pi_relaxed_membership(gains, ub).member:
            raise UsageError("unstable_linear case requires gains outside the region")
        closed = np.array([[0.0, 1.0], [-gains.ki * b, L - gains.kp * b]])
        max_re = float(np.max(np.real(np.linalg.eigvals(closed))))
        cfg = SimConfig(
            plant=plant,
            gains=gains,
            y_star=np.zeros(1),
            x0=np.ones(1),
            t_final=20.0,
        )
        traj = simulate(cfg)
        e_abs = np.abs(traj.errors[:, 0])
        third = traj.times[-1] / 3.0
        head = float(np.max(e_abs[traj.times <= third]))
        tail = float(np.max(e_abs[traj.times >= 2.0 * third]))
        return CounterexampleReport(
            case=case,
            e_inf_analytic=None,
            e_inf_observed=None,
            max_re_eigenvalue=max_re,
            nonconvergent=bool(max_re >= -1e-12 and tail >= 0.8 * head),
        )

    raise UsageError(f"unknown necessity case {case!r}")
