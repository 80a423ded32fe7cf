"""Planar analysis of scalar PI loops: a proven global-stability verdict,
and the counterexamples showing the relaxed gain region is necessary.

For a scalar first-order plant under PI control the shifted closed loop is a
planar field G(z0, z1) = (z1, g(z1, ki*z0 + kp*z1)), g(x, u) = -f(y* - x,
u + u*).  For a plant inside its declared bounds (|f_x| <= L, f_u >= b), the
Jacobian [[0, 1], [-ki f_u, f_x - kp f_u]] of G has on the whole plane

    trace = f_x - kp f_u <= L - kp b,    det = ki f_u >= ki b,

so for gains in the relaxed region (kp b > L, ki > 0) the origin is globally
asymptotically stable by the two-dimensional Markus-Yamabe theorem (Fessler
1995; Gutiérrez 1995).  Outside that region, the linear member f = L x + b u
attains both bounds and has an eigenvalue with nonnegative real part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .equilibrium import solve_equilibrium
from .errors import UsageError
from .gain_sets import FIRST_ORDER, PI, GainVector, UncertaintyBounds, pi_relaxed_membership
from .plant_models import _AUDIT_BLOCK, PlantModel, ValidationReport, audit_class, build_family
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


@dataclass
class ConditionReport:
    """The proven verdict on a planar PI loop and the grid audit behind it.

    ``sufficiency`` holds when every ``relaxed_margins`` entry is positive,
    so ``trace_bound`` < 0 < ``det_bound``, and the plant keeps its declared
    bounds at the grid points (``audit``, its extreme points as (x, u)).
    ``linear_member`` refutes gains outside the relaxed region.
    """

    sufficiency: bool
    trace_bound: float
    det_bound: float
    relaxed_margins: dict
    audit: ValidationReport
    linear_member: Optional[dict]


@dataclass
class CounterexampleReport:
    case: str
    y_star: float
    e_inf_analytic: Optional[float]
    e_inf_observed: Optional[float]
    max_re_eigenvalue: Optional[float]
    nonconvergent: bool


def _linear_max_re(gains: GainVector, ub: UncertaintyBounds) -> float:
    """Largest real part of the closed-loop eigenvalues of ``gains`` on the
    linear member a = L, theta = b of the class ``ub``: the eigenvalues of its
    companion matrix [[0, 1], [-ki b, -kp b + L]]."""
    L, b = float(ub.L), float(ub.b_lower)
    A = np.array([[0.0, 1.0], [-gains.ki * b, -gains.kp * b + L]])
    return float(np.max(np.real(np.linalg.eigvals(A))))


def jacobian_conditions(
    field: PlanarField,
    radius: float = 20.0,
    points: int = 41,
) -> ConditionReport:
    """The proven verdict on ``field``, with its plant's declared bounds
    audited by ``audit_class`` at the plant arguments x = y* - z1,
    u = ki*z0 + kp*z1 + u* of every point (z0, z1) of a ``points`` x
    ``points`` grid on [-radius, radius]^2, fed to the audit in blocks of
    at most ``_AUDIT_BLOCK`` points.  The grid only audits: the verdict is
    the same on every grid the plant passes."""
    if points < 2:
        raise UsageError("grid needs at least 2 points per axis")
    if not radius > 0:
        raise UsageError("grid radius must be > 0")
    g = field.gains
    ub = field.plant.declared_bounds
    relaxed = pi_relaxed_membership(g, ub)
    axis = np.linspace(-radius, radius, points)

    def blocks():
        for start in range(0, points * points, _AUDIT_BLOCK):
            k = np.arange(start, min(start + _AUDIT_BLOCK, points * points))
            z0, z1 = axis[k // points], axis[k % points]  # z0-major order
            yield (field.y_star - z1)[:, None], (g.ki * z0 + g.kp * z1 + field.u_star)[:, None]

    audit = audit_class(field.plant, blocks())
    return ConditionReport(
        sufficiency=bool(relaxed.member and audit.passes),
        trace_bound=float(ub.L - g.kp * ub.b_lower),
        det_bound=float(g.ki * ub.b_lower),
        relaxed_margins=dict(relaxed.margins),
        audit=audit,
        linear_member=None if relaxed.member else {
            "a": ub.L, "theta": ub.b_lower, "max_re_eigenvalue": _linear_max_re(g, ub)
        },
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
    simulated error does not decay over a run of 20 time units, started at
    x = y* + 1 with the integral at its equilibrium u*/ki; the error
    dynamics of the linear member do not depend on y*.
    """
    if ub.order != FIRST_ORDER:
        raise UsageError("necessity cases use first-order bounds")
    if gains.kind != PI:
        raise UsageError("necessity cases use PI gains")
    L, b = ub.L, ub.b_lower
    plant = build_family("linear_matrix", {"order": FIRST_ORDER, "A": [[L]], "Theta": [[b]]})

    def run(x0, t_final: float, at_equilibrium: bool = False):
        """The linear member's loop from x0, with the integral at u*/ki when
        ``at_equilibrium``, solved once SimConfig has checked y*."""
        cfg = SimConfig(plant=plant, gains=gains, y_star=y_star, x0=x0, t_final=t_final)
        if at_equilibrium:
            ustar = solve_equilibrium(plant, cfg.y_star).u_star
            cfg = replace(cfg, integral_state0=ustar / gains.ki)
        return simulate(cfg)

    if case == "ki_zero":
        if gains.ki != 0.0:
            raise UsageError("ki_zero case requires ki == 0")
        if y_star == 0.0:
            raise UsageError("ki_zero case requires a nonzero setpoint")
        if L - b * gains.kp >= 0:
            raise UsageError("ki_zero case expects a stable proportional loop (kp*b > L)")
        e_obs = float(run(0.0, 40.0 / (b * gains.kp - L)).errors[-1, 0])
        e_inf = L * y_star / (L - b * gains.kp)
        return CounterexampleReport(
            case=case,
            y_star=float(y_star),
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
        max_re = _linear_max_re(gains, ub)
        traj = run(y_star + 1.0, 20.0, at_equilibrium=True)
        e_abs = np.abs(traj.errors[:, 0])
        third = traj.times[-1] / 3.0
        head = float(np.max(e_abs[traj.times <= third]))
        tail = float(np.max(e_abs[traj.times >= 2.0 * third]))
        return CounterexampleReport(
            case=case,
            y_star=float(y_star),
            e_inf_analytic=None,
            e_inf_observed=None,
            max_re_eigenvalue=max_re,
            nonconvergent=bool(max_re >= -1e-12 and tail >= 0.8 * head),
        )

    raise UsageError(f"unknown necessity case {case!r}")
