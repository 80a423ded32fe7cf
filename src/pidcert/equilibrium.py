"""Solve f(y*, 0, u) = 0 for the unique equilibrium input u*.

For plants in the admissible class the map Phi(u) = f(y*, 0, u) is strongly
monotone (inner product grows at least like b_lower * |u1 - u2|^2), so the
root exists and is unique.  The solver is damped Newton with
residual-decrease acceptance.  For any nonsingular Jacobian J the step
s = -J^-1 Phi(u) descends, d/dt |Phi(u + t s)|^2 = -2 |Phi(u)|^2 at t = 0,
and in-class plants have Sym J >= b_lower > 0, so backtracking fails only at
roundoff.  A rejected step, a singular J included, raises NumericalError: the
plant may violate its declared class bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, as_vector
from .gain_sets import SECOND_ORDER
from .plant_models import PlantModel

# Newton stops once |Phi(u)| <= max(TOL, ROUNDOFF * eps * |Phi(0)|), and
# gives up after MAX_ITER steps.  f(y*, 0, u) is rounded to about eps times
# its terms, which grow with |Phi(0)| = |f(y*, 0, 0)|: at large setpoints an
# absolute TOL is below the roundoff and cannot be reached.
TOL = 1e-10
ROUNDOFF = 100
MAX_ITER = 10_000


@dataclass
class EquilibriumSolution:
    u_star: np.ndarray
    residual_norm: float
    iterations: int
    y_star: np.ndarray


def _phi_and_jac(p: PlantModel, y_star: np.ndarray):
    zero = np.zeros(p.n)
    if p.order == SECOND_ORDER:
        phi = lambda u: p.eval_checked(y_star, zero, u)
        jac = lambda u: np.asarray(p.jac_u(y_star, zero, u), dtype=float)
    else:
        phi = lambda u: p.eval_checked(y_star, u)
        jac = lambda u: np.asarray(p.jac_u(y_star, u), dtype=float)
    return phi, jac


def _stalled(rn: float) -> NumericalError:
    return NumericalError(
        f"equilibrium solve stalled at residual {rn:.3e}; "
        "plant may violate its declared class bounds"
    )


def solve_equilibrium(p: PlantModel, y_star) -> EquilibriumSolution:
    """Damped Newton on Phi(u) = f(y*, 0, u) from u = 0 with residual-decrease
    acceptance, stopped at the tolerance relative to |Phi(0)| above.  A
    setpoint that is not n finite numbers is a UsageError naming y_star."""
    y = as_vector(y_star, p.n, "y_star")
    phi, jac = _phi_and_jac(p, y)
    u = np.zeros(p.n)
    r = phi(u)
    rn = float(np.linalg.norm(r))
    tol = max(TOL, ROUNDOFF * np.finfo(float).eps * rn)
    for it in range(MAX_ITER):
        if rn <= tol:
            return EquilibriumSolution(u_star=u, residual_norm=rn, iterations=it, y_star=y)
        try:
            step = np.linalg.solve(jac(u), -r)
        except np.linalg.LinAlgError:
            raise _stalled(rn) from None
        t = 1.0 if np.all(np.isfinite(step)) else 0.0  # a non-finite step is rejected
        while t >= 1e-12:
            cand = u + t * step
            rc = phi(cand)
            rcn = float(np.linalg.norm(rc))
            if rcn < rn:
                break
            t *= 0.5
        else:
            raise _stalled(rn)
        u, r, rn = cand, rc, rcn
    raise NumericalError(
        f"equilibrium solve exceeded {MAX_ITER} iterations (residual {rn:.3e})"
    )
