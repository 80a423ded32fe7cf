"""Solve f(y*, 0, u) = 0 for the unique equilibrium input u*.

For plants in the admissible class the map u -> f(y*, 0, u) is strongly
monotone (inner product grows at least like b_lower * |u1 - u2|^2), so the
root exists, is unique, and damped Newton converges from anywhere.  When a
Newton step is rejected the solver falls back to the monotone fixed-point
step u <- u - eta * Phi(u); scalar plants additionally get a bracketing
bisection fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matrix_kernel as mk
from .errors import NumericalError, UsageError
from .gain_sets import SECOND_ORDER
from .plant_models import PlantModel


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


def solve_equilibrium(
    p: PlantModel,
    y_star,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    u0=None,
) -> EquilibriumSolution:
    """Damped Newton on Phi(u) = f(y*, 0, u) with residual-decrease acceptance."""
    y = np.atleast_1d(np.asarray(y_star, dtype=float)).reshape(p.n)
    phi, jac = _phi_and_jac(p, y)
    u = np.zeros(p.n) if u0 is None else np.atleast_1d(np.asarray(u0, dtype=float)).reshape(p.n)
    b = p.declared_bounds.b_lower
    r = phi(u)
    rn = float(np.linalg.norm(r))
    for it in range(max_iter):
        if rn <= tol:
            return EquilibriumSolution(u_star=u, residual_norm=rn, iterations=it, y_star=y)
        J = jac(u)
        step = None
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step = None
        accepted = False
        if step is not None and np.all(np.isfinite(step)):
            t = 1.0
            while t >= 1e-12:
                cand = u + t * step
                rc = phi(cand)
                rcn = float(np.linalg.norm(rc))
                if rcn < rn:
                    u, r, rn = cand, rc, rcn
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            if p.n == 1:
                return _bisect_scalar(phi, y, tol, start=u)
            # monotone fixed-point step: contraction for strongly monotone Phi
            jn = mk.operator_norm(jac(u))
            eta = b / (jn * jn + b * b)
            cand = u - eta * r
            rc = phi(cand)
            rcn = float(np.linalg.norm(rc))
            if not rcn < rn:
                raise NumericalError(
                    f"equilibrium solve stalled at residual {rn:.3e}; "
                    "plant may violate its declared class bounds"
                )
            u, r, rn = cand, rc, rcn
    raise NumericalError(
        f"equilibrium solve exceeded {max_iter} iterations (residual {rn:.3e})"
    )


def _bisect_scalar(phi, y, tol, start) -> EquilibriumSolution:
    """Expand a bracket around a sign change, then refine with brentq.

    Phi is strictly increasing in u for scalar in-class plants, so a bracket
    always exists.
    """
    # deferred: scipy is needed only for scalar plants
    from scipy.optimize import brentq

    scalar = lambda v: float(phi(np.array([v]))[0])
    u0 = float(start[0])
    span = 1.0
    lo, hi = u0 - span, u0 + span
    for _ in range(200):
        if scalar(lo) <= 0.0 <= scalar(hi):
            break
        span *= 2.0
        lo, hi = u0 - span, u0 + span
    else:
        raise NumericalError("could not bracket the scalar equilibrium input")
    root = brentq(scalar, lo, hi, xtol=1e-15, rtol=8.881784197001252e-16, maxiter=300)
    # polish with bisection until the residual itself is below tol
    u = np.array([root])
    rn = abs(scalar(root))
    if rn > tol:
        raise NumericalError(f"bisection reached residual {rn:.3e} > tol {tol:.3e}")
    return EquilibriumSolution(u_star=u, residual_norm=rn, iterations=0, y_star=y)


def monotonicity_probe(
    p: PlantModel,
    y_star,
    pairs: int = 100,
    box_radius: float = 10.0,
    seed: int = 0,
) -> float:
    """Smallest sampled ratio <u1-u2, Phi(u1)-Phi(u2)> / |u1-u2|^2.

    For in-class plants the ratio is bounded below by b_lower: the skew part
    of the control Jacobian contributes nothing to the inner product.
    """
    if pairs < 1:
        raise UsageError("pairs must be >= 1")
    y = np.atleast_1d(np.asarray(y_star, dtype=float)).reshape(p.n)
    phi, _ = _phi_and_jac(p, y)
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(pairs):
        u1 = rng.uniform(-box_radius, box_radius, size=p.n)
        u2 = rng.uniform(-box_radius, box_radius, size=p.n)
        d = u1 - u2
        dn2 = float(d @ d)
        if dn2 < 1e-20:
            continue
        ratio = float(d @ (phi(u1) - phi(u2))) / dn2
        worst = min(worst, ratio)
    return worst
