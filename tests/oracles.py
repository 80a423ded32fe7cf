"""Test oracles: the paper's closed-form margins, a random frozen point of the
uncertainty ball, a sampled monotonicity ratio, and the planar PI field's
Jacobian trace and determinant point by point.

pidcert's certificates use the sandwich margin, its equilibrium solve uses
Newton and its planar verdict uses two analytic bounds; these helpers state
the paper's own formulas and the class property behind them, so tests can
check the package against them.
"""

import numpy as np

from pidcert.certificates import FrozenUncertainty
from pidcert.errors import UsageError
from pidcert.gain_sets import FIRST_ORDER, PD, PI, SECOND_ORDER, coupling_term


def sample_frozen_uncertainty(ub, n, rng):
    """Random interior point of the uncertainty ball."""

    def ball(L):
        direction = rng.standard_normal((n, n))
        nrm = np.linalg.norm(direction, 2)
        return direction * (L * rng.random() / nrm) if nrm > 0 else np.zeros((n, n))

    a = ball(ub.L1)
    b = None if ub.order == FIRST_ORDER else ball(ub.L2)
    # Sym[theta] >= b_lower*I: PSD bump plus a skew part
    w = rng.standard_normal((n, n))
    psd = w @ w.T * (0.5 / n)
    skew = rng.standard_normal((n, n))
    skew = (skew - skew.T) / 2.0
    theta = ub.b_lower * np.eye(n) + psd + skew
    return FrozenUncertainty.checked(ub, a=a, theta=theta, b=b)


def pi_closed_form_margin(g, ub):
    """The paper's PI margin gamma: lambda_min of the worst-case 2x2 block at a = L."""
    if g.kind != PI:
        raise UsageError(f"the closed-form gamma margin is for PI gains, got {g.kind}")
    kp, ki = float(g.kp), float(g.ki)
    L, b_ = float(ub.L), float(ub.b_lower)
    q1 = np.array(
        [
            [2 * ki**2 * b_, -ki * L],
            [-ki * L, 2 * (kp**2 * b_ - kp * L - ki)],
        ]
    )
    return float(np.linalg.eigvalsh(q1)[0])


def pd_closed_form_margin(g, ub):
    """The paper's PD margin beta = 2 min((kp^2 - kbar) b, kd^2 b - kp - kbar b).

    Sound but loose: it bounds each cross term by its norm separately.
    """
    if g.kind != PD:
        raise UsageError(f"the closed-form beta margin is for PD gains, got {g.kind}")
    kp, kd, b_ = float(g.kp), float(g.kd), float(ub.b_lower)
    kbar = coupling_term(kp, kd, ub)
    return 2.0 * min((kp**2 - kbar) * b_, kd**2 * b_ - kp - kbar * b_)


def monotonicity_probe(p, y_star, pairs=100, box_radius=10.0, seed=0):
    """Smallest sampled ratio <u1-u2, Phi(u1)-Phi(u2)> / |u1-u2|^2 with
    Phi(u) = f(y*, 0, u).

    For in-class plants the ratio is bounded below by b_lower: the skew part
    of the control Jacobian contributes nothing to the inner product.
    """
    if pairs < 1:
        raise UsageError("pairs must be >= 1")
    y = np.atleast_1d(np.asarray(y_star, dtype=float)).reshape(p.n)
    zero = np.zeros(p.n)
    if p.order == SECOND_ORDER:
        phi = lambda u: p.eval_checked(y, zero, u)
    else:
        phi = lambda u: p.eval_checked(y, u)
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


def planar_trace_det(field, radius=20.0, points=41):
    """Trace and determinant of the planar PI field's Jacobian
    [[0, 1], [ki g_u, g_x + kp g_u]] at each point of the square grid, one
    point at a time (z0 outer, z1 inner): a list of ((z0, z1), trace, det).

    g(x, u) = -f(y* - x, u + u*), so g_x = f_x and g_u = -f_u at the plant
    arguments x = y* - z1, u = ki z0 + kp z1 + u*.
    """
    kp, ki = field.gains.kp, field.gains.ki
    out = []
    for z0 in np.linspace(-radius, radius, points):
        for z1 in np.linspace(-radius, radius, points):
            x = np.array([field.y_star - z1])
            u = np.array([ki * z0 + kp * z1 + field.u_star])
            gx = float(field.plant.jac_x1(x, u)[0, 0])
            gu = -float(field.plant.jac_u(x, u)[0, 0])
            jac = np.array([[0.0, 1.0], [ki * gu, gx + kp * gu]])
            trace = jac[0, 0] + jac[1, 1]
            det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
            out.append(((z0, z1), trace, det))
    return out
