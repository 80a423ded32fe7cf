"""Test oracles: the paper's closed-form margins, a random frozen point of the
uncertainty ball, a sampled monotonicity ratio, the equilibrium solve from
another start, the planar PI field's Jacobian trace and determinant point by
point, and the certificate path built one matrix at a time.

pidcert's certificates use the sandwich margin, its equilibrium solve uses
Newton and its planar verdict uses two analytic bounds; these helpers state
the paper's own formulas and the class property behind them, so tests can
check the package against them.  ``reference_certificate`` and
``reference_q_report`` build every matrix of a certificate and of a
frozen-point audit plainly: a 2-D companion per theta, the general
companion at n = 1, corner offsets written into zeros, ``np.outer`` and a
fresh Kronecker lift.  They call the same LAPACK routines as the package,
so the package's numbers must equal theirs bit for bit.
"""

import dataclasses
import itertools
import math

import numpy as np

from pidcert.certificates import FrozenUncertainty
from pidcert.equilibrium import solve_equilibrium
from pidcert.errors import UsageError
from pidcert.gain_sets import FIRST_ORDER, LAYOUT, PD, PI, PID, SECOND_ORDER, coupling_term


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


def solve_from(p, y_star, u0):
    """u* as ``solve_equilibrium`` finds it when Newton starts at ``u0``
    instead of 0: the solve of the plant with its input shifted by u0, whose
    iterates are the plant's own from u0 less u0, with u0 added back.  Its
    stopping tolerance is relative to |f(y*, 0, u0)| rather than to
    |f(y*, 0, 0)|."""
    u0 = np.asarray(u0, dtype=float)
    shifted = dataclasses.replace(
        p,
        f=lambda *args: p.f(*args[:-1], args[-1] + u0),
        jac_u=lambda *args: p.jac_u(*args[:-1], args[-1] + u0),
    )
    return solve_equilibrium(shifted, y_star).u_star + u0


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


def _reference_core(g, ub):
    """The closed-form core of P, the same products as the package's."""
    kp, ki, kd, b = float(g.kp), float(g.ki), float(g.kd), float(ub.b_lower)
    if g.kind == PID:
        return np.array(
            [
                [2 * ki * kp * b, 2 * ki * kd * b, ki],
                [2 * ki * kd * b, 2 * kp * kd * b - ki, kp],
                [ki, kp, kd],
            ]
        )
    if g.kind == PD:
        return np.array([[2 * kp * kd * b, kp], [kp, kd]])
    return np.array([[2 * kp * ki * b, ki], [ki, kp]])


def _reference_companion(kind, g, theta, a=None, b=None):
    """One 2-D block companion matrix, block by block."""
    gain = {"i": g.ki, "x": g.kp, "v": g.kd}
    blocks = list(LAYOUT[kind])
    n, m = theta.shape[0], len(blocks)
    A = np.zeros((m * n, m * n))
    A[:-n, n:] = np.eye((m - 1) * n)
    for j, name in enumerate(blocks):
        block = A[-n:, j * n : (j + 1) * n]
        np.multiply(-gain[name], theta, out=block)
        extra = a if name == "x" else b if name == "v" else None
        if extra is not None:
            block += extra
    return A


def _reference_lift(core, n):
    m = core.shape[0]
    return (core[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(m * n, m * n)


def _reference_sandwich(kind, core, g, ub):
    """(lower, upper) of the sandwich margin, one temporary at a time."""
    core_A0 = core @ _reference_companion(kind, g, np.array([[float(ub.b_lower)]]))
    C = -(core_A0 + core_A0.T)
    u = core[:, -1]
    bound_of = {"x": float(ub.L1), "v": float(ub.L2)}
    channels = [(j, bound_of[s]) for j, s in enumerate(LAYOUT[kind]) if bound_of.get(s, 0.0) > 0]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(channels))))
    v = np.zeros((signs.shape[0], u.size))
    v[:, [j for j, _ in channels]] = signs * [L for _, L in channels]
    uv = u[None, :, None] * v[:, None, :]
    lam, vec = np.linalg.eigh(C - uv - uv.transpose(0, 2, 1))
    worst = int(np.argmin(lam[:, 0]))
    upper = float(lam[worst, 0])
    x = vec[worst, :, 0].tolist()
    ux = abs(float(u @ vec[worst, :, 0]))
    bound = C.copy()
    tau_sum = 0.0
    for j, L in channels:
        tau = L * abs(x[j]) / ux if ux > 0.0 else 0.0
        if not (tau > 0.0 and math.isfinite(tau) and math.isfinite(L * L / tau)):
            tau = L / float(np.linalg.norm(u))
        bound[j, j] -= L * L / tau
        tau_sum += tau
    bound -= tau_sum * np.outer(u, u)
    return float(np.linalg.eigvalsh(bound)[0]), upper


def reference_certificate(kind, g, ub, n):
    """The numbers of ``certify_margin(kind, g, ub, n)`` as a dict: P, the
    sandwich bounds, alpha, the extreme eigenvalues of P and the envelope
    (M, lambda).  Only where the proof closes: a positive definite core
    and alpha > 0, inside the paper's region or not."""
    core = _reference_core(g, ub)
    lam_p = np.linalg.eigvalsh(core)
    lam_min_p, lam_max_p = float(lam_p[0]), float(lam_p[-1])
    if not lam_min_p > 0:
        raise UsageError(f"the {kind} core of {g} is not positive definite")
    lower, upper = _reference_sandwich(kind, core, g, ub)
    alpha = min(lower, upper)
    if not alpha > 0:
        raise UsageError(f"the margin of {g} for {ub} is not positive")
    # the envelope's overshoot gain, written out per kind
    if kind == PID:
        m1 = math.sqrt(2.0 * lam_max_p / lam_min_p)  # sqrt(2 kappa) max(1, 1/ki)
        M = max(m1, m1 / g.ki)
    elif kind == PD:
        M = math.sqrt(2.0 * lam_max_p / lam_min_p)  # sqrt(2 kappa)
    else:
        m1 = math.sqrt(lam_max_p / lam_min_p)  # sqrt(kappa) max(1, 1/ki)
        M = max(m1, m1 / g.ki)
    return {
        "P": _reference_lift(core, n),
        "alpha": alpha,
        "alpha_lower": lower,
        "alpha_upper": upper,
        "lambda_min_P": lam_min_p,
        "lambda_max_P": lam_max_p,
        "M": float(M),
        "lambda": alpha / (2.0 * lam_max_p),
    }


def reference_q_report(kind, g, ub, fu, n):
    """(Q, Q0, lambda_min(Q), lambda_min(Q0)) of ``q_report``: A and its
    floor A0 built as two companions, Q = symmetrize(-(P A + A^T P)) with
    symmetrize's arithmetic, and one stacked solve over [Q - Q0, Q, Q0]."""
    P = _reference_lift(_reference_core(g, ub), n)
    A = _reference_companion(kind, g, fu.theta, fu.a, fu.b)
    A0 = _reference_companion(kind, g, ub.b_lower * np.eye(n), fu.a, fu.b)
    sym = []
    for M in (A, A0):
        T = -(P @ M + M.T @ P)
        sym.append((T + T.T) / 2.0)
    Q, Q0 = sym
    lam = np.linalg.eigvalsh(np.array((Q - Q0, Q, Q0)))[:, 0]
    return Q, Q0, float(lam[1]), float(lam[2])
