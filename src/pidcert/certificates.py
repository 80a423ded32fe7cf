"""Structured Lyapunov matrices, decrease certificates, and envelope constants.

For gains inside the PID/PD/PI regions this module builds the closed-form
block matrix P (positive definite by construction), assembles the frozen
closed-loop matrix A(a, b, theta), forms Q = -(PA + A^T P), and certifies a
uniform lower bound alpha on lambda_min(Q) over the whole uncertainty ball

    |a| <= L1,  |b| <= L2,  Sym[theta] >= b_lower * I.

All three kinds share one margin path, a sandwich on a 2x2 or 3x3 core that
does not depend on n.  The upper bound is the smallest eigenvalue over the
corners a = +-L1 I, b = +-L2 I, which lie in the ball.  The lower bound is an
S-procedure bound that holds for every n.  alpha is the lower of the two;
the certificate records both and their gap, and its method reads ``exact``
when they agree to 1e-9 relative and ``lower_bound`` otherwise.  The paper's
closed-form PI and PD margins are kept as named functions.  From (P, alpha)
we get the trajectory envelope constants: decay rate
lambda = alpha/(2 lambda_max(P)) and overshoot gain M.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import matrix_kernel as mk
from .errors import CertificateError, UsageError
from .gain_sets import (
    FIRST_ORDER,
    PD,
    PI,
    PID,
    GainVector,
    UncertaintyBounds,
    coupling_term,
    membership,
)

BOUND_SLACK = 1e-9
# relative gap between the sandwich bounds up to which alpha counts as exact
EXACT_GAP = 1e-9
# relative mismatch allowed between a stored and a recomputed certificate
RELOAD_RTOL = 1e-12


@dataclass
class FrozenUncertainty:
    """A point of the uncertainty ball: constant matrices (a, b, theta).

    ``b`` is absent for first-order (PI) plants.  Bound membership is checked
    at construction against the given class bounds.
    """

    a: np.ndarray
    theta: np.ndarray
    b: Optional[np.ndarray] = None

    @staticmethod
    def checked(ub: UncertaintyBounds, a, theta, b=None) -> "FrozenUncertainty":
        am = mk.as_square(a, "a")
        tm = mk.as_square(theta, "theta")
        if mk.operator_norm(am) > ub.L1 + BOUND_SLACK:
            raise UsageError(f"|a| = {mk.operator_norm(am):.6g} exceeds L1 = {ub.L1}")
        lam_min, _ = mk.eig_extrema(mk.symmetrize(tm))
        if lam_min < ub.b_lower - BOUND_SLACK:
            raise UsageError(
                f"lambda_min(Sym[theta]) = {lam_min:.6g} below b_lower = {ub.b_lower}"
            )
        bm = None
        if b is not None:
            bm = mk.as_square(b, "b")
            if mk.operator_norm(bm) > ub.L2 + BOUND_SLACK:
                raise UsageError(
                    f"|b| = {mk.operator_norm(bm):.6g} exceeds L2 = {ub.L2}"
                )
        elif ub.order != FIRST_ORDER:
            raise UsageError("second-order frozen uncertainty needs the b matrix")
        return FrozenUncertainty(a=am, theta=tm, b=bm)


@dataclass
class QReport:
    """Decrease-matrix audit at one frozen uncertainty point."""

    Q: np.ndarray
    Q0: np.ndarray
    lambda_min_Q: float
    lambda_min_Q0: float


@dataclass
class LyapunovCertificate:
    kind: str
    n: int
    gains: GainVector
    bounds: UncertaintyBounds
    P: np.ndarray
    alpha: float
    alpha_lower: float
    alpha_upper: float
    gap: float
    lambda_min_P: float
    lambda_max_P: float
    M: float
    lambda_decay: float
    method: str

    def to_json_dict(self) -> dict:
        g = self.gains
        ub = self.bounds
        return {
            "kind": self.kind,
            "n": self.n,
            "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd},
            "bounds": {
                "L1": ub.L1,
                "L2": ub.L2,
                "b_lower": ub.b_lower,
                "order": ub.order,
            },
            "alpha": self.alpha,
            "alpha_lower": self.alpha_lower,
            "alpha_upper": self.alpha_upper,
            "gap": self.gap,
            "lambda_min_P": self.lambda_min_P,
            "lambda_max_P": self.lambda_max_P,
            "M": self.M,
            "lambda": self.lambda_decay,
            "method": self.method,
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def from_json_dict(d: dict) -> "LyapunovCertificate":
        """Re-certify the stored gains and bounds; reject stale numbers.

        alpha, M and lambda must match the recomputed certificate to
        RELOAD_RTOL relative, so a file written by another margin method
        fails here instead of being applied.
        """
        ub = UncertaintyBounds(
            L1=d["bounds"]["L1"],
            L2=d["bounds"]["L2"],
            b_lower=d["bounds"]["b_lower"],
            order=d["bounds"]["order"],
        )
        g = GainVector(d["kind"], d["gains"]["kp"], d["gains"]["ki"], d["gains"]["kd"])
        cert = certify_margin(d["kind"], g, ub, d["n"])
        for key, fresh in (("alpha", cert.alpha), ("M", cert.M), ("lambda", cert.lambda_decay)):
            stored = float(d[key])
            if not abs(stored - fresh) <= RELOAD_RTOL * abs(fresh):
                raise CertificateError(
                    f"stored {key} = {stored!r} (method {d.get('method')!r}) does not "
                    f"match the recomputed {fresh!r} (method {cert.method!r}); re-certify"
                )
        return cert

    @staticmethod
    def load(path) -> "LyapunovCertificate":
        with open(path) as fh:
            return LyapunovCertificate.from_json_dict(json.load(fh))


def _require_member(g: GainVector, ub: UncertaintyBounds, what: str) -> None:
    report = membership(g, ub)
    if not report.member:
        raise UsageError(
            f"{what} requires gains inside the {g.kind} region; "
            f"failing slacks: {[(k, v) for k, v in report.margins if v <= 0]}"
        )


def _core_P(kind: str, g: GainVector, b: float) -> np.ndarray:
    """Core block of P; the Lyapunov matrix is its Kronecker lift core x I_n."""
    kp, ki, kd, b = float(g.kp), float(g.ki), float(g.kd), float(b)
    if kind == PID:
        return np.array(
            [
                [2 * ki * kp * b, 2 * ki * kd * b, ki],
                [2 * ki * kd * b, 2 * kp * kd * b - ki, kp],
                [ki, kp, kd],
            ]
        )
    if kind == PD:
        return np.array([[2 * kp * kd * b, kp], [kp, kd]])
    if kind == PI:
        return np.array([[2 * kp * ki * b, ki], [ki, kp]])
    raise UsageError(f"unknown certificate kind {kind!r}")


def pid_det_formula(g: GainVector, b: float) -> float:
    """Closed-form determinant of the 3x3 PID core block."""
    kp, ki, kd = g.kp, g.ki, g.kd
    return ki * (4 * kp**2 * kd**2 * b**2 + ki**2 - 2 * kp**3 * b - 4 * ki * kd**3 * b**2)


def build_P_pid(g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    """3n x 3n Lyapunov matrix for PID gains; verifies the leading-minor chain.

    The block matrix is the Kronecker lift core x I_n, so its spectrum is n
    copies of the 3x3 core spectrum.
    """
    _require_member(g, ub, "build_P_pid")
    core = _core_P(PID, g, ub.b_lower)
    m1 = core[0, 0]
    m2 = core[0, 0] * core[1, 1] - core[0, 1] ** 2
    m3 = pid_det_formula(g, ub.b_lower)
    lam_min, _ = mk.eig_extrema(core)
    if not (m1 > 0 and m2 > 0 and m3 > 0 and lam_min > 0):
        raise CertificateError(
            "leading-minor chain failed for a region member "
            f"(minors {m1:.6g}, {m2:.6g}, {m3:.6g}, lambda_min {lam_min:.6g})"
        )
    return np.kron(core, np.eye(n))


def build_P_pd(g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    """2n x 2n Lyapunov matrix for PD gains."""
    _require_member(g, ub, "build_P_pd")
    kp, kd, b = g.kp, g.kd, ub.b_lower
    # positivity reduces to kp * (2 kd^2 b - kp) > 0
    if not (2 * kp * kd * b > 0 and kp * (2 * kd**2 * b - kp) > 0):
        raise CertificateError("PD Lyapunov block failed its positivity check")
    return np.kron(_core_P(PD, g, b), np.eye(n))


def build_P_pi(g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    """2n x 2n Lyapunov matrix for PI gains."""
    _require_member(g, ub, "build_P_pi")
    kp, ki, b = g.kp, g.ki, ub.b_lower
    # positivity reduces to ki * (2 kp^2 b - ki) > 0
    if not (2 * kp * ki * b > 0 and ki * (2 * kp**2 * b - ki) > 0):
        raise CertificateError("PI Lyapunov block failed its positivity check")
    return np.kron(_core_P(PI, g, b), np.eye(n))


def build_P(kind: str, g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    if kind == PID:
        return build_P_pid(g, ub, n)
    if kind == PD:
        return build_P_pd(g, ub, n)
    if kind == PI:
        return build_P_pi(g, ub, n)
    raise UsageError(f"unknown certificate kind {kind!r}")


def assemble_A(kind: str, g: GainVector, fu: FrozenUncertainty, n: int) -> np.ndarray:
    """Companion-form frozen closed-loop matrix for the given kind.

    theta enters as given (possibly non-symmetric); only the certified bound
    substitution replaces it by b_lower * I.
    """
    I = np.eye(n)
    Z = np.zeros((n, n))
    a, theta = fu.a, fu.theta
    if a.shape != (n, n) or theta.shape != (n, n):
        raise UsageError("frozen uncertainty dimension does not match n")
    if kind == PID:
        if fu.b is None:
            raise UsageError("PID assembly needs the b matrix")
        return np.block(
            [
                [Z, I, Z],
                [Z, Z, I],
                [-g.ki * theta, a - g.kp * theta, fu.b - g.kd * theta],
            ]
        )
    if kind == PD:
        if fu.b is None:
            raise UsageError("PD assembly needs the b matrix")
        return np.block([[Z, I], [a - g.kp * theta, fu.b - g.kd * theta]])
    if kind == PI:
        return np.block([[Z, I], [-g.ki * theta, a - g.kp * theta]])
    raise UsageError(f"unknown certificate kind {kind!r}")


def _theta_floor(ub: UncertaintyBounds, n: int) -> np.ndarray:
    return ub.b_lower * np.eye(n)


def _schur_chain_matrices(g: GainVector, ub: UncertaintyBounds, fu: FrozenUncertainty):
    """Blocks of the complement chain E - B^T D^{-1} B for the PID kind."""
    kp, ki, kd = g.kp, g.ki, g.kd
    b_ = ub.b_lower
    a, bmat = fu.a, fu.b
    n = a.shape[0]
    I = np.eye(n)
    k1 = (kp**2 - 2 * ki * kd) * b_
    k2 = kd**2 * b_ - kp
    a_hat = mk.symmetrize(a)
    b_hat = mk.symmetrize(bmat)
    D1 = 2 * k1 * I - 2 * kp * a_hat - (a.T @ a) / (2 * b_)
    B1 = -(kp * bmat + kd * a.T + (a.T @ bmat) / (2 * b_))
    E1 = 2 * k2 * I - 2 * kd * b_hat - (bmat.T @ bmat) / (2 * b_)
    return mk.symmetrize(D1), B1, mk.symmetrize(E1)


def q_report(
    kind: str,
    g: GainVector,
    ub: UncertaintyBounds,
    fu: FrozenUncertainty,
    n: int,
) -> QReport:
    """Q = -(PA + A^T P) at one frozen point, plus the worst-case bound Q0.

    Q0 replaces theta by its symmetric floor b_lower * I; the gap Q - Q0 is a
    rank-one-gain Kronecker product with Sym[theta] - b_lower*I, hence PSD.
    For the PID kind the report also runs the Schur complement chain that
    proves Q0 > 0.
    """
    _require_member(g, ub, "q_report")
    P = build_P(kind, g, ub, n)
    A = assemble_A(kind, g, fu, n)
    Q = mk.symmetrize(-(P @ A + A.T @ P))
    fu0 = FrozenUncertainty(a=fu.a, theta=_theta_floor(ub, n), b=fu.b)
    A0 = assemble_A(kind, g, fu0, n)
    Q0 = mk.symmetrize(-(P @ A0 + A0.T @ P))
    gap_min, _ = mk.eig_extrema(mk.symmetrize(Q - Q0))
    if gap_min < -1e-9:
        raise CertificateError(
            f"theta-floor substitution step failed: lambda_min(Q - Q0) = {gap_min:.3e}"
        )
    lam_q, _ = mk.eig_extrema(Q)
    lam_q0, _ = mk.eig_extrema(Q0)
    if kind == PID:
        D1, B1, E1 = _schur_chain_matrices(g, ub, fu)
        if not (
            mk.is_positive_definite(D1)
            and mk.is_positive_definite(E1)
            and mk.eigen_gap_sufficient(D1, B1, E1)
        ):
            raise CertificateError(
                "Schur complement chain failed for a region member"
            )
        if lam_q0 <= 0:
            raise CertificateError(
                f"worst-case decrease block check failed: lambda_min(Q0) = {lam_q0:.3e}"
            )
    return QReport(Q=Q, Q0=Q0, lambda_min_Q=lam_q, lambda_min_Q0=lam_q0)


def sample_frozen_uncertainty(
    ub: UncertaintyBounds, n: int, rng: np.random.Generator
) -> FrozenUncertainty:
    """Random interior point of the uncertainty ball (for tests and sweeps)."""

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


# ---------------------------------------------------------------------------
# Uniform decrease margin over the uncertainty ball: the sandwich certificate.
# ---------------------------------------------------------------------------


def pi_closed_form_margin(g: GainVector, ub: UncertaintyBounds) -> float:
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


def pd_closed_form_margin(g: GainVector, ub: UncertaintyBounds) -> float:
    """The paper's PD margin beta = 2 min((kp^2 - kbar) b, kd^2 b - kp - kbar b).

    Sound but loose: it bounds each cross term by its norm separately.
    """
    if g.kind != PD:
        raise UsageError(f"the closed-form beta margin is for PD gains, got {g.kind}")
    kp, kd, b_ = float(g.kp), float(g.kd), float(ub.b_lower)
    kbar = coupling_term(kp, kd, ub)
    return 2.0 * min((kp**2 - kbar) * b_, kd**2 * b_ - kp - kbar * b_)


def _margin_core(kind: str, g: GainVector, ub: UncertaintyBounds):
    """(C, u, channels) with Q0(A, B) = kron(C, I) - 2 Sym[kron(u, I) sum_j A_j E_j].

    C is diagonal, u holds the gains and the n x mn selector E_j picks the
    state block that the uncertainty matrix A_j (A = df/dx1, B = df/dx2)
    multiplies.  ``channels`` lists (block index j, bound L_j) for every
    matrix whose bound is positive; a zero bound pins its matrix to 0, so
    its term drops out.
    """
    kp, ki, kd, b_ = float(g.kp), float(g.ki), float(g.kd), float(ub.b_lower)
    if kind == PID:
        core = [2 * ki**2 * b_, 2 * (kp**2 - 2 * ki * kd) * b_, 2 * (kd**2 * b_ - kp)]
        u, blocks = [ki, kp, kd], [(1, ub.L1), (2, ub.L2)]
    elif kind == PD:
        core = [2 * kp**2 * b_, 2 * (kd**2 * b_ - kp)]
        u, blocks = [kp, kd], [(0, ub.L1), (1, ub.L2)]
    elif kind == PI:
        core = [2 * ki**2 * b_, 2 * kp**2 * b_ - 2 * ki]
        u, blocks = [ki, kp], [(1, ub.L)]
    else:
        raise UsageError(f"unknown certificate kind {kind!r}")
    channels = [(j, float(L)) for j, L in blocks if L > 0]
    return np.diag(core), np.array(u), channels


def sandwich_margin(kind: str, g: GainVector, ub: UncertaintyBounds) -> tuple[float, float]:
    """(lower, upper) bounds on the ball minimum of lambda_min(Q0(A, B)).

    Upper: the smallest eigenvalue over the corners A_j = +-L_j I.  They lie
    in the ball, so the minimum is at most this value.

    Lower: with w = sum_i u_i z_i, each cross term obeys
    2 |w^T A_j z_j| <= tau_j |w|^2 + (L_j^2 / tau_j) |z_j|^2, hence
    Q0 >= kron(C - sum_j tau_j u u^T - sum_j (L_j^2 / tau_j) e_j e_j^T, I)
    for every n, every A_j in the ball and every tau_j > 0 (S-procedure).
    tau_j is chosen where the inequality is tight at the worst corner's
    eigenvector x; a poor choice costs tightness, never soundness.
    """
    C, u, channels = _margin_core(kind, g, ub)
    js = [j for j, _ in channels]
    # corner A_j = s_j L_j I gives the core C - (u v^T + v u^T), v = sum_j s_j L_j e_j
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=len(js))))
    v = np.zeros((signs.shape[0], u.size))
    v[:, js] = signs * [L for _, L in channels]
    uv = u[None, :, None] * v[:, None, :]
    lam, vec = np.linalg.eigh(C - uv - uv.transpose(0, 2, 1))
    worst = int(np.argmin(lam[:, 0]))
    upper = float(lam[worst, 0])
    x = vec[worst, :, 0]
    ux = abs(float(u @ x))
    bound = C.copy()
    tau_sum = 0.0
    for j, L in channels:
        tau = L * abs(float(x[j])) / ux if ux > 0.0 else 0.0
        if not (tau > 0.0 and math.isfinite(tau) and math.isfinite(L * L / tau)):
            tau = L / float(np.linalg.norm(u))  # balances the two terms at |w| = |u||z_j|
        bound[j, j] -= L * L / tau
        tau_sum += tau
    bound -= tau_sum * np.outer(u, u)
    lower = float(np.linalg.eigvalsh(bound)[0])
    return lower, upper


def certify_margin(
    kind: str, g: GainVector, ub: UncertaintyBounds, n: int
) -> LyapunovCertificate:
    """Certificate with a uniform decrease margin over the uncertainty ball.

    ``alpha`` is the smaller of the two sandwich bounds, so it is a sound
    lower bound on the ball minimum.  The certificate records both bounds
    and their relative gap; it is labelled ``exact`` when the gap is at most
    EXACT_GAP and ``lower_bound`` otherwise.
    """
    _require_member(g, ub, "certify_margin")
    P = build_P(kind, g, ub, n)
    # P = core x I_n has the extreme eigenvalues of its core
    lam_p = np.linalg.eigvalsh(_core_P(kind, g, ub.b_lower))
    lam_min_p, lam_max_p = float(lam_p[0]), float(lam_p[-1])
    lower, upper = sandwich_margin(kind, g, ub)
    alpha = min(lower, upper)
    if not alpha > 0:
        raise CertificateError(
            f"certified margin is not positive: {alpha:.3e} (upper bound {upper:.3e})"
        )
    gap = (upper - alpha) / upper
    m1 = math.sqrt(2.0 * lam_max_p / lam_min_p)
    if kind == PID:
        M = max(m1, m1 / g.ki)
    elif kind == PD:
        M = m1
    else:
        M = math.sqrt(lam_max_p / lam_min_p)
    return LyapunovCertificate(
        kind=kind,
        n=n,
        gains=g,
        bounds=ub,
        P=P,
        alpha=alpha,
        alpha_lower=lower,
        alpha_upper=upper,
        gap=gap,
        lambda_min_P=lam_min_p,
        lambda_max_P=lam_max_p,
        M=float(M),
        lambda_decay=alpha / (2.0 * lam_max_p),
        method="exact" if gap <= EXACT_GAP else "lower_bound",
    )
