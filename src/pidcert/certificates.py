"""Structured Lyapunov matrices, decrease certificates, and envelope constants.

For gains inside the PID/PD/PI regions this module builds the closed-form
block matrix P (positive definite by construction), assembles the frozen
closed-loop matrix A(a, b, theta), forms Q = -(PA + A^T P), and certifies a
uniform lower bound alpha on lambda_min(Q) over the whole uncertainty ball

    |a| <= L1,  |b| <= L2,  Sym[theta] >= b_lower * I.

The paper's closed-form core of P (``_core_P``) is the one per-kind formula.
P is its lift core x I_n, A the block companion matrix over the state blocks
of ``gain_sets.LAYOUT``, and the decrease core C = -(core A0 + A0^T core)
comes from A at a = b = 0, theta = b_lower, n = 1.  All three kinds share one
margin path, a sandwich on C.  The upper bound is the smallest eigenvalue
over the corners a = +-L1 I, b = +-L2 I, which lie in the ball; the lower
bound is an S-procedure bound that holds for every n.  alpha is the lower of
the two; the certificate records both and their gap, and its method reads
``exact`` when they agree to 1e-9 relative and ``lower_bound`` otherwise.
From (P, alpha) we get the trajectory envelope constants: decay rate
lambda = alpha/(2 lambda_max(P)) and overshoot gain M.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import matrix_kernel as mk
from .errors import CertificateError, UsageError
from .gain_sets import (
    FIRST_ORDER,
    LAYOUT,
    PD,
    PID,
    GainVector,
    UncertaintyBounds,
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
        return {
            "kind": self.kind,
            "n": self.n,
            "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd},
            "bounds": asdict(self.bounds),
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
        g = GainVector(d["kind"], **d["gains"])
        cert = certify_margin(d["kind"], g, UncertaintyBounds(**d["bounds"]), d["n"])
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


def _dimension(n) -> int:
    """n as an int; anything but an integer >= 1 is a usage error."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise UsageError(f"n must be an integer >= 1, got {n!r}")
    return int(n)


def _core_P(kind: str, g: GainVector, b: float) -> np.ndarray:
    """Core block of P for a known kind; the Lyapunov matrix is its
    Kronecker lift core x I_n."""
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
    return np.array([[2 * kp * ki * b, ki], [ki, kp]])  # PI


def _checked_core(kind: str, g: GainVector, ub: UncertaintyBounds, what: str):
    """(core, its ascending eigenvalues) for region members; the one
    membership check and the one positivity check of every public call."""
    if g.kind != kind:
        raise UsageError(f"{what}: a {kind!r} certificate needs {kind!r} gains, got {g.kind}")
    report = membership(g, ub)
    if not report.member:
        raise UsageError(
            f"{what} requires gains inside the {g.kind} region; "
            f"failing slacks: {[(k, v) for k, v in report.margins if v <= 0]}"
        )
    core = _core_P(kind, g, ub.b_lower)
    lam = np.linalg.eigvalsh(core)
    if not lam[0] > 0:
        raise CertificateError(
            f"{kind} Lyapunov core is not positive definite for a region member "
            f"(lambda_min {lam[0]:.6g})"
        )
    return core, lam


def _lift(core: np.ndarray, n: int) -> np.ndarray:
    """kron(core, I_n), the same products without np.kron's overhead."""
    m = core.shape[0]
    return (core[:, None, :, None] * np.eye(n)[None, :, None, :]).reshape(m * n, m * n)


def build_P(kind: str, g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    """Lyapunov matrix core x I_n; its spectrum is n copies of the core's."""
    n = _dimension(n)
    core, _ = _checked_core(kind, g, ub, "build_P")
    return _lift(core, n)


def _companion(kind: str, g: GainVector, theta: np.ndarray, a=None, b=None) -> np.ndarray:
    """Block companion matrix over the state blocks of LAYOUT[kind]: each
    block but the last is the derivative of the next, and the last block row
    is -k_s theta for the gain k_s of each block s, plus a at x and b at v
    (a matrix given as None is 0)."""
    blocks = LAYOUT[kind]
    gain = {"i": g.ki, "x": g.kp, "v": g.kd}
    extra = {"x": a, "v": b}
    n, m = theta.shape[0], len(blocks)
    A = np.zeros((m * n, m * n))
    A[:-n, n:] = np.eye((m - 1) * n)
    for j, name in enumerate(blocks):
        cols = slice(j * n, (j + 1) * n)
        A[-n:, cols] = -gain[name] * theta
        if extra.get(name) is not None:
            A[-n:, cols] += extra[name]
    return A


def assemble_A(kind: str, g: GainVector, fu: FrozenUncertainty, n: int) -> np.ndarray:
    """Companion-form frozen closed-loop matrix for the given kind.

    theta enters as given (possibly non-symmetric); only the certified bound
    substitution replaces it by b_lower * I.
    """
    n = _dimension(n)
    if kind not in LAYOUT:
        raise UsageError(f"unknown certificate kind {kind!r}")
    if "v" in LAYOUT[kind] and fu.b is None:
        raise UsageError(f"{kind} assembly needs the b matrix")
    for name, mat in (("a", fu.a), ("theta", fu.theta), ("b", fu.b)):
        if mat is not None and np.shape(mat) != (n, n):
            raise UsageError(
                f"frozen uncertainty {name} has shape {np.shape(mat)}, not ({n}, {n})"
            )
    return _companion(kind, g, fu.theta, fu.a, fu.b)


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
    Raises CertificateError when that gap is not PSD or Q0 is not positive
    definite, as happens at points outside the ball.
    """
    n = _dimension(n)
    core, _ = _checked_core(kind, g, ub, "q_report")
    P = _lift(core, n)
    A = assemble_A(kind, g, fu, n)
    Q = mk.symmetrize(-(P @ A + A.T @ P))
    A0 = _companion(kind, g, ub.b_lower * np.eye(n), fu.a, fu.b)
    Q0 = mk.symmetrize(-(P @ A0 + A0.T @ P))
    gap_min, _ = mk.eig_extrema(Q - Q0)
    if gap_min < -1e-9:
        raise CertificateError(
            f"theta-floor substitution step failed: lambda_min(Q - Q0) = {gap_min:.3e}"
        )
    lam_q, _ = mk.eig_extrema(Q)
    lam_q0, _ = mk.eig_extrema(Q0)
    if lam_q0 <= 0:
        raise CertificateError(
            f"worst-case decrease block check failed: lambda_min(Q0) = {lam_q0:.3e}"
        )
    return QReport(Q=Q, Q0=Q0, lambda_min_Q=lam_q, lambda_min_Q0=lam_q0)


# ---------------------------------------------------------------------------
# Uniform decrease margin over the uncertainty ball: the sandwich certificate.
# ---------------------------------------------------------------------------


def _margin_core(kind: str, core: np.ndarray, g: GainVector, ub: UncertaintyBounds):
    """(C, u, channels) with Q0(A, B) = kron(C, I) - 2 Sym[kron(u, I) sum_j A_j E_j].

    C = -(core A0 + A0^T core) for the companion core A0 at a = b = 0 and
    theta = b_lower, and u = core[:, -1], the column that multiplies the last
    block row of A.  The n x mn selector E_j picks the state block that the
    uncertainty matrix A_j multiplies: A = df/dx1 the block x and
    B = df/dx2 the block v.  ``channels`` lists (block index j, bound L_j)
    for every matrix whose bound is positive; a zero bound pins its matrix to
    0, so its term drops out.
    """
    core_A0 = core @ _companion(kind, g, np.array([[float(ub.b_lower)]]))
    bound = {"x": float(ub.L1), "v": float(ub.L2)}
    channels = [(j, bound[s]) for j, s in enumerate(LAYOUT[kind]) if bound.get(s, 0.0) > 0]
    return -(core_A0 + core_A0.T), core[:, -1], channels


def sandwich_margin(
    kind: str, core: np.ndarray, g: GainVector, ub: UncertaintyBounds
) -> tuple[float, float]:
    """(lower, upper) bounds on the ball minimum of lambda_min(Q0(A, B)).

    Upper: the smallest eigenvalue over the corners A_j = +-L_j I.  They lie
    in the ball, so the minimum is at most this value.

    Lower: with w = sum_i u_i z_i, each cross term obeys
    2 |w^T A_j z_j| <= tau_j |w|^2 + (L_j^2 / tau_j) |z_j|^2, hence
    Q0 >= kron(C - sum_j tau_j u u^T - sum_j (L_j^2 / tau_j) e_j e_j^T, I)
    for every n, every A_j in the ball and every tau_j > 0 (S-procedure).
    This holds for any symmetric C.  tau_j is chosen where the inequality is
    tight at the worst corner's eigenvector x; a poor choice costs
    tightness, never soundness.
    """
    C, u, channels = _margin_core(kind, core, g, ub)
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
    n = _dimension(n)
    core, lam_p = _checked_core(kind, g, ub, "certify_margin")
    # P = core x I_n has the extreme eigenvalues of its core
    lam_min_p, lam_max_p = float(lam_p[0]), float(lam_p[-1])
    lower, upper = sandwich_margin(kind, core, g, ub)
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
        P=_lift(core, n),
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
