"""Structured Lyapunov matrices, decrease certificates, and envelope constants.

For gains inside the PID/PD/PI regions this module builds the closed-form
block matrix P (positive definite by construction), assembles the frozen
closed-loop matrix A(a, b, theta), forms Q = -(PA + A^T P), and certifies a
uniform lower bound alpha on lambda_min(Q) over the whole uncertainty ball

    |a| <= L1,  |b| <= L2,  Sym[theta] >= b_lower * I.

P is the lift core x I_n of ``_core_P``, one formula over the state blocks of
``gain_sets.LAYOUT``: the paper's PID core at the blocks' gains, padded with
zeros in front and cut to the last m blocks; A is the block companion matrix
over the same blocks.  All kinds share one margin path, ``sandwich_margin``,
on the decrease core C of A at a = b = 0, theta = b_lower, n = 1: the least
eigenvalue over the ball's corners bounds the ball minimum above, an
S-procedure bound below for every n.  alpha is the lower; the certificate
records both and their gap, and its method is ``exact`` when they agree to
EXACT_GAP relative, else ``lower_bound``.  (P, alpha) give the envelope:
decay rate lambda = alpha/(2 lambda_max(P)), overshoot gain M = sqrt(c kappa)
over the c blocks x, v of the kind, times max(1, 1/ki) with an i block.
Eigen solves are stacked, as per-call overhead sets their cost, and go
through ``matrix_kernel``, so a LAPACK failure is a NumericalError.  The
core's membership check and eigen solve are kept for the last (gains,
bounds), and the lift P for the last (gains, bounds, n), read-only, so a
certificate and the audits that follow it on the same gains share them.  A
frozen point is immutable, its matrices checked when it is built, and
``checked`` and ``q_report`` test it by the class test of its bounds.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import matrix_kernel as mk
from .errors import CertificateError, UsageError
from .gain_sets import FIRST_ORDER, LAYOUT, GainVector, UncertaintyBounds, membership

# relative gap between the sandwich bounds up to which alpha counts as exact
EXACT_GAP = 1e-9
# relative mismatch allowed between a stored and a recomputed certificate
RELOAD_RTOL = 1e-12
_BLOCK_GAIN = {"i": "ki", "x": "kp", "v": "kd"}  # the gain of each LAYOUT block


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only, as it is handed to every caller."""
    a.flags.writeable = False
    return a


def _corner_table(m: int, cols: tuple) -> np.ndarray:
    """Corner signs s over the blocks ``cols`` of an m-block core, one row
    per corner in itertools.product order, 0 at every other block: the
    corner offsets are this table times each block's bound."""
    table = np.zeros((2 ** len(cols), m))
    table[:, list(cols)] = list(itertools.product((1.0, -1.0), repeat=len(cols)))
    return _read_only(table)


# every set of bounded blocks of a 2- or 3-block core
_CORNER_TABLES = {
    (m, cols): _corner_table(m, cols)
    for m in (2, 3)
    for k in range(m + 1)
    for cols in itertools.combinations(range(m), k)
}
# the superdiagonal identity of a 2- or 3-block companion at n = 1
_SHIFTS = {m: _read_only(np.eye(m, k=1)) for m in (2, 3)}


@dataclass(frozen=True)
class FrozenUncertainty:
    """A point of the uncertainty ball: constant matrices (a, b, theta).

    ``b`` is absent for first-order (PI) plants.  Each matrix given must be
    one finite square matrix, checked at construction (``mk.as_matrix``);
    ``checked`` also puts the point to its bounds' class test (``breaches``).
    """

    a: np.ndarray
    theta: np.ndarray
    b: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("a", "theta", "b"):
            m = getattr(self, name)
            if m is not None:
                object.__setattr__(self, name, mk.as_matrix(m, name))

    @staticmethod
    def checked(ub: UncertaintyBounds, a, theta, b=None) -> "FrozenUncertainty":
        fu = FrozenUncertainty(a=a, theta=theta, b=b)
        norm_b = 0.0 if fu.b is None else mk.operator_norm(fu.b)
        broken = ub.breaches(mk.operator_norm(fu.a), norm_b, mk.sym_min(fu.theta))
        if broken:
            raise UsageError("; ".join(broken))
        if fu.b is None and ub.order != FIRST_ORDER:
            raise UsageError("second-order frozen uncertainty needs the b matrix")
        return fu


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


# per kind: the getter of its blocks' gains, the zeros that pad them in front
# to the PID core's (ki, kp, kd), the getter of the entries in the last m rows
# and columns of that row-major 3 x 3 core, and m
_CORE_FORM = {
    kind: (
        operator.attrgetter(*(_BLOCK_GAIN[s] for s in blocks)),
        (0.0,) * (3 - len(blocks)),
        operator.itemgetter(*(i for i in range(9) if min(divmod(i, 3)) >= 3 - len(blocks))),
        len(blocks),
    )
    for kind, blocks in LAYOUT.items()
}


def _core_P(kind: str, g: GainVector, b: float) -> np.ndarray:
    """Core block of P: the paper's PID core at the gains of LAYOUT[kind]'s
    blocks, padded with zeros in front, cut to its last m blocks.  PD is PID
    at ki = 0, and PI's (ki, kp) take PD's (kp, kd) places.  The Lyapunov
    matrix is its Kronecker lift core x I_n."""
    gains, pad, last, m = _CORE_FORM[kind]
    ki, kp, kd = pad + gains(g)
    ki, kp, kd, b = float(ki), float(kp), float(kd), float(b)
    c = 2 * ki * kd * b
    pid = (2 * ki * kp * b, c, ki, c, 2 * kp * kd * b - ki, kp, ki, kp, kd)
    return np.array(last(pid)).reshape(m, m)


@functools.lru_cache(maxsize=1)
def _member_core(g: GainVector, ub: UncertaintyBounds):
    """(core, its ascending eigenvalues) when ``g`` is a region member for
    ``ub``, else None.  Every hit hands out the same arrays, so both are
    read-only."""
    if not membership(g, ub).member:
        return None
    core = _core_P(g.kind, g, ub.b_lower)
    lam = mk.eigvalsh(core)
    core.flags.writeable = lam.flags.writeable = False
    return core, lam


@functools.lru_cache(maxsize=1)
def _member_lift(g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    """The lift core x I_n of a member's core (``_checked_core`` first),
    kept for the last (gains, bounds, n) and read-only, so a certificate's
    P and the audits on the same gains share one array."""
    return _read_only(_lift(_member_core(g, ub)[0], n))


def _checked_core(kind: str, g: GainVector, ub: UncertaintyBounds, what: str):
    """(core, its ascending eigenvalues), both read-only, for region
    members; the one membership check and the one positivity check of every
    public call."""
    if g.kind != kind:
        raise UsageError(f"{what}: a {kind!r} certificate needs {kind!r} gains, got {g.kind}")
    checked = _member_core(g, ub)
    if checked is None:
        # slacks from the caller's own gains: 0.0 == -0.0, so both share a key
        report = membership(g, ub)
        raise UsageError(
            f"{what} requires gains inside the {g.kind} region; "
            f"failing slacks: {[(k, v) for k, v in report.margins if v <= 0]}"
        )
    core, lam = checked
    if not lam[0] > 0:
        raise CertificateError(
            f"{kind} Lyapunov core is not positive definite for a region member "
            f"(lambda_min {lam[0]:.6g})"
        )
    return core, lam


@functools.lru_cache(maxsize=4)
def _eye(n: int) -> np.ndarray:
    """I_n, read-only, kept for the last few n."""
    return _read_only(np.eye(n))


def _lift(core: np.ndarray, n: int) -> np.ndarray:
    """kron(core, I_n), the same products without np.kron's overhead."""
    m = core.shape[0]
    return (core[:, None, :, None] * _eye(n)[None, :, None, :]).reshape(m * n, m * n)


def build_P(kind: str, g: GainVector, ub: UncertaintyBounds, n: int) -> np.ndarray:
    """Lyapunov matrix core x I_n; its spectrum is n copies of the core's."""
    n = _dimension(n)
    core, _ = _checked_core(kind, g, ub, "build_P")
    return _lift(core, n)


def _companion(kind: str, g: GainVector, theta: np.ndarray, a=None, b=None) -> np.ndarray:
    """Block companion matrix over the state blocks of LAYOUT[kind]: each
    block but the last is the derivative of the next, and the last block row
    is -k_s theta for the gain k_s of each block s, plus a at x and b at v
    (a matrix given as None is 0).  A (k, n, n) stack of theta gives the
    (k, mn, mn) stack of companions that share a and b."""
    blocks = LAYOUT[kind]
    n, m = theta.shape[-1], len(blocks)
    A = np.zeros(theta.shape[:-2] + (m * n, m * n))
    # the identity A[..., :-n, n:]
    A.reshape(-1, (m * n) ** 2)[:, n : (m - 1) * n * m * n : m * n + 1] = 1.0
    for j, name in enumerate(blocks):
        block = A[..., -n:, j * n : (j + 1) * n]
        np.multiply(-getattr(g, _BLOCK_GAIN[name]), theta, out=block)
        extra = a if name == "x" else b if name == "v" else None
        if extra is not None:
            block += extra
    return A


def assemble_A(kind: str, g: GainVector, fu: FrozenUncertainty, n: int) -> np.ndarray:
    """Companion-form frozen closed-loop matrix for the given kind.

    theta enters as given (possibly non-symmetric); only the certified bound
    substitution replaces it by b_lower * I.
    """
    n = _dimension(n)
    _check_frozen(kind, fu, n)
    return _companion(kind, g, fu.theta, fu.a, fu.b)


def _check_frozen(kind: str, fu: FrozenUncertainty, n: int) -> None:
    """The kind and the n x n shapes (b present if the kind has a v block)
    that the companion of ``fu`` needs."""
    if kind not in LAYOUT:
        raise UsageError(f"unknown certificate kind {kind!r}")
    if "v" in LAYOUT[kind] and fu.b is None:
        raise UsageError(f"{kind} assembly needs the b matrix")
    for name, mat in (("a", fu.a), ("theta", fu.theta), ("b", fu.b)):
        if mat is not None and np.shape(mat) != (n, n):
            raise UsageError(
                f"frozen uncertainty {name} has shape {np.shape(mat)}, not ({n}, {n})"
            )


def q_report(
    kind: str,
    g: GainVector,
    ub: UncertaintyBounds,
    fu: FrozenUncertainty,
    n: int,
) -> QReport:
    """Q = -(PA + A^T P) at one frozen point, plus the worst-case bound Q0.

    Q0 replaces theta by its symmetric floor b_lower * I; the gap Q - Q0 is
    (2 k k^T) x (Sym[theta] - b_lower*I), PSD when theta meets its floor.
    That is tested on theta by the class test that ``checked`` makes, as the
    gap's zero eigenvalues come out as rounding noise of size eps |P| |A|.
    Raises CertificateError when theta is below its floor or Q0 is not
    positive definite, as happens at points outside the ball.
    """
    n = _dimension(n)
    _checked_core(kind, g, ub, "q_report")
    _check_frozen(kind, fu, n)
    # the class test of theta alone: a zero |a| and |b| meet any L1, L2 >= 0
    broken = ub.breaches(0.0, 0.0, mk.sym_min(fu.theta))
    if broken:
        raise CertificateError(f"theta-floor substitution step failed: {broken[0]}")
    P = _member_lift(g, ub, n)
    # A and its floor A0 as one stack, from theta and b_lower * I; matmul
    # forms each slice as it forms a 2-D product, so Q and Q0 keep their bits
    theta = np.empty((2, n, n))
    theta[0] = fu.theta
    np.multiply(ub.b_lower, _eye(n), out=theta[1])
    AA = _companion(kind, g, theta, fu.a, fu.b)
    T = P @ AA
    np.negative(np.add(T, AA.transpose(0, 2, 1) @ P, out=T), out=T)  # -(PA + A^T P)
    np.divide(T, 2.0, out=T)
    S = np.add(T, T.transpose(0, 2, 1))  # [Q, Q0], by symmetrize's arithmetic
    # T/2 + T^T/2 is exactly symmetric, as addition commutes: the stack needs
    # no symmetry test.  fu was checked finite at construction, so only an
    # overflow fails this
    mk.require_finite(S)
    lam_q, lam_q0 = mk.eigvalsh(S)[:, 0].tolist()
    if lam_q0 <= 0:
        raise CertificateError(
            f"worst-case decrease block check failed: lambda_min(Q0) = {lam_q0:.3e}"
        )
    return QReport(Q=S[0], Q0=S[1], lambda_min_Q=lam_q, lambda_min_Q0=lam_q0)


# ---------------------------------------------------------------------------
# Uniform decrease margin over the uncertainty ball: the sandwich certificate.
# ---------------------------------------------------------------------------


def _margin_core(kind: str, core: np.ndarray, g: GainVector, ub: UncertaintyBounds):
    """(C, u, channels) with Q0(A, B) = kron(C, I) - 2 Sym[kron(u, I) sum_j A_j E_j].

    C = -(core A0 + A0^T core) for the companion core A0 at a = b = 0 and
    theta = b_lower (the shift matrix with last row -k_s b_lower), and
    u = core[:, -1], the column that multiplies the last block row of A.
    The n x mn selector E_j picks the state block that the uncertainty
    matrix A_j multiplies: A = df/dx1 the block x and B = df/dx2 the
    block v.  ``channels`` lists (block index j, bound L_j) for every
    matrix whose bound is positive; a zero bound pins its matrix to 0, so
    its term drops out.
    """
    blocks = LAYOUT[kind]
    A0 = _SHIFTS[len(blocks)].copy()
    b = float(ub.b_lower)
    A0[-1] = [-getattr(g, _BLOCK_GAIN[s]) * b for s in blocks]
    core_A0 = core @ A0
    bound = {"x": float(ub.L1), "v": float(ub.L2)}
    channels = [(j, bound[s]) for j, s in enumerate(blocks) if bound.get(s, 0.0) > 0]
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
    # corner A_j = s_j L_j I gives the core C - (u v^T + v u^T), v = sum_j s_j L_j e_j
    bound_of = dict(channels)
    v = _CORNER_TABLES[u.size, tuple(bound_of)] * [bound_of.get(j, 0.0) for j in range(u.size)]
    uv = u[:, None] * v[:, None, :]
    lam, vec = mk.eigh(C - uv - uv.transpose(0, 2, 1))
    worst = int(lam[:, 0].argmin())
    upper = float(lam[worst, 0])
    w = vec[worst, :, 0]
    x = w.tolist()
    ux = abs(float(u @ w))
    bound = C  # C is not read past here
    tau_sum = 0.0
    for j, L in channels:
        tau = L * abs(x[j]) / ux if ux > 0.0 else 0.0
        if not (tau > 0.0 and math.isfinite(tau) and math.isfinite(L * L / tau)):
            tau = L / float(np.linalg.norm(u))  # balances the two terms at |w| = |u||z_j|
        bound[j, j] -= L * L / tau
        tau_sum += tau
    bound -= tau_sum * (u[:, None] * u)
    lower = float(mk.eigvalsh(bound)[0])
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
    # |z(t)| <= sqrt(kappa) e^{-lambda t} |z(0)|, kappa = lambda_max/lambda_min of P;
    # the error signal sums |e| and |edot| over the c blocks x, v the kind has, so
    # it is at most sqrt(c) |z|, and an i block gives |z(0)| <= max(1, 1/ki) s0
    blocks = LAYOUT[kind]
    m1 = math.sqrt(sum(s != "i" for s in blocks) * lam_max_p / lam_min_p)
    M = max(m1, m1 / g.ki) if "i" in blocks else m1
    return LyapunovCertificate(
        kind=kind,
        n=n,
        gains=g,
        bounds=ub,
        P=_member_lift(g, ub, n),
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
