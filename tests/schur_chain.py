"""The paper's own proof route for the PID core, kept as an independent check.

The paper proves Q0 > 0 for PID gains at a frozen point (a, b) by a Schur
complement chain: the complement of Q0's leading block is [[D1, B1],
[B1^T, E1]], and D1 > 0, E1 > 0 with lambda_min(D1) lambda_min(E1) > |B1|^2
makes it positive definite.  The certificates themselves rest on the
sandwich margin over the whole ball; these helpers re-derive the frozen-point
result by the other route, from the gains alone.
"""

import numpy as np

from pidcert import matrix_kernel as mk
from pidcert.errors import DimensionError, UsageError

PD_TOL_REL = 1e-9


def is_positive_definite(s, rel: float = PD_TOL_REL) -> bool:
    """True iff lambda_min(s) exceeds rel * (1 + |s|_F), a slack for strictness."""
    lam_min, _ = mk.eig_extrema(s)
    return lam_min > rel * (1.0 + float(np.linalg.norm(s)))


def eigen_gap_sufficient(d, b, e) -> bool:
    """Sufficient block-positivity test: lambda_min(d)*lambda_min(e) > |b|^2.

    One-directional: True here implies [[d, b], [b^T, e]] > 0, never the
    converse.
    """
    dm, em = mk.as_square(d, "d"), mk.as_square(e, "e")
    bm = np.atleast_2d(np.array(b, dtype=float))
    if bm.shape != (dm.shape[0], em.shape[0]):
        raise DimensionError(f"b must be {dm.shape[0]}x{em.shape[0]}, got {bm.shape}")
    if not np.all(np.isfinite(bm)):
        raise UsageError("b contains NaN or Inf entries")
    lam_d, _ = mk.eig_extrema(dm)
    lam_e, _ = mk.eig_extrema(em)
    if lam_d <= 0.0 or lam_e <= 0.0:
        return False
    return lam_d * lam_e > float(np.linalg.norm(bm, 2)) ** 2


def pid_det_formula(g, b: float) -> float:
    """Closed-form determinant of the 3x3 PID core block."""
    kp, ki, kd = g.kp, g.ki, g.kd
    return ki * (4 * kp**2 * kd**2 * b**2 + ki**2 - 2 * kp**3 * b - 4 * ki * kd**3 * b**2)


def schur_chain_matrices(g, ub, fu):
    """Blocks (D1, B1, E1) of the complement chain E - B^T D^{-1} B of Q0."""
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


def pid_schur_chain_holds(g, ub, fu) -> bool:
    """True iff the chain proves Q0 > 0 at the frozen point fu."""
    D1, B1, E1 = schur_chain_matrices(g, ub, fu)
    return is_positive_definite(D1) and is_positive_definite(E1) and eigen_gap_sufficient(D1, B1, E1)
