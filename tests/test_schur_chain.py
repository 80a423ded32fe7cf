"""The paper's Schur complement chain as an independent check of the PID core.

The chain itself lives in ``schur_chain.py`` next to this file; pidcert's
certificates do not use it.
"""

import numpy as np
import pytest

from pidcert import certificates as ct
from pidcert.errors import DimensionError
from pidcert.gain_sets import GainVector, UncertaintyBounds, suggest_gains
from oracles import sample_frozen_uncertainty
from schur_chain import (
    eigen_gap_sufficient,
    is_positive_definite,
    pid_det_formula,
    pid_schur_chain_holds,
    schur_chain_matrices,
)

UB111 = UncertaintyBounds(1.0, 1.0, 1.0)
G_PID = GainVector("PID", 7, 1, 7)


def random_symmetric(rng, n, scale=5.0):
    a = rng.uniform(-scale, scale, size=(n, n))
    return (a + a.T) / 2.0


def det3_cofactor(m):
    """Independent 3x3 determinant via cofactor expansion."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class TestIsPositiveDefinite:
    def test_identity(self):
        assert is_positive_definite(np.eye(3))

    def test_singular_fails_strictly(self):
        assert not is_positive_definite(np.diag([1.0, 0.0]))

    def test_below_relative_slack_fails(self):
        assert not is_positive_definite(np.diag([1.0, 1e-12]))


class TestEigenGapSufficient:
    def test_wide_gap(self):
        assert eigen_gap_sufficient(4 * np.eye(2), np.eye(2), 4 * np.eye(2))

    def test_boundary_fails_strictly(self):
        assert not eigen_gap_sufficient(np.eye(1), [[1.0]], np.eye(1))

    def test_zero_coupling(self):
        assert eigen_gap_sufficient(np.eye(2), np.zeros((2, 2)), np.eye(2))

    def test_rectangular_coupling(self):
        # lambda_min(d) * lambda_min(e) = 4 against |b|^2 = 2, then = 4
        d, e = np.diag([2.0, 3.0]), [[2.0]]
        assert eigen_gap_sufficient(d, [[1.0], [1.0]], e)
        assert not eigen_gap_sufficient(d, [[2.0], [0.0]], e)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            eigen_gap_sufficient(np.eye(2), np.ones((3, 2)), np.eye(2))

    def test_implies_schur_positive(self):
        rng = np.random.default_rng(11)
        hits = 0
        for _ in range(500):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            d = random_symmetric(rng, m, 1.0) + 2.0 * np.eye(m)
            e = random_symmetric(rng, n, 1.0) + 2.0 * np.eye(n)
            b = rng.uniform(-2, 2, size=(m, n))
            if eigen_gap_sufficient(d, b, e):
                hits += 1
                lam_min = np.linalg.eigvalsh(np.block([[d, b], [b.T, e]]))[0]
                assert lam_min > 0
        assert hits > 50  # the property must actually get exercised


class TestPidCore:
    def test_pid_minor_chain_values(self):
        P = ct.build_P("PID", G_PID, UB111, 1)
        assert P[0, 0] == 14.0
        assert P[0, 0] * P[1, 1] - P[0, 1] ** 2 == 1162.0
        assert det3_cofactor(P) == 7547.0
        assert pid_det_formula(G_PID, 1.0) == 7547.0

    def test_det_formula_matches_core_on_members(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ub = UncertaintyBounds(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.3, 3))
            g = suggest_gains("PID", ub, ki=rng.uniform(0.1, 2.0), margin=rng.uniform(0.0, 1.0))
            P = ct.build_P("PID", g, ub, 1)
            det = pid_det_formula(g, ub.b_lower)
            assert det > 0
            assert abs(det3_cofactor(P) - det) <= 1e-9 * abs(det)

    def test_schur_chain_blocks_reassemble_q0_complement(self):
        """[[D1,B1],[B1^T,E1]] must be the Schur complement of the leading
        block of Q0 (independent reconstruction)."""
        rng = np.random.default_rng(8)
        g = suggest_gains("PID", UB111, ki=0.5)
        fu = sample_frozen_uncertainty(UB111, 2, rng)
        rep = ct.q_report("PID", g, UB111, fu, 2)
        n = 2
        D = rep.Q0[:n, :n]
        B = rep.Q0[:n, n:]
        E = rep.Q0[n:, n:]
        complement = E - B.T @ np.linalg.solve(D, B)
        D1, B1, E1 = schur_chain_matrices(g, UB111, fu)
        chain = np.block([[D1, B1], [B1.T, E1]])
        np.testing.assert_allclose(chain, complement, atol=1e-10)

    def test_schur_chain_consistency(self):
        """The chain accepts random frozen points of random PID members, and
        then the Q0 that q_report assembles is positive definite (the
        sufficient direction)."""
        rng = np.random.default_rng(31)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            ub = UncertaintyBounds(rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0.5, 2))
            g = suggest_gains("PID", ub, ki=rng.uniform(0.2, 1.5))
            fu = sample_frozen_uncertainty(ub, n, rng)
            assert pid_schur_chain_holds(g, ub, fu)
            rep = ct.q_report("PID", g, ub, fu, n)
            assert rep.lambda_min_Q0 > 0
