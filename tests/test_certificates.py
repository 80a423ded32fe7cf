"""Tests for the Lyapunov matrix constructions and margin certificates."""

import dataclasses
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from pidcert import certificates as ct
from pidcert import matrix_kernel as mk
from pidcert.errors import CertificateError, DimensionError, NumericalError, UsageError
from pidcert.gain_sets import GainVector, UncertaintyBounds, suggest_gains
from oracles import (
    pd_closed_form_margin,
    pi_closed_form_margin,
    reference_certificate,
    reference_q_report,
    sample_frozen_uncertainty,
)

UB111 = UncertaintyBounds(1.0, 1.0, 1.0)
UB_PI = UncertaintyBounds.first_order(1.0, 1.0)
G_PID = GainVector("PID", 7, 1, 7)
G_PD = GainVector("PD", 6, kd=6)
G_PI = GainVector("PI", 3, 1)
DATA = Path(__file__).parent / "data"


class TestBuildP:
    def test_pid_reference_matrix(self):
        P = ct.build_P("PID", G_PID, UB111, 1)
        np.testing.assert_array_equal(
            P, [[14.0, 14.0, 1.0], [14.0, 97.0, 7.0], [1.0, 7.0, 7.0]]
        )

    def test_pid_block_spectrum_is_repeated_core(self):
        P1 = ct.build_P("PID", G_PID, UB111, 1)
        P3 = ct.build_P("PID", G_PID, UB111, 3)
        core = np.linalg.eigvalsh(P1)
        block = np.linalg.eigvalsh(P3)
        np.testing.assert_allclose(np.sort(np.repeat(core, 3)), np.sort(block), rtol=1e-12)

    def test_pid_rejects_nonpositive_ki(self):
        with pytest.raises(UsageError):
            ct.build_P("PID", GainVector("PID", 7, 0.0, 7), UB111, 1)
        with pytest.raises(UsageError):
            ct.build_P("PID", GainVector("PID", 7, -1.0, 7), UB111, 1)

    def test_pd_reference_matrix(self):
        P = ct.build_P("PD", G_PD, UB111, 1)
        np.testing.assert_array_equal(P, [[72.0, 6.0], [6.0, 6.0]])
        assert P[0, 0] * P[1, 1] - P[0, 1] ** 2 == 396.0

    def test_pd_block_extrema_match_core(self):
        lo1, hi1 = mk.eig_extrema(ct.build_P("PD", G_PD, UB111, 1))
        lo2, hi2 = mk.eig_extrema(ct.build_P("PD", G_PD, UB111, 2))
        assert abs(lo1 - lo2) < 1e-12 and abs(hi1 - hi2) < 1e-12

    def test_pd_rejects_non_member(self):
        with pytest.raises(UsageError):
            ct.build_P("PD", GainVector("PD", 2, kd=2), UB111, 1)

    def test_pi_reference_matrix(self):
        P = ct.build_P("PI", G_PI, UB_PI, 1)
        np.testing.assert_array_equal(P, [[6.0, 1.0], [1.0, 3.0]])
        assert P[0, 0] * P[1, 1] - P[0, 1] ** 2 == 17.0

    def test_pi_block_extrema_match_core(self):
        lo1, hi1 = mk.eig_extrema(ct.build_P("PI", G_PI, UB_PI, 1))
        lo4, hi4 = mk.eig_extrema(ct.build_P("PI", G_PI, UB_PI, 4))
        assert abs(lo1 - lo4) < 1e-12 and abs(hi1 - hi4) < 1e-12

    def test_pi_rejects_non_member(self):
        with pytest.raises(UsageError):
            ct.build_P("PI", GainVector("PI", 1, 1), UB_PI, 1)

    @pytest.mark.parametrize("n", [0, -2, 2.5, True, "3", None])
    def test_dimension_must_be_a_positive_integer(self, n):
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])
        with pytest.raises(UsageError, match="n must be an integer"):
            ct.build_P("PID", G_PID, UB111, n)
        with pytest.raises(UsageError, match="n must be an integer"):
            ct.certify_margin("PID", G_PID, UB111, n)
        with pytest.raises(UsageError, match="n must be an integer"):
            ct.q_report("PID", G_PID, UB111, fu, n)
        with pytest.raises(UsageError, match="n must be an integer"):
            ct.assemble_A("PID", G_PID, fu, n)

    def test_numpy_integer_dimension_accepted(self):
        assert ct.certify_margin("PD", G_PD, UB111, np.int64(2)).n == 2

    def test_kind_must_match_the_gains(self):
        with pytest.raises(UsageError, match="needs 'PID' gains"):
            ct.build_P("PID", G_PD, UB111, 1)
        with pytest.raises(UsageError, match="needs 'PD' gains"):
            ct.certify_margin("PD", G_PID, UB111, 1)

    def test_one_membership_check_per_call(self, monkeypatch):
        """build_P, certify_margin and q_report on one (gains, bounds) share
        one membership check and one core solve: 1 + 2 + 1 LAPACK eigen
        solves (the core's, the sandwich's corner and bound solves,
        q_report's one stacked audit solve), all through matrix_kernel's
        gufuncs and none through numpy.linalg's wrappers.  Each call on fresh
        gains makes its own membership check."""
        ct._member_core.cache_clear()
        calls, solves, wrapped = [], [], []
        real = ct.membership
        monkeypatch.setattr(ct, "membership", lambda g, ub: calls.append(g) or real(g, ub))
        for seam, name in (("_eigvalsh_lo", "eigvalsh"), ("_eigh_lo", "eigh")):
            gufunc = getattr(mk, seam)
            monkeypatch.setattr(
                mk, seam, lambda *a, _f=gufunc, _n=name, **k: solves.append(_n) or _f(*a, **k)
            )
        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            solver = getattr(np.linalg, name)
            monkeypatch.setattr(
                np.linalg, name, lambda *a, _f=solver, _n=name, **k: wrapped.append(_n) or _f(*a, **k)
            )
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])

        def public_calls(g):
            return (
                lambda: ct.build_P("PID", g, UB111, 2),
                lambda: ct.certify_margin("PID", g, UB111, 2),
                lambda: ct.q_report("PID", g, UB111, fu, 1),
            )

        per_call = []
        for call in public_calls(G_PID):
            solves.clear()
            call()
            per_call.append(solves[:])
        assert calls == [G_PID]
        assert per_call == [["eigvalsh"], ["eigh", "eigvalsh"], ["eigvalsh"]]
        assert wrapped == []
        fresh = [GainVector("PID", 8, 1, 8), GainVector("PID", 9, 1, 9), GainVector("PID", 7, 0.5, 7)]
        for k, g in enumerate(fresh):
            calls.clear()
            public_calls(g)[k]()
            assert calls == [g]


class TestAssembleA:
    def test_pid_companion_form(self):
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])
        A = ct.assemble_A("PID", G_PID, fu, 1)
        np.testing.assert_array_equal(
            A, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -7.0, -7.0]]
        )

    def test_pi_scalar_linear_case(self):
        # matches the scalar loop edot = -ki*b*e0 + (L - kp*b)*e
        ub = UncertaintyBounds.first_order(1.0, 1.0)
        fu = ct.FrozenUncertainty.checked(ub, a=[[1.0]], theta=[[1.0]])
        g = GainVector("PI", 2.0, 1.5)
        A = ct.assemble_A("PI", g, fu, 1)
        np.testing.assert_array_equal(A, [[0.0, 1.0], [-1.5, 1.0 - 2.0]])

    def test_pd_uses_theta_as_given(self):
        theta = np.array([[1.0, 10.0], [-10.0, 1.0]])
        ub = UncertaintyBounds(0.5, 0.5, 1.0)
        fu = ct.FrozenUncertainty.checked(
            ub, a=0.5 * np.eye(2), theta=theta, b=0.5 * np.eye(2)
        )
        A = ct.assemble_A("PD", GainVector("PD", 6, kd=6), fu, 2)
        np.testing.assert_array_equal(A[2:, :2], 0.5 * np.eye(2) - 6 * theta)

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    def test_matches_hand_written_companion_forms(self, kind):
        """The table-built A equals the companion form written out per kind,
        bit for bit."""
        rng = np.random.default_rng(17)
        n = 3
        a, b, theta = (rng.standard_normal((n, n)) for _ in range(3))
        kp, ki, kd = rng.uniform(0.5, 5.0, size=3)
        # a kind's unused gain stays at 0
        g = GainVector(kind, kp, 0.0 if kind == "PD" else ki, 0.0 if kind == "PI" else kd)
        I, Z = np.eye(n), np.zeros((n, n))
        ref = {
            "PID": [[Z, I, Z], [Z, Z, I], [-g.ki * theta, a - g.kp * theta, b - g.kd * theta]],
            "PD": [[Z, I], [a - g.kp * theta, b - g.kd * theta]],
            "PI": [[Z, I], [-g.ki * theta, a - g.kp * theta]],
        }[kind]
        A = ct.assemble_A(kind, g, ct.FrozenUncertainty(a=a, theta=theta, b=b), n)
        np.testing.assert_array_equal(A, np.block(ref))

    @pytest.mark.parametrize("kind", ["PID", "PD"])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 3)])
    def test_b_of_the_wrong_shape_rejected(self, kind, shape):
        fu = ct.FrozenUncertainty(a=np.zeros((2, 2)), theta=np.eye(2), b=np.ones(shape))
        g = G_PID if kind == "PID" else G_PD
        with pytest.raises(UsageError, match="b has shape"):
            ct.assemble_A(kind, g, fu, 2)

    def test_missing_b_rejected(self):
        fu = ct.FrozenUncertainty(a=np.zeros((1, 1)), theta=np.eye(1))
        with pytest.raises(UsageError, match="needs the b matrix"):
            ct.assemble_A("PD", G_PD, fu, 1)

    def test_bound_violations_rejected(self):
        with pytest.raises(UsageError):
            ct.FrozenUncertainty.checked(UB111, a=[[2.0]], theta=[[1.0]], b=[[0.0]])
        with pytest.raises(UsageError):
            ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[0.5]], b=[[0.0]])


class TestQReport:
    def test_theta_at_floor_gives_zero_gap(self):
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])
        rep = ct.q_report("PID", G_PID, UB111, fu, 1)
        np.testing.assert_allclose(rep.Q, rep.Q0, atol=1e-14)
        # diagonal worst case: diag(2ki^2 b, 2k1, 2k2)
        np.testing.assert_allclose(rep.Q0, np.diag([2.0, 70.0, 84.0]), atol=1e-14)

    def test_pid_ball_extreme_positive(self):
        fu = ct.FrozenUncertainty.checked(UB111, a=[[1.0]], theta=[[1.0]], b=[[1.0]])
        rep = ct.q_report("PID", G_PID, UB111, fu, 1)
        assert rep.lambda_min_Q0 > 0
        ref = np.linalg.eigvalsh(rep.Q0)[0]
        assert abs(rep.lambda_min_Q0 - ref) < 1e-9
        # frozen regression value from the dense-eigen reference
        assert abs(rep.lambda_min_Q0 - 1.9568874038683) < 1e-9

    def test_pi_extreme_matches_exact_margin(self):
        # at a = L the worst-case block is [[2,-1],[-1,10]], eigmin 6-sqrt(17)
        fu = ct.FrozenUncertainty.checked(UB_PI, a=[[1.0]], theta=[[1.0]])
        rep = ct.q_report("PI", G_PI, UB_PI, fu, 1)
        np.testing.assert_allclose(rep.Q0, [[2.0, -1.0], [-1.0, 10.0]], atol=1e-14)
        assert abs(rep.lambda_min_Q0 - (6 - math.sqrt(17))) < 1e-12

    @pytest.mark.parametrize("kind,n", [("PID", 1), ("PID", 2), ("PD", 2), ("PI", 3)])
    def test_kronecker_gap_identity(self, kind, n):
        """Q - Q0 equals (2 k k^T) kron (Sym[theta] - b*I) entrywise."""
        rng = np.random.default_rng(41)
        if kind == "PI":
            ub = UB_PI
            g = suggest_gains("PI", ub, ki=0.8)
            kvec = np.array([g.ki, g.kp])
        elif kind == "PD":
            ub = UB111
            g = suggest_gains("PD", ub)
            kvec = np.array([g.kp, g.kd])
        else:
            ub = UB111
            g = suggest_gains("PID", ub, ki=0.6)
            kvec = np.array([g.ki, g.kp, g.kd])
        fu = sample_frozen_uncertainty(ub, n, rng)
        rep = ct.q_report(kind, g, ub, fu, n)
        gap = np.kron(2 * np.outer(kvec, kvec), mk.symmetrize(fu.theta) - ub.b_lower * np.eye(n))
        scale = 1.0 + np.max(np.abs(gap))
        assert np.max(np.abs((rep.Q - rep.Q0) - gap)) / scale < 1e-12

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stacked_audit_matches_one_matrix_at_a_time(self, kind, n):
        """Q and Q0 are symmetrize(-(P A + A^T P)) of build_P and assemble_A,
        and each returned lambda is eig_extrema of its own matrix, bit for
        bit: the one stacked solve changes no digit."""
        rng = np.random.default_rng({"PID": 61, "PD": 62, "PI": 63}[kind] + n)
        g, ub = _random_member(kind, rng)
        fu = sample_frozen_uncertainty(ub, n, rng)
        rep = ct.q_report(kind, g, ub, fu, n)
        P = ct.build_P(kind, g, ub, n)
        floor = ct.FrozenUncertainty(a=fu.a, theta=ub.b_lower * np.eye(n), b=fu.b)
        for got, frozen in ((rep.Q, fu), (rep.Q0, floor)):
            A = ct.assemble_A(kind, g, frozen, n)
            assert np.array_equal(got, mk.symmetrize(-(P @ A + A.T @ P)))
        assert rep.lambda_min_Q == mk.eig_extrema(rep.Q)[0]
        assert rep.lambda_min_Q0 == mk.eig_extrema(rep.Q0)[0]
        assert mk.eig_extrema(rep.Q - rep.Q0)[0] >= -1e-9

    @pytest.mark.parametrize("kind", ["PD", "PI"])
    def test_frozen_point_outside_the_ball_rejected(self, kind):
        ub, g, b = (UB111, G_PD, np.zeros((1, 1))) if kind == "PD" else (UB_PI, G_PI, None)
        # |a| far beyond L1: Q0 is no longer positive definite
        far = ct.FrozenUncertainty(a=np.array([[50.0]]), theta=np.eye(1), b=b)
        with pytest.raises(CertificateError, match="lambda_min\\(Q0\\)"):
            ct.q_report(kind, g, ub, far, 1)
        # Sym[theta] below b_lower: the theta-floor step fails
        low = ct.FrozenUncertainty(a=np.zeros((1, 1)), theta=np.array([[0.5]]), b=b)
        with pytest.raises(CertificateError, match="theta-floor"):
            ct.q_report(kind, g, ub, low, 1)


def _as_bytes(obj):
    """Every field of a certificate or audit, floats and arrays as bytes."""
    out = []
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, np.ndarray):
            v = (v.dtype.str, v.shape, v.tobytes())
        elif isinstance(v, float):
            v = (type(v), struct.pack("<d", v))
        out.append((f.name, v))
    return out


class TestMemberCore:
    """The one-entry memo of the membership check and the core solve."""

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_hit_matches_a_cold_call_bit_for_bit(self, kind, n):
        rng = np.random.default_rng({"PID": 71, "PD": 72, "PI": 73}[kind] + n)
        g, ub = _random_member(kind, rng)
        fu = sample_frozen_uncertainty(ub, n, rng)
        ct._member_core.cache_clear()
        cold_cert = ct.certify_margin(kind, g, ub, n)
        ct._member_core.cache_clear()
        cold_q = ct.q_report(kind, g, ub, fu, n)
        hits = ct._member_core.cache_info().hits
        hit_cert = ct.certify_margin(kind, g, ub, n)
        hit_q = ct.q_report(kind, g, ub, fu, n)
        assert ct._member_core.cache_info().hits == hits + 2
        assert _as_bytes(hit_cert) == _as_bytes(cold_cert)
        assert _as_bytes(hit_q) == _as_bytes(cold_q)

    def test_cached_arrays_are_read_only(self):
        core, lam = ct._checked_core("PID", G_PID, UB111, "test")
        assert ct._checked_core("PID", G_PID, UB111, "test")[0] is core
        with pytest.raises(ValueError, match="read-only"):
            core[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            lam[0] = 0.0

    def test_non_member_message_uses_the_callers_gains(self):
        ct._member_core.cache_clear()
        with pytest.raises(UsageError, match=re.escape("('ki_positive', 0.0)")):
            ct.build_P("PID", GainVector("PID", 7, 0.0, 7), UB111, 1)
        # equal to the gains above as a key, but a slack of -0.0
        with pytest.raises(UsageError, match=re.escape("('ki_positive', -0.0)")):
            ct.build_P("PID", GainVector("PID", 7, -0.0, 7), UB111, 1)
        ct.certify_margin("PID", G_PID, UB111, 1)
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])
        with pytest.raises(UsageError, match="^q_report requires gains inside the PID region"):
            ct.q_report("PID", GainVector("PID", 1, 1, 1), UB111, fu, 1)


class TestQReportStack:
    """q_report solves its own stack [Q - Q0, Q, Q0] without eig_extrema."""

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_q_and_q0_are_exactly_symmetric(self, kind, n):
        rng = np.random.default_rng({"PID": 81, "PD": 82, "PI": 83}[kind] + n)
        for _ in range(20):
            g, ub = _random_member(kind, rng)
            fu = sample_frozen_uncertainty(ub, n, rng)
            skew = rng.standard_normal((n, n))
            fu.theta = fu.theta + 1e3 * (skew - skew.T)  # Sym[theta] kept up to rounding
            rep = ct.q_report(kind, g, ub, fu, n)
            assert np.array_equal(rep.Q, rep.Q.T)
            assert np.array_equal(rep.Q0, rep.Q0.T)

    def test_solver_failure_is_numerical_error(self, monkeypatch):
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])
        ct.build_P("PID", G_PID, UB111, 1)  # the core solve is cached before the patch
        monkeypatch.setattr(mk, "_eigvalsh_lo", _nonconvergent)
        with pytest.raises(NumericalError, match="^symmetric eigenvalue solver did not converge$"):
            ct.q_report("PID", G_PID, UB111, fu, 1)

    def test_non_finite_stack_names_its_matrix(self):
        """A finite frozen point whose products overflow, with numpy's
        warnings switched off: the stack's finiteness test names Q - Q0."""
        fu = ct.FrozenUncertainty(a=np.zeros((1, 1)), theta=np.array([[1e307]]), b=np.zeros((1, 1)))
        with np.errstate(all="ignore"):
            with pytest.raises(UsageError, match=re.escape("NaN or Inf entries (matrix [0])")):
                ct.q_report("PID", G_PID, UB111, fu, 1)


def _nonconvergent(a, signature):
    """Stands in for a LAPACK eigen gufunc that does not converge: like the
    real one, it raises numpy's invalid flag (here by 0/0) and gives NaN."""
    return np.divide(np.zeros(a.shape[:-1]), 0.0)


class TestSolverFailure:
    """A LAPACK failure on the core, corner or bound solve is a
    NumericalError, and a failed solve is not kept."""

    @pytest.mark.parametrize("solver", ["eigvalsh", "eigh"])
    def test_cold_certificate(self, monkeypatch, solver):
        ct._member_core.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(mk, f"_{solver}_lo", _nonconvergent)
            with pytest.raises(NumericalError, match="solver did not converge"):
                ct.certify_margin("PID", G_PID, UB111, 1)
        cert = ct.certify_margin("PID", G_PID, UB111, 1)
        assert cert.method == "exact" and cert.alpha > 0

    @pytest.mark.parametrize("call", ["build_P", "q_report"])
    def test_cold_core_solve(self, monkeypatch, call):
        fu = ct.FrozenUncertainty.checked(UB111, a=[[0.0]], theta=[[1.0]], b=[[0.0]])
        public = {
            "build_P": lambda: ct.build_P("PID", G_PID, UB111, 1),
            "q_report": lambda: ct.q_report("PID", G_PID, UB111, fu, 1),
        }[call]
        ct._member_core.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(mk, "_eigvalsh_lo", _nonconvergent)
            with pytest.raises(NumericalError, match="solver did not converge"):
                public()
        public()


def _oracle_cases(kind, rng):
    """Fixed bounds with L1 = 0 and with L2 = 0 (L = 0 for PI), then 200
    random region members."""
    if kind == "PI":
        fixed = [UncertaintyBounds.first_order(0.0, 1.0), UB_PI]
    else:
        fixed = [
            UncertaintyBounds(0.0, 1.0, 1.0),
            UncertaintyBounds(1.0, 0.0, 1.0),
            UncertaintyBounds(0.0, 0.0, 1.0),
            UB111,
        ]
    for ub in fixed:
        yield suggest_gains(kind, ub, **({} if kind == "PD" else {"ki": 0.7})), ub
    for _ in range(200):
        yield _random_member(kind, rng)


class TestReferenceOracle:
    """Every certificate and audit number equals the plain one-matrix-at-a-
    time construction of ``oracles``, bit for bit."""

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_certificate_and_audit_equal_the_reference(self, kind, n):
        rng = np.random.default_rng({"PID": 91, "PD": 92, "PI": 93}[kind] + 10 * n)
        for g, ub in _oracle_cases(kind, rng):
            fu = sample_frozen_uncertainty(ub, n, rng)
            cert = ct.certify_margin(kind, g, ub, n)
            rep = ct.q_report(kind, g, ub, fu, n)
            ref = reference_certificate(kind, g, ub, n)
            got = {
                "alpha": cert.alpha,
                "alpha_lower": cert.alpha_lower,
                "alpha_upper": cert.alpha_upper,
                "lambda_min_P": cert.lambda_min_P,
                "lambda_max_P": cert.lambda_max_P,
                "M": cert.M,
                "lambda": cert.lambda_decay,
            }
            assert {k: v.hex() for k, v in got.items()} == {k: ref[k].hex() for k in got}, (g, ub)
            assert _array_bytes(cert.P) == _array_bytes(ref["P"])
            Q, Q0, lam_q, lam_q0 = reference_q_report(kind, g, ub, fu, n)
            assert _array_bytes(rep.Q) == _array_bytes(Q), (g, ub)
            assert _array_bytes(rep.Q0) == _array_bytes(Q0), (g, ub)
            assert (rep.lambda_min_Q.hex(), rep.lambda_min_Q0.hex()) == (lam_q.hex(), lam_q0.hex())


def _array_bytes(a):
    return a.dtype.str, a.shape, a.tobytes()


class TestSharedLift:
    """The lift core x I_n is kept for the last (gains, bounds, n): a
    certificate's P and the audits on the same gains share it."""

    def test_certificate_P_is_read_only_and_shared(self):
        cert = ct.certify_margin("PID", G_PID, UB111, 3)
        with pytest.raises(ValueError, match="read-only"):
            cert.P[0, 0] = 0.0
        assert ct.certify_margin("PID", G_PID, UB111, 3).P is cert.P

    def test_another_n_gets_its_own_lift(self):
        cert3 = ct.certify_margin("PID", G_PID, UB111, 3)
        cert1 = ct.certify_margin("PID", G_PID, UB111, 1)
        assert cert3.P.shape == (9, 9) and cert1.P.shape == (3, 3)
        assert np.array_equal(cert3.P, ct.build_P("PID", G_PID, UB111, 3))
        assert np.array_equal(cert1.P, ct.build_P("PID", G_PID, UB111, 1))
        fu = ct.FrozenUncertainty.checked(UB111, a=0.5 * np.eye(3), theta=np.eye(3), b=0.5 * np.eye(3))
        rep = ct.q_report("PID", G_PID, UB111, fu, 3)
        assert rep.Q.shape == (9, 9)

    def test_build_P_returns_a_writable_array(self):
        cert = ct.certify_margin("PD", G_PD, UB111, 2)
        P = ct.build_P("PD", G_PD, UB111, 2)
        assert P is not cert.P and np.array_equal(P, cert.P)
        P[0, 0] = 0.0
        assert cert.P[0, 0] == 72.0


class TestQReportInputErrors:
    """A frozen point holds one finite square matrix per field, checked at
    construction; q_report checks the kind and the n x n shapes before it
    stacks theta with its floor, so those input errors are assemble_A's."""

    @pytest.mark.parametrize(
        "kind,field,shape",
        [
            ("PID", "a", (2, 2)),
            ("PID", "b", (1, 1)),
            ("PI", "a", (4, 4)),
            ("PI", "theta", (1, 1)),
        ],
    )
    def test_mis_shaped_matrix(self, kind, field, shape):
        n = 3
        g, ub = {"PID": (G_PID, UB111), "PD": (G_PD, UB111), "PI": (G_PI, UB_PI)}[kind]
        mats = {"a": np.zeros((n, n)), "theta": np.eye(n), "b": None if kind == "PI" else np.zeros((n, n))}
        mats[field] = np.ones(shape)
        fu = ct.FrozenUncertainty(**mats)
        with pytest.raises(UsageError) as want:
            ct.assemble_A(kind, g, fu, n)
        with pytest.raises(UsageError) as got:
            ct.q_report(kind, g, ub, fu, n)
        assert str(got.value) == str(want.value)
        assert "has shape" in str(got.value)

    @pytest.mark.parametrize(
        "field,shape,text",
        [
            ("theta", (3, 4), "theta must be square, got shape (3, 4)"),
            ("theta", (3,), "theta must be square, got shape (3,)"),
            ("theta", (2, 3, 3), "theta must be one square matrix, got shape (2, 3, 3)"),
            ("b", (2, 3, 3), "b must be one square matrix, got shape (2, 3, 3)"),
        ],
    )
    def test_non_square_matrix_refused_at_construction(self, field, shape, text):
        mats = {"a": np.zeros((3, 3)), "theta": np.eye(3), "b": np.zeros((3, 3))}
        mats[field] = np.ones(shape)
        with pytest.raises(DimensionError, match=f"^{re.escape(text)}$"):
            ct.FrozenUncertainty(**mats)

    @pytest.mark.parametrize("kind", ["PID", "PD"])
    def test_missing_b(self, kind):
        g = G_PID if kind == "PID" else G_PD
        fu = ct.FrozenUncertainty(a=np.zeros((2, 2)), theta=np.eye(2))
        with pytest.raises(UsageError) as want:
            ct.assemble_A(kind, g, fu, 2)
        with pytest.raises(UsageError) as got:
            ct.q_report(kind, g, UB111, fu, 2)
        assert str(got.value) == str(want.value) == f"{kind} assembly needs the b matrix"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "n,field,value",
        [
            (1, "theta", np.nan),
            (2, "theta", np.nan),
            (2, "a", np.nan),
            (2, "b", np.nan),
            # an inf here once reached q_report's arithmetic, and numpy
            # warned before the finiteness test could raise
            (2, "theta", np.inf),
            (1, "a", -np.inf),
        ],
    )
    def test_non_finite_matrix_refused_at_construction(self, n, field, value):
        mats = {"a": np.zeros((n, n)), "theta": np.eye(n), "b": np.zeros((n, n))}
        mats[field][n - 1, 0] = value
        with pytest.raises(UsageError, match=f"^{field} contains NaN or Inf entries$"):
            ct.FrozenUncertainty(**mats)
        with pytest.raises(UsageError, match=f"^{field} contains NaN or Inf entries$"):
            ct.FrozenUncertainty.checked(UB111, **mats)


class TestDerivedCore:
    """The decrease core C = -(core A0 + A0^T core), derived from the
    closed-form P, against the paper's hand-written diagonal cores."""

    @staticmethod
    def paper_core(kind, g, b):
        kp, ki, kd = g.kp, g.ki, g.kd
        if kind == "PID":
            return np.diag([2 * ki**2 * b, 2 * (kp**2 - 2 * ki * kd) * b, 2 * (kd**2 * b - kp)]), [ki, kp, kd]
        if kind == "PD":
            return np.diag([2 * kp**2 * b, 2 * (kd**2 * b - kp)]), [kp, kd]
        return np.diag([2 * ki**2 * b, 2 * kp**2 * b - 2 * ki]), [ki, kp]

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    def test_matches_the_paper_on_random_members(self, kind):
        rng = np.random.default_rng({"PID": 51, "PD": 52, "PI": 53}[kind])
        for _ in range(200):
            g, ub = _random_member(kind, rng)
            core = ct._core_P(kind, g, ub.b_lower)
            C, u, channels = ct._margin_core(kind, core, g, ub)
            ref, u_ref = self.paper_core(kind, g, ub.b_lower)
            assert np.max(np.abs(C - ref)) <= 1e-14 * np.max(np.abs(ref))
            assert np.array_equal(C, C.T)
            assert u.tolist() == [float(k) for k in u_ref]
            bounds = [(1, ub.L1), (2, ub.L2)] if kind == "PID" else [(0, ub.L1), (1, ub.L2)]
            if kind == "PI":
                bounds = [(1, ub.L)]
            assert channels == [(j, L) for j, L in bounds if L > 0]


class TestReloadCompatibility:
    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    def test_stored_certificate_loads(self, kind):
        path = DATA / f"certificate_{kind.lower()}_n3.json"
        stored = json.loads(path.read_text())
        cert = ct.LyapunovCertificate.load(path)
        assert (cert.kind, cert.n, cert.method) == (kind, 3, stored["method"])
        assert cert.P.shape == (3 * (3 if kind == "PID" else 2),) * 2
        for key in ("alpha_lower", "alpha_upper", "lambda_min_P", "lambda_max_P"):
            fresh = getattr(cert, key)
            assert abs(fresh - stored[key]) <= ct.RELOAD_RTOL * abs(stored[key])


class TestCertifyMargin:
    def test_pi_exact_gamma(self):
        cert = ct.certify_margin("PI", G_PI, UB_PI, 1)
        assert abs(cert.alpha - (6 - math.sqrt(17))) < 1e-12
        assert abs(pi_closed_form_margin(G_PI, UB_PI) - (6 - math.sqrt(17))) < 1e-12
        assert abs(cert.lambda_max_P - (9 + math.sqrt(13)) / 2) < 1e-12
        assert abs(cert.lambda_decay - cert.alpha / (2 * cert.lambda_max_P)) < 1e-15
        assert cert.method == "exact"

    def test_pd_exact_beta(self):
        # worst corner a = b = +1: [[60, -12], [-12, 48]], eigmin 54 - 6 sqrt(5);
        # the paper's closed form bounds each cross term alone and gives 12
        cert = ct.certify_margin("PD", G_PD, UB111, 1)
        assert abs(cert.alpha - (54 - 6 * math.sqrt(5))) < 1e-12
        assert pd_closed_form_margin(G_PD, UB111) == 12.0
        assert cert.method == "exact"
        assert cert.M == math.sqrt(2 * cert.lambda_max_P / cert.lambda_min_P)

    def test_pid_degenerate_ball(self):
        ub = UncertaintyBounds(0.0, 0.0, 1.0)
        cert = ct.certify_margin("PID", G_PID, ub, 1)
        # single-point ball: Q0(0,0) = diag(2, 70, 84), so alpha = 2
        assert cert.alpha == 2.0
        assert cert.alpha_lower == cert.alpha_upper == 2.0
        assert cert.method == "exact"

    def test_zero_bound_channel_drops_out(self):
        # PI with L = 0: Q0 = diag(2 ki^2 b, 2 kp^2 b - 2 ki) = diag(2, 16)
        cert = ct.certify_margin("PI", G_PI, UncertaintyBounds.first_order(0.0, 1.0), 2)
        assert cert.alpha == 2.0 and cert.method == "exact"
        # PD with L1 = 0 only: corners b = +-1 give [[72, -6], [-6, 48]] at b = +1
        cert = ct.certify_margin("PD", G_PD, UncertaintyBounds(0.0, 1.0, 1.0), 1)
        assert abs(cert.alpha - (60 - math.sqrt(180))) < 1e-12
        assert cert.method == "exact"

    def test_integer_gains_and_bounds(self):
        cert = ct.certify_margin("PD", GainVector("PD", 6, kd=6), UncertaintyBounds(1, 1, 1), 2)
        assert abs(cert.alpha - (54 - 6 * math.sqrt(5))) < 1e-12

    def test_pid_M_includes_integral_scaling(self):
        g = suggest_gains("PID", UB111, ki=0.25)
        cert = ct.certify_margin("PID", g, UB111, 1)
        m1 = math.sqrt(2 * cert.lambda_max_P / cert.lambda_min_P)
        assert abs(cert.M - m1 / 0.25) < 1e-12

    def test_decay_identity(self):
        cert = ct.certify_margin("PID", G_PID, UB111, 1)
        assert abs(cert.lambda_decay * 2 * cert.lambda_max_P - cert.alpha) <= 1e-12 * cert.alpha

    def test_pid_reference_margin_is_corner_value(self):
        # the corner a = b = +1 of the (1, 1, 1) ball (see TestQReport)
        cert = ct.certify_margin("PID", G_PID, UB111, 3)
        assert abs(cert.alpha - 1.9568874038683) < 1e-9
        assert cert.method == "exact"
        assert 0.0 <= cert.gap <= 1e-9

    def test_pid_exact_gamma_rejected(self):
        # the paper's closed forms cover PI and PD only
        with pytest.raises(UsageError):
            pi_closed_form_margin(G_PID, UB111)
        with pytest.raises(UsageError):
            pd_closed_form_margin(G_PID, UB111)

    def test_non_member_rejected(self):
        with pytest.raises(UsageError):
            ct.certify_margin("PID", GainVector("PID", 1, 1, 1), UB111, 1)

    def test_roundtrip_reproduces_envelope_margins(self, tmp_path):
        """A reloaded certificate must reproduce bitwise-identical margins."""
        import pidcert as pc

        cert = ct.certify_margin("PID", G_PID, UB111, 1)
        path = tmp_path / "cert.json"
        cert.save(path)
        loaded = ct.LyapunovCertificate.load(path)
        plant = pc.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0})
        cfg = pc.SimConfig(
            plant=plant, gains=G_PID, y_star=[1.0], x0=[0.0, 0.0], t_final=5.0
        )
        m1 = pc.simulate(cfg, cert=cert).envelope_margin
        m2 = pc.simulate(cfg, cert=loaded).envelope_margin
        assert np.array_equal(m1, m2)

    def test_json_roundtrip(self, tmp_path):
        cert = ct.certify_margin("PID", G_PID, UB111, 2)
        path = tmp_path / "cert.json"
        cert.save(path)
        loaded = ct.LyapunovCertificate.load(path)
        assert loaded.alpha == cert.alpha
        assert loaded.M == cert.M
        assert loaded.lambda_decay == cert.lambda_decay
        np.testing.assert_array_equal(loaded.P, cert.P)
        with open(path) as fh:
            keys = set(json.load(fh))
        assert keys == {
            "kind", "n", "gains", "bounds", "alpha", "alpha_lower", "alpha_upper",
            "gap", "lambda_min_P", "lambda_max_P", "M", "lambda", "method",
        }

    def test_stale_certificate_rejected_on_load(self, tmp_path):
        """A file whose numbers do not match a fresh certification (here: a
        20%-deflated sampled estimate) must not be applied."""
        d = ct.certify_margin("PID", G_PID, UB111, 1).to_json_dict()
        d.update(alpha=0.8 * d["alpha"], method="sampled", seed=0, samples=20000)
        d["lambda"] = 0.8 * d["lambda"]
        path = tmp_path / "stale.json"
        path.write_text(json.dumps(d))
        with pytest.raises(CertificateError, match="re-certify"):
            ct.LyapunovCertificate.load(path)
        # a mismatch in M alone is caught too
        d = ct.certify_margin("PD", G_PD, UB111, 1).to_json_dict()
        d["M"] *= 1.0 + 1e-9
        with pytest.raises(CertificateError):
            ct.LyapunovCertificate.from_json_dict(d)


def _ball_matrix(L, n, rng):
    """A point of the operator-norm ball of radius L: half on the sphere."""
    d = rng.standard_normal((n, n))
    radius = L if rng.random() < 0.5 else L * rng.random()
    return d * (radius / np.linalg.norm(d, 2))


def _q0_min_eig(kind, g, ub, n, a, b):
    """lambda_min of -(P A0 + A0^T P) at theta = b_lower I, assembled explicitly."""
    P = ct.build_P(kind, g, ub, n)
    fu = ct.FrozenUncertainty(a=a, theta=ub.b_lower * np.eye(n), b=b)
    A0 = ct.assemble_A(kind, g, fu, n)
    Q0 = -(P @ A0 + A0.T @ P)
    return float(np.linalg.eigvalsh((Q0 + Q0.T) / 2.0)[0])


def _random_member(kind, rng):
    if kind == "PI":
        ub = UncertaintyBounds.first_order(rng.uniform(0, 3), rng.uniform(0.3, 3))
        g = suggest_gains("PI", ub, ki=rng.uniform(0.1, 2.0), margin=rng.uniform(0.0, 1.0))
        return g, ub
    ub = UncertaintyBounds(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.3, 3))
    extra = {"ki": rng.uniform(0.1, 2.0)} if kind == "PID" else {}
    return suggest_gains(kind, ub, margin=rng.uniform(0.0, 1.0), **extra), ub


class TestSandwichMargin:
    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_alpha_below_sampled_ball_minimum(self, kind, n):
        """Sampling oracle: alpha never exceeds lambda_min(Q0(A, B)) at
        random points (A, B) of the ball, half of them on its boundary."""
        rng = np.random.default_rng(100 * n + len(kind))
        for _ in range(10):
            g, ub = _random_member(kind, rng)
            cert = ct.certify_margin(kind, g, ub, n)
            sampled = min(
                _q0_min_eig(
                    kind, g, ub, n,
                    _ball_matrix(ub.L1, n, rng),
                    None if kind == "PI" else _ball_matrix(ub.L2, n, rng),
                )
                for _ in range(40)
            )
            assert cert.alpha <= sampled + 1e-9 * (1.0 + abs(sampled))

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    def test_alpha_equals_corner_minimum(self, kind):
        """On random region members the lower bound meets the attained
        corner minimum A = +-L1 I, B = +-L2 I, assembled explicitly."""
        rng = np.random.default_rng({"PID": 5, "PD": 6, "PI": 7}[kind])
        for _ in range(60):
            g, ub = _random_member(kind, rng)
            n = int(rng.integers(1, 4))
            eye = np.eye(n)
            b_corners = [None] if kind == "PI" else [ub.L2 * eye, -ub.L2 * eye]
            corner = min(
                _q0_min_eig(kind, g, ub, n, sa * ub.L1 * eye, b)
                for sa in (1.0, -1.0)
                for b in b_corners
            )
            cert = ct.certify_margin(kind, g, ub, n)
            assert abs(cert.alpha - corner) <= 1e-9 * abs(corner), (g, ub, n)
            assert cert.alpha_lower <= cert.alpha_upper * (1 + 1e-12)
            assert cert.method == "exact"

    def test_closed_forms_are_sound_lower_bounds(self):
        """The paper's PD closed form never exceeds the certified margin;
        the PI closed form meets it."""
        rng = np.random.default_rng(13)
        for _ in range(100):
            g, ub = _random_member("PD", rng)
            alpha = ct.certify_margin("PD", g, ub, 1).alpha
            assert pd_closed_form_margin(g, ub) <= alpha * (1 + 1e-12)
            g, ub = _random_member("PI", rng)
            alpha = ct.certify_margin("PI", g, ub, 1).alpha
            assert abs(pi_closed_form_margin(g, ub) - alpha) <= 1e-9 * (1.0 + alpha)


class TestCertificateOrdering:
    def test_ordering_random_instances(self):
        """lambda_min(Q) >= lambda_min(Q0) >= alpha and
        lambda_max(PA + A^T P + alpha I) <= 1e-9 on random draws."""
        rng = np.random.default_rng(2024)
        for trial in range(150):
            n = int(rng.integers(1, 4))
            ub = UncertaintyBounds(
                rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.3, 3)
            )
            g = suggest_gains("PID", ub, ki=rng.uniform(0.1, 2.0))
            cert = ct.certify_margin("PID", g, ub, n)
            fu = sample_frozen_uncertainty(ub, n, rng)
            rep = ct.q_report("PID", g, ub, fu, n)
            assert rep.lambda_min_Q >= rep.lambda_min_Q0 - 1e-9
            assert rep.lambda_min_Q0 >= cert.alpha - 1e-9
            A = ct.assemble_A("PID", g, fu, n)
            residual = mk.symmetrize(cert.P @ A + A.T @ cert.P + cert.alpha * np.eye(3 * n))
            _, lam_max = mk.eig_extrema(residual)
            assert lam_max <= 1e-9

    def test_exact_margins_bound_q0(self):
        rng = np.random.default_rng(77)
        for trial in range(100):
            n = int(rng.integers(1, 4))
            if trial % 2 == 0:
                ub = UncertaintyBounds(rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.3, 3))
                g = suggest_gains("PD", ub, margin=rng.uniform(0.05, 1.0))
                kind = "PD"
            else:
                ub = UncertaintyBounds.first_order(rng.uniform(0, 3), rng.uniform(0.3, 3))
                g = suggest_gains("PI", ub, ki=rng.uniform(0.1, 2.0))
                kind = "PI"
            cert = ct.certify_margin(kind, g, ub, n)
            fu = sample_frozen_uncertainty(ub, n, rng)
            rep = ct.q_report(kind, g, ub, fu, n)
            assert rep.lambda_min_Q >= rep.lambda_min_Q0 - 1e-9
            assert rep.lambda_min_Q0 >= cert.alpha - 1e-9
