"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected number here is either exact arithmetic or comes
from an independent reference computation (cofactor determinants, quadratic
formulas, dense LAPACK eigenvalues, matrix exponentials).
"""

import math
import time

import numpy as np
import pytest

import pidcert as pc
from pidcert import certificates, cli
from pidcert import matrix_kernel as mk
from pidcert.planar_pi import necessity_counterexample
from oracles import (
    monotonicity_probe,
    pd_closed_form_margin,
    pi_closed_form_margin,
    sample_frozen_uncertainty,
)
from schur_chain import pid_det_formula

UB111 = pc.UncertaintyBounds(1.0, 1.0, 1.0)


def report(num, label):
    print(f"ACCEPTANCE {num}: PASS - {label}")


# ---------------------------------------------------------------------------
# Shared 27-cell grid (criteria 5 and 6): 3 plants x 3 gain sets x 3 setpoints
# ---------------------------------------------------------------------------

GRID_PLANTS = [
    ("linear_matrix", {"A1": [[1.0]], "A2": [[-1.0]], "Theta": [[1.0]]}),
    ("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
    ("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}),
]
GRID_KI = [0.5, 1.0, 2.0]
GRID_SETPOINTS = [-2.0, 1.0, 3.0]
GRID_X0 = np.array([5.0, -3.0])  # |x0| <= 10


@pytest.fixture(scope="module")
def grid_trajectories():
    """Simulate the full certified grid once; criteria 5 and 6 both audit it."""
    t_start = time.perf_counter()
    certs = {
        ki: pc.certify_margin("PID", pc.suggest_gains("PID", UB111, ki=ki), UB111, 1)
        for ki in GRID_KI
    }
    cells = []
    for fam, params in GRID_PLANTS:
        plant = pc.build_family(fam, params)
        for ki, cert in certs.items():
            for y in GRID_SETPOINTS:
                cfg = pc.SimConfig(
                    plant=plant, gains=cert.gains, y_star=[y], x0=GRID_X0,
                    t_final=30.0, dt_max=0.01,
                )
                traj = pc.simulate(cfg, cert=cert)
                cells.append((fam, ki, y, cert, traj))
    elapsed = time.perf_counter() - t_start
    return cells, elapsed


class TestAcceptance:
    def test_criterion_01_gain_formula_constructions(self):
        """Closed-form gain constructions are members for 1000 random bounds."""
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for _ in range(1000):
            L1, L2, b = rng.uniform(1e-6, 10.0, size=3)
            ki = rng.uniform(1e-3, 5.0)
            ub = pc.UncertaintyBounds(L1, L2, b)
            k = 2 * ki + (2 * (L1 + L2) + 1) / b
            assert pc.membership(pc.GainVector("PID", k, ki, k), ub).member
            kpd = ((2 * (L1 + L2) + 1) / b) * (1 + rng.uniform(1e-6, 1.0))
            assert pc.membership(pc.GainVector("PD", kpd, kd=kpd), ub).member
            ub1 = pc.UncertaintyBounds.first_order(L1, b)
            kp = 2 * L1 / b + ki / L1
            assert pc.membership(pc.GainVector("PI", kp, ki), ub1).member
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        report(1, f"3000 closed-form constructions all members in {elapsed:.3f}s")

    def test_criterion_02_p_matrix_reproduction(self):
        g = pc.GainVector("PID", 7, 1, 7)
        P = certificates.build_P("PID", g, UB111, 1)
        np.testing.assert_array_equal(
            P, [[14.0, 14.0, 1.0], [14.0, 97.0, 7.0], [1.0, 7.0, 7.0]]
        )
        det_closed = pid_det_formula(g, 1.0)
        det_cofactor = (
            P[0, 0] * (P[1, 1] * P[2, 2] - P[1, 2] * P[2, 1])
            - P[0, 1] * (P[1, 0] * P[2, 2] - P[1, 2] * P[2, 0])
            + P[0, 2] * (P[1, 0] * P[2, 1] - P[1, 1] * P[2, 0])
        )
        det_generic = np.linalg.det(P)
        assert det_closed == 7547.0
        assert det_cofactor == 7547.0
        assert abs(det_generic - 7547.0) / 7547.0 < 1e-9
        report(2, "P block equals the reference matrix; det = 7547 via both routes")

    def test_criterion_03_certificate_ordering(self):
        """1000 random instances: lambda_min(Q) >= lambda_min(Q0) - 1e-9 and
        lambda_max(PA + A^T P + alpha I) <= 1e-9 with the certified alpha."""
        rng = np.random.default_rng(202)
        violations = 0
        for trial in range(1000):
            n = int(rng.integers(1, 4))
            ub = pc.UncertaintyBounds(
                rng.uniform(0, 3), rng.uniform(0, 3), rng.uniform(0.3, 3)
            )
            g = pc.suggest_gains("PID", ub, ki=rng.uniform(0.1, 2.0))
            cert = pc.certify_margin("PID", g, ub, n)
            fu = sample_frozen_uncertainty(ub, n, rng)
            rep = certificates.q_report("PID", g, ub, fu, n)
            A = certificates.assemble_A("PID", g, fu, n)
            resid = mk.symmetrize(cert.P @ A + A.T @ cert.P + cert.alpha * np.eye(3 * n))
            _, lam_max = mk.eig_extrema(resid)
            if rep.lambda_min_Q < rep.lambda_min_Q0 - 1e-9:
                violations += 1
            if lam_max > 1e-9:
                violations += 1
        assert violations == 0
        report(3, "ordering held on all 1000 instances, zero violations")

    def test_criterion_04_exact_margins(self):
        g_pi, ub_pi = pc.GainVector("PI", 3, 1), pc.UncertaintyBounds.first_order(1, 1)
        g_pd = pc.GainVector("PD", 6, kd=6)
        # the paper's closed forms
        gamma = pi_closed_form_margin(g_pi, ub_pi)
        assert abs(gamma - (6 - math.sqrt(17))) < 1e-12
        beta = pd_closed_form_margin(g_pd, UB111)
        assert beta == 12.0
        # the certified (exact) ball minima: PI meets gamma, PD is the corner
        # a = b = +1 with block [[60, -12], [-12, 48]]
        cert_pi = pc.certify_margin("PI", g_pi, ub_pi, 1)
        assert abs(cert_pi.alpha - (6 - math.sqrt(17))) < 1e-12
        cert_pd = pc.certify_margin("PD", g_pd, UB111, 1)
        assert abs(cert_pd.alpha - (54 - 6 * math.sqrt(5))) < 1e-12
        assert cert_pi.method == cert_pd.method == "exact"
        report(4, "PI margin = 6 - sqrt(17), PD closed form = 12, PD certified = 54 - 6 sqrt(5)")

    def test_criterion_05_envelope_grid(self, grid_trajectories):
        cells, elapsed = grid_trajectories
        assert len(cells) == 27
        for fam, ki, y, cert, traj in cells:
            audit = pc.envelope_audit(traj)
            assert audit.atol_envelope == 1e-7 * traj.envelope[0]
            # the raw margin itself must clear the tolerance
            assert audit.min_margin >= -audit.atol_envelope, (fam, ki, y, audit)
            assert audit.passes
            lam_emp, _ = pc.fit_decay(traj, (1.0, 27.0))
            assert lam_emp >= 0.9 * cert.lambda_decay, (fam, ki, y, lam_emp)
        assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
        report(5, f"27/27 envelope audits and decay fits passed in {elapsed:.1f}s")

    def test_criterion_06_lyapunov_monotonicity(self, grid_trajectories):
        cells, _ = grid_trajectories
        for fam, ki, y, cert, traj in cells:
            rep = pc.lyapunov_monitor(traj)
            assert rep.nonincreasing_pass, (fam, ki, y, rep)
        report(6, "V(z(t)) non-increasing on all 27 grid trajectories")

    def test_criterion_07_necessity(self):
        ub = pc.UncertaintyBounds.first_order(1.0, 1.0)
        off = necessity_counterexample(
            "ki_zero", ub, pc.GainVector("PI", 2.0, 0.0), 1.0
        )
        assert abs(off.e_inf_analytic - (-1.0)) == 0.0
        assert abs(off.e_inf_observed - (-1.0)) < 1e-4
        assert off.nonconvergent
        unstable = necessity_counterexample(
            "unstable_linear", ub, pc.GainVector("PI", 0.5, 1.0), 0.0
        )
        assert abs(unstable.max_re_eigenvalue - 0.25) < 1e-9
        assert unstable.nonconvergent
        report(7, "offset converges to -1 +- 1e-4; unstable case Re = 0.25 +- 1e-9")

    def test_criterion_08_semi_cone(self):
        rng = np.random.default_rng(303)
        for _ in range(10_000):
            ub = pc.UncertaintyBounds(
                rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0.05, 5)
            )
            g = pc.suggest_gains(
                "PID", ub, ki=rng.uniform(0.01, 3.0), margin=rng.uniform(0.0, 1.0)
            )
            alpha = rng.uniform(1.0, 1e3)
            assert pc.membership(g.scaled(alpha), ub).member
        report(8, "10000 member scalings stayed inside the region, zero failures")

    def test_criterion_09_equilibrium_solver(self):
        rng = np.random.default_rng(404)
        families = [
            ("linear_matrix", {"A1": [[0.6, 0.1], [0.0, 0.5]], "A2": [[0.3, 0.0], [0.1, 0.2]], "Theta": [[1.4, 0.2], [0.0, 1.1]]}),
            ("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
            ("tanh_coupled", {"n": 2, "l1": 1.0, "l2": 0.8, "b_lower": 1.0}),
            ("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}),
            ("rotation_gain", {"b_lower": 1.0, "s": 10.0, "a1": 0.4, "a2": 0.2}),
        ]
        for fam, params in families:
            plant = pc.build_family(fam, params)
            for _ in range(50):
                y = rng.uniform(-10, 10, size=plant.n)
                y *= min(1.0, 10.0 / (np.linalg.norm(y) + 1e-12))
                sol = pc.solve_equilibrium(plant, y)
                assert sol.residual_norm <= 1e-10, (fam, y, sol.residual_norm)
                for _ in range(20):
                    u0 = rng.uniform(-30, 30, size=plant.n)
                    again = pc.solve_equilibrium(plant, y, u0=u0)
                    assert np.linalg.norm(again.u_star - sol.u_star) <= 1e-8
            probe = monotonicity_probe(plant, np.zeros(plant.n), pairs=100, seed=5)
            assert probe >= plant.declared_bounds.b_lower - 1e-8
        report(9, "residuals <= 1e-10, 20-start agreement <= 1e-8, probes >= b_lower")

    def test_criterion_10_sweep_determinism(self, tmp_path):
        import json

        config = {
            "kind": "PID",
            "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
            "plants": [
                {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                {"family": "nonaffine_cubic_u", "params": {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}},
            ],
            "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}, {"kp": 9, "ki": 2, "kd": 9}],
            "setpoints": [1.0, -0.5],
            "sim": {"t_final": 12.0},
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli.run("sweep", str(cfg_path), seed=77, out_dir=str(out1)) == 0
        assert cli.run("sweep", str(cfg_path), seed=77, out_dir=str(out2)) == 0
        b1 = (out1 / "sweep.csv").read_bytes()
        b2 = (out2 / "sweep.csv").read_bytes()
        assert b1 == b2
        report(10, "sweep re-run with the same seed is byte-identical")
