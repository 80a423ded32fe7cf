"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every expected number here is either exact arithmetic or comes
from an independent reference computation (cofactor determinants, quadratic
formulas, dense LAPACK eigenvalues, matrix exponentials).
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

import pidcert as pc
from pidcert import certificates, cli
from pidcert import matrix_kernel as mk
from pidcert.planar_pi import necessity_counterexample
from oracles import (
    monotonicity_probe,
    pd_closed_form_margin,
    pi_closed_form_margin,
    sample_frozen_uncertainty,
    solve_from,
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
            # the raw margin itself must clear twice the worst sample resolution
            assert audit.min_margin >= -2 * traj.resolution.max(), (fam, ki, y, audit)
            assert audit.passes
            lam_emp, _ = pc.fit_decay(traj, (1.0, 27.0))
            assert lam_emp >= 0.9 * cert.lambda_decay, (fam, ki, y, lam_emp)
        assert elapsed < 60.0, f"grid took {elapsed:.1f}s"
        report(5, f"27/27 envelope audits and decay fits passed in {elapsed:.1f}s")

    @pytest.mark.parametrize(
        "kind, ki", [("PD", 0.0)] + [(k, ki) for k in ("PID", "PI") for ki in (0.5, 0.7, 1.0, 2.0)]
    )
    def test_criterion_05_envelope_bounds_the_exact_linear_flow(self, kind, ki):
        """On the linear members at the corners of the ball, at y* = 0, the
        shifted loop is z' = A z, so z(t) = expm(A t) z(0) exactly.  At every
        recorded time the envelope ``simulate`` records bounds the error
        signal of that flow, from random starts with the integral preloaded
        where the kind has one, and from x0 = 0 with i(0) = 1."""
        first = kind == "PI"
        ub = pc.UncertaintyBounds.first_order(1.0, 1.0) if first else UB111
        g = pc.suggest_gains(kind, ub, **({} if kind == "PD" else {"ki": ki}))
        cert = pc.certify_margin(kind, g, ub, 1)
        blocks = len(pc.LAYOUT[kind])
        rng = np.random.default_rng(55)
        starts = [rng.uniform(-3.0, 3.0, blocks) for _ in range(3)]
        if kind != "PD":
            starts.append(np.eye(blocks)[0])  # x0 = 0, i(0) = 1
        # df/dx1 = +-1 (and df/dx2 = +-1 for second order), df/du = 1
        for corner in itertools.product((1.0, -1.0), repeat=1 if first else 2):
            a, b = [corner[:1]], None if first else [corner[1:]]
            mats = {"A": a} if first else {"A1": a, "A2": b}
            plant = pc.build_family("linear_matrix", {**mats, "Theta": [[1.0]], "order": ub.order})
            fu = certificates.FrozenUncertainty(a=a, theta=[[1.0]], b=b)
            A = certificates.assemble_A(kind, g, fu, 1)
            for s0 in starts:
                # the state (i, x1[, x2]) is (z_i, -e[, -edot]) at y* = u* = 0
                i0, x0 = (s0[:1], s0[1:]) if kind != "PD" else (None, s0)
                cfg = pc.SimConfig(
                    plant=plant, gains=g, y_star=[0.0], x0=x0, t_final=20.0, dt_max=0.1,
                    integral_state0=i0,
                )
                traj = pc.simulate(cfg, cert=cert)
                z0 = np.concatenate([[] if i0 is None else i0, -x0])
                z = expm(A[None] * traj.times[:, None, None]) @ z0
                # |e| + |edot| over the blocks past i, each of size n = 1
                signal = np.abs(z[:, blocks - len(x0) :]).sum(axis=1)
                assert np.all(signal <= traj.envelope), (kind, ki, corner, s0)
        report(5, f"{kind} ki = {ki}: the recorded envelope bounds the exact linear flow")

    def test_criterion_05_preloaded_integral_passes_judge(self):
        """A start whose integral is preloaded far from u*/ki: the envelope
        scale counts |u* - ki i(0)|, not |u*|, so the run passes."""
        plant = pc.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0})
        g = pc.GainVector("PID", 7, 1, 7)
        cfg = pc.SimConfig(
            plant=plant, gains=g, y_star=[math.pi / 2], x0=[math.pi / 2, 0.0],
            t_final=30.0, integral_state0=[-50.0],
        )
        verdict = pc.judge(pc.simulate(cfg, cert=pc.certify_margin("PID", g, UB111, 1)))
        assert verdict.envelope_pass and verdict.v_nonincreasing, verdict
        assert verdict.min_margin > 0, verdict
        report(5, f"i(0) = -50 start passes the envelope audit (min margin {verdict.min_margin:.3g})")

    def test_criterion_06_lyapunov_monotonicity(self, grid_trajectories):
        cells, _ = grid_trajectories
        for fam, ki, y, cert, traj in cells:
            rep = pc.lyapunov_monitor(traj)
            assert rep.passes, (fam, ki, y, rep)
        report(6, "V(z(t)) decays at the certified rate on all 27 grid trajectories")

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
                    assert np.linalg.norm(solve_from(plant, y, u0) - sol.u_star) <= 1e-8
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
