"""Tests for the closed-loop simulator and its trajectory audits."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.linalg import expm

import pidcert as pc
from pidcert.certificates import FrozenUncertainty, assemble_A
from pidcert.errors import CertificateError, PlantError, UsageError
from pidcert.simulator import RK4_FIXED, RK45_ADAPTIVE, Trajectory, _resolution

UB111 = pc.UncertaintyBounds(1.0, 1.0, 1.0)
UB00 = pc.UncertaintyBounds(0.0, 0.0, 1.0)
G_PID = pc.GainVector("PID", 7, 1, 7)


def double_integrator():
    return pc.build_family(
        "linear_matrix", {"A1": [[0.0]], "A2": [[0.0]], "Theta": [[1.0]]}
    )


def sin_plant():
    return pc.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0})


@pytest.fixture(scope="module")
def di_cert():
    return pc.certify_margin("PID", G_PID, UB00, 1)


@pytest.fixture(scope="module")
def sin_cert():
    return pc.certify_margin("PID", G_PID, UB111, 1)


class TestSimulate:
    def test_double_integrator_matches_matrix_exponential(self, di_cert):
        """The shifted closed loop is linear: zdot = A z with companion A;
        expm provides the exact reference for e(t)."""
        cfg = pc.SimConfig(
            plant=double_integrator(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0],
            t_final=30.0, dt_max=0.01,
        )
        traj = pc.simulate(cfg, cert=di_cert)
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -7.0, -7.0]])
        z0 = np.array([0.0, 1.0, 0.0])
        for t_probe in (5.0, 10.0, 30.0):
            k = int(np.argmin(np.abs(traj.times - t_probe)))
            ref = expm(A * traj.times[k]) @ z0
            assert abs(traj.errors[k, 0] - ref[1]) < 1e-6
            assert abs(traj.edots[k, 0] - ref[2]) < 1e-6

    def test_double_integrator_regulates(self):
        cfg = pc.SimConfig(
            plant=double_integrator(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0],
            t_final=100.0,
        )
        traj = pc.simulate(cfg)
        assert abs(traj.errors[-1, 0]) < 1e-6

    def test_equilibrium_start_with_preloaded_integral(self, sin_cert):
        """x0 = (y*, 0) with the integral preloaded to u*/ki pins the loop at
        its equilibrium: e stays identically zero and the margin equals the
        envelope itself."""
        y = np.pi / 2
        sol = pc.solve_equilibrium(sin_plant(), [y])
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[y], x0=[y, 0.0],
            t_final=5.0, integral_state0=sol.u_star / G_PID.ki,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        assert np.max(np.abs(traj.errors)) < 1e-12
        expected = sin_cert.M * np.exp(-sin_cert.lambda_decay * traj.times) * np.linalg.norm(sol.u_star)
        np.testing.assert_allclose(traj.envelope_margin, expected, atol=1e-10)

    def test_z0_initial_value(self, sin_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[np.pi / 2], x0=[0.0, 0.0],
            t_final=1.0,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        assert traj.z[0, 0] == -traj.u_star[0] / G_PID.ki

    def test_z0_matches_error_quadrature(self, sin_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[np.pi / 2], x0=[0.0, 0.0],
            t_final=30.0, dt_max=0.005,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        z0, z1 = traj.z[:, 0], traj.z[:, 1]
        quad = z0[0] + cumulative_trapezoid(z1, traj.times, initial=0.0)
        scale = 1.0 + np.max(np.abs(z0))
        assert np.max(np.abs(quad - z0)) < 1e-5 * scale

    def test_mismatched_certificate_rejected(self, di_cert):
        cfg = pc.SimConfig(
            plant=double_integrator(), gains=pc.GainVector("PID", 8, 1, 8),
            y_star=[1.0], x0=[0.0, 0.0], t_final=1.0,
        )
        with pytest.raises(UsageError):
            pc.simulate(cfg, cert=di_cert)

    def test_out_of_class_plant_rejected(self):
        """The certificate covers (0.01, 0.01, 1); the plant declares (5, 5, 1)."""
        g = pc.GainVector("PID", 3.5, 1, 3.5)
        cert = pc.certify_margin("PID", g, pc.UncertaintyBounds(0.01, 0.01, 1.0), 1)
        plant = pc.build_family("sinusoidal_scalar", {"c1": 5.0, "c2": 5.0})
        cfg = pc.SimConfig(plant=plant, gains=g, y_star=[1.0], x0=[0.0, 0.0], t_final=1.0)
        with pytest.raises(CertificateError, match="out of class"):
            pc.simulate(cfg, cert=cert)
        assert pc.simulate(cfg).envelope is None  # without a certificate it runs

    def test_kind_order_mismatch_rejected(self):
        first = pc.build_family("sinusoidal_scalar", {"order": "first_order"})
        with pytest.raises(UsageError):
            pc.SimConfig(plant=first, gains=G_PID, y_star=[0.0], x0=[0.0], t_final=1.0)

    @pytest.mark.parametrize("key", ["t_final", "dt_max", "rtol", "atol"])
    def test_infinite_setting_is_usage_error(self, key):
        """+inf passes the sign tests; -inf and NaN keep their sign messages."""
        run = dict(plant=sin_plant(), gains=G_PID, y_star=[0.5], x0=[0.0, 0.0], t_final=1.0)
        with pytest.raises(UsageError) as info:
            pc.SimConfig(**(run | {key: math.inf}))
        assert str(info.value) == f"{key} must be finite, got inf"
        sign = ">= 0" if key == "rtol" else "> 0"
        for value in (-math.inf, math.nan):
            with pytest.raises(UsageError) as info:
                pc.SimConfig(**(run | {key: value}))
            assert str(info.value) == f"{key} must be {sign}"

    def test_zero_atol_is_usage_error(self):
        """With atol = 0, RK45's error scale is 0 at the zero state component
        of this rest start: refused by name, before a step divides by it (a
        RuntimeWarning, which fails the suite) and blames the plant.  rtol = 0
        stays allowed."""
        run = dict(
            plant=pc.build_family("sinusoidal_scalar", {"order": "first_order", "c1": 1.0}),
            gains=pc.GainVector("PI", 3, 1), y_star=[0.5], x0=[0.0], t_final=1.0,
        )
        with pytest.raises(UsageError) as info:
            pc.simulate(pc.SimConfig(**run, atol=0.0))
        assert str(info.value) == "atol must be > 0"
        assert pc.simulate(pc.SimConfig(**run, rtol=0.0)).status == 0

    # gains, sinusoidal_scalar params and a rest x0 of each kind
    INITIAL = {
        "PID": (G_PID, {}, [0.0, 0.0]),
        "PD": (pc.GainVector("PD", 6, kd=6), {}, [0.0, 0.0]),
        "PI": (pc.GainVector("PI", 3, 1), {"order": "first_order"}, [0.0]),
    }

    @pytest.mark.parametrize("integrator", [RK4_FIXED, RK45_ADAPTIVE])
    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    @pytest.mark.parametrize("field", ["y_star", "x0", "integral_state0"])
    @pytest.mark.parametrize("bad", ["size", "inf", "nan", "bool"])
    def test_bad_initial_data_is_usage_error(self, bad, field, kind, integrator):
        """A wrong-sized or non-finite y*, x0 or integral state is outside the
        paper's finite initial states: SimConfig refuses it by name, before
        any plant call could blame the plant.  A bool is not a number, as
        everywhere a number is read."""
        gains, params, x0 = self.INITIAL[kind]
        run = dict(
            plant=pc.build_family("sinusoidal_scalar", params), gains=gains, y_star=[0.5],
            x0=x0, integral_state0=[0.0], t_final=1.0, integrator=integrator,
        )
        good = run[field]
        value = (
            good + [0.0] if bad == "size"
            else [True] + good[1:] if bad == "bool"
            else [float(bad)] + good[1:]
        )
        size = f"{len(good)} finite number" + ("s" if len(good) > 1 else "")
        with pytest.raises(UsageError) as info:
            pc.simulate(pc.SimConfig(**(run | {field: value})))
        assert str(info.value) == f"{field} must be {size}, got {value}"

    @pytest.mark.parametrize("value", ["zero", [0.0, [1.0]], None])
    def test_non_numeric_initial_data_is_usage_error(self, value):
        run = dict(plant=sin_plant(), gains=G_PID, y_star=[0.5], t_final=1.0)
        with pytest.raises(UsageError, match=r"^x0 must be 2 finite numbers, got "):
            pc.SimConfig(**run, x0=value)

    def test_initial_data_is_stored_as_flat_float_copies(self):
        x0 = np.array([[1.0], [0.0]])
        cfg = pc.SimConfig(plant=sin_plant(), gains=G_PID, y_star=0.5, x0=x0,
                           integral_state0=(2,), t_final=1.0)
        for got, want in ((cfg.y_star, [0.5]), (cfg.x0, [1.0, 0.0]), (cfg.integral_state0, [2.0])):
            assert got.dtype == np.float64 and got.tolist() == want
        x0[0, 0] = 7
        assert cfg.x0.tolist() == [1.0, 0.0]

    def test_nan_plant_raises(self):
        bad = pc.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.array([np.nan]),
            declared_bounds=UB111,
        )
        cfg = pc.SimConfig(plant=bad, gains=pc.GainVector("PD", 6, kd=6),
                           y_star=[0.0], x0=[1.0, 0.0], t_final=1.0)
        with pytest.raises(PlantError):
            pc.simulate(cfg)

    def test_rk4_fixed_runs(self):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[0.5], x0=[0.0, 0.0],
            t_final=40.0, dt_max=0.01, integrator=RK4_FIXED,
        )
        traj = pc.simulate(cfg)
        assert abs(traj.errors[-1, 0]) < 1e-3
        assert traj.times[-1] == pytest.approx(40.0)


class TestOverflowedTrialSteps:
    @pytest.mark.parametrize(
        "params",
        [{"c1": 1.0, "c2": 1.0, "b_lower": 1.0}, {"c1": 0.3, "c2": 0.9, "b_lower": 1.4}],
        ids=["c1_1", "c1_0.3"],
    )
    @pytest.mark.parametrize("y_star", [-2.5, 2.0])
    def test_high_gain_cubic_input_cells_reach_t_final(self, params, y_star):
        """The four cells of scripts/configs/sweep_robustness.json whose
        first trial steps overflow u^3: RK45 rejects those steps, so each
        cell run alone reaches t_final and passes its verdict, as it does
        in the batched sweep."""
        g = pc.GainVector("PID", 154.00000000000003, 20.0, 154.00000000000003)
        cfg = pc.SimConfig(
            plant=pc.build_family("nonaffine_cubic_u", params), gains=g,
            y_star=[y_star], x0=[0.0, 0.0], t_final=30.0,
        )
        traj = pc.simulate(cfg, pc.certify_margin("PID", g, UB111, 1))
        assert traj.times[-1] == 30.0 and traj.status == 0
        assert pc.judge(traj).passed


class TestIntegratorOrder:
    def test_rk4_halving_step_gains_factor_eight(self):
        """Fourth-order convergence against a fine-step Richardson reference."""
        def terminal_error(dt):
            cfg = pc.SimConfig(
                plant=sin_plant(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0],
                t_final=2.0, dt_max=dt, integrator=RK4_FIXED,
            )
            return pc.simulate(cfg).states[-1]

        ref = terminal_error(0.1 / 16)
        err_coarse = np.linalg.norm(terminal_error(0.1) - ref)
        err_fine = np.linalg.norm(terminal_error(0.05) - ref)
        assert err_coarse / err_fine >= 8.0


class TestFitDecay:
    def synthetic(self, signal, times):
        n = times.size
        return Trajectory(
            kind="PD", n=1, times=times,
            states=np.zeros((n, 2)),
            errors=signal.reshape(-1, 1),
            edots=np.zeros((n, 1)),
            controls=np.zeros((n, 1)),
            y_star=np.zeros(1),
            t_final=float(times[-1]),
            resolution=_resolution(np.zeros((n, 2)), 1e-8, 1e-10),
        )

    def test_exact_exponential(self):
        t = np.linspace(0, 10, 400)
        traj = self.synthetic(3.0 * np.exp(-2.0 * t), t)
        lam, m = pc.fit_decay(traj, (0.0, 10.0))
        assert abs(lam - 2.0) < 1e-6
        assert abs(m - 3.0) < 1e-6

    def test_constant_signal(self):
        t = np.linspace(0, 10, 200)
        traj = self.synthetic(np.full(t.size, 0.7), t)
        lam, _ = pc.fit_decay(traj, (0.0, 10.0))
        assert abs(lam) < 1e-12

    def test_floor_truncates_window(self):
        """The signal meets twice its resolution, 2 sqrt(2) 1e-10, at
        t ~ 2.2 and sits on a noise plateau after it; the fit stops there."""
        t = np.linspace(0, 10, 200)
        sig = np.maximum(np.exp(-10.0 * t), 1e-12)
        traj = self.synthetic(sig, t)
        lam, _ = pc.fit_decay(traj, (0.0, 10.0))
        assert abs(lam - 10.0) < 1e-6
        k = int(np.argmax(sig <= 2 * traj.resolution))
        assert 2.1 < t[k] < 2.3
        assert pc.fit_decay(traj, (0.0, t[k - 1])) == pc.fit_decay(traj, (0.0, 10.0))

    def test_empty_window_rejected(self):
        t = np.linspace(0, 1, 50)
        traj = self.synthetic(np.ones(50), t)
        with pytest.raises(UsageError):
            pc.fit_decay(traj, (5.0, 6.0))
        with pytest.raises(UsageError):
            pc.fit_decay(traj, (0.5, 0.5))

    def test_simulated_decay_positive(self, di_cert):
        cfg = pc.SimConfig(
            plant=double_integrator(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0],
            t_final=30.0,
        )
        traj = pc.simulate(cfg, cert=di_cert)
        lam, _ = pc.fit_decay(traj, (2.0, 28.0))
        assert lam > 0.9 * di_cert.lambda_decay
        # empirical rate approaches the slowest closed-loop mode 3 - 2*sqrt(2)
        assert lam == pytest.approx(3 - 2 * math.sqrt(2), rel=0.1)


class TestEnvelopeAudit:
    def test_certified_run_passes(self, sin_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[np.pi / 2], x0=[2.0, -1.0],
            t_final=30.0,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        audit = pc.envelope_audit(traj)
        assert audit.passes
        assert audit.first_violation_time is None

    def test_inflated_rate_fails(self, sin_cert):
        """A decay rate inflated well past the empirical one must produce a
        detectable violation (falsification control for the audit)."""
        import dataclasses

        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[np.pi / 2], x0=[2.0, -1.0],
            t_final=120.0,
        )
        honest = pc.simulate(cfg, cert=sin_cert)
        lam_emp, _ = pc.fit_decay(honest, (5.0, 100.0))
        fake = dataclasses.replace(sin_cert, lambda_decay=4.0 * lam_emp)
        traj = pc.simulate(cfg, cert=fake)
        audit = pc.envelope_audit(traj)
        assert not audit.passes
        assert audit.first_violation_time is not None

    def _banded_trajectory(self, sin_cert, bump):
        """Synthetic trajectory whose signal pokes above the envelope by a
        controlled factor inside a window around t = 50."""
        import dataclasses

        t = np.linspace(0.0, 100.0, 1001)
        cert = dataclasses.replace(sin_cert, lambda_decay=0.02, M=2.0)
        env = 10.0 * np.exp(-cert.lambda_decay * t)
        sig = 0.5 * env
        window = (t > 45.0) & (t < 55.0)
        sig[window] = env[window] * bump
        return Trajectory(
            kind="PD", n=1, times=t,
            states=np.zeros((t.size, 2)),
            errors=sig.reshape(-1, 1),
            edots=np.zeros((t.size, 1)),
            controls=np.zeros((t.size, 1)),
            y_star=np.zeros(1),
            t_final=100.0,
            resolution=_resolution(np.zeros((t.size, 2)), 1e-8, 1e-10),
            envelope=env,
            envelope_margin=env - sig,
            cert=cert,
        )

    def test_small_dip_below_envelope_fails(self, sin_cert):
        """The margin is proven, so a dip of 0.1% below the envelope is a
        violation, located at the start of the dip."""
        traj = self._banded_trajectory(sin_cert, bump=1.001)
        audit = pc.envelope_audit(traj)
        assert audit.min_margin < -2 * traj.resolution[0]
        assert not audit.passes
        assert 45.0 < audit.first_violation_time < 45.2

    def test_deep_violation_fails_despite_band(self, sin_cert):
        traj = self._banded_trajectory(sin_cert, bump=2.0)
        audit = pc.envelope_audit(traj)
        assert not audit.passes
        assert audit.first_violation_time is not None

    def test_missing_margins_rejected(self):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[0.0], x0=[1.0, 0.0], t_final=1.0,
        )
        traj = pc.simulate(cfg)
        with pytest.raises(UsageError):
            pc.envelope_audit(traj)
        with pytest.raises(UsageError):
            pc.lyapunov_monitor(traj)

    def test_pd_envelope_without_equilibrium_input(self):
        """PD at an uncontrolled equilibrium setpoint: the envelope has no u*
        term and still holds."""
        g = pc.GainVector("PD", 6, kd=6)
        cert = pc.certify_margin("PD", g, UB111, 1)
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=g, y_star=[0.0], x0=[3.0, 2.0], t_final=30.0,
        )
        traj = pc.simulate(cfg, cert=cert)
        e0 = np.linalg.norm(traj.errors[0]) + np.linalg.norm(traj.edots[0])
        assert traj.envelope[0] == pytest.approx(cert.M * e0)
        assert pc.envelope_audit(traj).passes

    def test_pd_cert_requires_equilibrium_setpoint(self):
        g = pc.GainVector("PD", 6, kd=6)
        cert = pc.certify_margin("PD", g, UB111, 1)
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=g, y_star=[np.pi / 2], x0=[0.0, 0.0], t_final=1.0,
        )
        with pytest.raises(UsageError):
            pc.simulate(cfg, cert=cert)

    def test_pi_first_order_envelope(self):
        plant = pc.build_family("sinusoidal_scalar", {"order": "first_order"})
        ub = plant.declared_bounds
        g = pc.GainVector("PI", 3, 1)
        cert = pc.certify_margin("PI", g, ub, 1)
        cfg = pc.SimConfig(plant=plant, gains=g, y_star=[1.0], x0=[-2.0], t_final=40.0)
        traj = pc.simulate(cfg, cert=cert)
        assert traj.z[0, 0] == -traj.u_star[0] / g.ki
        assert pc.envelope_audit(traj).passes
        assert abs(traj.errors[-1, 0]) < 1e-6


class TestLyapunovMonitor:
    def test_v_decreases_on_linear_plant(self, di_cert):
        cfg = pc.SimConfig(
            plant=double_integrator(), gains=G_PID, y_star=[2.0], x0=[0.0, 1.0],
            t_final=30.0,
        )
        traj = pc.simulate(cfg, cert=di_cert)
        rep = pc.lyapunov_monitor(traj)
        assert rep.passes
        assert rep.worst_excess <= 0 and rep.first_violation_time is None
        assert rep.v_final < rep.v_initial

    def test_zero_initial_z_keeps_v_zero(self, sin_cert):
        y = np.pi / 2
        sol = pc.solve_equilibrium(sin_plant(), [y])
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[y], x0=[y, 0.0],
            t_final=5.0, integral_state0=sol.u_star / G_PID.ki,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        rep = pc.lyapunov_monitor(traj)
        assert rep.v_initial < 1e-20
        assert rep.v_final < 1e-20

    def test_nonlinear_plant_monitor(self, sin_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[np.pi / 2], x0=[-3.0, 1.0],
            t_final=40.0,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        rep = pc.lyapunov_monitor(traj)
        assert rep.passes
        assert rep.worst_excess <= 0


class TestDecayGate:
    """The V gate is the decay the certificate proves: dV/dt <= -2 lambda V,
    so V(t_{k+1}) <= exp(-2 lambda h_k) V(t_k) on the exact flow."""

    @staticmethod
    def corner_run(kind, s1, s2=1.0):
        """A linear_matrix corner member of the class (A1 = s1 L1 I,
        A2 = s2 L2 I, Theta = b_lower I) at n = 2, its certificate, its
        simulated run and its companion matrix."""
        I = np.eye(2)
        if kind == "PI":
            ub, g = pc.UncertaintyBounds.first_order(1.0, 1.0), pc.GainVector("PI", 3, 1)
            params, x0 = {"order": "first_order", "A": (s1 * I).tolist()}, [0.0, 1.0]
            fu = FrozenUncertainty(a=s1 * I, theta=I)
        else:
            ub, g = UB111, G_PID
            params, x0 = {"A1": (s1 * I).tolist(), "A2": (s2 * I).tolist()}, [0.0, 0.0, 1.0, 0.0]
            fu = FrozenUncertainty(a=s1 * I, b=s2 * I, theta=I)
        plant = pc.build_family("linear_matrix", {**params, "Theta": I.tolist()})
        cert = pc.certify_margin(kind, g, ub, 2)
        cfg = pc.SimConfig(plant=plant, gains=g, y_star=[0.5, -1.0], x0=x0, t_final=20.0)
        return cfg, cert, pc.simulate(cfg, cert=cert), assemble_A(kind, g, fu, 2)

    @pytest.mark.parametrize(
        "kind,s1,s2",
        [("PID", 1, 1), ("PID", 1, -1), ("PID", -1, 1), ("PID", -1, -1), ("PI", 1, 1), ("PI", -1, 1)],
    )
    def test_exact_flow_meets_the_certified_decay(self, kind, s1, s2):
        cfg, cert, traj, A = self.corner_run(kind, s1, s2)
        z = np.array([expm(A * t) @ traj.z[0] for t in traj.times])
        # the companion matrix is the simulated closed loop's
        assert np.max(np.abs(z - traj.z)) < 1e-7
        v = np.einsum("ki,ij,kj->k", z, cert.P, z)
        decay = np.exp(-2 * cert.lambda_decay * np.diff(traj.times))
        eps = np.finfo(float).eps
        assert np.all(v[1:] <= decay * v[:-1] + 4 * eps * v[:-1])
        rep = pc.lyapunov_monitor(traj)
        assert rep.passes and rep.worst_excess <= 0 and rep.first_violation_time is None

    def test_doubled_rate_fails_the_gate(self):
        """On PI's destabilising corner (A = +L I) a certificate claiming
        twice its proven rate fails the V gate and the verdict."""
        cfg, cert, _, _ = self.corner_run("PI", 1)
        fake = dataclasses.replace(cert, lambda_decay=2 * cert.lambda_decay)
        traj = pc.simulate(cfg, cert=fake)
        rep = pc.lyapunov_monitor(traj)
        assert not rep.passes
        assert rep.worst_excess > 0 and rep.first_violation_time is not None
        verdict = pc.judge(traj)
        assert verdict.v_nonincreasing is False and verdict.passed is False

    @pytest.mark.parametrize("side,passes", [(-0.01, True), (0.01, False)])
    def test_step_slack_is_what_the_resolution_changes_in_v(self, side, passes):
        """V at t = 1.01 moved to 1% of delta_k = d_k + d_{k+1} below or
        above exp(-2 lambda h) V(1) + delta_k, with d_j = lambda_max(P)
        (2 |z_j| + eps_j) eps_j: the gate passes the one and fails the other."""
        _, cert, traj, _ = self.corner_run("PID", 1, 1)
        k, eps = 100, traj.resolution
        d = cert.lambda_max_P * (2 * np.linalg.norm(traj.z, axis=1) + eps) * eps
        delta = d[k] + d[k + 1]
        h = traj.times[k + 1] - traj.times[k]
        v = traj.v_values.copy()
        v[k + 1] = np.exp(-2 * cert.lambda_decay * h) * v[k] + (1 + side) * delta
        rep = pc.lyapunov_monitor(dataclasses.replace(traj, v_values=v))
        assert rep.passes is passes
        assert rep.first_violation_time == (None if passes else traj.times[k + 1])

    def test_roundoff_below_the_resolution_passes(self):
        """A PD cell on which the endpoint inequality
        dV <= -alpha min(|z_k|^2, |z_{k+1}|^2) h + 1e-5 V_k fails once V is
        roundoff, under 1e-16 V(0): the gate, which allows each sample its
        resolution, passes it."""
        g = pc.GainVector("PD", 9.5, kd=6.9)
        plant = pc.build_family(
            "tanh_coupled", {"n": 2, "l1": 0.8, "l2": 0.6, "b_lower": 1.2, "w_scale": 0.3}
        )
        cert = pc.certify_margin("PD", g, UB111, 2)
        cfg = pc.SimConfig(plant=plant, gains=g, y_star=[0.0, 0.0],
                           x0=[-0.92, -0.97, 0.63, 0.83], t_final=20.0)
        traj = pc.simulate(cfg, cert=cert)
        v, zn2 = traj.v_values, np.sum(traj.z * traj.z, axis=1)
        endpoint = (np.diff(v) + cert.alpha * np.minimum(zn2[:-1], zn2[1:]) * np.diff(traj.times)
                    - 1e-5 * v[:-1])
        assert np.any(endpoint > 0)
        assert np.all(v[1:][endpoint > 0] < 1e-16 * v[0])
        assert pc.lyapunov_monitor(traj).passes
        assert pc.judge(traj).passed

    def test_pi_at_the_floor_passes_with_the_state_resolution(self):
        """PI's z is (i - u*/ki, e): the state less constants, x negated, with
        no edot block, so a state error of eps moves z by eps however large
        the gains and df/du (here up to 901).  A long, high-gain PI run whose
        V falls under 1e-16 V(0) passes the gate on that resolution."""
        g = pc.GainVector("PI", 30, 10)
        plant = pc.build_family(
            "nonaffine_cubic_u", {"c1": 1.0, "b_lower": 1.0, "order": "first_order"}
        )
        cert = pc.certify_margin("PI", g, plant.declared_bounds, 1)
        cfg = pc.SimConfig(plant=plant, gains=g, y_star=[0.5], x0=[1.0], t_final=60.0)
        traj = pc.simulate(cfg, cert=cert)
        i, x = traj.states[:, :1], traj.states[:, 1:]
        np.testing.assert_array_equal(traj.z, np.hstack([i - traj.u_star / 10, 0.5 - x]))
        assert np.min(traj.v_values) < 1e-16 * traj.v_values[0]
        assert pc.lyapunov_monitor(traj).passes
        assert pc.judge(traj).passed

    def test_rk4_borrows_the_rk45_tolerances(self):
        """Fixed-step RK4 reads neither rtol nor atol: two runs that differ
        only in them record the same states, and each run's resolution is
        the one _resolution takes from its own tolerances."""
        cfg, cert, _, _ = self.corner_run("PID", 1, 1)
        runs = [
            pc.simulate(dataclasses.replace(cfg, integrator=RK4_FIXED, rtol=rtol, atol=atol), cert)
            for rtol, atol in ((1e-8, 1e-10), (1e-6, 1e-9))
        ]
        np.testing.assert_array_equal(runs[0].states, runs[1].states)
        for traj, (rtol, atol) in zip(runs, ((1e-8, 1e-10), (1e-6, 1e-9))):
            np.testing.assert_array_equal(traj.resolution, _resolution(traj.states, rtol, atol))
        assert runs[1].resolution[0] > 10 * runs[0].resolution[0]


class TestJudge:
    def certified_run(self, sin_cert, **kw):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[0.5], x0=[1.0, -0.5], **kw
        )
        return pc.simulate(cfg, cert=sin_cert)

    def test_rising_v_fails_while_the_envelope_holds(self, sin_cert):
        """V bumped up by 1% of V(0) halfway through: the envelope still
        holds, V does not decrease, and the run fails."""
        honest = self.certified_run(sin_cert, t_final=10.0)
        assert pc.judge(honest).passed
        v = honest.v_values.copy()
        v[500] += 0.01 * v[0]
        verdict = pc.judge(dataclasses.replace(honest, v_values=v))
        assert verdict.envelope_pass is True
        assert verdict.v_nonincreasing is False
        assert verdict.passed is False

    def test_rk4_run_is_fit_on_its_configured_horizon(self, sin_cert):
        """Fixed-step RK4 at dt = 0.1 ends 1.8e-15 short of t_final = 5, and
        a window scaled from that last sample holds other samples; the fit
        uses [0.5, 4.5], from the configured horizon."""
        traj = self.certified_run(sin_cert, t_final=5.0, dt_max=0.1, integrator=RK4_FIXED)
        assert traj.t_final == 5.0 and traj.times[-1] < 5.0
        verdict = pc.judge(traj)
        assert (verdict.lambda_emp, verdict.M_emp) == pc.fit_decay(traj, (0.5, 4.5))
        last = traj.times[-1]
        assert verdict.lambda_emp != pc.fit_decay(traj, (0.1 * last, 0.9 * last))[0]


class TestCsvExport:
    def test_header_and_roundtrip(self, tmp_path, sin_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0], t_final=2.0,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,i_0,x1_0,x2_0,e_0,edot_0,u_0,V,envelope_margin"
        assert len(lines) == traj.times.size + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[4]) == traj.errors[0, 0]

    @pytest.mark.parametrize(
        "kind,params,gains,x0,header",
        [
            ("PD", {}, (6, 0, 6), [3.0, 2.0],
             "t,x1_0,x2_0,e_0,edot_0,u_0,V,envelope_margin"),
            ("PI", {"order": "first_order"}, (3, 1, 0), [-2.0],
             "t,i_0,x_0,e_0,edot_0,u_0,V,envelope_margin"),
        ],
    )
    def test_header_per_kind(self, tmp_path, kind, params, gains, x0, header):
        plant = pc.build_family("sinusoidal_scalar", params)
        cfg = pc.SimConfig(
            plant=plant, gains=pc.GainVector(kind, *gains), y_star=[0.0], x0=x0, t_final=1.0,
        )
        path = tmp_path / "traj.csv"
        pc.simulate(cfg).to_csv(path)
        assert path.read_text().splitlines()[0] == header

    def test_two_dimensional_header(self, tmp_path):
        p = pc.build_family("tanh_coupled", {"n": 2})
        cfg = pc.SimConfig(plant=p, gains=pc.GainVector("PID", 9, 1, 9), y_star=[0.5, -0.5],
                           x0=np.zeros(4), t_final=1.0)
        path = tmp_path / "traj.csv"
        pc.simulate(cfg).to_csv(path)
        assert path.read_text().splitlines()[0] == (
            "t,i_0,i_1,x1_0,x1_1,x2_0,x2_1,e_0,e_1,edot_0,edot_1,u_0,u_1,V,envelope_margin"
        )

    @pytest.mark.parametrize("with_cert", [True, False])
    def test_every_cell_parses_back_exactly(self, tmp_path, sin_cert, with_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[1.0], x0=[0.3, -0.2], t_final=2.0,
        )
        traj = pc.simulate(cfg, cert=sin_cert if with_cert else None)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        rows = list(csv.reader(path.read_text().splitlines()))[1:]
        expect = np.column_stack(
            [traj.times, traj.states, traj.errors, traj.edots, traj.controls]
        )
        assert len(rows) == expect.shape[0]
        for row, want in zip(rows, expect):
            assert [float(c) for c in row[:-2]] == want.tolist()
        tail = [row[-2:] for row in rows]
        if with_cert:
            assert [float(v) for v, _ in tail] == traj.v_values.tolist()
            assert [float(m) for _, m in tail] == traj.envelope_margin.tolist()
        else:
            assert all(cells == ["", ""] for cells in tail)

    @staticmethod
    def csv_writer_bytes(traj, path):
        """The file as csv.writer writes it, one repr per value."""
        header = ["t"] + [
            f"{prefix}_{j}"
            for prefix in [*pc.LAYOUT[traj.kind].values(), "e", "edot", "u"]
            for j in range(traj.n)
        ] + ["V", "envelope_margin"]
        body = np.column_stack([traj.times, traj.states, traj.errors, traj.edots, traj.controls])
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(body.shape[0]):
                row = [repr(v) for v in body[k].tolist()]
                row += ["" if a is None else repr(float(a[k]))
                        for a in (traj.v_values, traj.envelope_margin)]
                writer.writerow(row)
        return path.read_bytes()

    @pytest.mark.parametrize("with_cert", [True, False], ids=["certified", "uncertified"])
    @pytest.mark.parametrize(
        "n,plant,gains,y,x0,t_final",
        [
            (1, {"family": "sinusoidal_scalar"}, (7, 1, 7), [1.0], [0.3, -0.2], 2.0),
            (2, {"family": "tanh_coupled", "params": {"n": 2}}, (9, 1, 9), [0.5, -0.5],
             np.zeros(4), 2.0),
            # 2,501 rows: two full write chunks and a partial third
            (1, {"family": "sinusoidal_scalar"}, (7, 1, 7), [1.0], [0.3, -0.2], 25.0),
        ],
        ids=["n1", "n2", "long"],
    )
    def test_bytes_equal_the_csv_writer(self, tmp_path, n, plant, gains, y, x0, t_final, with_cert):
        g = pc.GainVector("PID", *gains)
        cfg = pc.SimConfig(plant=pc.build_family(plant["family"], plant.get("params")), gains=g,
                           y_star=y, x0=x0, t_final=t_final, integrator=RK4_FIXED)
        traj = pc.simulate(cfg, cert=pc.certify_margin("PID", g, UB111, n) if with_cert else None)
        traj.to_csv(tmp_path / "traj.csv")
        got = (tmp_path / "traj.csv").read_bytes()
        assert got == self.csv_writer_bytes(traj, tmp_path / "ref.csv")
        assert got.count(b"\r\n") == traj.times.size + 1
        assert got.endswith(b",,\r\n") != with_cert


class TestStateLayout:
    """e, edot, u and z are rebuilt from the state blocks of each kind."""

    def test_pid_controls_follow_the_control_law(self, sin_cert):
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=G_PID, y_star=[1.0], x0=[0.3, -0.2], t_final=3.0,
        )
        traj = pc.simulate(cfg, cert=sin_cert)
        i, x1, x2 = traj.states[:, :1], traj.states[:, 1:2], traj.states[:, 2:]
        np.testing.assert_array_equal(traj.errors, 1.0 - x1)
        np.testing.assert_array_equal(traj.edots, -x2)
        np.testing.assert_array_equal(
            traj.controls, 7 * traj.errors + 1 * i + 7 * traj.edots
        )
        np.testing.assert_array_equal(
            traj.z, np.hstack([i - traj.u_star / G_PID.ki, traj.errors, traj.edots])
        )

    def test_pi_edot_is_minus_plant_rhs(self):
        plant = pc.build_family("nonaffine_cubic_u", {"order": "first_order", "c1": 0.8})
        g = pc.GainVector("PI", 3, 1)
        cfg = pc.SimConfig(plant=plant, gains=g, y_star=[0.7], x0=[1.5], t_final=5.0)
        traj = pc.simulate(cfg)
        i, x = traj.states[:, :1], traj.states[:, 1:]
        np.testing.assert_array_equal(traj.controls, 3 * traj.errors + 1 * i)
        for k in range(traj.times.size):
            np.testing.assert_array_equal(traj.edots[k], -plant.f(x[k], traj.controls[k]))
        np.testing.assert_array_equal(
            traj.z, np.hstack([i - traj.u_star / g.ki, traj.errors])
        )

    def test_pd_z_is_error_and_its_derivative(self):
        g = pc.GainVector("PD", 6, kd=6)
        cfg = pc.SimConfig(
            plant=sin_plant(), gains=g, y_star=[0.0], x0=[3.0, 2.0], t_final=5.0,
        )
        traj = pc.simulate(cfg)
        np.testing.assert_array_equal(traj.z, np.hstack([traj.errors, traj.edots]))
        np.testing.assert_array_equal(traj.edots, -traj.states[:, 1:])
        np.testing.assert_array_equal(traj.controls, 6 * traj.errors + 6 * traj.edots)
        np.testing.assert_array_equal(traj.u_star, [0.0])


def _batch_and_singles(cfgs, certs):
    batch = list(pc.simulate_batch([pc.prepare_cell(c, k) for c, k in zip(cfgs, certs)]))
    singles = [pc.simulate(c, cert=k) for c, k in zip(cfgs, certs)]
    return batch, singles


class TestBatch:
    """simulate_batch stacks cells into one integration; each cell must
    match its own one-cell run."""

    @staticmethod
    def pid_cells(integrator, plants):
        cfgs, certs = [], []
        cert = pc.certify_margin("PID", G_PID, UB111, 1)
        for plant in plants:
            for y, x0 in ((1.0, [0.0, 0.0]), (-0.5, [0.3, -0.2]), (2.0, [1.0, 1.0])):
                cfgs.append(pc.SimConfig(plant=plant, gains=G_PID, y_star=[y], x0=x0,
                                         t_final=8.0, integrator=integrator))
                certs.append(cert)
        return cfgs, certs

    @staticmethod
    def pd_cells(integrator):
        g = pc.GainVector("PD", 8.0, kd=8.0)
        ub = pc.UncertaintyBounds(1.0, 1.0, 1.0)
        cert = pc.certify_margin("PD", g, ub, 2)
        plants = [
            pc.build_family("tanh_coupled", {"n": 2, "l1": 0.8, "l2": 0.6, "b_lower": 1.2, "w_scale": 0.3}),
            pc.build_family("rotation_gain", {"b_lower": 1.1, "s": 2.5, "a1": -0.7, "a2": -0.9}),
        ]
        cfgs = [
            pc.SimConfig(plant=p, gains=g, y_star=[0.0, 0.0], x0=x0, t_final=8.0,
                         integrator=integrator)
            for p in plants
            for x0 in ([1.0, -0.5, 0.2, 0.0], [-0.3, 0.8, 0.0, 0.4])
        ]
        return cfgs, [cert] * len(cfgs)

    @staticmethod
    def pi_cells(integrator):
        g = pc.GainVector("PI", 3.0, ki=1.0)
        ub = pc.UncertaintyBounds.first_order(L=1.0, b_lower=1.0)
        cert = pc.certify_margin("PI", g, ub, 1)
        plants = [
            pc.build_family("sinusoidal_scalar", {"order": "first_order", "c1": 0.9}),
            pc.build_family("linear_matrix", {"order": "first_order", "A": [[-0.6]], "Theta": [[1.3]]}),
        ]
        cfgs = [
            pc.SimConfig(plant=p, gains=g, y_star=[y], x0=[0.2], t_final=8.0, integrator=integrator)
            for p in plants
            for y in (1.0, -1.5)
        ]
        return cfgs, [cert] * len(cfgs)

    def test_rk4_cells_match_one_cell_runs_bitwise(self):
        plants = [sin_plant(), double_integrator(),
                  pc.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})]
        for cfgs, certs in (self.pid_cells(RK4_FIXED, plants), self.pi_cells(RK4_FIXED)):
            batch, singles = _batch_and_singles(cfgs, certs)
            for b, s in zip(batch, singles):
                for name in ("times", "states", "errors", "edots", "controls", "z", "envelope_margin"):
                    np.testing.assert_array_equal(getattr(b, name), getattr(s, name))

    def test_rk4_matrix_plants_match_to_roundoff(self):
        batch, singles = _batch_and_singles(*self.pd_cells(RK4_FIXED))
        for b, s in zip(batch, singles):
            np.testing.assert_allclose(b.states, s.states, rtol=1e-12, atol=1e-12 * np.max(np.abs(s.states)))

    @pytest.mark.parametrize("kind", ["PID", "PD", "PI"])
    def test_rk45_cells_stay_close_with_the_same_verdicts(self, kind):
        if kind == "PID":
            cfgs, certs = self.pid_cells(pc.RK45_ADAPTIVE, [sin_plant(), double_integrator()])
        else:
            cfgs, certs = getattr(self, f"{kind.lower()}_cells")(pc.RK45_ADAPTIVE)
        batch, singles = _batch_and_singles(cfgs, certs)
        assert len(batch) == len(cfgs)
        for b, s, cert in zip(batch, singles, certs):
            scale = np.max(np.abs(s.states))
            np.testing.assert_allclose(b.states, s.states, rtol=1e-6, atol=1e-6 * scale)
            ab, as_ = pc.envelope_audit(b), pc.envelope_audit(s)
            assert ab.passes == as_.passes
            assert ab.min_margin == pytest.approx(as_.min_margin, rel=1e-6)
            mb, ms = pc.lyapunov_monitor(b), pc.lyapunov_monitor(s)
            assert mb.passes == ms.passes
            assert (b.cells, s.cells) == (len(cfgs), 1)

    def test_integrator_statistics_are_shared(self):
        cfgs, certs = self.pi_cells(pc.RK45_ADAPTIVE)
        batch, singles = _batch_and_singles(cfgs, certs)
        assert {(t.nfev, t.status, t.cells) for t in batch} == {(batch[0].nfev, 0, 4)}
        assert all(s.nfev > 0 and s.status == 0 and s.cells == 1 for s in singles)
        rk4 = pc.simulate(pc.SimConfig(plant=sin_plant(), gains=G_PID, y_star=[1.0],
                                       x0=[0.0, 0.0], t_final=1.0, integrator=RK4_FIXED))
        assert (rk4.nfev, rk4.status, rk4.cells) == (400, 0, 1)

    def test_custom_per_point_plant_in_a_batch(self):
        """A custom f that only takes one point runs through the row loop and
        gives the built-in plant's trajectories."""
        custom = pc.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.array([np.sin(x1[0]) - x2[0] + u[0]]),
            declared_bounds=UB111,
        )
        cfgs_c, certs = self.pid_cells(RK4_FIXED, [custom])
        cfgs_b, _ = self.pid_cells(RK4_FIXED, [sin_plant()])
        cells = lambda cfgs: [pc.prepare_cell(c, k) for c, k in zip(cfgs, certs)]
        for tc, tb in zip(pc.simulate_batch(cells(cfgs_c)), pc.simulate_batch(cells(cfgs_b))):
            np.testing.assert_array_equal(tc.states, tb.states)

    def test_cells_must_share_the_integration(self):
        a = pc.SimConfig(plant=sin_plant(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0], t_final=2.0)
        b = pc.SimConfig(plant=sin_plant(), gains=G_PID, y_star=[1.0], x0=[0.0, 0.0], t_final=3.0)
        with pytest.raises(UsageError, match="share"):
            next(pc.simulate_batch([pc.prepare_cell(a), pc.prepare_cell(b)]))
        with pytest.raises(UsageError, match="at least one"):
            next(pc.simulate_batch([]))

    def test_trajectories_are_built_on_demand(self, monkeypatch):
        from pidcert import simulator

        built = []
        real = simulator._trajectory
        monkeypatch.setattr(simulator, "_trajectory", lambda *a: built.append(1) or real(*a))
        cfgs, certs = self.pi_cells(pc.RK45_ADAPTIVE)
        it = pc.simulate_batch([pc.prepare_cell(c, k) for c, k in zip(cfgs, certs)])
        assert not built
        next(it)
        assert len(built) == 1
