"""Tests for the scalar PI planar analysis and the necessity counterexamples."""

import dataclasses
import re

import numpy as np
import pytest

import pidcert as pc
from pidcert.errors import PlantError, UsageError
from pidcert.planar_pi import PlanarField, jacobian_conditions, necessity_counterexample

UB_PI = pc.UncertaintyBounds.first_order(1.0, 1.0)


def linear_plant(L=1.0, b=1.0):
    return pc.build_family(
        "linear_matrix", {"order": "first_order", "A": [[L]], "Theta": [[b]]}
    )


def sin_plant():
    return pc.build_family("sinusoidal_scalar", {"order": "first_order", "c1": 1.0})


class TestJacobianConditions:
    def test_linear_constant_jacobian(self):
        field = PlanarField.build(linear_plant(), pc.GainVector("PI", 2, 1), 0.5)
        rep = jacobian_conditions(field)
        assert rep.max_trace == pytest.approx(-1.0)  # L - kp*b everywhere
        assert rep.min_det == pytest.approx(1.0)  # ki*b everywhere
        assert rep.sufficiency
        assert rep.analytic_trace_bound == -1.0

    def test_sin_plant_trace_bounded(self):
        field = PlanarField.build(sin_plant(), pc.GainVector("PI", 2, 1), 0.3)
        rep = jacobian_conditions(field)
        assert rep.max_trace <= -1.0 + 1e-8
        assert rep.min_det > 0
        assert rep.sufficiency

    def test_boundary_gains_fail(self):
        field = PlanarField.build(linear_plant(), pc.GainVector("PI", 1, 1), 0.0)
        rep = jacobian_conditions(field)
        assert rep.analytic_trace_bound == 0.0
        assert not rep.sufficiency

    @pytest.mark.parametrize(
        "plant,gains,y_star",
        [
            (sin_plant(), (2.0, 1.0), 0.3),
            (pc.build_family("nonaffine_cubic_u", {"order": "first_order", "c1": -0.8, "b_lower": 0.6}), (3.0, 0.7), -1.2),
            (linear_plant(1.0, 1.0), (1.0, 1.0), 0.0),
        ],
    )
    def test_grid_equals_the_per_point_loop(self, plant, gains, y_star):
        """The one-pass grid gives the extremes, and the first grid point of
        each, of a loop over the points (z0 outer, z1 inner), bitwise."""
        field = PlanarField.build(plant, pc.GainVector("PI", *gains), y_star)
        rep = jacobian_conditions(field, radius=5.0, points=9)
        kp, ki = gains
        best = {"trace": (-np.inf, None), "det": (np.inf, None)}
        for z0 in np.linspace(-5.0, 5.0, 9):
            for z1 in np.linspace(-5.0, 5.0, 9):
                x = np.array([field.y_star - z1])
                u = np.array([ki * z0 + kp * z1 + field.u_star])
                gx = float(plant.jac_x1(x, u)[0, 0])
                gu = -float(plant.jac_u(x, u)[0, 0])
                jac = np.array([[0.0, 1.0], [ki * gu, gx + kp * gu]])
                trace = jac[0, 0] + jac[1, 1]
                det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
                if trace > best["trace"][0]:
                    best["trace"] = (trace, (z0, z1))
                if det < best["det"][0]:
                    best["det"] = (det, (z0, z1))
        assert (rep.max_trace, rep.max_trace_point) == best["trace"]
        assert (rep.min_det, rep.min_det_point) == best["det"]
        assert rep.grid_points == 81

    def test_nonfinite_jacobian_names_its_grid_point(self):
        plant = sin_plant()
        good = plant.jac_x1
        bad = dataclasses.replace(
            plant, jac_x1=lambda x, u: np.where(x[..., None] < -3.0, np.nan, good(x, u))
        )
        field = PlanarField.build(bad, pc.GainVector("PI", 2, 1), 0.0)
        # y* - z1 < -3 first at z0 = -4 (the outer axis), z1 = 4
        with pytest.raises(PlantError, match=re.escape("(z0, z1) = (-4.0, 4.0)")):
            jacobian_conditions(field, radius=4.0, points=3)

    def test_requires_scalar_first_order(self):
        second = pc.build_family("sinusoidal_scalar", {})
        with pytest.raises(UsageError):
            PlanarField.build(second, pc.GainVector("PI", 2, 1), 0.0)

    def test_field_vanishes_at_origin(self):
        """G(0, 0) = (0, -f(y*, u*)): u* makes the plant rest at y*."""
        field = PlanarField.build(sin_plant(), pc.GainVector("PI", 2, 1), 0.7)
        f = field.plant.eval_checked(np.array([field.y_star]), np.array([field.u_star]))
        assert abs(f[0]) < 1e-9


class TestNecessity:
    def test_ki_zero_offset(self):
        g = pc.GainVector("PI", 2.0, 0.0)
        rep = necessity_counterexample("ki_zero", UB_PI, g, 1.0)
        assert rep.e_inf_analytic == -1.0
        assert abs(rep.e_inf_observed - rep.e_inf_analytic) < 1e-4
        assert rep.nonconvergent

    def test_ki_zero_requires_nonzero_setpoint(self):
        g = pc.GainVector("PI", 2.0, 0.0)
        with pytest.raises(UsageError):
            necessity_counterexample("ki_zero", UB_PI, g, 0.0)

    def test_unstable_linear_eigenvalue(self):
        g = pc.GainVector("PI", 0.5, 1.0)
        rep = necessity_counterexample("unstable_linear", UB_PI, g, 0.0)
        assert abs(rep.max_re_eigenvalue - 0.25) < 1e-9
        assert rep.nonconvergent

    def test_boundary_pure_oscillation(self):
        # kp*b = L exactly: trace 0, eigenvalues +-i*sqrt(ki*b)
        g = pc.GainVector("PI", 1.0, 1.0)
        rep = necessity_counterexample("unstable_linear", UB_PI, g, 0.0)
        assert abs(rep.max_re_eigenvalue) < 1e-9
        assert rep.nonconvergent

    def test_member_gains_rejected(self):
        g = pc.GainVector("PI", 2.0, 1.0)
        with pytest.raises(UsageError):
            necessity_counterexample("unstable_linear", UB_PI, g, 0.0)

    def test_unknown_case(self):
        with pytest.raises(UsageError):
            necessity_counterexample("bogus", UB_PI, pc.GainVector("PI", 2, 1), 0.0)


class TestRelaxedRegionIsStrictlyLarger:
    def test_witness_gains(self):
        """(1.5, 2) lies in the relaxed region but not in the exponential-rate
        region, yet still regulates the linear extreme plant."""
        g = pc.GainVector("PI", 1.5, 2.0)
        assert pc.pi_relaxed_membership(g, UB_PI).member
        assert not pc.membership(g, UB_PI).member
        closed = np.array([[0.0, 1.0], [-g.ki * 1.0, 1.0 - g.kp * 1.0]])
        assert np.max(np.real(np.linalg.eigvals(closed))) < 0
        cfg = pc.SimConfig(
            plant=linear_plant(), gains=g, y_star=[1.0], x0=[-1.0], t_final=80.0,
        )
        traj = pc.simulate(cfg)
        assert abs(traj.errors[-1, 0]) < 1e-6


class TestSufficiencyProperty:
    def test_random_plants_and_gains(self):
        """Random in-class scalar plants with relaxed-region gains: the grid
        conditions pass and the loop converges from random starts."""
        rng = np.random.default_rng(99)
        for trial in range(12):
            c1 = rng.uniform(0.2, 2.0)
            if trial % 3 == 0:
                plant = pc.build_family(
                    "linear_matrix",
                    {"order": "first_order", "A": [[c1]], "Theta": [[rng.uniform(0.5, 2.0)]]},
                )
            elif trial % 3 == 1:
                plant = pc.build_family(
                    "sinusoidal_scalar", {"order": "first_order", "c1": c1}
                )
            else:
                plant = pc.build_family(
                    "nonaffine_cubic_u",
                    {"order": "first_order", "c1": c1, "b_lower": rng.uniform(0.5, 2.0)},
                )
            ub = plant.declared_bounds
            margin = rng.uniform(1.0, 3.0)
            g = pc.GainVector("PI", (ub.L + margin) / ub.b_lower, rng.uniform(0.2, 2.0))
            assert pc.pi_relaxed_membership(g, ub).member
            y = float(rng.uniform(-3, 3))
            field = PlanarField.build(plant, g, y)
            rep = jacobian_conditions(field)
            assert rep.sufficiency, (trial, rep)
            # size the horizon from the slowest linear-extreme eigenvalue
            slow = min(
                -np.max(np.real(np.linalg.eigvals(
                    [[0.0, 1.0], [-g.ki * ub.b_lower, a - g.kp * ub.b_lower]]
                )))
                for a in (-ub.L, ub.L)
            )
            horizon = min(max(200.0 / (g.kp * ub.b_lower - ub.L), 14.0 / slow), 500.0)
            for _ in range(3):
                x0 = rng.uniform(-10, 10, size=1)
                cfg = pc.SimConfig(
                    plant=plant, gains=g, y_star=[y], x0=x0,
                    t_final=horizon, dt_max=0.05, rtol=1e-7, atol=1e-9,
                )
                traj = pc.simulate(cfg)
                assert np.linalg.norm(traj.errors[-1]) < 1e-4
