"""Tests for the scalar PI planar analysis and the necessity counterexamples."""

import dataclasses
import math
import re

import numpy as np
import pytest

import pidcert as pc
from pidcert import planar_pi
from pidcert import plant_models as pm
from pidcert.errors import PlantError, UsageError
from pidcert.planar_pi import PlanarField, jacobian_conditions, necessity_counterexample

from oracles import planar_trace_det

UB_PI = pc.UncertaintyBounds.first_order(1.0, 1.0)


def linear_plant(L=1.0, b=1.0):
    return pc.build_family(
        "linear_matrix", {"order": "first_order", "A": [[L]], "Theta": [[b]]}
    )


def sin_plant():
    return pc.build_family("sinusoidal_scalar", {"order": "first_order", "c1": 1.0})


def cubic_plant():
    return pc.build_family(
        "nonaffine_cubic_u", {"order": "first_order", "c1": -0.8, "b_lower": 0.6}
    )


# one plant of each shipped first-order family, with relaxed-member gains
SHIPPED_FIRST_ORDER = [
    (linear_plant(), (2.0, 1.0), 0.5),
    (sin_plant(), (2.0, 1.0), 0.3),
    (cubic_plant(), (3.0, 0.7), -1.2),
]


class TestPlanarFieldBuild:
    @pytest.mark.parametrize("y_star", [math.inf, math.nan])
    def test_non_finite_setpoint_is_usage_error(self, y_star):
        """The setpoint is checked once, by the equilibrium solve, and named;
        the plant is not called with it (a RuntimeWarning, which fails the
        suite) and blamed."""
        with pytest.raises(UsageError, match=r"^y_star must be 1 finite number, got "):
            PlanarField.build(sin_plant(), pc.GainVector("PI", 3, 1), y_star)


class TestJacobianConditions:
    def test_linear_constant_jacobian(self):
        field = PlanarField.build(linear_plant(), pc.GainVector("PI", 2, 1), 0.5)
        rep = jacobian_conditions(field)
        assert rep.trace_bound == -1.0  # L - kp*b
        assert rep.det_bound == 1.0  # ki*b
        assert rep.relaxed_margins == {"kp_b_vs_L": 1.0, "ki_positive": 1.0}
        assert rep.sufficiency and rep.audit.passes
        assert rep.linear_member is None

    def test_sin_plant_trace_bounded(self):
        field = PlanarField.build(sin_plant(), pc.GainVector("PI", 2, 1), 0.3)
        rep = jacobian_conditions(field)
        assert (rep.trace_bound, rep.det_bound) == (-1.0, 1.0)
        assert rep.audit.max_norm_jac_x1 <= 1.0 and rep.audit.min_sym_jac_u == 1.0
        assert rep.sufficiency

    def test_boundary_gains_fail(self):
        """kp*b = L: the linear member's closed loop has eigenvalues +-i."""
        field = PlanarField.build(linear_plant(), pc.GainVector("PI", 1, 1), 0.0)
        rep = jacobian_conditions(field)
        assert rep.trace_bound == 0.0
        assert rep.audit.passes and not rep.sufficiency
        assert rep.linear_member["a"] == 1.0 and rep.linear_member["theta"] == 1.0
        assert rep.linear_member["max_re_eigenvalue"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("plant,gains,y_star", SHIPPED_FIRST_ORDER)
    def test_the_verdict_does_not_depend_on_the_grid(self, plant, gains, y_star):
        field = PlanarField.build(plant, pc.GainVector("PI", *gains), y_star)
        verdicts = {jacobian_conditions(field, points=k).sufficiency for k in (2, 41)}
        assert verdicts == {True}
        outside = PlanarField.build(plant, pc.GainVector("PI", 0.5 * plant.declared_bounds.L, 1.0), y_star)
        assert {jacobian_conditions(outside, points=k).sufficiency for k in (2, 41)} == {False}

    def test_every_non_member_is_refuted_by_the_linear_member(self):
        """Outside the relaxed region the linear member's closed loop has
        trace L - kp*b >= 0 or determinant ki*b <= 0, so an eigenvalue with
        nonnegative real part."""
        rng = np.random.default_rng(5)
        for _ in range(20):
            kp, ki = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 2.0)
            g = pc.GainVector("PI", kp, ki)
            assert not pc.pi_relaxed_membership(g, UB_PI).member
            rep = jacobian_conditions(PlanarField.build(linear_plant(), g, 0.0), points=2)
            assert not rep.sufficiency
            assert rep.linear_member["max_re_eigenvalue"] >= 0.0

    @pytest.mark.parametrize("plant,gains,y_star", SHIPPED_FIRST_ORDER)
    def test_the_proof_bounds_hold_at_every_grid_point(self, plant, gains, y_star):
        """The trace and determinant of the field Jacobian, computed point by
        point, respect the two bounds the proof uses."""
        field = PlanarField.build(plant, pc.GainVector("PI", *gains), y_star)
        rep = jacobian_conditions(field)
        tb, db = rep.trace_bound, rep.det_bound
        assert rep.sufficiency and tb < 0 < db
        grid = planar_trace_det(field, radius=20.0, points=41)
        assert len(grid) == rep.audit.samples
        for _, trace, det in grid:
            assert trace <= tb + 1e-12 * (1 + abs(tb))
            assert det >= db - 1e-12 * (1 + db)

    def test_a_plant_that_breaks_its_declared_b_fails_the_audit(self):
        """f_u = 1 everywhere, but the plant declares b = 2: the gains are
        relaxed members of the declared class, and the audit refuses the
        plant at the first grid point."""
        plant = dataclasses.replace(
            sin_plant(), declared_bounds=pc.UncertaintyBounds.first_order(1.0, 2.0)
        )
        field = PlanarField.build(plant, pc.GainVector("PI", 2, 1), 0.0)
        rep = jacobian_conditions(field, radius=4.0, points=3)
        assert all(v > 0 for v in rep.relaxed_margins.values())
        assert not rep.audit.passes and not rep.sufficiency
        assert rep.audit.min_sym_jac_u == 1.0
        # z0 = z1 = -4: x = y* - z1 = 4, u = ki*z0 + kp*z1 + u* = -12
        assert rep.audit.min_sym_jac_u_point == {"x": [4.0], "u": [-12.0]}

    def test_nonfinite_jacobian_names_its_plant_point(self):
        plant = sin_plant()
        good = plant.jac_x1
        bad = dataclasses.replace(
            plant, jac_x1=lambda x, u: np.where(x[..., None] < -3.0, np.nan, good(x, u))
        )
        field = PlanarField.build(bad, pc.GainVector("PI", 2, 1), 0.0)
        # x = y* - z1 < -3 first at z0 = -4 (the outer axis), z1 = 4, where
        # u = ki*z0 + kp*z1 + u* = 4
        with pytest.raises(
            PlantError, match=re.escape("jac_x returned non-finite value at (array([-4.]), array([4.]))")
        ):
            jacobian_conditions(field, radius=4.0, points=3)

    def test_a_500_point_grid_audits_in_blocks(self, monkeypatch):
        """250,000 grid points reach the audit in blocks of at most
        _AUDIT_BLOCK, and the sine plant passes on all of them."""
        sizes = []

        def audit(plant, blocks):
            def counted():
                for args in blocks:
                    sizes.append(args[0].shape[0])
                    yield args

            return pm.audit_class(plant, counted())

        monkeypatch.setattr(planar_pi, "audit_class", audit)
        field = PlanarField.build(sin_plant(), pc.GainVector("PI", 2, 1), 0.5)
        rep = jacobian_conditions(field, points=500)
        assert max(sizes) == pm._AUDIT_BLOCK and sum(sizes) == 500 * 500
        assert len(sizes) == -(-500 * 500 // pm._AUDIT_BLOCK)
        assert rep.audit.samples == 500 * 500
        assert rep.sufficiency and rep.audit.passes
        assert rep.audit.min_sym_jac_u == 1.0 and rep.audit.max_norm_jac_x1 <= 1.0

    @pytest.mark.parametrize("plant,gains,y_star", SHIPPED_FIRST_ORDER)
    def test_blocks_give_the_one_block_report(self, monkeypatch, plant, gains, y_star):
        field = PlanarField.build(plant, pc.GainVector("PI", *gains), y_star)
        blocked = jacobian_conditions(field)
        monkeypatch.setattr(planar_pi, "_AUDIT_BLOCK", 41 * 41)
        assert jacobian_conditions(field) == blocked

    @pytest.mark.parametrize("radius,points", [(0.0, 41), (-1.0, 41), (20.0, 1)])
    def test_bad_grid_is_a_usage_error(self, radius, points):
        field = PlanarField.build(sin_plant(), pc.GainVector("PI", 2, 1), 0.0)
        with pytest.raises(UsageError, match="grid"):
            jacobian_conditions(field, radius=radius, points=points)

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

    def test_unstable_linear_at_any_setpoint(self):
        """The linear member's error dynamics do not depend on y*: started
        one unit off it with the integral at u*/ki, the verdict is the same."""
        g = pc.GainVector("PI", 0.5, 1.0)
        reps = [necessity_counterexample("unstable_linear", UB_PI, g, y) for y in (0.0, 7.0)]
        assert [r.y_star for r in reps] == [0.0, 7.0]
        assert reps[0].nonconvergent and reps[1].nonconvergent
        assert reps[0].max_re_eigenvalue == reps[1].max_re_eigenvalue

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

    @pytest.mark.parametrize("y_star", [math.inf, math.nan])
    @pytest.mark.parametrize(
        "case, gains", [("ki_zero", (2.0, 0.0)), ("unstable_linear", (0.5, 1.0))]
    )
    def test_non_finite_setpoint_is_usage_error(self, case, gains, y_star):
        """The setpoint reaches SimConfig's check before any plant call."""
        g = pc.GainVector("PI", *gains)
        message = r"^y_star must be 1 finite number, got \[(inf|nan)\]$"
        with pytest.raises(UsageError, match=message):
            necessity_counterexample(case, UB_PI, g, y_star)

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
        """Random in-class scalar plants with relaxed-region gains: the verdict
        is proven and the loop converges from random starts."""
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
