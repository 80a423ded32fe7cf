"""Tests for the monotone equilibrium-input solver."""

import numpy as np
import pytest

from pidcert import equilibrium as eq
from pidcert import plant_models as pm
from pidcert.errors import NumericalError
from pidcert.gain_sets import FIRST_ORDER, UncertaintyBounds
from oracles import monotonicity_probe


def family_zoo():
    return [
        pm.build_family(
            "linear_matrix",
            {"A1": [[0.5, 0.1], [0.0, 0.4]], "A2": [[0.2, 0.0], [0.0, 0.3]], "Theta": [[1.5, 0.2], [0.0, 1.2]]},
        ),
        pm.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
        pm.build_family("tanh_coupled", {"n": 2, "l1": 1.0, "l2": 0.8, "b_lower": 1.0}),
        pm.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}),
        pm.build_family("rotation_gain", {"b_lower": 1.0, "s": 10.0, "a1": 0.4, "a2": 0.2}),
    ]


class TestSolveEquilibrium:
    def test_linear_closed_form(self):
        p = pm.build_family(
            "linear_matrix", {"A1": np.eye(2).tolist(), "A2": np.zeros((2, 2)).tolist(), "Theta": np.eye(2).tolist()}
        )
        y = np.array([1.0, 1.0])
        sol = eq.solve_equilibrium(p, y)
        np.testing.assert_allclose(sol.u_star, -y, atol=1e-10)
        assert sol.residual_norm <= 1e-10

    def test_cubic_odd_root(self):
        p = pm.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})
        sol = eq.solve_equilibrium(p, [0.0])
        np.testing.assert_allclose(sol.u_star, [0.0], atol=1e-10)

    def test_sin_plant_half_pi(self):
        p = pm.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0})
        sol = eq.solve_equilibrium(p, [np.pi / 2])
        np.testing.assert_allclose(sol.u_star, [-1.0], atol=1e-10)

    def test_first_order_plant(self):
        p = pm.build_family("nonaffine_cubic_u", {"order": FIRST_ORDER, "c1": 1.0, "b_lower": 1.0})
        sol = eq.solve_equilibrium(p, [np.pi / 2])
        # solves 1 + u + u^3/3 = 0
        resid = 1.0 + sol.u_star[0] + sol.u_star[0] ** 3 / 3.0
        assert abs(resid) <= 1e-10

    def test_out_of_class_plant_stalls(self):
        """f = u^3 - 1 declares b_lower = 1, but df/du = 3u^2 vanishes at the
        start u = 0: the Newton step is singular and the solve reports the
        plant instead of searching further."""
        p = pm.custom_plant(
            n=1,
            f=lambda x, u: u**3 - 1.0,
            declared_bounds=UncertaintyBounds.first_order(0.0, 1.0),
            jac_u=lambda x, u: np.array([[3.0 * u[0] ** 2]]),
        )
        with pytest.raises(NumericalError, match="stalled .* declared class bounds"):
            eq.solve_equilibrium(p, [0.0])

    def test_residual_at_random_setpoints(self):
        rng = np.random.default_rng(17)
        for p in family_zoo():
            for _ in range(10):
                y = rng.uniform(-10, 10, size=p.n)
                sol = eq.solve_equilibrium(p, y)
                assert sol.residual_norm <= 1e-10

    def test_multi_start_uniqueness(self):
        rng = np.random.default_rng(23)
        p = pm.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})
        y = np.array([2.0])
        ref = eq.solve_equilibrium(p, y).u_star
        for _ in range(20):
            u0 = rng.uniform(-50, 50, size=1)
            sol = eq.solve_equilibrium(p, y, u0=u0)
            assert np.linalg.norm(sol.u_star - ref) <= 1e-8

    def test_coercivity_along_rays(self):
        """|Phi(u)| >= b * |u - u*| - tol along random rays."""
        p = pm.build_family("rotation_gain", {"b_lower": 1.0, "s": 5.0, "a1": 0.3})
        y = np.array([1.0, -1.0])
        sol = eq.solve_equilibrium(p, y)
        rng = np.random.default_rng(5)
        zero = np.zeros(2)
        b = p.declared_bounds.b_lower
        for _ in range(100):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            r = rng.uniform(0.1, 20.0)
            u = sol.u_star + r * d
            assert np.linalg.norm(p.f(y, zero, u)) >= b * r - 1e-8


class TestMonotonicityProbe:
    def test_linear_isotropic_exact(self):
        p = pm.build_family(
            "linear_matrix", {"A1": [[0.0]], "A2": [[0.0]], "Theta": [[1.0]]}
        )
        ratio = monotonicity_probe(p, [0.0], pairs=50)
        assert abs(ratio - 1.0) < 1e-12

    def test_rotation_gain_skew_invisible(self):
        p = pm.build_family("rotation_gain", {"b_lower": 1.0, "s": 10.0})
        ratio = monotonicity_probe(p, [0.0, 0.0], pairs=300)
        assert ratio >= 1.0 - 1e-8

    def test_cubic_ratio_above_floor(self):
        p = pm.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})
        ratio = monotonicity_probe(p, [1.0], pairs=300)
        assert ratio >= 1.0 - 1e-8

    def test_all_families(self):
        for p in family_zoo():
            y = np.zeros(p.n)
            ratio = monotonicity_probe(p, y, pairs=100, seed=11)
            assert ratio >= p.declared_bounds.b_lower - 1e-8
