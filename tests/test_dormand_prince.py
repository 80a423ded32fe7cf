"""The adaptive Dormand-Prince 5(4) integrator against theory and oracles.

The tableau is checked against the order conditions it must meet, the
interpolant against its end values, the integration against the matrix
exponential of a linear system, and the whole run against scipy's
``solve_ivp(method="RK45")``, whose arithmetic the stepper repeats: scipy is
a test-only oracle here.  The stepper takes a binder, whose
``bind(s, out)(t)`` writes the rates into a row of its block-major
(blocks, cells, n) stage block; the flat right-hand sides below drive it
through ``rk4_reference.in_place``, and solve_ivp integrates the
closed loop through the flat reference right-hand side, on the block-major
flat order the stepper integrates in.
"""

import math
import re
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import pidcert as pc
from pidcert import simulator
from pidcert.errors import IntegrationError
from pidcert.simulator import _DP_A, _DP_B, _DP_C, _DP_E, _DP_P
from rk4_reference import block_major, cell_major, in_place, reference_rhs


def run_config(t_final, dt_max=0.01, rtol=1e-8, atol=1e-10):
    """The fields of a SimConfig the integrator reads."""
    return types.SimpleNamespace(t_final=t_final, dt_max=dt_max, rtol=rtol, atol=atol)


class TestTableau:
    def test_nodes_are_the_row_sums(self):
        np.testing.assert_allclose(_DP_A.sum(axis=1), _DP_C, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("q", range(5))
    def test_quadrature_order_conditions(self, q):
        """sum_i B_i C_i^q = 1/(q+1) for q <= 4: the weights integrate
        polynomials of degree 4 exactly, as a 5th-order method's must."""
        assert np.dot(_DP_B, _DP_C**q) == pytest.approx(1.0 / (q + 1), abs=1e-15)

    def test_the_error_weights_sum_to_zero(self):
        """E = B_hat - B, the difference of two consistent methods (both sum to 1)."""
        assert _DP_E.sum() == pytest.approx(0.0, abs=1e-16)

    def test_the_method_is_explicit(self):
        """Stage i uses only the stages before it."""
        np.testing.assert_array_equal(np.triu(_DP_A), 0.0)


class TestRmsNorm:
    @pytest.mark.parametrize(
        "x",
        [
            np.random.default_rng(5).normal(size=36),
            np.random.default_rng(6).normal(size=2921),
            np.full(18, 1e200),
            np.array([1e308, -1e308, 3.0]),
            np.full(24, 5e-324),
            np.array([2.2e-308, -1e-310, 4e-320]),
            np.zeros(12),
            np.array([-0.0]),
        ],
        ids=["random", "random-2921", "huge", "overflow", "subnormal", "mixed-tiny", "zero", "minus-zero"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_bitwise_equal_to_the_norm_over_root_size(self, x):
        """sqrt(x.x) is what np.linalg.norm computes for a 1-D array.  The
        size is rooted as x.size ** 0.5, as scipy's RK45 roots it: for some
        sizes (2921 is the first) that differs from math.sqrt(size) in the
        last bit."""
        want = np.linalg.norm(x) / x.size ** 0.5
        got = simulator._rms(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestInterpolant:
    def test_row_sums_are_the_weights(self):
        """At x = 1 the quartic's powers are all 1: y_old + h K^T (P 1) must
        be y_new = y_old + h K^T [B, 0]."""
        np.testing.assert_allclose(_DP_P.sum(axis=1), np.append(_DP_B, 0.0), rtol=0, atol=1e-14)

    def test_slope_at_the_start_is_the_first_stage(self):
        """d/dx of the quartic at x = 0 is h K^T P[:, 0] = h f(t, y_old)."""
        np.testing.assert_array_equal(_DP_P[:, 0], np.eye(7)[0])


def stacked_linear_system():
    """Three damped oscillators side by side, as one 6-state linear system."""
    blocks = [np.array([[0.0, 1.0], [-k, -c]]) for k, c in ((1.0, 0.3), (4.0, 1.0), (9.0, 0.2))]
    m = np.zeros((6, 6))
    for j, b in enumerate(blocks):
        m[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = b
    return m, np.array([1.0, 0.0, -0.5, 2.0, 0.2, -1.0])


class TestAgainstTheMatrixExponential:
    @pytest.mark.parametrize("rtol,atol", [(1e-6, 1e-8), (1e-9, 1e-11)])
    def test_error_scales_with_the_tolerance(self, rtol, atol):
        m, s0 = stacked_linear_system()
        times, states, nfev, status = simulator._integrate_rk45(
            in_place(lambda t, s: m @ s), s0.reshape(1, 3, 2), run_config(10.0, 0.05, rtol, atol)
        )
        assert status == 0 and (nfev - 2) % 6 == 0
        assert states.shape == (201, 1, 3, 2)
        states = cell_major(states)
        exact = np.array([expm(m * t) @ s0 for t in times])
        error = np.max(np.abs(states - exact), axis=1)
        # the global error stays within a modest multiple of the local
        # tolerance scale over the ten time units
        assert np.all(error <= 20 * (rtol * np.max(np.abs(exact), axis=1) + atol))
        np.testing.assert_array_equal(times, np.linspace(0.0, 10.0, 201))
        np.testing.assert_array_equal(states[0], s0)


def stacked_state(cells):
    """The cells' initial states as one block-major (blocks, cells, n) stack."""
    flat = np.concatenate([simulator._initial_state(c.cfg) for c in cells])
    n = cells[0].cfg.plant.n
    return block_major(flat, (flat.size // (len(cells) * n), len(cells), n))


def block_major_rhs(rhs, shape):
    """The flat cell-major ``rhs(t, s)`` on flat states in the block-major
    order of ``shape``: the order the stepper's flat views integrate in."""
    return lambda t, s: block_major(rhs(t, cell_major(s.reshape(shape))), shape).reshape(-1)


def sweep_cells():
    """12 PID cells of a small sweep: two plants, two setpoints, three
    initial states."""
    g = pc.GainVector("PID", 7.0, 1.0, 7.0)
    plants = [
        pc.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
        pc.build_family("nonaffine_cubic_u", {"c1": 0.8, "c2": 0.6, "b_lower": 1.0}),
    ]
    return [
        pc.prepare_cell(pc.SimConfig(plant=p, gains=g, y_star=[y], x0=x0, t_final=8.0))
        for p in plants
        for y in (0.5, -1.0)
        for x0 in ([0.0, 0.0], [0.4, -0.3], [-1.0, 0.5])
    ]


class TestAgainstSolveIvp:
    def test_a_stacked_sweep_matches_bitwise(self):
        cells = sweep_cells()
        assert len(cells) == 12
        bind = simulator._rhs_factory(cells)
        s0 = stacked_state(cells)
        cfg = cells[0].cfg
        times, states, nfev, status = simulator._integrate_rk45(bind, s0, cfg)
        root = math.sqrt(12)
        sol = solve_ivp(
            block_major_rhs(reference_rhs(cells), s0.shape), (0.0, cfg.t_final), s0.reshape(-1),
            method="RK45", t_eval=np.linspace(0.0, cfg.t_final, 801),
            rtol=cfg.rtol / root, atol=cfg.atol / root,
        )
        assert np.array_equal(times, sol.t)
        assert np.array_equal(states.reshape(801, -1), sol.y.T)
        assert (nfev, status) == (sol.nfev, sol.status)
        # simulate_batch reports the same statistics on every trajectory
        trajs = list(pc.simulate_batch(cells))
        assert {t.nfev for t in trajs} == {sol.nfev}
        assert np.array_equal(np.hstack([t.states for t in trajs]), cell_major(states))

    @pytest.mark.parametrize("rtol", [1e-3, 1e-8])
    def test_a_jump_in_the_rhs_matches_bitwise(self, rtol):
        """At the jump at t = 1 steps are rejected, and the step after a
        rejection may not grow."""

        def jump(t, s):
            return np.ones_like(s) if t < 1.0 else -50.0 * s

        s0 = np.array([0.0, 0.5])
        _, states, nfev, _ = simulator._integrate_rk45(
            in_place(jump), block_major(s0, (1, 1, 2)), run_config(3.0, rtol=rtol)
        )
        sol = solve_ivp(jump, (0.0, 3.0), s0, method="RK45",
                        t_eval=np.linspace(0.0, 3.0, 301), rtol=rtol, atol=1e-10)
        assert np.array_equal(cell_major(states), sol.y.T) and nfev == sol.nfev

    def test_zero_rtol_runs_at_scipys_floor(self):
        """rtol below 100 eps is raised to it, as scipy raises it."""
        cells = sweep_cells()[:1]
        bind = simulator._rhs_factory(cells)
        s0 = stacked_state(cells)
        got = simulator._integrate_rk45(bind, s0, run_config(2.0, rtol=0.0))
        with pytest.warns(UserWarning, match="rtol"):
            sol = solve_ivp(reference_rhs(cells), (0.0, 2.0), cell_major(s0), method="RK45",
                            t_eval=np.linspace(0.0, 2.0, 201), rtol=0.0, atol=1e-10)
        assert np.array_equal(cell_major(got[1]), sol.y.T) and got[2] == sol.nfev


def cubic_u_cell(y_star):
    """A cell of ``scripts/configs/sweep_robustness.json``: PID
    (154, 20, 154) on ``nonaffine_cubic_u`` (c1 = c2 = b_lower = 1) from
    rest, whose u^3 overflows in the first trial steps."""
    g = pc.GainVector("PID", 154.00000000000003, 20.0, 154.00000000000003)
    plant = pc.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})
    return pc.prepare_cell(pc.SimConfig(
        plant=plant, gains=g, y_star=[y_star], x0=[0.0, 0.0], t_final=30.0
    ))


def unchecked_rhs(cell):
    """The one-cell PID right-hand side on the flat state (i, x1, x2) with
    the plant's f called bare, as solve_ivp calls a user's: an overflow's
    inf, and the NaN that follows it, reach the error norm."""
    g, f, y = cell.cfg.gains, cell.cfg.plant.f, cell.cfg.y_star

    def rhs(t, s):
        i, x, v = s[0:1], s[1:2], s[2:3]
        e = y - x
        return np.concatenate([e, v, f(x, v, g.kp * e + g.ki * i - g.kd * v)])

    return rhs


def scipy_overflowing(*args, **kwargs):
    """solve_ivp(*args, **kwargs), which warns of the overflow it meets:
    the warnings are recorded here, and one must be an overflow."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = solve_ivp(*args, **kwargs)
    assert any("overflow encountered" in str(w.message) for w in caught)
    return sol


class TestOverflowedTrialSteps:
    def test_a_cell_whose_trial_steps_overflow_matches_bitwise(self):
        """An overflow in a trial step rejects it with h *= 0.2, as scipy
        rejects its inf or NaN error norm, and the run reaches t_final with
        scipy's times, states and nfev."""
        cell = cubic_u_cell(-2.5)
        traj = pc.simulate(cell.cfg)
        sol = scipy_overflowing(
            unchecked_rhs(cell), (0.0, 30.0), simulator._initial_state(cell.cfg),
            method="RK45", t_eval=np.linspace(0.0, 30.0, traj.times.size),
            rtol=cell.cfg.rtol, atol=cell.cfg.atol,
        )
        assert sol.status == 0 and traj.status == 0
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.states, sol.y.T)
        assert traj.nfev == sol.nfev == 13304

    def test_an_overflowing_first_trial_starts_at_the_least_step(self):
        """f is 1 at t = 0 and -exp(1e6 (s - 1)) after it, so the trial Euler
        step to s = 1.001 overflows.  Its d2 is inf, as in scipy's
        select_initial_step, so the first step is 0, raised to the least
        step 10 * spacing(0), and the run matches scipy's bit for bit."""

        def kink(t, s):
            return np.ones_like(s) if t == 0.0 else -np.exp(1e6 * (s - 1.0))

        s0 = np.ones(1)
        _, states, nfev, _ = simulator._integrate_rk45(
            in_place(kink), block_major(s0, (1, 1, 1)), run_config(1e-3, dt_max=1e-4)
        )
        sol = scipy_overflowing(kink, (0.0, 1e-3), s0, method="RK45",
                                t_eval=np.linspace(0.0, 1e-3, 11), rtol=1e-8, atol=1e-10)
        assert sol.status == 0
        assert np.array_equal(cell_major(states), sol.y.T) and nfev == sol.nfev


class TestStepControl:
    def test_a_resting_state_takes_tenfold_steps(self):
        """With f = 0 every error estimate is exactly 0, so each step is ten
        times the last from the first step of 1e-6: 1e-6, ..., 1e-1 and the
        rest of the horizon, 7 steps of 6 calls after the 2 of the start."""
        s0 = np.array([[[1.0, -2.0]]])
        _, states, nfev, _ = simulator._integrate_rk45(
            in_place(lambda t, s: np.zeros_like(s)), s0, run_config(1.0)
        )
        assert nfev == 2 + 7 * 6
        assert np.all(states == s0)

    def test_the_rhs_is_never_called_past_the_horizon(self):
        """A slow system asks for a first trial step of 0.01 |y|/|f| = 100
        time units; it is cut to the horizon of 1."""
        called = []

        def slow(t, s):
            called.append(t)
            return 1e-4 * s

        simulator._integrate_rk45(in_place(slow), np.ones((1, 1, 1)), run_config(1.0))
        assert 0.0 <= min(called) and max(called) <= 1.0


class TestStepUnderflow:
    def test_finite_time_blowup_raises(self):
        """y' = y^2, y(0) = 1 has the solution 1/(1 - t), which leaves every
        bound at t = 1: the step size shrinks to the spacing of the floats
        there."""
        message = (
            "adaptive integration failed at t = 1: "
            "Required step size is less than spacing between numbers."
        )
        with pytest.raises(IntegrationError, match=re.escape(message)):
            simulator._integrate_rk45(in_place(lambda t, y: y * y), np.ones((1, 1, 1)), run_config(2.0))


class TestOverflow:
    @pytest.mark.parametrize(
        "integrator,step",
        [
            ("rk45_adaptive", "adaptive RK45 diverged in the step from t = 2829.33 of size h = 1.36424e-11"),
            ("rk4_fixed", "fixed-step RK4 diverged in the step from t = 2901 of size h = 1"),
        ],
        ids=["rk45_adaptive", "rk4_fixed"],
    )
    def test_a_diverging_loop_names_the_step(self, integrator, step):
        """PI (0.5, 1) on x' = x + u is unstable (kp b <= L), and the state
        grows until a value overflows: both integrators raise an
        IntegrationError naming a step, not a warning and a PlantError
        that blames the plant for the inf.  RK4 names the step that
        overflowed.  RK45 rejects overflowing steps until its step size
        falls below the spacing of the floats at t, where scipy stops too,
        and names the last of them."""
        plant = pc.build_family(
            "linear_matrix", {"order": "first_order", "A": [[1.0]], "Theta": [[1.0]]}
        )
        cfg = pc.SimConfig(
            plant=plant, gains=pc.GainVector("PI", 0.5, 1.0), y_star=[0.0], x0=[1.0],
            t_final=3000.0, dt_max=1.0, integrator=integrator,
        )
        with pytest.raises(IntegrationError, match=re.escape(step) + ": overflow encountered in "):
            pc.simulate(cfg)
