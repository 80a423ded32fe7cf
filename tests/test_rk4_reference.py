"""The stacked right-hand side and the RK4 loop against the plain reference.

The reference lives in ``rk4_reference.py`` next to this file.  The
simulator's own rhs builds its slices and gain blocks once rather than per
call, writes its rates in place and checks each plant run's values inline,
handing any value that is not a finite float64 block of the run's shape to
``PlantModel.checked``; so the failure paths and those values are checked
here too: they must give the reference's states, or raise its error word
for word.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import pidcert as pc
from pidcert import cli, simulator
from pidcert.errors import PlantError
from pidcert.simulator import RK4_FIXED, RK45_ADAPTIVE
from rk4_reference import control, in_place, reference_rhs, reference_rk4

CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
G_PID = pc.GainVector("PID", 7, 1, 7)


def sin_plant():
    return pc.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0})


def cubic_plant():
    return pc.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})


def cells_of(plant_runs, gains, integrator, t_final=5.0):
    """One prepared cell per (plant, y*, x0) of ``plant_runs``, in order."""
    return [
        pc.prepare_cell(
            pc.SimConfig(plant=plant, gains=gains, y_star=y, x0=x0, t_final=t_final,
                         integrator=integrator)
        )
        for plant, points in plant_runs
        for y, x0 in points
    ]


def stacked_states(cells):
    """(times, states) of simulate_batch, the cells' states side by side."""
    trajs = list(pc.simulate_batch(cells))
    return trajs[0].times, np.hstack([t.states for t in trajs])


def initial_state(cells):
    """The flat stacked initial state, as the reference takes it."""
    return np.concatenate([simulator._initial_state(c.cfg) for c in cells])


def initial_block(cells):
    """The (cells, dim) initial state, as the simulator's steppers take it."""
    return np.array([simulator._initial_state(c.cfg) for c in cells])


def rates(rhs, t, s, cells):
    """The simulator's rates at the flat state ``s``, flattened."""
    out = np.empty((len(cells), s.size // len(cells)))
    rhs(t, s.reshape(out.shape), out)
    return out.reshape(-1)


def reference_rk45_states(cells):
    """The recorded states of the simulator's RK45 stepper driven by the
    reference rhs, with the cells side by side."""
    _, states, _, _ = simulator._integrate_rk45(
        in_place(reference_rhs(cells)), initial_block(cells), cells[0].cfg
    )
    return states.reshape(len(states), -1)


ONE_CELL = {
    "PID": (sin_plant, G_PID, [([1.0], [0.3, -0.2])]),
    "PD": (
        lambda: pc.build_family("tanh_coupled", {"n": 2}),
        pc.GainVector("PD", 8.0, kd=8.0),
        [([0.0, 0.0], [1.0, -0.5, 0.2, 0.0])],
    ),
    "PI": (
        lambda: pc.build_family("sinusoidal_scalar", {"order": "first_order", "c1": 0.9}),
        pc.GainVector("PI", 3.0, ki=1.0),
        [([1.0], [0.2])],
    ),
}


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("kind", sorted(ONE_CELL))
    def test_one_cell_rk4_run(self, kind):
        make, gains, points = ONE_CELL[kind]
        cells = cells_of([(make(), points)], gains, RK4_FIXED)
        times, states = stacked_states(cells)
        ref_times, ref_states = reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(states, ref_states)

    def test_two_plant_rk4_batch(self):
        points = [([1.0], [0.0, 0.0]), ([-0.5], [0.3, -0.2])]
        cells = cells_of([(sin_plant(), points), (cubic_plant(), points)], G_PID, RK4_FIXED)
        times, states = stacked_states(cells)
        ref_times, ref_states = reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(states, ref_states)

    def test_rhs_values_on_a_multi_plant_rk45_batch(self):
        g = pc.GainVector("PD", 8.0, kd=8.0)
        points = [([0.0, 0.0], [1.0, -0.5, 0.2, 0.0]), ([0.0, 0.0], [-0.3, 0.8, 0.0, 0.4])]
        plants = [
            pc.build_family("tanh_coupled", {"n": 2, "l1": 0.8, "l2": 0.6, "b_lower": 1.2}),
            pc.build_family("rotation_gain", {"b_lower": 1.1, "s": 2.5, "a1": -0.7, "a2": -0.9}),
        ]
        cells = cells_of([(p, points) for p in plants], g, RK45_ADAPTIVE)
        times, states = stacked_states(cells)
        rhs, ref = simulator._rhs_factory(cells), reference_rhs(cells)
        for t, s in zip(times, states):
            np.testing.assert_array_equal(rates(rhs, t, s, cells), ref(t, s))
        # the whole adaptive integration then takes the same steps
        np.testing.assert_array_equal(states, reference_rk45_states(cells))

    def test_two_plant_pd_rk4_batch(self):
        """The multi-run PD path under fixed-step RK4: x rates from v, and
        each plant's values into its own rows of the v block."""
        g = pc.GainVector("PD", 8.0, kd=8.0)
        points = [([0.0, 0.0], [1.0, -0.5, 0.2, 0.0]), ([0.0, 0.0], [-0.3, 0.8, 0.0, 0.4])]
        cells = cells_of([(p, points) for p in pd_plants()], g, RK4_FIXED)
        times, states = stacked_states(cells)
        ref_times, ref_states = reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(states, ref_states)


G_PI = pc.GainVector("PI", 3.0, ki=1.0)


def pd_plants():
    """The second-order mix of the benchmark's PD sweep: tanh-coupled and
    the linear rotation-gain plant, each its own run of cells."""
    return [
        pc.build_family("tanh_coupled", {"n": 2, "l1": 0.8, "l2": 0.6, "b_lower": 1.2}),
        pc.build_family("rotation_gain", {"b_lower": 1.1, "s": 2.5, "a1": -0.7, "a2": -0.9}),
    ]


def pi_plants():
    """The first-order mix of the benchmark's PI sweep: sinusoidal, cubic
    input and linear, each its own run of cells."""
    return [
        pc.build_family("sinusoidal_scalar", {"order": "first_order", "c1": 0.9}),
        pc.build_family("nonaffine_cubic_u", {"order": "first_order", "c1": 0.7, "b_lower": 1.2}),
        pc.build_family("linear_matrix", {"order": "first_order", "A": [[-0.8]], "Theta": [[1.1]]}),
    ]


PI_POINTS = [([1.0], [0.2]), ([-0.5], [-0.4])]


class TestThreePlantPIBatch:
    """Each plant run writes its rows of the rate block in place; the three
    runs must give the reference's concatenated rates, bit for bit."""

    def test_rhs_values_and_rk45_states(self):
        cells = cells_of([(p, PI_POINTS) for p in pi_plants()], G_PI, RK45_ADAPTIVE)
        times, states = stacked_states(cells)
        rhs, ref = simulator._rhs_factory(cells), reference_rhs(cells)
        for t, s in zip(times, states):
            np.testing.assert_array_equal(rates(rhs, t, s, cells), ref(t, s))
        np.testing.assert_array_equal(states, reference_rk45_states(cells))

    def test_rk4_states(self):
        cells = cells_of([(p, PI_POINTS) for p in pi_plants()], G_PI, RK4_FIXED)
        times, states = stacked_states(cells)
        ref_times, ref_states = reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(states, ref_states)

    def test_nan_in_the_last_run(self):
        """The linear plant, last of three runs, is NaN above x = 1.2, which
        its y* = 1.5 cell crosses; the error is the reference's, word for word."""
        sin_p, cubic_p, linear_p = pi_plants()
        points = [([1.0], [0.2]), ([1.5], [0.0])]
        cells = cells_of([(sin_p, points), (cubic_p, points)], G_PI, RK4_FIXED) + with_plant(
            cells_of([(linear_p, points)], G_PI, RK4_FIXED), nan_above(linear_p, 1.2)
        )
        got = raised(lambda: stacked_states(cells))
        want = raised(lambda: reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01))
        assert got == want
        assert got.startswith("plant returned non-finite value at (array([1.2")

    def test_control_keeps_the_signed_zeros(self):
        """u - kd v and the reference's u + kd (-v) agree in every bit, signed
        zeros included, at v = +-0 and at every sign of e, i and kd."""
        zeros = np.array([0.0, -0.0])
        e, i, v = (a.reshape(-1, 1) for a in np.meshgrid(zeros, zeros, zeros, indexing="ij"))
        for kd in (0.0, -0.0, 2.5, -2.5):
            gains = (1.5, 0.5, kd)
            for blocks in ({"v": v}, {"i": i, "v": v}):
                got = simulator._control(gains, e, blocks.get("i"), blocks["v"])
                assert got.tobytes() == control(gains, blocks, e).tobytes()


def counted(plant, calls, tag):
    """``plant`` with ``tag`` appended to ``calls`` at each call of its f."""
    f = plant.f

    def f_counted(*args):
        calls.append(tag)
        return f(*args)

    return dataclasses.replace(plant, f=f_counted)


def as_list(plant):
    """``plant`` with f returning a nested list: a value the inline check
    hands to ``PlantModel.checked``."""
    f = plant.f
    return dataclasses.replace(plant, f=lambda *args: f(*args).tolist())


class TestOneCallPerRun:
    """Each rhs call calls each run's plant once, on the inline check's path
    and on the path through ``PlantModel.checked`` alike, and nfev counts rhs
    calls."""

    @staticmethod
    def assert_once_per_call(integrator, wrap):
        calls = []
        plants = [counted(wrap(p), calls, k) for k, p in enumerate(pi_plants())]
        cells = cells_of([(p, PI_POINTS) for p in plants], G_PI, integrator, t_final=2.0)
        rhs_calls = []
        rhs = simulator._rhs_factory(cells)

        def counting_rhs(t, s, out):
            rhs_calls.append(t)
            rhs(t, s, out)

        s0 = initial_block(cells)
        calls.clear()  # the equilibrium solves of prepare_cell call f too
        if integrator == RK4_FIXED:
            _, _, nfev, _ = simulator._integrate_rk4(counting_rhs, s0, 2.0, 0.01)
        else:
            _, _, nfev, _ = simulator._integrate_rk45(counting_rhs, s0, cells[0].cfg)
        assert nfev == len(rhs_calls) > 0
        # in run order, once per call
        assert calls == [0, 1, 2] * len(rhs_calls)

    @pytest.mark.parametrize("integrator", [RK4_FIXED, RK45_ADAPTIVE])
    def test_each_plant_once_per_rhs_call(self, integrator):
        self.assert_once_per_call(integrator, lambda p: p)

    @pytest.mark.parametrize("integrator", [RK4_FIXED, RK45_ADAPTIVE])
    def test_a_checked_value_costs_no_second_call(self, integrator):
        self.assert_once_per_call(integrator, as_list)

    def test_a_batch_reports_its_rhs_calls(self):
        """simulate_batch's nfev is the number of rhs calls: four per RK4 step."""
        calls = []
        plants = [counted(p, calls, k) for k, p in enumerate(pd_plants())]
        points = [([0.0, 0.0], [1.0, -0.5, 0.2, 0.0])]
        cells = cells_of([(p, points) for p in plants], pc.GainVector("PD", 8.0, kd=8.0),
                         RK4_FIXED, t_final=1.0)
        calls.clear()
        trajs = list(pc.simulate_batch(cells))
        assert {t.nfev for t in trajs} == {4 * 100}
        assert calls == [0, 1] * (4 * 100)


def plant_returning(kind):
    """The PID test plant with f's values handed back in another form: each
    is a value the inline check hands to ``PlantModel.checked``, which turns
    it into the float64 block ``eval_checked`` returns."""
    plant = sin_plant()
    f = plant.f
    forms = {
        "list": lambda v: v.tolist(),
        "float32": lambda v: v.astype(np.float32),
        "int": lambda v: np.rint(4.0 * v).astype(np.int64),
        "flat": np.ravel,
    }
    return dataclasses.replace(plant, f=lambda *args: forms[kind](f(*args)))


class TestCheckedValues:
    @pytest.mark.parametrize("kind", ["list", "float32", "int", "flat"])
    def test_one_cell_states_equal_the_reference(self, kind):
        cells = cells_of([(plant_returning(kind), [([1.0], [0.3, -0.2])])], G_PID, RK4_FIXED)
        times, states = stacked_states(cells)
        ref_times, ref_states = reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(states, ref_states)
        assert np.isfinite(states).all()

    @pytest.mark.parametrize("kind", ["list", "float32", "int"])
    def test_batch_states_equal_the_reference(self, kind):
        """In a batch a run's value has its rows: list, float32 and int
        values of the right shape pass."""
        points = [([1.0], [0.0, 0.0]), ([-0.5], [0.3, -0.2])]
        cells = cells_of([(plant_returning(kind), points), (cubic_plant(), points)],
                         G_PID, RK4_FIXED)
        times, states = stacked_states(cells)
        ref_times, ref_states = reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(states, ref_states)

    def test_a_float32_run_takes_the_reference_rk45_steps(self):
        points = [([1.0], [0.0, 0.0]), ([-0.5], [0.3, -0.2])]
        cells = cells_of([(plant_returning("float32"), points), (cubic_plant(), points)],
                         G_PID, RK45_ADAPTIVE)
        _, states = stacked_states(cells)
        np.testing.assert_array_equal(states, reference_rk45_states(cells))


def with_plant(cells, plant):
    """``cells`` run on ``plant``; their u* comes from the plant they were
    prepared with, so a plant that fails at y* can still be integrated."""
    return [dataclasses.replace(c, cfg=dataclasses.replace(c.cfg, plant=plant)) for c in cells]


def nan_above(plant, limit):
    """``plant`` with f NaN at every point whose first coordinate exceeds ``limit``."""
    f = plant.f

    def f_nan(x, *rest):
        return np.where(x > limit, np.nan, f(x, *rest))

    return dataclasses.replace(plant, f=f_nan)


def raised(fn):
    with pytest.raises(PlantError) as info:
        fn()
    return str(info.value)


class TestSingleCheckFailurePaths:
    def test_nan_inside_a_multi_run_rk4_batch(self):
        """The second run's plant is NaN above x = 1.2, which its y* = 1.5
        cell crosses; the error names that point as eval_checked names it."""
        points = [([1.0], [0.0, 0.0]), ([1.5], [0.0, 0.0])]
        good = cells_of([(sin_plant(), points)], G_PID, RK4_FIXED)
        bad = with_plant(cells_of([(sin_plant(), points)], G_PID, RK4_FIXED),
                         nan_above(sin_plant(), 1.2))
        cells = good + bad
        got = raised(lambda: stacked_states(cells))
        want = raised(lambda: reference_rk4(reference_rhs(cells), initial_state(cells), 5.0, 0.01))
        assert got == want
        assert got.startswith("plant returned non-finite value at (array([1.2")

    def test_nan_in_a_one_cell_rk45_run(self):
        cells = with_plant(cells_of([(sin_plant(), [([1.5], [0.0, 0.0])])], G_PID, RK45_ADAPTIVE),
                           nan_above(sin_plant(), 1.2))
        got = raised(lambda: stacked_states(cells))
        want = raised(lambda: reference_rk45_states(cells))
        assert got == want
        assert got.startswith("plant returned non-finite value at (array([1.2")

    def test_wrong_shape_raises(self):
        plant = sin_plant()
        wide = dataclasses.replace(plant, f=lambda x1, x2, u: np.hstack([x1, x2]))
        cells = with_plant(cells_of([(plant, [([1.0], [0.0, 0.0])])], G_PID, RK4_FIXED), wide)
        got = raised(lambda: stacked_states(cells))
        assert got == raised(lambda: reference_rhs(cells)(0.0, initial_state(cells)))
        assert got == "plant returned shape (1, 2), expected (1, 1)"

    def test_same_size_shape_is_reshaped(self):
        """A flat value of the right size is reshaped by eval_checked, as before."""
        plant = sin_plant()
        flat = dataclasses.replace(plant, f=lambda *args: np.ravel(plant.f(*args)))
        points = [([1.0], [0.3, -0.2])]
        got = stacked_states(cells_of([(flat, points)], G_PID, RK4_FIXED))
        want = stacked_states(cells_of([(plant, points)], G_PID, RK4_FIXED))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    # the cubic input term overflows on the diverging cells
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_rk4_sweep_keeps_its_divergence_rows(self, tmp_path):
        """Fixed-step RK4 diverges on three nonaffine_cubic_u cells of the
        small sweep; each row keeps the PlantError it had."""
        config = json.loads((CONFIGS / "sweep_small.json").read_text())
        config["sim"]["integrator"] = RK4_FIXED
        path = tmp_path / "sweep_rk4.json"
        path.write_text(json.dumps(config))
        with redirect_stdout(io.StringIO()):
            assert cli.run("sweep", str(path), out_dir=str(tmp_path / "out")) == cli.EXIT_CHECK_FAILED
        lines = (tmp_path / "out" / "sweep.csv").read_bytes().split(b"\r\n")
        errors = {int(line.split(b",")[0]): line.split(b",", 15)[15] for line in lines[1:19]}
        assert {k: v for k, v in errors.items() if v} == {
            11: b'"PlantError: plant returned non-finite value at (array([-1.9524587e+81]), '
                b'array([8.50978203e+249]), array([-5.95684742e+250]))"',
            12: b'"PlantError: plant returned non-finite value at (array([1.06824909e+52]), '
                b'array([-1.1849059e+163]), array([1.06641531e+164]))"',
            14: b'"PlantError: plant returned non-finite value at (array([5.02716349e+74]), '
                b'array([-1.23490996e+231]), array([1.11141896e+232]))"',
        }
