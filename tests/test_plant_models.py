"""Tests for the plant families and class-membership validation."""

import dataclasses
import functools
import operator
import re

import numpy as np
import pytest

from pidcert import matrix_kernel as mk
from pidcert import plant_models as pm
from pidcert.errors import PlantError, UsageError
from pidcert.gain_sets import FIRST_ORDER, UncertaintyBounds


def sin_plant():
    return pm.build_family("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0})


class TestBuildFamily:
    def test_unknown_id(self):
        with pytest.raises(UsageError):
            pm.build_family("does_not_exist")
        with pytest.raises(UsageError, match="unknown plant family"):
            pm.build_family(["sinusoidal_scalar"])

    def test_pure_integrator_chain(self):
        p = pm.build_family(
            "linear_matrix", {"A1": [[0.0]], "A2": [[0.0]], "Theta": [[1.0]]}
        )
        out = p.f(np.array([3.0]), np.array([4.0]), np.array([2.5]))
        np.testing.assert_array_equal(out, [2.5])
        assert p.declared_bounds.L1 == 0.0
        assert p.declared_bounds.b_lower == 1.0

    def test_nonaffine_control_jacobian(self):
        p = pm.build_family("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0})
        ju = p.jac_u(np.zeros(1), np.zeros(1), np.array([2.0]))
        assert ju[0, 0] == 5.0  # b + u^2 at u = 2
        lam, _ = mk.eig_extrema(mk.symmetrize(ju))
        assert lam >= 1.0

    def test_rotation_gain_skew_cancels(self):
        p = pm.build_family("rotation_gain", {"b_lower": 1.0, "s": 10.0})
        ju = p.jac_u(np.zeros(2), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(mk.symmetrize(ju), np.eye(2))
        assert mk.operator_norm(ju) >= 10.0

    def test_tanh_coupled_dimension(self):
        p = pm.build_family("tanh_coupled", {"n": 3, "l1": 0.5, "l2": 0.7, "b_lower": 2.0})
        assert p.n == 3
        assert p.declared_bounds.L1 == 0.5
        # rank-one PSD bump leaves the symmetric floor at b_lower exactly
        lam, _ = mk.eig_extrema(mk.symmetrize(p.jac_u(np.zeros(3), np.zeros(3), np.zeros(3))))
        assert abs(lam - 2.0) < 1e-12

    def test_first_order_variants(self):
        for fam, params in [
            ("linear_matrix", {"order": FIRST_ORDER, "A": [[1.0]], "Theta": [[1.0]]}),
            ("sinusoidal_scalar", {"order": FIRST_ORDER, "c1": 1.0}),
            ("nonaffine_cubic_u", {"order": FIRST_ORDER, "c1": 1.0, "b_lower": 1.0}),
        ]:
            p = pm.build_family(fam, params)
            assert p.order == FIRST_ORDER
            assert p.declared_bounds.order == FIRST_ORDER


    def test_unknown_param_rejected(self):
        """A misspelt key used to fall back to its default (c2 = 1)."""
        with pytest.raises(UsageError, match="'C2'"):
            pm.build_family("sinusoidal_scalar", {"c1": 1.0, "C2": 5.0})

    @pytest.mark.parametrize(
        "params,missing",
        [
            ({"order": FIRST_ORDER, "Theta": [[1.0]]}, "'A'"),
            ({"A1": [[0.0]], "Theta": [[1.0]]}, "'A2'"),
            ({"A1": [[0.0]], "A2": [[0.0]]}, "'Theta'"),
        ],
    )
    def test_missing_matrix_rejected(self, params, missing):
        with pytest.raises(UsageError, match=missing):
            pm.build_family("linear_matrix", params)

    def test_keys_follow_the_order(self):
        with pytest.raises(UsageError, match="'c2'"):
            pm.build_family("sinusoidal_scalar", {"order": FIRST_ORDER, "c2": 1.0})
        with pytest.raises(UsageError, match="'A1'"):
            pm.build_family("linear_matrix", {"order": FIRST_ORDER, "A": [[1.0]], "Theta": [[1.0]], "A1": [[1.0]]})
        with pytest.raises(UsageError, match="no order"):
            pm.build_family("tanh_coupled", {"order": FIRST_ORDER})
        with pytest.raises(UsageError, match="no order"):
            pm.build_family("sinusoidal_scalar", {"order": "third_order"})
        with pytest.raises(UsageError, match="no order"):
            pm.build_family("sinusoidal_scalar", {"order": [FIRST_ORDER]})

class TestValidateClassMembership:
    def test_linear_plant_exact_bounds(self):
        p = pm.build_family(
            "linear_matrix",
            {"A1": [[1.0]], "A2": [[-1.0]], "Theta": [[1.0]]},
        )
        rep = pm.validate_class_membership(p, samples=200, seed=5)
        assert rep.passes
        np.testing.assert_allclose(rep.max_norm_jac_x1, 1.0)
        np.testing.assert_allclose(rep.max_norm_jac_x2, 1.0)
        np.testing.assert_allclose(rep.min_sym_jac_u, 1.0)

    def test_sin_plant_passes_declared(self):
        rep = pm.validate_class_membership(sin_plant(), samples=300, seed=1)
        assert rep.passes
        assert rep.max_norm_jac_x1 <= 1.0 + 1e-8

    def test_sin_plant_fails_tighter_claim(self):
        p = sin_plant()
        tight = pm.PlantModel(
            n=1,
            f=p.f,
            jac_x1=p.jac_x1,
            jac_x2=p.jac_x2,
            jac_u=p.jac_u,
            declared_bounds=UncertaintyBounds(0.5, 1.0, 1.0),
        )
        rep = pm.validate_class_membership(tight, samples=500, seed=2)
        assert not rep.passes
        assert rep.max_norm_jac_x1 > 0.5
        # the report names a sample point that breaks the claimed L1 = 0.5
        x1 = rep.max_norm_jac_x1_point["x1"]
        assert abs(1.0 * np.cos(x1[0])) > 0.5
        assert abs(np.cos(x1[0])) == rep.max_norm_jac_x1
        assert set(rep.max_norm_jac_x1_point) == {"x1", "x2", "u"}

    @pytest.mark.parametrize("slot", ["jac_x1", "jac_x2", "jac_u"])
    def test_nonfinite_jacobian_names_its_first_sample(self, slot):
        """A NaN Jacobian is the plant's fault, not a usage error, and a NaN
        must not slip past the bound comparison of a batched maximum."""
        p = sin_plant()
        idx = ("jac_x1", "jac_x2", "jac_u").index(slot)
        good = getattr(p, slot)

        def nan_above_five(*args):
            return np.where(args[idx][..., None] > 5.0, np.nan, good(*args))

        bad = dataclasses.replace(p, **{slot: nan_above_five})
        draw = np.random.default_rng(3).uniform(-10.0, 10.0, size=(200, 3, 1))
        k = int(np.argmax(draw[:, idx, 0] > 5.0))
        expected = f"{slot} returned non-finite value at {tuple(draw[k])}"
        with pytest.raises(PlantError, match=re.escape(expected)):
            pm.validate_class_membership(bad, samples=200, box_radius=10.0, seed=3)

    def test_wrong_jacobian_shape_is_a_plant_error(self):
        p = dataclasses.replace(sin_plant(), jac_u=lambda x1, x2, u: np.eye(1))
        with pytest.raises(PlantError, match="jac_u returned shape"):
            pm.validate_class_membership(p, samples=10, seed=0)

    def test_first_order_report_has_no_x2_point(self):
        p = pm.build_family("sinusoidal_scalar", {"order": FIRST_ORDER, "c1": 0.5})
        rep = pm.validate_class_membership(p, samples=50, seed=1)
        assert rep.max_norm_jac_x2 == 0.0 and rep.max_norm_jac_x2_point is None
        assert set(rep.min_sym_jac_u_point) == {"x", "u"}

    @pytest.mark.parametrize(
        "fam,params",
        [
            ("linear_matrix", {"A1": [[0.4, 0.1], [0.0, 0.3]], "A2": [[0.2, 0.0], [0.1, 0.5]], "Theta": [[2.0, 0.3], [0.1, 1.5]]}),
            ("sinusoidal_scalar", {"c1": 0.8, "c2": 1.2}),
            ("tanh_coupled", {"n": 2, "l1": 1.0, "l2": 0.5, "b_lower": 1.0}),
            ("nonaffine_cubic_u", {"c1": 1.0, "c2": 0.5, "b_lower": 0.7}),
            ("rotation_gain", {"b_lower": 1.0, "s": 10.0, "a1": 0.5, "a2": 0.2}),
            ("linear_matrix", {"order": FIRST_ORDER, "A": [[-0.5, 0.2], [0.1, -0.3]], "Theta": [[1.5, 0.4], [-0.4, 1.0]]}),
            ("sinusoidal_scalar", {"order": FIRST_ORDER, "c1": -0.7}),
            ("nonaffine_cubic_u", {"order": FIRST_ORDER, "c1": 0.6, "b_lower": 0.9}),
        ],
    )
    def test_every_family_passes_own_bounds(self, fam, params):
        p = pm.build_family(fam, params)
        rep = pm.validate_class_membership(p, samples=1000, box_radius=10.0, seed=3)
        assert rep.passes, rep

    def test_fd_jacobians_match_analytic(self):
        rng = np.random.default_rng(9)
        for fam, params in [
            ("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
            ("nonaffine_cubic_u", {"c1": 0.5, "c2": 1.0, "b_lower": 1.0}),
            ("rotation_gain", {"b_lower": 2.0, "s": 5.0, "a1": 0.3, "a2": 0.1}),
        ]:
            p = pm.build_family(fam, params)
            for _ in range(100):
                args = [rng.uniform(-5, 5, p.n) for _ in range(3)]
                for idx, jac_fn in enumerate((p.jac_x1, p.jac_x2, p.jac_u)):
                    analytic = np.asarray(jac_fn(*args))

                    def slice_fn(v, idx=idx):
                        call = list(args)
                        call[idx] = v
                        return p.f(*call)

                    fd = pm.fd_jacobian(slice_fn, args[idx])
                    denom = 1.0 + np.linalg.norm(analytic)
                    assert np.max(np.abs(fd - analytic)) / denom < 1e-5

    def test_nan_plant_raises(self):
        bad = pm.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.array([np.nan if x1[0] < 0 else x1[0]]),
            declared_bounds=UncertaintyBounds(1, 1, 1),
        )
        with pytest.raises(PlantError):
            pm.validate_class_membership(bad, samples=50, seed=0)


class TestEquilibriumShiftCheck:
    def test_origin(self):
        assert pm.equilibrium_shift_check(sin_plant(), [0.0])

    def test_pi_point(self):
        assert pm.equilibrium_shift_check(sin_plant(), [np.pi])

    def test_half_pi_rejected(self):
        assert not pm.equilibrium_shift_check(sin_plant(), [np.pi / 2])

    def test_first_order_rejected(self):
        p = pm.build_family("sinusoidal_scalar", {"order": FIRST_ORDER})
        with pytest.raises(UsageError):
            pm.equilibrium_shift_check(p, [0.0])

    @pytest.mark.parametrize("y_star", [[np.nan], [np.inf], [0.0, 0.0], True])
    def test_bad_setpoint_is_usage_error(self, y_star):
        """Refused by name by the one vector rule, before the plant is called
        with it and blamed for it."""
        with pytest.raises(UsageError, match=r"^y_star must be 1 finite number, got "):
            pm.equilibrium_shift_check(sin_plant(), y_star)


class TestCustomPlant:
    def test_fd_fallback_jacobians(self):
        p = pm.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.sin(x1) - x2 + u,
            declared_bounds=UncertaintyBounds(1, 1, 1),
        )
        rep = pm.validate_class_membership(p, samples=100, seed=4)
        assert rep.passes
        j = p.jac_x1(np.array([0.0]), np.zeros(1), np.zeros(1))
        assert abs(j[0, 0] - 1.0) < 1e-6

    def test_wrong_analytic_jacobian_fails(self):
        """The finite-difference comparison always runs: a Jacobian that
        understates df/dx1 by half stays inside the declared bounds, so only
        that comparison can catch it."""
        p = pm.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.sin(x1) - x2 + u,
            declared_bounds=UncertaintyBounds(1, 1, 1),
            jac_x1=lambda x1, x2, u: np.array([[0.5 * np.cos(x1[0])]]),
        )
        rep = pm.validate_class_membership(p, samples=50, seed=4)
        assert rep.max_norm_jac_x1 <= 0.5
        assert rep.max_fd_rel_error > 0.1
        assert not rep.passes

    def test_order_read_from_the_declared_bounds(self):
        p = pm.custom_plant(
            n=1,
            f=lambda x, u: np.sin(x) + u,
            declared_bounds=UncertaintyBounds.first_order(1.0, 1.0),
            jac_x2=lambda x, u: np.eye(1),
        )
        assert p.order == FIRST_ORDER
        assert p.nargs == 2
        assert p.jac_x2 is None


BATCH_FAMILIES = [
    ("linear_matrix", {"A1": [[0.4, 0.1], [0.0, 0.3]], "A2": [[0.2, 0.0], [0.1, 0.5]], "Theta": [[2.0, 0.3], [0.1, 1.5]]}),
    ("linear_matrix", {"order": FIRST_ORDER, "A": [[-0.5, 0.2], [0.1, -0.3]], "Theta": [[1.5, 0.4], [-0.4, 1.0]]}),
    ("sinusoidal_scalar", {"c1": 0.8, "c2": 1.2}),
    ("sinusoidal_scalar", {"order": FIRST_ORDER, "c1": -0.7}),
    ("tanh_coupled", {"n": 3, "l1": 1.0, "l2": 0.5, "b_lower": 1.0}),
    ("nonaffine_cubic_u", {"c1": 1.0, "c2": 0.5, "b_lower": 0.7}),
    ("nonaffine_cubic_u", {"order": FIRST_ORDER, "c1": 0.6, "b_lower": 0.9}),
    ("rotation_gain", {"b_lower": 1.0, "s": 10.0, "a1": 0.5, "a2": 0.2}),
]


LINEAR_FAMILIES = [
    ("linear_matrix", {"A1": [[0.4, 0.1], [0.0, 0.3]], "A2": [[0.2, 0.0], [0.1, 0.5]], "Theta": [[2.0, 0.3], [0.1, 1.5]]}),
    ("linear_matrix", {"order": FIRST_ORDER, "A": [[-0.5, 0.2], [0.1, -0.3]], "Theta": [[1.5, 0.4], [-0.4, 1.0]]}),
    ("rotation_gain", {"b_lower": 1.1, "s": 2.5, "a1": -0.7, "a2": -0.9}),
]


class TestLinearPlantSum:
    """The linear plants' f builds its transposes once and sums the terms
    left to right; it must give the bits of the reduce over
    x_k @ A_k.T and u @ Theta.T."""

    @pytest.mark.parametrize("rows", [None, 1, 6], ids=["point", "1-row", "6-row"])
    @pytest.mark.parametrize("fam,params", LINEAR_FAMILIES)
    def test_bitwise_equal_to_the_reduce_form(self, fam, params, rows):
        p = pm.build_family(fam, params)
        rng = np.random.default_rng(11)
        lead = () if rows is None else (rows,)
        args = [rng.uniform(-3.0, 3.0, size=lead + (p.n,)) for _ in range(p.nargs)]
        # the constant Jacobians are the matrices A_k and Theta
        point = [a.reshape(-1, p.n)[0] for a in args]
        jacs = [p.jac_x1, p.jac_x2, p.jac_u] if p.nargs == 3 else [p.jac_x1, p.jac_u]
        terms = [jac(*point) for jac in jacs]
        want = functools.reduce(operator.add, (x @ m.T for x, m in zip(args, terms)))
        got = p.f(*args)
        assert got.shape == lead + (p.n,)
        assert got.tobytes() == want.tobytes()


class TestTanhCoupledTranspose:
    """tanh_coupled's f builds theta.T once; it must give the bits of the
    sum with u @ Theta.T formed at each call."""

    @pytest.mark.parametrize("rows", [None, 6], ids=["point", "6-row"])
    def test_bitwise_equal_to_the_per_call_transpose(self, rows):
        l1, l2 = 0.8, 0.6
        p = pm.build_family("tanh_coupled", {"n": 3, "l1": l1, "l2": l2, "b_lower": 1.2})
        rng = np.random.default_rng(13)
        lead = () if rows is None else (rows,)
        x1, x2, u = (rng.uniform(-3.0, 3.0, size=lead + (3,)) for _ in range(3))
        theta = p.jac_u(x1, x2, u).reshape(-1, 3, 3)[0]
        want = l1 * np.tanh(x1) + l2 * np.tanh(x2) + u @ theta.T
        got = p.f(x1, x2, u)
        assert got.shape == lead + (3,)
        assert got.tobytes() == want.tobytes()


class TestBatchAxis:
    @pytest.mark.parametrize("fam,params", BATCH_FAMILIES)
    def test_builtin_f_equals_row_by_row(self, fam, params):
        """f on (cells, n) arrays is the stack of its one-point values."""
        p = pm.build_family(fam, params)
        rng = np.random.default_rng(7)
        args = [rng.uniform(-3.0, 3.0, size=(5, p.n)) for _ in range(p.nargs)]
        batch = p.eval_checked(*args)
        rows = np.array([p.eval_checked(*(a[k] for a in args)) for k in range(5)])
        assert batch.shape == (5, p.n)
        if p.n == 1:
            np.testing.assert_array_equal(batch, rows)
        else:
            np.testing.assert_allclose(batch, rows, rtol=1e-12, atol=1e-12)

    def test_custom_per_point_f_takes_a_batch(self):
        """A per-point f that indexes its arguments is looped over the rows."""
        p = pm.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.array([np.sin(x1[0]) - x2[0] + u[0]]),
            declared_bounds=UncertaintyBounds(1, 1, 1),
        )
        args = [np.array([[0.5], [-1.0], [2.0]]) for _ in range(3)]
        np.testing.assert_array_equal(
            p.eval_checked(*args), sin_plant().eval_checked(*args)
        )

    def test_wrong_shape_is_a_plant_error(self):
        p = pm.custom_plant(
            n=2,
            f=lambda x1, x2, u: np.zeros(3),
            declared_bounds=UncertaintyBounds(1, 1, 1),
        )
        with pytest.raises(PlantError, match="expected"):
            p.eval_checked(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_transposed_batch_is_a_plant_error(self):
        """A (n, cells) result has the size of a (cells, n) one, but is not
        reshaped: that would mix the points of the batch."""
        p = pm.build_family("tanh_coupled", {"n": 2})
        flipped = dataclasses.replace(p, f=lambda *a: p.f(*a).T)
        args = [np.arange(6.0).reshape(3, 2) + k for k in range(3)]
        with pytest.raises(PlantError, match=re.escape("shape (2, 3), expected (3, 2)")):
            flipped.eval_checked(*args)

    def test_nan_in_a_batch_names_its_point(self):
        p = pm.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.array([np.nan if x1[0] > 1.0 else 0.0]),
            declared_bounds=UncertaintyBounds(1, 1, 1),
        )
        x = np.array([[0.0], [2.0], [3.0]])
        with pytest.raises(PlantError, match=r"at \(array\(\[2\.\]\)"):
            p.eval_checked(x, np.zeros((3, 1)), np.zeros((3, 1)))

    @pytest.mark.parametrize("fam,params", BATCH_FAMILIES)
    def test_builtin_jacobians_equal_row_by_row(self, fam, params):
        """Each Jacobian on (5, n) arrays is the stack of its one-point values."""
        p = pm.build_family(fam, params)
        rng = np.random.default_rng(11)
        args = [rng.uniform(-3.0, 3.0, size=(5, p.n)) for _ in range(p.nargs)]
        jacs = [p.jac_x1, p.jac_u] + ([p.jac_x2] if p.jac_x2 is not None else [])
        for jac in jacs:
            batch = jac(*args)
            rows = np.array([jac(*(a[k] for a in args)) for k in range(5)])
            assert batch.shape == (5, p.n, p.n)
            np.testing.assert_array_equal(batch, rows)

    def test_custom_jacobians_take_a_batch(self):
        """A per-point Jacobian is looped over the rows; the finite-difference
        fallback takes the batch directly, one step per row."""
        plants = custom_plants()
        rng = np.random.default_rng(12)
        for p in plants.values():
            args = [rng.uniform(-3.0, 3.0, size=(5, p.n)) for _ in range(p.nargs)]
            for jac in (p.jac_x1, p.jac_x2, p.jac_u):
                if jac is None:
                    continue
                batch = jac(*args)
                rows = np.array([jac(*(a[k] for a in args)) for k in range(5)])
                assert batch.shape == (5, p.n, p.n)
                if p.n == 1:
                    np.testing.assert_array_equal(batch, rows)
                else:
                    # the row step uses a batched norm: roundoff of the step
                    np.testing.assert_allclose(batch, rows, rtol=0, atol=1e-8)


def test_non_numeric_param_is_a_usage_error():
    with pytest.raises(UsageError, match="'sinusoidal_scalar'"):
        pm.build_family("sinusoidal_scalar", {"c1": "one"})
    with pytest.raises(UsageError, match="'tanh_coupled'"):
        pm.build_family("tanh_coupled", {"n": [2]})


@pytest.mark.parametrize(
    "fam,params,key",
    [
        ("tanh_coupled", {"n": 2.5}, "n"),  # int(2.5) would build n = 2
        ("sinusoidal_scalar", {"c1": True}, "c1"),  # float(True) would build c1 = 1.0
        ("sinusoidal_scalar", {"c2": float("nan")}, "c2"),  # would declare L2 = nan
        ("rotation_gain", {"s": float("inf")}, "s"),
        ("sinusoidal_scalar", {"c1": "one"}, "c1"),
        ("linear_matrix", {"A1": [["a"]], "A2": [[0.0]], "Theta": [[1.0]]}, "A1"),
    ],
)
def test_params_convert_by_one_rule(fam, params, key):
    """A bool, a value that is not a finite number, or a non-whole value for
    an integer key is a usage error naming the family and the key."""
    with pytest.raises(UsageError, match=f"'{fam}'.*'{key}'"):
        pm.build_family(fam, params)


def test_params_must_be_an_object():
    with pytest.raises(UsageError, match="params must be an object"):
        pm.build_family("sinusoidal_scalar", [("c1", 1.0)])


# ---------------------------------------------------------------------------
# The per-sample audit loop, kept as an independent reference for the
# batched ``validate_class_membership``.
# ---------------------------------------------------------------------------


def _central_difference(fn, x):
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        jac[:, j] = (np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h)
    return jac


def reference_audit(p, samples, box_radius, seed):
    """Extremes and the first sample attaining each, one sample at a time."""
    rng = np.random.default_rng(seed)
    fields = ("max_norm_jac_x1", "max_norm_jac_x2", "min_sym_jac_u", "max_fd_rel_error")
    best, points = dict.fromkeys(fields), dict.fromkeys(fields)

    def keep(field, value, args, lowest=False):
        if best[field] is None or ((value < best[field]) if lowest else (value > best[field])):
            best[field] = value
            points[field] = [a.tolist() for a in args]

    for _ in range(samples):
        args = [rng.uniform(-box_radius, box_radius, size=p.n) for _ in range(p.nargs)]
        p.eval_checked(*args)
        jacs = [np.asarray(p.jac_x1(*args), dtype=float)]
        keep("max_norm_jac_x1", float(np.linalg.norm(jacs[0], 2)), args)
        if p.nargs == 3:
            jacs.append(np.asarray(p.jac_x2(*args), dtype=float))
            keep("max_norm_jac_x2", float(np.linalg.norm(jacs[1], 2)), args)
        ju = np.asarray(p.jac_u(*args), dtype=float)
        jacs.append(ju)
        keep("min_sym_jac_u", float(np.linalg.eigvalsh((ju + ju.T) / 2.0)[0]), args, lowest=True)
        fd_err = 0.0
        for idx, analytic in enumerate(jacs):
            def slice_fn(v, idx=idx):
                call = list(args)
                call[idx] = v
                return p.eval_checked(*call)

            fd = _central_difference(slice_fn, args[idx])
            denom = 1.0 + float(np.linalg.norm(analytic))
            fd_err = max(fd_err, float(np.max(np.abs(fd - analytic))) / denom)
        keep("max_fd_rel_error", fd_err, args)
    if best["max_norm_jac_x2"] is None:  # a first-order plant has no x2
        best["max_norm_jac_x2"] = 0.0
    return best, points


def custom_plants():
    theta = np.array([[1.5, 0.3], [-0.2, 1.0]])
    b = float(np.linalg.eigvalsh((theta + theta.T) / 2.0)[0])
    return {
        "per_point_n2": pm.custom_plant(
            n=2,
            f=lambda x1, x2, u: 0.8 * np.tanh(x1) + 0.5 * np.sin(x2) + theta @ u,
            declared_bounds=UncertaintyBounds(0.8, 0.5, b),
            jac_x1=lambda x1, x2, u: np.diag(0.8 / np.cosh(x1) ** 2),
            jac_x2=lambda x1, x2, u: np.diag(0.5 * np.cos(x2)),
            jac_u=lambda x1, x2, u: theta,
        ),
        "fd_n1": pm.custom_plant(
            n=1,
            f=lambda x1, x2, u: np.sin(x1) - x2 + u + 0.1 * u**3,
            declared_bounds=UncertaintyBounds(1, 1, 1),
        ),
        "fd_first_order_n1": pm.custom_plant(
            n=1,
            f=lambda x, u: np.array([0.5 * np.cos(x[0]) + 2.0 * u[0]]),
            declared_bounds=UncertaintyBounds.first_order(0.5, 2.0),
        ),
        "fd_n2": pm.custom_plant(
            n=2,
            f=lambda x1, x2, u: 0.8 * np.tanh(x1) + 0.5 * np.sin(x2) + theta @ u,
            declared_bounds=UncertaintyBounds(0.8, 0.5, b),
        ),
    }


def audited_plants():
    builtin = {f"{fam}-{i}": pm.build_family(fam, params) for i, (fam, params) in enumerate(BATCH_FAMILIES)}
    return builtin | custom_plants()


class TestBatchedAuditMatchesReference:
    NORM_EIGEN = ("max_norm_jac_x1", "max_norm_jac_x2", "min_sym_jac_u")

    def check(self, p, rep, best, points):
        exact = self.NORM_EIGEN
        if p.n == 1:
            exact += ("max_fd_rel_error",)
        else:
            # ``x @ A.T`` on a batch sums in another order than on one point
            assert abs(rep.max_fd_rel_error - best["max_fd_rel_error"]) <= 1e-9
        for field in exact:
            assert getattr(rep, field) == best[field], field
            got = getattr(rep, field + "_point")
            want = points[field]
            assert (got is None) == (want is None), field
            if want is not None:
                assert list(got.values()) == want, field

    @pytest.mark.parametrize("name", list(audited_plants()))
    def test_equals_the_per_sample_loop(self, name):
        p = audited_plants()[name]
        rep = pm.validate_class_membership(p, samples=150, box_radius=6.0, seed=21)
        best, points = reference_audit(p, 150, 6.0, 21)
        self.check(p, rep, best, points)
        assert rep.passes

    @pytest.mark.parametrize("fam,params", [BATCH_FAMILIES[2], BATCH_FAMILIES[4]])
    def test_blocks_keep_the_sample_order(self, fam, params, monkeypatch):
        """Samples split over several blocks are drawn, and their extremes
        taken, as in one pass."""
        p = pm.build_family(fam, params)
        monkeypatch.setattr(pm, "_AUDIT_BLOCK", 16)
        rep = pm.validate_class_membership(p, samples=75, box_radius=4.0, seed=8)
        best, points = reference_audit(p, 75, 4.0, 8)
        self.check(p, rep, best, points)
