"""Plant representations with Jacobian oracles and class-membership validation.

A second-order plant is the right-hand side f(x1, x2, u) of

    dx1/dt = x2,   dx2/dt = f(x1, x2, u),

a first-order plant is f(x, u) in dx/dt = f(x, u).  Each PlantModel carries
declared derivative bounds; ``audit_class`` audits them at given points,
``validate_class_membership`` at points sampled from a box.  The built-in
families are declared once, in ``_FAMILIES``: each family's builder and,
for each order it has, its params keys and defaults.  Their declared bounds
are analytically exact.

``f`` and the Jacobians take a leading batch axis: called with (..., n)
arrays, ``f`` returns the (..., n) array of row-by-row values and each
Jacobian the (..., n, n) stack of row-by-row matrices.  So the simulator
evaluates a whole batch of closed loops, or a whole recorded trajectory, in
one call, and the class audit evaluates a whole block of points in one
call.  The built-in families broadcast (a matrix acts as ``x @ A.T``);
``custom_plant`` loops a per-point ``f`` or Jacobian over the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from . import matrix_kernel as mk
from .errors import PlantError, UsageError, as_number
from .gain_sets import FIRST_ORDER, SECOND_ORDER, UncertaintyBounds


@dataclass
class PlantModel:
    """Evaluable plant with analytic (or finite-difference) Jacobians.

    ``f`` takes (x1, x2, u) for second-order plants and (x, u) for
    first-order ones; each argument is an n-vector, or a (..., n) array
    whose rows are evaluated independently into a (..., n) result.
    ``jac_x1``/``jac_x2``/``jac_u`` take the same arguments and return an
    n x n Jacobian, or the (..., n, n) stack of one per row (for first-order
    plants ``jac_x1`` is d f/d x and ``jac_x2`` is None).  Evaluation must be
    pure: no mutable internal state.
    """

    n: int
    f: Callable[..., np.ndarray]
    jac_x1: Callable[..., np.ndarray]
    jac_x2: Optional[Callable[..., np.ndarray]]
    jac_u: Callable[..., np.ndarray]
    declared_bounds: UncertaintyBounds
    family: Optional[str] = None

    def __post_init__(self):
        if self.order == SECOND_ORDER and self.jac_x2 is None:
            raise UsageError("second-order plant needs jac_x2")

    @property
    def order(self) -> str:
        """The order of the declared class."""
        return self.declared_bounds.order

    @property
    def nargs(self) -> int:
        return 3 if self.order == SECOND_ORDER else 2

    def eval_checked(self, *args) -> np.ndarray:
        """f at one point or at each row of a batch; the result has shape
        (..., n) like the first argument and must be finite.  A result of
        another shape is reshaped only at one point."""
        return self.checked(self.f(*args), args)

    def checked(self, value, args: tuple) -> np.ndarray:
        """``value``, f's result at ``args``, as ``eval_checked`` returns it:
        a float array of shape (..., n), or a PlantError naming the first
        failing point."""
        shape = np.shape(args[0])[:-1] + (self.n,)
        out = np.asarray(value, dtype=float)
        if out.shape != shape:
            # only one point's n values can be reshaped without mixing points
            if math.prod(shape) != self.n or out.size != self.n:
                raise PlantError(f"plant returned shape {out.shape}, expected {shape}")
            out = out.reshape(shape)
        finite = np.isfinite(out)
        # all() by count: the same test without the array method's wrapper,
        # which costs more than the test on a batch of a few rows
        if np.count_nonzero(finite) != out.size:
            if out.ndim > 1:  # name the first failing point of a batch
                k = tuple(np.argwhere(~finite)[0][:-1])
                args = tuple(np.asarray(a)[k] for a in args)
            raise PlantError(f"plant returned non-finite value at {args}")
        return out


# samples the class audit draws and evaluates per vectorised pass, so its
# memory does not grow with the sample count
_AUDIT_BLOCK = 1024


@dataclass
class ValidationReport:
    """Audit of the declared derivative bounds at ``samples`` points, drawn
    from the box of ``box_radius`` (None: points given to ``audit_class``).

    Each ``*_point`` is the first point that attains the extreme beside it,
    as {argument name: n floats}; ``max_norm_jac_x2_point`` is None for a
    first-order plant, which has no x2.
    """

    samples: int
    box_radius: Optional[float]
    max_norm_jac_x1: float
    max_norm_jac_x2: float
    min_sym_jac_u: float
    max_fd_rel_error: float
    declared: UncertaintyBounds
    passes: bool
    max_norm_jac_x1_point: dict
    max_norm_jac_x2_point: Optional[dict]
    min_sym_jac_u_point: dict
    max_fd_rel_error_point: dict


def _as_vec(x, n: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1)
    if v.shape != (n,):
        raise UsageError(f"expected vector of length {n}, got shape {v.shape}")
    return v


def _row_loop(fn: Callable[..., np.ndarray], shape: tuple) -> Callable[..., np.ndarray]:
    """``fn``, which takes one point, applied to each row of (..., n)
    arguments; each row's value is reshaped to ``shape``."""

    def rows(*args):
        lead = np.shape(args[0])[:-1]
        if not lead:
            return fn(*args)
        flat = [np.reshape(a, (-1, np.shape(a)[-1])) for a in args]
        out = np.array([np.asarray(fn(*row), dtype=float).reshape(shape) for row in zip(*flat)])
        return out.reshape(lead + shape)

    return rows


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with step 1e-6*(1+|x|), in 2n calls of fn.

    ``x`` is one point or a (..., n) batch of them; for a batch ``fn`` must
    take the batch too, and each row gets its own step and Jacobian.
    """
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
    cols = []
    for j in range(x.shape[-1]):
        up, down = x.copy(), x.copy()
        up[..., j] += h[..., 0]
        down[..., j] -= h[..., 0]
        diff = np.asarray(fn(up), dtype=float) - np.asarray(fn(down), dtype=float)
        cols.append(diff.reshape(x.shape[:-1] + (-1,)) / (2.0 * h))
    return np.stack(cols, axis=-1)


def _fd_partial(fn: Callable[..., np.ndarray], args, idx: int) -> np.ndarray:
    """Central-difference Jacobian of fn(*args) in its argument ``idx``."""

    def slice_fn(v):
        call = list(args)
        call[idx] = v
        return fn(*call)

    return fd_jacobian(slice_fn, args[idx])


def _jacobian_stack(p: PlantModel, jac: Callable[..., np.ndarray], name: str, args) -> np.ndarray:
    """``jac`` at every row of ``args``: a finite (S, n, n) stack."""
    shape = (args[0].shape[0], p.n, p.n)
    out = np.asarray(jac(*args), dtype=float)
    if out.shape != shape:
        raise PlantError(f"{name} returned shape {out.shape}, expected {shape}")
    bad = ~np.isfinite(out).all(axis=(1, 2))
    if bad.any():
        k = int(np.argmax(bad))
        raise PlantError(f"{name} returned non-finite value at {tuple(a[k] for a in args)}")
    return out


def audit_class(p: PlantModel, blocks: Iterable[tuple]) -> ValidationReport:
    """Audit the declared derivative bounds, and the analytic Jacobians
    against finite differences, at every point of ``blocks``.

    Each block, a tuple of ``p.nargs`` (S, n) argument arrays, is evaluated
    in one vectorised pass: one call of ``f``, one of each Jacobian, 2n of
    ``f`` per finite-difference Jacobian, and one stacked LAPACK call per
    norm or eigenvalue array.  A non-finite value is a PlantError naming its
    point."""
    slack = 1e-8
    samples = 0
    if p.order == SECOND_ORDER:
        names, jacs = ("x1", "x2", "u"), (p.jac_x1, p.jac_x2, p.jac_u)
    else:
        names, jacs = ("x", "u"), (p.jac_x1, p.jac_u)
    extremes: dict = {}  # report field -> (value, point)

    def record(field, values, args, lowest=False):
        k = int(np.argmin(values) if lowest else np.argmax(values))
        v = float(values[k])
        if field not in extremes or (v < extremes[field][0] if lowest else v > extremes[field][0]):
            extremes[field] = (v, {a: args[i][k].tolist() for i, a in enumerate(names)})

    for args in blocks:
        samples += args[0].shape[0]
        p.eval_checked(*args)
        stacks = [
            _jacobian_stack(p, jac, f"jac_{a}", args) for jac, a in zip(jacs, names)
        ]
        record("max_norm_jac_x1", mk.operator_norm(stacks[0]), args)
        if p.order == SECOND_ORDER:
            record("max_norm_jac_x2", mk.operator_norm(stacks[1]), args)
        record("min_sym_jac_u", mk.eig_extrema(mk.symmetrize(stacks[-1]))[0], args, lowest=True)
        fd_err = np.zeros(args[0].shape[0])
        for idx, analytic in enumerate(stacks):
            fd = _fd_partial(p.eval_checked, args, idx)
            denom = 1.0 + np.linalg.norm(analytic, axis=(1, 2))
            fd_err = np.maximum(fd_err, np.max(np.abs(fd - analytic), axis=(1, 2)) / denom)
        record("max_fd_rel_error", fd_err, args)

    found = {
        field: extremes.get(field, (0.0, None))
        for field in ("max_norm_jac_x1", "max_norm_jac_x2", "min_sym_jac_u", "max_fd_rel_error")
    }
    ub = p.declared_bounds
    ok = (
        found["max_norm_jac_x1"][0] <= ub.L1 + slack
        and (p.order == FIRST_ORDER or found["max_norm_jac_x2"][0] <= ub.L2 + slack)
        and found["min_sym_jac_u"][0] >= ub.b_lower - slack
        and found["max_fd_rel_error"][0] <= 1e-5
    )
    return ValidationReport(
        samples=samples,
        box_radius=None,
        declared=ub,
        passes=bool(ok),
        **{field: value for field, (value, _) in found.items()},
        **{f"{field}_point": point for field, (_, point) in found.items()},
    )


def validate_class_membership(
    p: PlantModel,
    samples: int = 1000,
    box_radius: float = 10.0,
    seed: int = 0,
) -> ValidationReport:
    """``audit_class`` on samples drawn from a uniform box, in the order of a
    per-sample loop, and audited in blocks of ``_AUDIT_BLOCK``."""
    if samples < 1:
        raise UsageError("samples must be >= 1")
    if not box_radius > 0:
        raise UsageError("box_radius must be > 0")
    rng = np.random.default_rng(seed)

    def draws():
        for start in range(0, samples, _AUDIT_BLOCK):
            draw = rng.uniform(
                -box_radius, box_radius, size=(min(_AUDIT_BLOCK, samples - start), p.nargs, p.n)
            )
            yield tuple(draw[:, i].copy() for i in range(p.nargs))  # contiguous (S, n) arrays

    return replace(audit_class(p, draws()), box_radius=box_radius)


def equilibrium_shift_check(p: PlantModel, y_star) -> bool:
    """True iff f(y*, 0, 0) vanishes, so y* is an uncontrolled equilibrium.

    This is the precondition for PD-only regulation (no integral action to
    absorb a residual force).
    """
    if p.order != SECOND_ORDER:
        raise UsageError("equilibrium_shift_check applies to second-order plants")
    y = _as_vec(y_star, p.n)
    zero = np.zeros(p.n)
    val = p.eval_checked(y, zero, zero)
    return float(np.linalg.norm(val)) <= 1e-10 * (1.0 + float(np.linalg.norm(y)))


# ---------------------------------------------------------------------------
# Built-in families.  Bounds are exact by construction; see the builders.
# Each builder takes its family's params (``_FAMILIES``) as keywords; a family
# with both orders is first-order when its second-order keys are absent.
# ---------------------------------------------------------------------------


def _constant(m: np.ndarray) -> Callable[..., np.ndarray]:
    """The Jacobian that is ``m`` at every point (a fresh copy per call)."""

    def jac(*args):
        out = np.empty(np.shape(args[0])[:-1] + m.shape)
        out[...] = m
        return out

    return jac


def _diag(v: np.ndarray) -> np.ndarray:
    """The (..., n, n) diagonal matrices whose diagonals are the rows of v."""
    out = np.zeros(v.shape + v.shape[-1:])
    i = np.arange(v.shape[-1])
    out[..., i, i] = v
    return out


def _linear(mats: list, theta: np.ndarray, ub: UncertaintyBounds | None = None) -> PlantModel:
    """The plant f = sum_k x_k A_k^T + u Theta^T, with one A_k per state
    argument (A1, A2 for second order, A for first order) and constant
    Jacobians.  ``ub`` defaults to the exact bounds: the operator norm of each
    A_k and lambda_min(Sym[Theta]).
    """
    n = theta.shape[0]
    if any(m.shape[0] != n for m in mats):
        raise UsageError("the state matrices and Theta must share their dimension")
    if ub is None:
        b_exact = mk.eig_extrema(mk.symmetrize(theta))[0]
        if b_exact <= 0:
            raise UsageError("Sym[Theta] must be positive definite")
        L1, L2 = [mk.operator_norm(m) for m in mats] + [0.0] * (2 - len(mats))
        order = SECOND_ORDER if len(mats) == 2 else FIRST_ORDER
        ub = UncertaintyBounds(L1=L1, L2=L2, b_lower=b_exact, order=order)
    # the transposes are built once; the terms are summed left to right
    if len(mats) == 1:
        AT, TT = mats[0].T, theta.T

        def f(x, u):
            return x @ AT + u @ TT

    else:
        A1T, A2T, TT = mats[0].T, mats[1].T, theta.T

        def f(x1, x2, u):
            return x1 @ A1T + x2 @ A2T + u @ TT

    return PlantModel(
        n=n,
        f=f,
        jac_x1=_constant(mats[0]),
        jac_x2=_constant(mats[1]) if len(mats) == 2 else None,
        jac_u=_constant(theta),
        declared_bounds=ub,
    )


def _linear_matrix(Theta, A=None, A1=None, A2=None) -> PlantModel:
    return _linear([A] if A is not None else [A1, A2], Theta)


def _sinusoidal_scalar(c1, c2=None) -> PlantModel:
    if c2 is None:
        # f = c1*sin(x) + u, so |df/dx| <= |c1| with equality at x = 0
        return PlantModel(
            n=1,
            f=lambda x, u: c1 * np.sin(x) + u,
            jac_x1=lambda x, u: c1 * np.cos(x)[..., None],
            jac_x2=None,
            jac_u=_constant(np.eye(1)),
            declared_bounds=UncertaintyBounds.first_order(L=abs(c1), b_lower=1.0),
        )
    if c2 < 0:
        raise UsageError("c2 must be >= 0")
    # f = c1*sin(x1) - c2*x2 + u
    return PlantModel(
        n=1,
        f=lambda x1, x2, u: c1 * np.sin(x1) - c2 * x2 + u,
        jac_x1=lambda x1, x2, u: c1 * np.cos(x1)[..., None],
        jac_x2=_constant(np.array([[-c2]])),
        jac_u=_constant(np.eye(1)),
        declared_bounds=UncertaintyBounds(L1=abs(c1), L2=c2, b_lower=1.0),
    )


def _tanh_coupled(n, l1, l2, b_lower, w_scale) -> PlantModel:
    if n < 2:
        raise UsageError("tanh_coupled needs n >= 2")
    if l1 < 0 or l2 < 0 or b_lower <= 0 or w_scale < 0:
        raise UsageError("tanh_coupled needs l1,l2,w_scale >= 0 and b_lower > 0")
    # rank-one PSD perturbation keeps lambda_min(Sym[Theta]) = b_lower exactly
    v = np.ones(n) / np.sqrt(n)
    theta = b_lower * np.eye(n) + w_scale * b_lower * np.outer(v, v)
    return PlantModel(
        n=n,
        f=lambda x1, x2, u: l1 * np.tanh(x1) + l2 * np.tanh(x2) + u @ theta.T,
        jac_x1=lambda x1, x2, u: _diag(l1 * (1.0 / np.cosh(x1) ** 2)),
        jac_x2=lambda x1, x2, u: _diag(l2 * (1.0 / np.cosh(x2) ** 2)),
        jac_u=_constant(theta),
        declared_bounds=UncertaintyBounds(L1=l1, L2=l2, b_lower=b_lower),
    )


def _nonaffine_cubic_u(c1, b_lower, c2=None) -> PlantModel:
    # f = c1*sin(x1) [+ c2*sin(x2)] + b*u + u^3/3, so df/du = b + u^2 >= b
    b = b_lower
    if c2 is None:
        return PlantModel(
            n=1,
            f=lambda x, u: c1 * np.sin(x) + b * u + u**3 / 3.0,
            jac_x1=lambda x, u: c1 * np.cos(x)[..., None],
            jac_x2=None,
            jac_u=lambda x, u: (b + u**2)[..., None],
            declared_bounds=UncertaintyBounds.first_order(L=abs(c1), b_lower=b),
        )
    return PlantModel(
        n=1,
        f=lambda x1, x2, u: c1 * np.sin(x1) + c2 * np.sin(x2) + b * u + u**3 / 3.0,
        jac_x1=lambda x1, x2, u: c1 * np.cos(x1)[..., None],
        jac_x2=lambda x1, x2, u: c2 * np.cos(x2)[..., None],
        jac_u=lambda x1, x2, u: (b + u**2)[..., None],
        declared_bounds=UncertaintyBounds(L1=abs(c1), L2=abs(c2), b_lower=b),
    )


def _rotation_gain(b_lower, s, a1, a2) -> PlantModel:
    # skew part cancels in Sym[Theta], so the control gain can be large and
    # non-symmetric while Sym[Theta] = b_lower * I exactly
    theta = b_lower * np.eye(2) + s * np.array([[0.0, 1.0], [-1.0, 0.0]])
    ub = UncertaintyBounds(L1=abs(a1), L2=abs(a2), b_lower=b_lower)
    return _linear([a1 * np.eye(2), a2 * np.eye(2)], theta, ub)


# marks a params key with no default: a matrix that must be given
_MATRIX = object()

# family -> (builder, {order: {params key: default, or _MATRIX}}); the type of
# a default is the type its value converts to (an int default: a whole number)
_FAMILIES = {
    "linear_matrix": (_linear_matrix, {
        SECOND_ORDER: {"A1": _MATRIX, "A2": _MATRIX, "Theta": _MATRIX},
        FIRST_ORDER: {"A": _MATRIX, "Theta": _MATRIX},
    }),
    "sinusoidal_scalar": (_sinusoidal_scalar, {
        SECOND_ORDER: {"c1": 1.0, "c2": 1.0},
        FIRST_ORDER: {"c1": 1.0},
    }),
    "tanh_coupled": (_tanh_coupled, {
        SECOND_ORDER: {"n": 2, "l1": 1.0, "l2": 1.0, "b_lower": 1.0, "w_scale": 0.25},
    }),
    "nonaffine_cubic_u": (_nonaffine_cubic_u, {
        SECOND_ORDER: {"c1": 1.0, "c2": 1.0, "b_lower": 1.0},
        FIRST_ORDER: {"c1": 1.0, "b_lower": 1.0},
    }),
    "rotation_gain": (_rotation_gain, {
        SECOND_ORDER: {"b_lower": 1.0, "s": 10.0, "a1": 0.0, "a2": 0.0},
    }),
}
FAMILY_IDS = tuple(_FAMILIES)


def _convert(value, default, where: str):
    """A params value by the rule of its default: a finite square matrix for
    ``_MATRIX``, else a finite number of the default's type."""
    if default is _MATRIX:
        return mk.as_square(value, where)
    return as_number(value, where, type(default))


def build_family(family_id: str, params: dict | None = None) -> PlantModel:
    """Instantiate a built-in plant family with exact declared bounds.

    A params key the family does not read for its order, or a missing
    matrix, is a UsageError naming the keys; so is a value that does not
    convert by its default's rule (``_convert``), naming the family and key.
    """
    if not isinstance(family_id, str) or family_id not in _FAMILIES:
        raise UsageError(f"unknown plant family {family_id!r}; choose one of {FAMILY_IDS}")
    builder, orders = _FAMILIES[family_id]
    if params is not None and not isinstance(params, dict):
        raise UsageError(f"plant family {family_id!r}: params must be an object")
    params = dict(params or {})
    order = params.pop("order", SECOND_ORDER)
    if not isinstance(order, str) or order not in orders:
        raise UsageError(f"plant family {family_id!r} has no order {order!r}")
    keys = orders[order]
    where = f"plant family {family_id!r} ({order})"
    unknown = sorted(set(params) - set(keys))
    missing = sorted(k for k, default in keys.items() if default is _MATRIX and k not in params)
    if unknown or missing:
        raise UsageError(
            f"{where}: unknown params {unknown}, missing params {missing}; "
            f"accepted {sorted([*keys, 'order'])}"
        )
    plant = builder(**{
        k: _convert(params.get(k, default), default, f"{where}: param {k!r}")
        for k, default in keys.items()
    })
    plant.family = family_id
    return plant


def custom_plant(
    n: int,
    f: Callable[..., np.ndarray],
    declared_bounds: UncertaintyBounds,
    jac_x1: Callable[..., np.ndarray] | None = None,
    jac_x2: Callable[..., np.ndarray] | None = None,
    jac_u: Callable[..., np.ndarray] | None = None,
) -> PlantModel:
    """Wrap a user-supplied f of the order of ``declared_bounds``; missing
    Jacobians fall back to central differences (accuracy then limited to the
    finite-difference step).  A first-order plant ignores ``jac_x2``.

    ``f`` and the given Jacobians need only take one point: called with
    (..., n) arrays, the wrapped plant loops them over the rows.
    """

    second = declared_bounds.order == SECOND_ORDER
    f_rows = _row_loop(f, (n,))

    def slot(jac, idx):
        if jac is not None:
            return _row_loop(jac, (n, n))
        return lambda *args: _fd_partial(f_rows, args, idx)

    return PlantModel(
        n=n,
        f=f_rows,
        jac_x1=slot(jac_x1, 0),
        jac_x2=slot(jac_x2, 1) if second else None,
        jac_u=slot(jac_u, 2 if second else 1),
        declared_bounds=declared_bounds,
    )
