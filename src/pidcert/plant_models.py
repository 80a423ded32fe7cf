"""Plant representations with Jacobian oracles and class-membership validation.

A second-order plant is the right-hand side f(x1, x2, u) of

    dx1/dt = x2,   dx2/dt = f(x1, x2, u),

a first-order plant is f(x, u) in dx/dt = f(x, u).  Each PlantModel carries
declared derivative bounds; ``validate_class_membership`` audits them by
sampling.  The built-in families are constructed so their declared bounds are
analytically exact.

``f`` and the Jacobians take a leading batch axis: called with (..., n)
arrays, ``f`` returns the (..., n) array of row-by-row values and each
Jacobian the (..., n, n) stack of row-by-row matrices.  So the simulator
evaluates a whole batch of closed loops, or a whole recorded trajectory, in
one call, and the class audit and the planar grid evaluate all their points
in one call.  The built-in families broadcast (a matrix acts as
``x @ A.T``); ``custom_plant`` loops a per-point ``f`` or Jacobian over the
rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import matrix_kernel as mk
from .errors import PlantError, UsageError
from .gain_sets import FIRST_ORDER, SECOND_ORDER, UncertaintyBounds

FAMILY_IDS = (
    "linear_matrix",
    "sinusoidal_scalar",
    "tanh_coupled",
    "nonaffine_cubic_u",
    "rotation_gain",
)


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
    order: str
    f: Callable[..., np.ndarray]
    jac_x1: Callable[..., np.ndarray]
    jac_x2: Optional[Callable[..., np.ndarray]]
    jac_u: Callable[..., np.ndarray]
    declared_bounds: UncertaintyBounds
    family: Optional[str] = None
    params: Optional[dict] = None
    equilibrium_setpoint: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.order not in (SECOND_ORDER, FIRST_ORDER):
            raise UsageError(f"unknown plant order {self.order!r}")
        if self.declared_bounds.order != self.order:
            raise UsageError("declared bounds order must match plant order")
        if self.order == SECOND_ORDER and self.jac_x2 is None:
            raise UsageError("second-order plant needs jac_x2")

    @property
    def nargs(self) -> int:
        return 3 if self.order == SECOND_ORDER else 2

    def eval_checked(self, *args) -> np.ndarray:
        """f at one point or at each row of a batch; the result has shape
        (..., n) like the first argument and must be finite."""
        shape = np.shape(args[0])[:-1] + (self.n,)
        out = np.asarray(self.f(*args), dtype=float)
        if out.shape != shape:
            if out.size != math.prod(shape):
                raise PlantError(f"plant returned shape {out.shape}, expected {shape}")
            out = out.reshape(shape)
        if not np.isfinite(out).all():
            if out.ndim > 1:  # name the first failing point of a batch
                k = tuple(np.argwhere(~np.isfinite(out))[0][:-1])
                args = tuple(np.asarray(a)[k] for a in args)
            raise PlantError(f"plant returned non-finite value at {args}")
        return out


# samples the class audit draws and evaluates per vectorised pass, so its
# memory does not grow with the sample count
_AUDIT_BLOCK = 1024


@dataclass
class ValidationReport:
    """Sampled audit of the declared derivative bounds.

    Each ``*_point`` is the first sample that attains the extreme beside it,
    as {argument name: n floats}; ``max_norm_jac_x2_point`` is None for a
    first-order plant, which has no x2.
    """

    samples: int
    box_radius: float
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


def validate_class_membership(
    p: PlantModel,
    samples: int = 1000,
    box_radius: float = 10.0,
    seed: int = 0,
) -> ValidationReport:
    """Sample the declared bounds over a uniform box and report the extremes.

    Also compares finite-difference Jacobians against the analytic ones at
    each sampled point.  The samples are drawn, in the order of a per-sample
    loop, and evaluated in blocks of ``_AUDIT_BLOCK``: one call of ``f``,
    one of each Jacobian, 2n of ``f`` per finite-difference Jacobian, and
    one stacked LAPACK call per norm or eigenvalue array.
    """
    if samples < 1:
        raise UsageError("samples must be >= 1")
    if not box_radius > 0:
        raise UsageError("box_radius must be > 0")
    rng = np.random.default_rng(seed)
    slack = 1e-8
    if p.order == SECOND_ORDER:
        names, jacs = ("x1", "x2", "u"), (p.jac_x1, p.jac_x2, p.jac_u)
    else:
        names, jacs = ("x", "u"), (p.jac_x1, p.jac_u)
    extremes: dict = {}  # report field -> (value, sample point)

    def record(field, values, args, lowest=False):
        k = int(np.argmin(values) if lowest else np.argmax(values))
        v = float(values[k])
        if field not in extremes or (v < extremes[field][0] if lowest else v > extremes[field][0]):
            extremes[field] = (v, {a: args[i][k].tolist() for i, a in enumerate(names)})

    for start in range(0, samples, _AUDIT_BLOCK):
        draw = rng.uniform(
            -box_radius, box_radius, size=(min(_AUDIT_BLOCK, samples - start), p.nargs, p.n)
        )
        args = tuple(draw[:, i].copy() for i in range(p.nargs))  # contiguous (S, n) arrays
        p.eval_checked(*args)
        stacks = [
            _jacobian_stack(p, jac, f"jac_{a}", args) for jac, a in zip(jacs, names)
        ]
        record("max_norm_jac_x1", mk.operator_norm(stacks[0]), args)
        if p.order == SECOND_ORDER:
            record("max_norm_jac_x2", mk.operator_norm(stacks[1]), args)
        record("min_sym_jac_u", mk.eig_extrema(mk.symmetrize(stacks[-1]))[0], args, lowest=True)
        fd_err = np.zeros(draw.shape[0])
        for idx, analytic in enumerate(stacks):
            fd = _fd_partial(p.eval_checked, args, idx)
            denom = 1.0 + np.linalg.norm(analytic, axis=(1, 2))
            fd_err = np.maximum(fd_err, np.max(np.abs(fd - analytic), axis=(1, 2)) / denom)
        record("max_fd_rel_error", fd_err, args)

    max_j1, max_j2, min_sym_ju, max_fd = (
        extremes.get(field, (0.0, None))
        for field in ("max_norm_jac_x1", "max_norm_jac_x2", "min_sym_jac_u", "max_fd_rel_error")
    )
    ub = p.declared_bounds
    ok = (
        max_j1[0] <= ub.L1 + slack
        and (p.order == FIRST_ORDER or max_j2[0] <= ub.L2 + slack)
        and min_sym_ju[0] >= ub.b_lower - slack
        and max_fd[0] <= 1e-5
    )
    return ValidationReport(
        samples=samples,
        box_radius=box_radius,
        max_norm_jac_x1=max_j1[0],
        max_norm_jac_x2=max_j2[0],
        min_sym_jac_u=min_sym_ju[0],
        max_fd_rel_error=max_fd[0],
        declared=ub,
        passes=bool(ok),
        max_norm_jac_x1_point=max_j1[1],
        max_norm_jac_x2_point=max_j2[1],
        min_sym_jac_u_point=min_sym_ju[1],
        max_fd_rel_error_point=max_fd[1],
    )


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


def _family_linear_matrix(params: dict) -> PlantModel:
    order = params.get("order", SECOND_ORDER)
    if order == FIRST_ORDER:
        A = mk.as_square(params["A"], "A")
        theta = mk.as_square(params["Theta"], "Theta")
        n = A.shape[0]
        if theta.shape[0] != n:
            raise UsageError("A and Theta must share their dimension")
        b_exact = mk.eig_extrema(mk.symmetrize(theta))[0]
        if b_exact <= 0:
            raise UsageError("Sym[Theta] must be positive definite")
        ub = UncertaintyBounds.first_order(L=mk.operator_norm(A), b_lower=b_exact)
        return PlantModel(
            n=n,
            order=FIRST_ORDER,
            f=lambda x, u: x @ A.T + u @ theta.T,
            jac_x1=_constant(A),
            jac_x2=None,
            jac_u=_constant(theta),
            declared_bounds=ub,
            family="linear_matrix",
            params=dict(params),
        )
    A1 = mk.as_square(params["A1"], "A1")
    A2 = mk.as_square(params["A2"], "A2")
    theta = mk.as_square(params["Theta"], "Theta")
    n = A1.shape[0]
    if A2.shape[0] != n or theta.shape[0] != n:
        raise UsageError("A1, A2 and Theta must share their dimension")
    b_exact = mk.eig_extrema(mk.symmetrize(theta))[0]
    if b_exact <= 0:
        raise UsageError("Sym[Theta] must be positive definite")
    ub = UncertaintyBounds(
        L1=mk.operator_norm(A1), L2=mk.operator_norm(A2), b_lower=b_exact
    )
    eq = np.zeros(n)
    return PlantModel(
        n=n,
        order=SECOND_ORDER,
        f=lambda x1, x2, u: x1 @ A1.T + x2 @ A2.T + u @ theta.T,
        jac_x1=_constant(A1),
        jac_x2=_constant(A2),
        jac_u=_constant(theta),
        declared_bounds=ub,
        family="linear_matrix",
        params=dict(params),
        equilibrium_setpoint=eq,
    )


def _family_sinusoidal_scalar(params: dict) -> PlantModel:
    order = params.get("order", SECOND_ORDER)
    c1 = float(params.get("c1", 1.0))
    if order == FIRST_ORDER:
        # f = c1*sin(x) + u, so |df/dx| <= |c1| with equality at x = 0
        ub = UncertaintyBounds.first_order(L=abs(c1), b_lower=1.0)
        return PlantModel(
            n=1,
            order=FIRST_ORDER,
            f=lambda x, u: c1 * np.sin(x) + u,
            jac_x1=lambda x, u: c1 * np.cos(x)[..., None],
            jac_x2=None,
            jac_u=_constant(np.eye(1)),
            declared_bounds=ub,
            family="sinusoidal_scalar",
            params=dict(params),
        )
    c2 = float(params.get("c2", 1.0))
    if c2 < 0:
        raise UsageError("c2 must be >= 0")
    # f = c1*sin(x1) - c2*x2 + u
    ub = UncertaintyBounds(L1=abs(c1), L2=c2, b_lower=1.0)
    return PlantModel(
        n=1,
        order=SECOND_ORDER,
        f=lambda x1, x2, u: c1 * np.sin(x1) - c2 * x2 + u,
        jac_x1=lambda x1, x2, u: c1 * np.cos(x1)[..., None],
        jac_x2=_constant(np.array([[-c2]])),
        jac_u=_constant(np.eye(1)),
        declared_bounds=ub,
        family="sinusoidal_scalar",
        params=dict(params),
        equilibrium_setpoint=np.zeros(1),
    )


def _family_tanh_coupled(params: dict) -> PlantModel:
    n = int(params.get("n", 2))
    if n < 2:
        raise UsageError("tanh_coupled needs n >= 2")
    s1 = float(params.get("l1", 1.0))
    s2 = float(params.get("l2", 1.0))
    b = float(params.get("b_lower", 1.0))
    w_scale = float(params.get("w_scale", 0.25))
    if s1 < 0 or s2 < 0 or b <= 0 or w_scale < 0:
        raise UsageError("tanh_coupled needs l1,l2,w_scale >= 0 and b_lower > 0")
    # rank-one PSD perturbation keeps lambda_min(Sym[Theta]) = b_lower exactly
    v = np.ones(n) / np.sqrt(n)
    W = w_scale * b * np.outer(v, v)
    theta = b * np.eye(n) + W

    def jac_tanh(x, scale):
        return _diag(scale * (1.0 / np.cosh(x) ** 2))

    ub = UncertaintyBounds(L1=s1, L2=s2, b_lower=b)
    return PlantModel(
        n=n,
        order=SECOND_ORDER,
        f=lambda x1, x2, u: s1 * np.tanh(x1) + s2 * np.tanh(x2) + u @ theta.T,
        jac_x1=lambda x1, x2, u: jac_tanh(x1, s1),
        jac_x2=lambda x1, x2, u: jac_tanh(x2, s2),
        jac_u=_constant(theta),
        declared_bounds=ub,
        family="tanh_coupled",
        params=dict(params),
        equilibrium_setpoint=np.zeros(n),
    )


def _family_nonaffine_cubic_u(params: dict) -> PlantModel:
    order = params.get("order", SECOND_ORDER)
    c1 = float(params.get("c1", 1.0))
    b = float(params.get("b_lower", 1.0))
    if b <= 0:
        raise UsageError("b_lower must be > 0")
    if order == FIRST_ORDER:
        ub = UncertaintyBounds.first_order(L=abs(c1), b_lower=b)
        return PlantModel(
            n=1,
            order=FIRST_ORDER,
            f=lambda x, u: c1 * np.sin(x) + b * u + u**3 / 3.0,
            jac_x1=lambda x, u: c1 * np.cos(x)[..., None],
            jac_x2=None,
            jac_u=lambda x, u: (b + u**2)[..., None],
            declared_bounds=ub,
            family="nonaffine_cubic_u",
            params=dict(params),
        )
    c2 = float(params.get("c2", 1.0))
    # f = c1*sin(x1) + c2*sin(x2) + b*u + u^3/3; df/du = b + u^2 >= b
    ub = UncertaintyBounds(L1=abs(c1), L2=abs(c2), b_lower=b)
    return PlantModel(
        n=1,
        order=SECOND_ORDER,
        f=lambda x1, x2, u: c1 * np.sin(x1) + c2 * np.sin(x2) + b * u + u**3 / 3.0,
        jac_x1=lambda x1, x2, u: c1 * np.cos(x1)[..., None],
        jac_x2=lambda x1, x2, u: c2 * np.cos(x2)[..., None],
        jac_u=lambda x1, x2, u: (b + u**2)[..., None],
        declared_bounds=ub,
        family="nonaffine_cubic_u",
        params=dict(params),
        equilibrium_setpoint=np.zeros(1),
    )


def _family_rotation_gain(params: dict) -> PlantModel:
    b = float(params.get("b_lower", 1.0))
    s = float(params.get("s", 10.0))
    a1 = float(params.get("a1", 0.0))
    a2 = float(params.get("a2", 0.0))
    if b <= 0:
        raise UsageError("b_lower must be > 0")
    # skew part cancels in Sym[Theta], so the control gain can be large and
    # non-symmetric while Sym[Theta] = b_lower * I exactly
    theta = b * np.eye(2) + s * np.array([[0.0, 1.0], [-1.0, 0.0]])
    A1 = a1 * np.eye(2)
    A2 = a2 * np.eye(2)
    ub = UncertaintyBounds(L1=abs(a1), L2=abs(a2), b_lower=b)
    return PlantModel(
        n=2,
        order=SECOND_ORDER,
        f=lambda x1, x2, u: x1 @ A1.T + x2 @ A2.T + u @ theta.T,
        jac_x1=_constant(A1),
        jac_x2=_constant(A2),
        jac_u=_constant(theta),
        declared_bounds=ub,
        family="rotation_gain",
        params=dict(params),
        equilibrium_setpoint=np.zeros(2),
    )


_BUILDERS = {
    "linear_matrix": _family_linear_matrix,
    "sinusoidal_scalar": _family_sinusoidal_scalar,
    "tanh_coupled": _family_tanh_coupled,
    "nonaffine_cubic_u": _family_nonaffine_cubic_u,
    "rotation_gain": _family_rotation_gain,
}

# params keys each family reads for each order it has (besides "order"); the
# matrices have no default and must be given
_ACCEPTED = {
    ("linear_matrix", SECOND_ORDER): {"A1", "A2", "Theta"},
    ("linear_matrix", FIRST_ORDER): {"A", "Theta"},
    ("sinusoidal_scalar", SECOND_ORDER): {"c1", "c2"},
    ("sinusoidal_scalar", FIRST_ORDER): {"c1"},
    ("tanh_coupled", SECOND_ORDER): {"n", "l1", "l2", "b_lower", "w_scale"},
    ("nonaffine_cubic_u", SECOND_ORDER): {"c1", "c2", "b_lower"},
    ("nonaffine_cubic_u", FIRST_ORDER): {"c1", "b_lower"},
    ("rotation_gain", SECOND_ORDER): {"b_lower", "s", "a1", "a2"},
}
_REQUIRED = {"A", "A1", "A2", "Theta"}


def build_family(family_id: str, params: dict | None = None) -> PlantModel:
    """Instantiate a built-in plant family with exact declared bounds.

    A params key the family does not read for its order, or a missing
    matrix, is a UsageError naming the keys; so is a value the builder cannot
    convert (a string where a number belongs), naming the family.
    """
    if family_id not in _BUILDERS:
        raise UsageError(
            f"unknown plant family {family_id!r}; choose one of {FAMILY_IDS}"
        )
    params = dict(params or {})
    order = params.get("order", SECOND_ORDER)
    accepted = _ACCEPTED.get((family_id, order))
    if accepted is None:
        raise UsageError(f"plant family {family_id!r} has no order {order!r}")
    unknown = sorted(set(params) - accepted - {"order"})
    missing = sorted((accepted & _REQUIRED) - set(params))
    if unknown or missing:
        raise UsageError(
            f"plant family {family_id!r} ({order}): unknown params {unknown}, "
            f"missing params {missing}; accepted {sorted(accepted | {'order'})}"
        )
    try:
        return _BUILDERS[family_id](params)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"plant family {family_id!r} ({order}): bad params: {exc}") from None


def custom_plant(
    n: int,
    order: str,
    f: Callable[..., np.ndarray],
    declared_bounds: UncertaintyBounds,
    jac_x1: Callable[..., np.ndarray] | None = None,
    jac_x2: Callable[..., np.ndarray] | None = None,
    jac_u: Callable[..., np.ndarray] | None = None,
) -> PlantModel:
    """Wrap a user-supplied f; missing Jacobians fall back to central
    differences (accuracy then limited to the finite-difference step).

    ``f`` and the given Jacobians need only take one point: called with
    (..., n) arrays, the wrapped plant loops them over the rows.
    """

    nargs = 3 if order == SECOND_ORDER else 2
    f_rows = _row_loop(f, (n,))

    def slot(jac, idx):
        if jac is not None:
            return _row_loop(jac, (n, n))
        return lambda *args: _fd_partial(f_rows, args, idx)

    return PlantModel(
        n=n,
        order=order,
        f=f_rows,
        jac_x1=slot(jac_x1, 0),
        jac_x2=slot(jac_x2, 1) if order == SECOND_ORDER else None,
        jac_u=slot(jac_u, nargs - 1),
        declared_bounds=declared_bounds,
    )
