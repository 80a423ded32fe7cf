"""Plant representations with Jacobian oracles and class-membership validation.

A second-order plant is the right-hand side f(x1, x2, u) of

    dx1/dt = x2,   dx2/dt = f(x1, x2, u),

a first-order plant is f(x, u) in dx/dt = f(x, u).  Each PlantModel carries
declared derivative bounds; ``validate_class_membership`` audits them by
sampling.  The built-in families are constructed so their declared bounds are
analytically exact.

``f`` takes a leading batch axis: called with (cells, n) arrays it returns
the (cells, n) array of row-by-row values, so the simulator evaluates a whole
batch of closed loops, or a whole recorded trajectory, in one call.  The
built-in families broadcast (a matrix acts as ``x @ A.T``); ``custom_plant``
loops over the rows of a per-point ``f``.  The Jacobians take one point.
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
    first-order ones; each argument is an n-vector, or a (cells, n) array
    whose rows are evaluated independently into a (cells, n) result.
    ``jac_x1``/``jac_x2``/``jac_u`` take one point (n-vectors) and return
    n x n Jacobians (for first-order plants ``jac_x1`` is d f/d x and
    ``jac_x2`` is None).  Evaluation must be pure: no mutable internal state.
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


@dataclass
class ValidationReport:
    """Sampled audit of the declared derivative bounds."""

    samples: int
    box_radius: float
    max_norm_jac_x1: float
    max_norm_jac_x2: float
    min_sym_jac_u: float
    max_fd_rel_error: float
    declared: UncertaintyBounds
    passes: bool


def _as_vec(x, n: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1)
    if v.shape != (n,):
        raise UsageError(f"expected vector of length {n}, got shape {v.shape}")
    return v


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with step 1e-6*(1+|x|)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    n = x.size
    f0 = np.asarray(fn(x), dtype=float)
    jac = np.empty((f0.size, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = h
        jac[:, j] = (np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h)
    return jac


def validate_class_membership(
    p: PlantModel,
    samples: int = 1000,
    box_radius: float = 10.0,
    seed: int = 0,
) -> ValidationReport:
    """Sample the declared bounds over a uniform box and report the extremes.

    Also compares finite-difference Jacobians against the analytic ones at
    each sampled point.
    """
    if samples < 1:
        raise UsageError("samples must be >= 1")
    if not box_radius > 0:
        raise UsageError("box_radius must be > 0")
    rng = np.random.default_rng(seed)
    slack = 1e-8
    max_j1 = 0.0
    max_j2 = 0.0
    min_sym_ju = np.inf
    max_fd = 0.0
    nargs = p.nargs
    for _ in range(samples):
        args = [rng.uniform(-box_radius, box_radius, size=p.n) for _ in range(nargs)]
        val = p.eval_checked(*args)
        if not np.all(np.isfinite(val)):
            raise PlantError(f"NaN in plant evaluation at {args}")
        j1 = np.asarray(p.jac_x1(*args), dtype=float)
        ju = np.asarray(p.jac_u(*args), dtype=float)
        max_j1 = max(max_j1, mk.operator_norm(j1))
        lam_min, _ = mk.eig_extrema(mk.symmetrize(ju))
        min_sym_ju = min(min_sym_ju, lam_min)
        jacs = [j1]
        if p.order == SECOND_ORDER:
            j2 = np.asarray(p.jac_x2(*args), dtype=float)
            max_j2 = max(max_j2, mk.operator_norm(j2))
            jacs.append(j2)
        jacs.append(ju)
        for idx, analytic in enumerate(jacs):
            def slice_fn(v, idx=idx):
                call = list(args)
                call[idx] = v
                return p.eval_checked(*call)

            fd = fd_jacobian(slice_fn, args[idx])
            denom = 1.0 + float(np.linalg.norm(analytic))
            max_fd = max(max_fd, float(np.max(np.abs(fd - analytic))) / denom)

    ub = p.declared_bounds
    ok = (
        max_j1 <= ub.L1 + slack
        and (p.order == FIRST_ORDER or max_j2 <= ub.L2 + slack)
        and min_sym_ju >= ub.b_lower - slack
        and max_fd <= 1e-5
    )
    return ValidationReport(
        samples=samples,
        box_radius=box_radius,
        max_norm_jac_x1=max_j1,
        max_norm_jac_x2=max_j2,
        min_sym_jac_u=min_sym_ju,
        max_fd_rel_error=max_fd,
        declared=ub,
        passes=bool(ok),
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
            jac_x1=lambda x, u: A.copy(),
            jac_x2=None,
            jac_u=lambda x, u: theta.copy(),
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
        jac_x1=lambda x1, x2, u: A1.copy(),
        jac_x2=lambda x1, x2, u: A2.copy(),
        jac_u=lambda x1, x2, u: theta.copy(),
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
            jac_x1=lambda x, u: np.array([[c1 * np.cos(x[0])]]),
            jac_x2=None,
            jac_u=lambda x, u: np.eye(1),
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
        jac_x1=lambda x1, x2, u: np.array([[c1 * np.cos(x1[0])]]),
        jac_x2=lambda x1, x2, u: np.array([[-c2]]),
        jac_u=lambda x1, x2, u: np.eye(1),
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
        return scale * np.diag(1.0 / np.cosh(x) ** 2)

    ub = UncertaintyBounds(L1=s1, L2=s2, b_lower=b)
    return PlantModel(
        n=n,
        order=SECOND_ORDER,
        f=lambda x1, x2, u: s1 * np.tanh(x1) + s2 * np.tanh(x2) + u @ theta.T,
        jac_x1=lambda x1, x2, u: jac_tanh(x1, s1),
        jac_x2=lambda x1, x2, u: jac_tanh(x2, s2),
        jac_u=lambda x1, x2, u: theta.copy(),
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
            jac_x1=lambda x, u: np.array([[c1 * np.cos(x[0])]]),
            jac_x2=None,
            jac_u=lambda x, u: np.array([[b + u[0] ** 2]]),
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
        jac_x1=lambda x1, x2, u: np.array([[c1 * np.cos(x1[0])]]),
        jac_x2=lambda x1, x2, u: np.array([[c2 * np.cos(x2[0])]]),
        jac_u=lambda x1, x2, u: np.array([[b + u[0] ** 2]]),
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
        jac_x1=lambda x1, x2, u: A1.copy(),
        jac_x2=lambda x1, x2, u: A2.copy(),
        jac_u=lambda x1, x2, u: theta.copy(),
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

    ``f`` need only take one point: called with (cells, n) arrays, the
    wrapped plant evaluates it row by row.
    """

    nargs = 3 if order == SECOND_ORDER else 2

    def f_rows(*args):
        if np.ndim(args[0]) < 2:
            return f(*args)
        return np.array([np.asarray(f(*row), dtype=float).reshape(n) for row in zip(*args)])

    def fd_slot(idx):
        def jac(*args):
            def slice_fn(v):
                call = list(args)
                call[idx] = v
                return np.asarray(f(*call), dtype=float)

            return fd_jacobian(slice_fn, np.asarray(args[idx], dtype=float))

        return jac

    jx1 = jac_x1 if jac_x1 is not None else fd_slot(0)
    jx2 = jac_x2
    if order == SECOND_ORDER and jx2 is None:
        jx2 = fd_slot(1)
    ju = jac_u if jac_u is not None else fd_slot(nargs - 1)
    return PlantModel(
        n=n,
        order=order,
        f=f_rows,
        jac_x1=jx1,
        jac_x2=jx2,
        jac_u=ju,
        declared_bounds=declared_bounds,
    )
