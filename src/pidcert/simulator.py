"""Closed-loop simulation and trajectory-level audits.

PID, PD and PI close the same loop and differ only in which state blocks
exist: the integral of the error ``i``, the position ``x`` and the velocity
``v``.  ``gain_sets.LAYOUT`` lists the blocks of each kind in state-vector
order; the right-hand side, the control law, the initial state, the shifted
coordinates z, the envelope and the CSV header are all built from it, as is
the closed-loop matrix of ``certificates``.

The controller is computed from measured state only: the derivative channel
uses edot = -v directly (the setpoint is constant), never a numerical
difference of e.  The integral channel is an extra state block adjoined to
the ODE.  After integration e, edot and u are rebuilt with array operations
on the whole trajectory; PI's edot = -f(x, u) is one plant call on all
samples.  Trajectories are recorded both in physical coordinates and in the
shifted coordinates z used by the certificates, so the exponential envelope
and the Lyapunov decrease can be checked pointwise.

``simulate_batch`` integrates N closed loops that share the kind, n, the
horizon, the integrator and its tolerances as one stacked system: the states
form a block-major (blocks, N, n) array, in ``LAYOUT[kind]`` order, one
right-hand side evaluates every cell's control law with (N, n) gain blocks
and setpoints and calls the plant once for each run of adjacent cells that
share it, and the integrator runs once.  Block-major, ``s[j]`` is block j of
every cell as one contiguous (N, n) array, and a plant run's rows of it are
a contiguous slice, so every array the control law and the plant read or
write is contiguous; a cell-major (N, dim) state would make each of them a
strided view, on which numpy takes about twice as long per call.  A cell's
own recorded states are ``states[:, :, k]``, flattened to (samples, dim).

The right-hand side is a binder (``_rhs_factory``): ``bind(s, out)(t)``
writes the rates at ``s`` into ``out``, one of the stepper's stage rows,
with each plant run's value checked as ``PlantModel.eval_checked`` checks
it.  The steppers form each stage input in place, in one fixed
block, with the arithmetic and order of ``s + c * k``, and bind once per
integration.  RK4 records into a (steps + 1, blocks, N, n) block.  RK45
keeps its seven stages as a (7, blocks, N, n) block, with a flat (7, size)
view for the stage sums, the error norm and the interpolant; a one-cell
batch flattens in the order of its (dim,) state vector.  Fixed-step RK4
advances each cell exactly as a one-cell run does.
Three guards keep the state finite, each where its failure enters:
``SimConfig`` refuses non-finite or wrong-sized initial data (UsageError),
each rhs call tests the plant's values over the whole f block (PlantError),
and both integrators step under ``np.errstate(over="raise")``: an RK4 step
in which a value overflows, in the plant or in the stepper, is an
IntegrationError naming its start t and size h, not a plant fault, and an
RK45 trial step is rejected, until its size falls below the float spacing.
RK4 only adds and multiplies finite values, so it does not test the state.
RK45 shares one step size across the cells, so it is given rtol/sqrt(N) and
atol/sqrt(N): its RMS error norm over the stacked state is then
sqrt(sum_c norm_c^2) >= max_c norm_c, where norm_c is the norm a one-cell
run at the configured tolerances tests, and every accepted step passes each
cell's own test.  ``simulate`` is the one-cell batch.

Both integrators are numpy alone.  RK45 is the Dormand-Prince 5(4) pair with
Shampine's quartic interpolant for the recorded samples, stepped and
recorded with the arithmetic of scipy's ``solve_ivp(method="RK45",
t_eval=...)``, so its trajectories and ``nfev`` are the ones that call
returns on the same flat order, bit for bit.  The stepper builds its stage
views (``K[:k].T``, ``K[:-1].T``, ``K.T`` of the flat view), the stage rows
of A, the nodes and the bindings once per integration; per step it only does
the step's arithmetic.

``judge`` is the one verdict on a certified trajectory: the envelope audit,
the V gate and the decay fit on ``[0.1, 0.9] t_final``; a run passes when its
envelope holds and V decays at the certified rate at every step.  Each
sample's resolution (``_resolution``) is the one slack of all three.

``Trajectory.to_csv`` writes one row per sample, each float as its ``repr``,
with CRLF line ends (the bytes ``csv.writer`` writes for the same rows); V
and envelope_margin are empty cells when there is no certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .certificates import LyapunovCertificate
from .equilibrium import solve_equilibrium
from .errors import CertificateError, IntegrationError, UsageError, as_vector
from .gain_sets import LAYOUT, ORDER, SECOND_ORDER, GainVector, covers
from .plant_models import PlantModel, equilibrium_shift_check

RK4_FIXED = "rk4_fixed"
RK45_ADAPTIVE = "rk45_adaptive"
# rows Trajectory.to_csv formats and writes per pass, so its memory does not
# grow with the file size
_CSV_CHUNK = 1024


def _split(kind: str, n: int, s: np.ndarray) -> dict:
    """Named blocks of a state vector, or of a (samples, dim) state array."""
    return {name: s[..., k * n : (k + 1) * n] for k, name in enumerate(LAYOUT[kind])}


def _control(gains: tuple, e: np.ndarray, i=None, v=None, out=None) -> np.ndarray:
    """u = kp e + ki i + kd edot with edot = -v, for the blocks the kind has,
    written into ``out`` when it is given (it may be ``e`` itself).

    ``gains`` is (kp, ki, kd), as scalars or as (cells, n) blocks.  Missing
    terms are left out rather than added as zeros, which would turn a -0.0
    into 0.0.
    """
    kp, ki, kd = gains
    u = np.multiply(kp, e, out=out)
    if i is not None:
        u = np.add(u, ki * i, out=out)
    if v is not None:
        u = np.subtract(u, kd * v, out=out)
    return u


@dataclass
class SimConfig:
    """One closed-loop run.

    ``dt_max`` is fixed-step RK4's step and adaptive RK45's record spacing;
    RK45's own steps follow ``rtol`` and ``atol`` and are not bounded by it.
    The paper's guarantee is for finite initial states, so ``y_star`` (n),
    ``x0`` (2n, or n for a first-order plant) and ``integral_state0`` (n,
    when given) must be that many finite numbers; each is stored as a flat
    float copy, and anything else is a UsageError naming the field.
    """

    plant: PlantModel
    gains: GainVector
    y_star: np.ndarray
    x0: np.ndarray
    t_final: float
    dt_max: float = 0.01
    integrator: str = RK45_ADAPTIVE
    rtol: float = 1e-8
    atol: float = 1e-10
    integral_state0: Optional[np.ndarray] = None

    def __post_init__(self):
        # the plant's order first, then the run settings, so a caller can tell
        # which of the two a UsageError is about
        kind = self.gains.kind
        if self.plant.order != ORDER[kind]:
            raise UsageError(f"{kind} control needs a {ORDER[kind].replace('_', '-')} plant")
        if not self.t_final > 0:
            raise UsageError("t_final must be > 0")
        if not self.dt_max > 0:
            raise UsageError("dt_max must be > 0")
        # rtol = 0 is allowed: the stepper raises it to its floor of 100 eps;
        # atol = 0 is not: RK45's error scale is 0 at a zero state component
        if not self.rtol >= 0:
            raise UsageError("rtol must be >= 0")
        if not self.atol > 0:
            raise UsageError("atol must be > 0")
        # +inf passes the sign tests: a horizon or a step without end, or an
        # error test that passes every step
        for name in ("t_final", "dt_max", "rtol", "atol"):
            if math.isinf(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got inf")
        if self.integrator not in (RK4_FIXED, RK45_ADAPTIVE):
            raise UsageError(f"unknown integrator {self.integrator!r}")
        n = self.plant.n
        sizes = {"y_star": n, "x0": 2 * n if self.plant.order == SECOND_ORDER else n}
        if self.integral_state0 is not None:
            sizes["integral_state0"] = n
        for name, size in sizes.items():
            setattr(self, name, as_vector(getattr(self, name), size, name))


@dataclass
class Trajectory:
    """One recorded closed loop.  ``nfev`` and ``status`` are the
    integrator's, shared by the ``cells`` closed loops integrated with it.

    ``t_final`` is the configured horizon rather than the last sample time,
    which fixed-step RK4 misses by the roundoff its summed steps accumulate.
    """

    kind: str
    n: int
    times: np.ndarray
    states: np.ndarray
    errors: np.ndarray
    edots: np.ndarray
    controls: np.ndarray
    y_star: np.ndarray
    t_final: float
    resolution: np.ndarray
    z: Optional[np.ndarray] = None
    u_star: Optional[np.ndarray] = None
    v_values: Optional[np.ndarray] = None
    envelope: Optional[np.ndarray] = None
    envelope_margin: Optional[np.ndarray] = None
    cert: Optional[LyapunovCertificate] = None
    nfev: Optional[int] = None
    status: Optional[int] = None
    cells: int = 1

    def error_signal(self) -> np.ndarray:
        """|e(t)|, plus |edot(t)| for the kinds with a velocity block (PID, PD)."""
        e = np.linalg.norm(self.errors, axis=1)
        if "v" not in LAYOUT[self.kind]:
            return e
        return e + np.linalg.norm(self.edots, axis=1)

    def to_csv(self, path) -> None:
        """One row per sample: t, the state blocks, e, edot, u, V and the
        envelope margin, each float as its ``repr``, with CRLF line ends; V and
        envelope_margin are empty cells when there is no certificate."""
        header = ["t"] + [
            f"{prefix}_{j}"
            for prefix in [*LAYOUT[self.kind].values(), "e", "edot", "u"]
            for j in range(self.n)
        ]
        header += ["V", "envelope_margin"]
        cols = [self.times, self.states, self.errors, self.edots, self.controls]
        if self.v_values is None:
            end = ",,\r\n"
        else:
            cols, end = cols + [self.v_values, self.envelope_margin], "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            for lo in range(0, self.times.size, _CSV_CHUNK):
                rows = np.column_stack([a[lo : lo + _CSV_CHUNK] for a in cols]).tolist()
                fh.write("".join([",".join(map(repr, row)) + end for row in rows]))


@dataclass
class AuditReport:
    passes: bool
    min_margin: float
    first_violation_time: Optional[float]
    samples: int


@dataclass
class MonitorReport:
    v_initial: float
    v_final: float
    passes: bool
    worst_excess: float
    first_violation_time: Optional[float]


@dataclass
class Cell:
    """One closed loop that passed its pre-checks, with its equilibrium
    input u* (None for PID/PI with ki = 0, where there is none to solve)."""

    cfg: SimConfig
    cert: Optional[LyapunovCertificate]
    u_star: Optional[np.ndarray]


def prepare_cell(cfg: SimConfig, cert: Optional[LyapunovCertificate] = None) -> Cell:
    """Check a run against its certificate and solve for u*.

    The certificate must match the run's kind, dimension and gains and cover
    the plant's declared bounds; a PD certificate needs y* to be an
    uncontrolled equilibrium, f(y*, 0, 0) = 0.
    """
    plant, g = cfg.plant, cfg.gains
    n = plant.n
    layout = LAYOUT[g.kind]
    if cert is not None:
        if cert.kind != g.kind or cert.n != n:
            raise UsageError("certificate kind/dimension does not match the run")
        cg = cert.gains
        if (cg.kp, cg.ki, cg.kd) != (g.kp, g.ki, g.kd):
            raise UsageError("certificate gains do not match the configured gains")
        if not covers(cert.bounds, plant.declared_bounds):
            raise CertificateError(
                f"out of class: the plant's declared {plant.declared_bounds} "
                f"are not inside the certificate's {cert.bounds}"
            )

    # u* for the shifted coordinates; PD regulation assumes f(y*,0,0)=0
    ustar = None
    if "i" in layout and g.ki > 0:
        ustar = solve_equilibrium(plant, cfg.y_star).u_star
    elif "i" not in layout:
        # PD regulation is only guaranteed at uncontrolled equilibria
        if cert is not None and not equilibrium_shift_check(plant, cfg.y_star):
            raise UsageError(
                "PD envelope certification needs f(y*, 0, 0) = 0; "
                "the configured setpoint is not an uncontrolled equilibrium"
            )
        ustar = np.zeros(n)
    return Cell(cfg=cfg, cert=cert, u_star=ustar)


def _plant_runs(cells: Sequence[Cell]) -> list:
    """(plant, rows) for each run of adjacent cells that share one plant."""
    runs, start = [], 0
    for _, group in itertools.groupby(cells, key=lambda c: id(c.cfg.plant)):
        stop = start + len(list(group))
        runs.append((cells[start].cfg.plant, slice(start, stop)))
        start = stop
    return runs


def _rhs_factory(cells: Sequence[Cell]):
    """The binder of the stacked system's right-hand side: ``bind(s, out)``,
    on block-major (blocks, cells, n) arrays, returns ``evaluate(t)``, which
    writes the rates at ``s`` into ``out``.

    The gain blocks, setpoints and plant runs are built once, and ``bind``
    builds what depends on its two buffers: the block views of ``s``, each
    run's arguments and rows of ``out``, and the f block.  e is written
    straight into the i rate (for a kind without i, into the (cells, n)
    scratch block of u, which every binding shares), so ``evaluate`` runs
    only the control law, the plant calls and their checks.  A run's value
    that is not a float64 array of its (rows, n) shape goes to
    ``PlantModel.checked``, which reshapes it as ``eval_checked`` would or
    raises its PlantError.  Finiteness is tested once per call over the
    whole f block; if it fails, the runs are checked again in order, so the
    PlantError is the one a check of each run in turn raises.
    """
    kind, n = cells[0].cfg.gains.kind, cells[0].cfg.plant.n
    index = {name: k for k, name in enumerate(LAYOUT[kind])}
    xk, ik, vk = index["x"], index.get("i"), index.get("v")
    # each gain as a (cells, n) block, so the control law's products are
    # elementwise on equal shapes, which numpy does faster than broadcasting
    gains = tuple(
        np.array([[getattr(c.cfg.gains, k)] * n for c in cells]) for k in ("kp", "ki", "kd")
    )
    y = np.array([c.cfg.y_star for c in cells])
    u = np.empty_like(y)
    # f fills the v block, or the x block of a kind without v: each run of
    # cells that share a plant writes its values into its own rows
    fk = xk if vk is None else vk
    runs = [(k, plant.f, plant.checked, rows) for k, (plant, rows) in enumerate(_plant_runs(cells))]
    size = len(cells) * n
    # numpy's float64 dtype is one object; any other dtype takes the checked path
    f64 = np.dtype(np.float64)

    def bind(s, out):
        x = s[xk]
        i = None if ik is None else s[ik]
        v = None if vk is None else s[vk]
        e = u if ik is None else out[ik]
        # d/dt of (i, x, v) is (e, v, f); a kind without i or v drops its entry
        x_rate = None if vk is None else out[xk]
        args = (x, u) if vk is None else (x, v, u)
        fb = out[fk]
        bound = [
            (k, f, checked, tuple([b[rows] for b in args]), fb[rows], fb[rows].shape)
            for k, f, checked, rows in runs
        ]

        def check_runs(stop):
            """Raise the PlantError of the first of the runs before ``stop``
            whose values in ``out`` are not finite."""
            for _, _, checked, a, dst, _ in bound[:stop]:
                checked(dst, a)

        def evaluate(t):
            np.subtract(y, x, out=e)
            _control(gains, e, i, v, out=u)
            if x_rate is not None:
                x_rate[...] = v
            for k, f, checked, a, dst, shape in bound:
                val = f(*a)
                if not (type(val) is np.ndarray and val.dtype is f64 and val.shape == shape):
                    # the runs before this one are checked before it
                    check_runs(k)
                    val = checked(val, a)
                dst[...] = val
            # all() by count, as PlantModel.checked tests a plant's values
            if np.count_nonzero(np.isfinite(fb)) != size:
                check_runs(len(bound))

        return evaluate

    return bind


def _initial_state(cfg: SimConfig) -> np.ndarray:
    if "i" not in LAYOUT[cfg.gains.kind]:
        return cfg.x0
    i0 = cfg.integral_state0 if cfg.integral_state0 is not None else np.zeros(cfg.plant.n)
    return np.concatenate([i0, cfg.x0])


def _diverged(method: str, t: float, h: float, exc: FloatingPointError) -> IntegrationError:
    """The error of a step from ``t`` of size ``h`` in which a value
    overflowed, raised from its FloatingPointError."""
    return IntegrationError(
        f"{method} diverged in the step from t = {t:.6g} of size h = {h:.6g}: {exc}"
    )


def _integrate_rk4(bind, s0: np.ndarray, t_final: float, dt: float):
    """Classical fixed-step RK4 from t = 0 on the block-major
    (blocks, cells, n) state ``s0``; the last step is shortened to end on
    t_final.  The state, the stage input and the stage sum are fixed blocks
    of that layout, each formed in place, and the four stages are bound to
    them once: (state, k1), then (stage input, k2 | k3 | k4).  An overflow
    is ``_diverged``'s IntegrationError."""
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, *s0.shape))
    times[0], states[0] = 0.0, s0
    t, s = 0.0, s0.copy()
    mid, acc = np.empty((2, *s0.shape))
    k1, k2, k3, k4 = np.empty((4, *s0.shape))
    stage1, stage2, stage3, stage4 = bind(s, k1), bind(mid, k2), bind(mid, k3), bind(mid, k4)

    def stage_input(c, k):
        """s + c k into the stage input block."""
        np.multiply(c, k, out=mid)
        np.add(s, mid, out=mid)

    try:
        with np.errstate(over="raise"):
            for k in range(1, n_steps + 1):
                h = min(dt, t_final - t)
                half = h / 2.0
                stage1(t)
                stage_input(half, k1)
                stage2(t + half)
                stage_input(half, k2)
                stage3(t + half)
                stage_input(h, k3)
                stage4(t + h)
                # s + (h / 6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
                np.multiply(2.0, k2, out=acc)
                np.add(k1, acc, out=acc)
                np.multiply(2.0, k3, out=mid)
                np.add(acc, mid, out=acc)
                np.add(acc, k4, out=acc)
                np.multiply(h / 6.0, acc, out=acc)
                np.add(s, acc, out=s)
                t = t + h
                times[k], states[k] = t, s
    except FloatingPointError as exc:
        # t and h are still the failed step's: t advances after the step
        raise _diverged("fixed-step RK4", t, h, exc) from exc
    return times, states, 4 * n_steps, 0


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980):
# nodes C, stage matrix A, 5th-order weights B, error weights E (the
# embedded 4th-order weights minus B; the 7th stage is f at the new point)
# and Shampine's quartic interpolant P (Math. Comp. 46, 1986), whose row sums
# are [B, 0].  The step control is Hairer, Norsett & Wanner's (Solving ODEs I,
# II.4), as in scipy's RK45, whose arithmetic this stepper repeats step for
# step.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1/(order of the error estimate + 1)
_RTOL_FLOOR = 100 * np.finfo(float).eps


def _rms(x: np.ndarray) -> float:
    """np.linalg.norm(x) / x.size ** 0.5 for a 1-D x: the norm is
    sqrt(x.dot(x)), the same arithmetic without that function's wrapper."""
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(evaluate, trial, f_trial, s0, f0, t_final, rtol, atol):
    """Hairer, Norsett & Wanner's first step: one trial Euler step sizes it.
    ``evaluate`` is bound to the flat views ``trial``, where s0 + h0 f0 is
    formed, and ``f_trial``, where its rates land.  A trial that overflows
    has d2 = inf, as in scipy's ``select_initial_step``, so h1 = 0."""
    scale = atol + np.abs(s0) * rtol
    d0, d1 = _rms(s0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_final)
    try:
        np.multiply(h0, f0, out=trial)
        np.add(s0, trial, out=trial)
        evaluate(h0)
        d2 = _rms((f_trial - f0) / scale) / h0
    except FloatingPointError:
        d2 = math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    return min(100 * h0, h1, t_final)


def _integrate_rk45(bind, s0: np.ndarray, cfg: SimConfig):
    """Adaptive Dormand-Prince 5(4) from 0 to t_final on the block-major
    (blocks, cells, n) state ``s0``, recorded by the interpolant at
    max(2, round(t_final/dt_max) + 1) evenly spaced times into a
    (samples, blocks, cells, n) block.  The stage block K is
    (7, blocks, cells, n); the stage sums, the error norm and the
    interpolant work on its flat views, in block-major order.  Each stage
    input is formed in place in one fixed block and the new state in
    another, so the seven stage rows are bound once per integration.  A
    trial step that overflows is rejected, as scipy rejects its inf error
    norm; if the step size then falls below the float spacing, it diverged."""
    t_final = float(cfg.t_final)
    n_rec = max(2, int(round(t_final / cfg.dt_max)) + 1)
    t_eval = np.linspace(0.0, t_final, n_rec)
    shape = s0.shape
    # each cell's own error test holds when the stacked RMS norm passes
    root = math.sqrt(shape[1])
    rtol, atol = max(cfg.rtol / root, _RTOL_FLOOR), cfg.atol / root
    states = np.empty((n_rec, *shape))
    SF = states.reshape(n_rec, -1)
    # the stage block K and its flat views for the stage sums; for each stage
    # k its node as a float, the view of the stages before it, its row of A
    # and its binding, built once.  The stepper's own state is flat.
    K = np.empty((7, *shape))
    KF = K.reshape(7, -1)
    KT, KT_B = KF.T, KF[:-1].T
    mid, new = np.empty((2, *shape))
    mid_f, s_new = mid.reshape(-1), new.reshape(-1)
    stages = [(float(_DP_C[k]), KF[:k].T, _DP_A[k, :k], bind(mid, K[k])) for k in range(1, 6)]
    last = bind(new, K[-1])
    t, s = 0.0, s0.reshape(-1).copy()
    # h is 0 until the first step: the start's rhs calls belong to no step
    h = 0.0
    try:
        with np.errstate(over="raise"):
            # K[0] holds f at the step's start; a rejected step leaves it alone
            bind(s0, K[0])(0.0)
            abs_s = np.abs(s)  # |s| of the step's start: the last accepted |s_new|
            # K[1] is free until the first step's stages: the trial call writes there
            h_abs = _initial_step(stages[0][3], mid_f, KF[1], s, KF[0], t_final, rtol, atol)
            nfev, done = 2, 0  # rhs calls; samples recorded
            while t < t_final:
                min_step = 10 * (math.nextafter(t, math.inf) - t)
                h_abs = max(h_abs, min_step)
                rejected = False
                overflow = None  # the last trial's overflow: the handler below names it
                while True:
                    if h_abs < min_step:
                        raise overflow or IntegrationError(
                            f"adaptive integration failed at t = {t:.6g}: "
                            "Required step size is less than spacing between numbers."
                        )
                    t_new = min(t + h_abs, t_final)
                    h = t_new - t
                    h_abs = abs(h)
                    nfev += 6
                    try:
                        # s + (K[:k]^T a) h and s + h (K[:6]^T B), in place
                        for c, KT_k, a, evaluate in stages:
                            np.dot(KT_k, a, out=mid_f)
                            np.multiply(mid_f, h, out=mid_f)
                            np.add(s, mid_f, out=mid_f)
                            evaluate(t + c * h)
                        np.dot(KT_B, _DP_B, out=s_new)
                        np.multiply(h, s_new, out=s_new)
                        np.add(s, s_new, out=s_new)
                        last(t + h)
                        abs_new = np.abs(s_new)
                        scale = atol + np.maximum(abs_s, abs_new) * rtol
                        error, overflow = _rms(np.dot(KT, _DP_E) * h / scale), None
                    except FloatingPointError as exc:
                        error, overflow = math.inf, exc
                    if error < 1:
                        factor = _MAX_FACTOR if error == 0 else min(
                            _MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT
                        )
                        h_abs *= min(1, factor) if rejected else factor
                        break
                    h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                    rejected = True
                # the samples up to t_new not yet recorded, from the step's quartic interpolant
                stop = int(np.searchsorted(t_eval, t_new, side="right"))
                if stop > done:
                    x = (t_eval[done:stop] - t) / h
                    # x, x^2, x^3, x^4 by running products, as cumprod forms them
                    y = h * np.dot(KT.dot(_DP_P), np.multiply.accumulate(x[None].repeat(4, 0)))
                    y += s[:, None]
                    SF[done:stop] = y.T
                    done = stop
                t, abs_s = t_new, abs_new
                s[...] = s_new
                K[0] = K[-1]
    except FloatingPointError as exc:
        # t and h are the step's that overflowed: t advances after it
        raise _diverged("adaptive RK45", t, h, exc) from exc
    return t_eval, states, nfev, 0


def _resolution(states: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    """The resolution eps_k of each recorded state s_k, sqrt(dim) (atol +
    rtol |s_k|_inf), rtol at least the stepper's floor: the Euclidean size of
    the error RK45's step test allows in one step at s_k.  It is that test's
    tolerance, not a bound on the recorded sample's error.  RK4 reads neither
    tolerance; its runs borrow RK45's.  z is s with constants subtracted and
    x negated (PI's z is (i - u*/ki, e), no edot), so eps_k is z's too."""
    scale = max(rtol, _RTOL_FLOOR) * np.max(np.abs(states), axis=1)
    return math.sqrt(states.shape[1]) * (atol + scale)


def _trajectory(cell: Cell, times: np.ndarray, states: np.ndarray, stats: dict) -> Trajectory:
    """e, edot, u, z and the envelope of one cell, from its recorded states."""
    cfg, cert, ustar = cell.cfg, cell.cert, cell.u_star
    plant, g = cfg.plant, cfg.gains
    kind, n = g.kind, plant.n
    layout = LAYOUT[kind]
    b = _split(kind, n, states)
    errors = cfg.y_star - b["x"]
    controls = _control((g.kp, g.ki, g.kd), errors, b.get("i"), b.get("v"))
    edots = -b["v"] if "v" in layout else -plant.eval_checked(b["x"], controls)

    # z = (i - u*/ki, e, edot) over the blocks the kind has; i needs u* and ki > 0
    z = None
    if "i" not in layout or (g.ki > 0 and ustar is not None):
        shifted = {"x": errors, "v": edots}
        if "i" in layout:
            shifted["i"] = b["i"] - ustar / g.ki
        z = np.hstack([shifted[k] for k in layout])

    traj = Trajectory(
        kind=kind,
        n=n,
        times=times,
        states=states,
        errors=errors,
        edots=edots,
        controls=controls,
        y_star=cfg.y_star.copy(),
        t_final=cfg.t_final,
        resolution=_resolution(states, cfg.rtol, cfg.atol),
        z=z,
        u_star=ustar,
        cert=cert,
        **stats,
    )
    if cert is not None:
        if z is None:
            raise UsageError("cannot evaluate the certificate without z coordinates")
        traj.v_values = np.einsum("ki,ij,kj->k", z, cert.P, z)
        # envelope scale |e(0)| + |edot(0)| + |u*| over the blocks the kind has
        s0_env = float(np.linalg.norm(errors[0]))
        if "v" in layout:
            s0_env += float(np.linalg.norm(edots[0]))
        if "i" in layout:
            s0_env += float(np.linalg.norm(ustar))
        traj.envelope = cert.M * np.exp(-cert.lambda_decay * times) * s0_env
        traj.envelope_margin = traj.envelope - traj.error_signal()
    return traj


def simulate_batch(cells: Sequence[Cell]) -> Iterator[Trajectory]:
    """Integrate prepared closed loops as one stacked system.

    The cells must share the kind, n, t_final, dt_max, integrator and
    tolerances.  The integration runs when the first trajectory is asked
    for; the trajectories then follow in cell order, each built only when it
    is asked for, so a caller that consumes them one at a time never holds
    them all.
    """
    cells = list(cells)
    if not cells:
        raise UsageError("a batch needs at least one cell")

    def shared(c: SimConfig):
        return (c.gains.kind, c.plant.n, c.t_final, c.dt_max, c.integrator, c.rtol, c.atol)

    cfg = cells[0].cfg
    if any(shared(c.cfg) != shared(cfg) for c in cells):
        raise UsageError(
            "cells of one batch must share the kind, n, t_final, dt_max, "
            "integrator and tolerances"
        )
    # block-major (blocks, cells, n): s0[j] is block j of every cell
    s0 = np.array([_initial_state(c.cfg) for c in cells])
    s0 = np.ascontiguousarray(s0.reshape(len(cells), -1, cfg.plant.n).swapaxes(0, 1))
    bind = _rhs_factory(cells)
    if cfg.integrator == RK4_FIXED:
        times, states, nfev, status = _integrate_rk4(bind, s0, cfg.t_final, cfg.dt_max)
    else:
        times, states, nfev, status = _integrate_rk45(bind, s0, cfg)
    stats = {"nfev": int(nfev), "status": int(status), "cells": len(cells)}
    for k, cell in enumerate(cells):
        # (samples, dim), row-major, so e, edot, u and z rebuilt from it are
        # row-major too: a copy, or a view of a one-cell batch's record
        own = states[:, :, k].reshape(len(times), -1)
        yield _trajectory(cell, times, own, stats)


def simulate(cfg: SimConfig, cert: Optional[LyapunovCertificate] = None) -> Trajectory:
    """Integrate one closed loop and record the full trajectory: the
    one-cell batch.

    When a certificate is supplied its (M, lambda) envelope is evaluated at
    every sample time.
    """
    return next(simulate_batch([prepare_cell(cfg, cert)]))


def fit_decay(traj: Trajectory, window: tuple[float, float]) -> tuple[float, float]:
    """Least-squares exponential fit of the error signal on a time window.

    Returns (lambda_emp, M_emp) from log signal ~ log(M_emp) - lambda_emp*t.
    The window ends before the first sample whose signal is at most twice
    its resolution, where the recorded signal is integration error.
    """
    lo, hi = window
    if not lo < hi:
        raise UsageError("window must satisfy t_lo < t_hi")
    t = traj.times
    sig = traj.error_signal()
    mask = (t >= lo) & (t <= hi)
    if not np.any(mask):
        raise UsageError("window does not intersect the trajectory")
    tw = t[mask]
    sw = sig[mask]
    below = np.nonzero(sw <= 2 * traj.resolution[mask])[0]
    if below.size:
        tw, sw = tw[: below[0]], sw[: below[0]]
    if tw.size < 2:
        raise UsageError("window has fewer than two usable samples")
    slope, intercept = np.polyfit(tw, np.log(sw), 1)
    return float(-slope), float(math.exp(intercept))


def envelope_audit(traj: Trajectory) -> AuditReport:
    """Check the recorded envelope margin at every sample time: a sample
    fails when its margin is below -2 eps_k, twice its resolution, the most
    that recorded state error can add to |e| + |edot|."""
    if traj.envelope_margin is None:
        raise UsageError("trajectory has no envelope margins to audit")
    margin = traj.envelope_margin
    violations = np.nonzero(margin < -2 * traj.resolution)[0]
    first_violation = float(traj.times[violations[0]]) if violations.size else None
    return AuditReport(
        passes=violations.size == 0,
        min_margin=float(np.min(margin)),
        first_violation_time=first_violation,
        samples=int(margin.size),
    )


def lyapunov_monitor(traj: Trajectory) -> MonitorReport:
    """Gate V(z) = z^T P z on the decay ``traj.cert`` proves: from dV/dt <=
    -2 lambda V, the exact closed loop has V_{k+1} <= exp(-2 lambda h_k) V_k
    over each recorded step (Gronwall).  Each step must meet that up to
    delta_k = d_k + d_{k+1}, where d_j = lambda_max(P) (2 |z_j| + eps_j) eps_j
    bounds |V(z_j + e) - V(z_j)| for |e| <= eps_j, the sample's resolution.
    A failing step is reported at its end time."""
    if traj.cert is None or traj.v_values is None:
        raise UsageError("trajectory has no certificate to monitor")
    cert, v, eps = traj.cert, traj.v_values, traj.resolution
    # |z_j| by einsum, in half the time of np.linalg.norm(z, axis=1)
    d = cert.lambda_max_P * (2 * np.sqrt(np.einsum("ki,ki->k", traj.z, traj.z)) + eps) * eps
    decay = np.exp(-2 * cert.lambda_decay * np.diff(traj.times))
    excess = v[1:] - decay * v[:-1] - (d[:-1] + d[1:])
    violations = np.nonzero(excess > 0)[0]
    first_violation = float(traj.times[violations[0] + 1]) if violations.size else None
    return MonitorReport(
        v_initial=float(v[0]),
        v_final=float(v[-1]),
        passes=violations.size == 0,
        worst_excess=float(np.max(excess)),
        first_violation_time=first_violation,
    )


@dataclass(frozen=True)
class Verdict:
    """The verdict of a certified run: its envelope audit, its V gate and
    its decay fit on [0.1, 0.9] t_final.  ``v_nonincreasing`` is the V gate's
    ``passes``, named as in ``summary.json`` and ``sweep.csv``: V that decays
    does not increase.  The fit is None when the error signal sits at its
    resolution (a run that starts at rest has nothing to fit)."""

    envelope_pass: bool
    min_margin: float
    first_violation_time: Optional[float]
    v_nonincreasing: bool
    lambda_emp: Optional[float]
    M_emp: Optional[float]

    @property
    def passed(self) -> bool:
        """A certified run passes when its envelope holds and V decays at
        the certified rate."""
        return self.envelope_pass and self.v_nonincreasing


def judge(traj: Trajectory) -> Verdict:
    """The verdict of a trajectory simulated with a certificate: the
    envelope audit, the V gate and the decay fit; the first two gate it.

    The three checks are looked up as module attributes at each call, so a
    wrapped or patched ``simulator.envelope_audit``, ``lyapunov_monitor`` or
    ``fit_decay`` is the one that judges.
    """
    audit = envelope_audit(traj)
    monitor = lyapunov_monitor(traj)
    try:
        lam_emp, m_emp = fit_decay(traj, (0.1 * traj.t_final, 0.9 * traj.t_final))
    except UsageError:
        lam_emp = m_emp = None
    return Verdict(
        envelope_pass=audit.passes,
        min_margin=audit.min_margin,
        first_violation_time=audit.first_violation_time,
        v_nonincreasing=monitor.passes,
        lambda_emp=lam_emp,
        M_emp=m_emp,
    )
