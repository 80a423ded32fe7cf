"""The plain closed-loop right-hand side and RK4 loop, kept as a reference.

``simulator._rhs_factory`` builds its block indices and gain blocks once and
returns a binder: ``bind(s, out)`` builds the block views of the
block-major (blocks, cells, n) state ``s``, each plant run's arguments and
its rows of the stage row ``out`` once, and returns ``evaluate(t)``, which
writes the rates at ``s`` into ``out``.  ``simulator._integrate_rk4`` forms
each stage input in place in one fixed block, binds its four stages once
and records into a preallocated block.  Block-major, each block ``s[j]`` of
every cell is one contiguous (cells, n) array, and a plant run's rows are a
contiguous slice of it.  These helpers do the same arithmetic the
straightforward way, on
the cell-major flat state, each cell's (dim,) vector after the last: a dict
of named state blocks per call, the control law written out,
``PlantModel.eval_checked`` on every plant run, a new rate vector per call
and lists of copied states.  Equal inputs must give bitwise equal results.
``block_major`` and ``cell_major`` convert between the two layouts, and
``in_place`` turns a flat right-hand side into a binder, so it can drive the
simulator's steppers.
"""

import itertools
import math

import numpy as np

from pidcert.errors import IntegrationError
from pidcert.gain_sets import LAYOUT


def split(kind, n, s):
    """Named blocks of a state vector, or of a (samples, dim) state array."""
    return {name: s[..., k * n : (k + 1) * n] for k, name in enumerate(LAYOUT[kind])}


def control(gains, blocks, e):
    """u = kp e + ki i + kd edot with edot = -v, for the blocks the kind has."""
    kp, ki, kd = gains
    u = kp * e
    if "i" in blocks:
        u = u + ki * blocks["i"]
    if "v" in blocks:
        u = u + kd * -blocks["v"]
    return u


def plant_runs(cells):
    """(plant, rows) for each run of adjacent cells that share one plant."""
    runs, start = [], 0
    for _, group in itertools.groupby(cells, key=lambda c: id(c.cfg.plant)):
        stop = start + len(list(group))
        runs.append((cells[start].cfg.plant, slice(start, stop)))
        start = stop
    return runs


def reference_rhs(cells):
    """Right-hand side of the stacked system, on the flattened (cells, dim) state."""
    kind, n = cells[0].cfg.gains.kind, cells[0].cfg.plant.n
    layout = LAYOUT[kind]
    shape = (len(cells), len(layout) * n)
    gains = tuple(
        np.array([[getattr(c.cfg.gains, k)] for c in cells]) for k in ("kp", "ki", "kd")
    )
    y = np.array([c.cfg.y_star for c in cells])
    runs = plant_runs(cells)
    plant_state = [k for k in layout if k != "i"]

    def rhs(t, s):
        b = split(kind, n, s.reshape(shape))
        e = y - b["x"]
        u = control(gains, b, e)
        f = np.concatenate(
            [
                plant.eval_checked(*(b[k][rows] for k in plant_state), u[rows])
                for plant, rows in runs
            ]
        )
        rate = {"i": e, "x": b.get("v", f), "v": f}
        return np.concatenate([rate[k] for k in layout], axis=1).reshape(-1)

    return rhs


def block_major(flat, shape):
    """The cell-major flat state ``flat`` as the steppers' block-major
    ``shape`` = (blocks, cells, n) stack, a new contiguous array."""
    blocks, cells, n = shape
    return np.reshape(flat, (cells, blocks, n)).swapaxes(0, 1).copy()


def cell_major(stack):
    """The block-major (..., blocks, cells, n) stack as cell-major flat
    states (..., cells * blocks * n): a record of stacks becomes one flat
    state per sample."""
    return stack.swapaxes(-3, -2).reshape(*stack.shape[:-3], -1)


def in_place(rhs):
    """The flat ``rhs(t, s) -> rates`` on cell-major states as a stepper's
    binder: ``bind(s, out)`` on (blocks, cells, n) stacks returns
    ``evaluate(t)``, which writes the rates at ``s`` into ``out``."""
    def bind(s, out):
        def evaluate(t):
            out[...] = block_major(rhs(t, cell_major(s)), out.shape)
        return evaluate
    return bind


def reference_rk4(rhs, s0, t_final, dt):
    """Classical fixed-step RK4 from t = 0; the last step is shortened to end
    on t_final.  Returns (times, states)."""
    n_steps = max(1, int(math.ceil(t_final / dt - 1e-12)))
    times = [0.0]
    states = [s0.copy()]
    t, s = 0.0, s0.copy()
    for _ in range(n_steps):
        h = min(dt, t_final - t)
        k1 = rhs(t, s)
        k2 = rhs(t + h / 2.0, s + h / 2.0 * k1)
        k3 = rhs(t + h / 2.0, s + h / 2.0 * k2)
        k4 = rhs(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = t + h
        if not np.all(np.isfinite(s)):
            raise IntegrationError(f"state became non-finite at t = {t:.6g}")
        times.append(t)
        states.append(s.copy())
    return np.array(times), np.array(states)
