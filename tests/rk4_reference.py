"""The plain closed-loop right-hand side and RK4 loop, kept as a reference.

``simulator._rhs_factory`` builds its block slices and gain blocks once and
its ``rhs(t, s, out)`` writes the rates of the (cells, dim) state into the
stepper's stage block, each plant run into its own rows;
``simulator._integrate_rk4`` writes into preallocated stage rows and records.
These helpers do the same arithmetic the straightforward way, on the flat
state: a dict of named state blocks per call, the control law written out,
``PlantModel.eval_checked`` on every plant run, a new rate vector per call
and lists of copied states.  Equal inputs must give bitwise equal results.
``in_place`` lets a flat right-hand side drive the simulator's steppers.
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


def in_place(rhs):
    """The flat ``rhs(t, s) -> rates`` as a stepper's ``rhs(t, s, out)`` on (cells, dim) blocks."""
    def rhs_out(t, s, out):
        out[...] = np.reshape(rhs(t, s.reshape(-1)), out.shape)
    return rhs_out


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
