"""Bitwise parity of the built-in plant families with stored values.

``data/plant_families.json`` holds, for each family and order at fixed
params, the declared bounds and the values of ``f`` and of every Jacobian
at fixed points of three batch shapes and at signed zeros, each float as
its ``repr`` (so the sign of a zero counts).  The values were written by the hand-written
builders that the family table replaced.  Running this module as a script
prints the payload for the code on the path; rewrite the file with it only
when a family's formulas change on purpose:

    PYTHONPATH=src python tests/test_plant_parity.py > tests/data/plant_families.json
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pidcert import plant_models as pm

DATA = Path(__file__).parent / "data" / "plant_families.json"

# one case per family and order; some keys are left to their defaults
CASES = [
    ("linear_matrix", {"A1": [[0.4, -0.1], [0.0, 0.3]], "A2": [[-0.2, 0.0], [0.1, 0.5]],
                       "Theta": [[2.0, 0.3], [0.1, 1.5]]}),
    ("linear_matrix", {"order": "first_order", "A": [[-0.5, 0.2], [0.1, -0.3]],
                       "Theta": [[1.5, 0.4], [-0.4, 1.0]]}),
    ("sinusoidal_scalar", {"c1": -0.8, "c2": 1.2}),
    ("sinusoidal_scalar", {"order": "first_order"}),
    ("tanh_coupled", {"n": 3, "l1": 1.0, "l2": 0.5, "b_lower": 1.3}),
    ("nonaffine_cubic_u", {"c1": 1.0, "c2": -0.5, "b_lower": 0.7}),
    ("nonaffine_cubic_u", {"order": "first_order", "c1": 0.6}),
    ("rotation_gain", {"b_lower": 1.1, "s": 2.5, "a1": -0.7}),
]
SHAPES = [(), (7,), (3, 5)]


def _reprs(a) -> dict:
    a = np.asarray(a)
    return {"shape": list(a.shape), "values": [repr(float(v)) for v in a.ravel()]}


def _array(node) -> np.ndarray:
    return np.array([float(v) for v in node["values"]]).reshape(node["shape"])


def evaluate(fam: str, params: dict, points: list) -> dict:
    """Declared bounds, and f and every Jacobian at each argument tuple of
    ``points``, of the family built from ``params``."""
    p = pm.build_family(fam, params)
    ub = p.declared_bounds
    names = ["f", "jac_x1", "jac_x2", "jac_u"] if p.jac_x2 is not None else ["f", "jac_x1", "jac_u"]
    return {
        "n": p.n,
        "order": p.order,
        "bounds": {k: repr(float(getattr(ub, k))) for k in ("L1", "L2", "b_lower")} | {"order": ub.order},
        "values": [
            {name: _reprs(getattr(p, name)(*args)) for name in names} for args in points
        ],
    }


def write_payload() -> dict:
    rng = np.random.default_rng(2024)
    cases = []
    for fam, params in CASES:
        p = pm.build_family(fam, params)
        points = [
            [rng.uniform(-3.0, 3.0, size=shape + (p.n,)) for _ in range(p.nargs)] for shape in SHAPES
        ]
        # zeros of random sign, where only the order of the sums fixes the
        # sign of a zero result
        signs = rng.choice([-1.0, 1.0], size=(p.nargs, 8, p.n))
        points.append(list(np.copysign(0.0, signs)))
        cases.append(
            {"family": fam, "params": params, "points": [[_reprs(a) for a in args] for args in points]}
            | evaluate(fam, params, points)
        )
    return {"cases": cases}


STORED = json.loads(DATA.read_text())["cases"] if DATA.exists() else []


@pytest.mark.parametrize("case", STORED, ids=[f"{c['family']}-{c['order']}" for c in STORED])
def test_family_matches_stored_values(case):
    points = [[_array(a) for a in args] for args in case["points"]]
    fresh = evaluate(case["family"], case["params"], points)
    for key in ("n", "order", "bounds", "values"):
        assert fresh[key] == case[key], key


def test_every_family_and_order_is_stored():
    assert [(c["family"], c["params"]) for c in STORED] == CASES
    declared = {(fam, order) for fam, (_, orders) in pm._FAMILIES.items() for order in orders}
    assert {(c["family"], c["order"]) for c in STORED} == declared
    assert len(declared) == 8


if __name__ == "__main__":
    cases = write_payload()["cases"]  # one case per line
    sys.stdout.write('{"cases": [\n' + ",\n".join(json.dumps(c) for c in cases) + "\n]}\n")
