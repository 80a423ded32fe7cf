#!/usr/bin/env python3
"""Scalar PI study: where regulation provably works and where it must fail.

Part 1 sweeps (kp, ki) over a grid for the plant class L = b = 1 and marks
each point as inside the exponential-rate region, inside the larger
necessary-and-sufficient region, or outside.  Part 2 proves global
asymptotic stability for one relaxed-region gain pair from the declared
bounds (two-dimensional Markus-Yamabe theorem), with the plant's class
audited on a grid.  Part 3 runs the two counterexamples showing gains
outside the larger region cannot regulate: pure proportional control leaves
a steady offset, and an unstable linear loop has an eigenvalue in the closed
right half plane.
"""

import argparse
import json
from pathlib import Path

import numpy as np

import pidcert as pc
from pidcert.planar_pi import PlanarField, jacobian_conditions, necessity_counterexample


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="planar_out")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ub = pc.UncertaintyBounds.first_order(1.0, 1.0)
    plant = pc.build_family(
        "sinusoidal_scalar", {"order": "first_order", "c1": 1.0}
    )

    print("kp\\ki ", "  ".join(f"{ki:4.1f}" for ki in np.arange(0.5, 3.1, 0.5)))
    region_rows = []
    for kp in np.arange(0.5, 4.1, 0.5):
        marks = []
        for ki in np.arange(0.5, 3.1, 0.5):
            g = pc.GainVector("PI", float(kp), float(ki))
            in_rate = pc.membership(g, ub).member
            in_relaxed = pc.pi_relaxed_membership(g, ub).member
            marks.append("RATE" if in_rate else ("ASYM" if in_relaxed else "  - "))
            region_rows.append(
                {"kp": float(kp), "ki": float(ki), "rate_region": in_rate, "relaxed_region": in_relaxed}
            )
        print(f"{kp:5.1f} ", "  ".join(marks))
    print("RATE: exponential-rate region, ASYM: asymptotic-only region\n")

    # the Markus-Yamabe verdict for one representative relaxed-region choice
    g = pc.GainVector("PI", 2.0, 1.0)
    field = PlanarField.build(plant, g, y_star=0.7)
    rep = jacobian_conditions(field)
    print(
        f"Jacobian conditions for (kp, ki) = (2, 1): trace <= {rep.trace_bound:g} and "
        f"det >= {rep.det_bound:g} on the whole plane, grid audit "
        f"{'passed' if rep.audit.passes else 'failed'} -> "
        f"{'proven globally asymptotically stable' if rep.sufficiency else 'not proven'}"
    )

    offset = necessity_counterexample("ki_zero", ub, pc.GainVector("PI", 2.0, 0.0), 1.0)
    print(
        f"ki = 0 counterexample: steady error {offset.e_inf_observed:.6f} "
        f"(analytic {offset.e_inf_analytic}) -> offset never vanishes"
    )
    unstable = necessity_counterexample(
        "unstable_linear", ub, pc.GainVector("PI", 0.5, 1.0), 0.0
    )
    print(
        f"kp*b <= L counterexample: max Re(eig) = {unstable.max_re_eigenvalue:.6f} "
        f">= 0 -> error cannot decay"
    )

    payload = {
        "regions": region_rows,
        "jacobian_conditions": {
            "trace_bound": rep.trace_bound,
            "det_bound": rep.det_bound,
            "audit_passes": rep.audit.passes,
            "sufficiency": rep.sufficiency,
        },
        "ki_zero": {
            "e_inf_analytic": offset.e_inf_analytic,
            "e_inf_observed": offset.e_inf_observed,
        },
        "unstable_linear": {"max_re_eigenvalue": unstable.max_re_eigenvalue},
    }
    (out / "planar_study.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nreport written to {out / 'planar_study.json'}")


if __name__ == "__main__":
    main()
