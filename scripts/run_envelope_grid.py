#!/usr/bin/env python3
"""Certified envelope study over a plants x gains x setpoints grid.

For three scalar plants sharing the bound triple (1, 1, 1), three suggested
PID gain triples are certified once each, then every (plant, gains, setpoint)
cell is simulated and audited against its exponential envelope; the 27 cells
are integrated together as one stacked system.  The summary table shows the
certified rate next to the empirically fitted one, which is typically an
order of magnitude faster: the certificate is a worst-case statement over the
whole uncertainty ball.
"""

import argparse
import csv
import time
from pathlib import Path

import numpy as np

import pidcert as pc

PLANTS = [
    ("linear_matrix", {"A1": [[1.0]], "A2": [[-1.0]], "Theta": [[1.0]]}),
    ("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
    ("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}),
]
SETPOINTS = [-2.0, 1.0, 3.0]
KI_VALUES = [0.5, 1.0, 2.0]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="grid_out", help="output directory")
    parser.add_argument("--t-final", type=float, default=30.0)
    args = parser.parse_args()

    ub = pc.UncertaintyBounds(1.0, 1.0, 1.0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    certs = {}
    for ki in KI_VALUES:
        gains = pc.suggest_gains("PID", ub, ki=ki)
        certs[ki] = pc.certify_margin("PID", gains, ub, 1)
        c = certs[ki]
        print(
            f"certified ki={ki}: gains=({c.gains.kp:.3f},{c.gains.ki},{c.gains.kd:.3f})"
            f"  alpha={c.alpha:.4f}  lambda={c.lambda_decay:.5f}  M={c.M:.3f}"
        )

    # every cell shares the horizon and the integrator: one stacked run
    plants = [(fam, pc.build_family(fam, params)) for fam, params in PLANTS]
    grid = [
        (fam, plant, ki, cert, y)
        for fam, plant in plants
        for ki, cert in certs.items()
        for y in SETPOINTS
    ]
    cells = [
        pc.prepare_cell(
            pc.SimConfig(
                plant=plant, gains=cert.gains, y_star=[y],
                x0=np.array([5.0, -3.0]), t_final=args.t_final,
            ),
            cert,
        )
        for _, plant, _, cert, y in grid
    ]
    rows = []
    for (fam, _, ki, cert, y), traj in zip(grid, pc.simulate_batch(cells)):
        audit = pc.envelope_audit(traj)
        monitor = pc.lyapunov_monitor(traj, cert)
        lam_emp, _ = pc.fit_decay(traj, (1.0, 0.9 * args.t_final))
        rows.append(
            {
                "plant": fam,
                "ki": ki,
                "y_star": y,
                "alpha": cert.alpha,
                "lambda_cert": cert.lambda_decay,
                "lambda_emp": lam_emp,
                "envelope_pass": audit.passes,
                "min_margin": audit.min_margin,
                "v_nonincreasing": monitor.nonincreasing_pass,
            }
        )
        print(
            f"{fam:20s} ki={ki:<4} y*={y:<5} "
            f"envelope={'PASS' if audit.passes else 'FAIL'} "
            f"lambda_emp={lam_emp:.4f} (cert {cert.lambda_decay:.5f})"
        )

    with open(out / "grid.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    n_pass = sum(r["envelope_pass"] and r["v_nonincreasing"] for r in rows)
    print(f"\n{n_pass}/{len(rows)} cells passed in {time.perf_counter() - t0:.1f}s")
    print(f"table written to {out / 'grid.csv'}")


if __name__ == "__main__":
    main()
