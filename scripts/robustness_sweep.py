#!/usr/bin/env python3
"""Robustness demonstration: one gain triple against many plants and scalings.

A single PID triple chosen from the region for (L1, L2, b) = (1, 1, 1) is
certified once, then exercised against every built-in scalar plant in that
class and against scalings of itself (the region is closed under scaling by
any factor >= 1).  No retuning happens anywhere.
"""

import argparse

import numpy as np

import pidcert as pc

PLANTS = [
    ("linear_matrix", {"A1": [[1.0]], "A2": [[-1.0]], "Theta": [[1.0]]}),
    ("linear_matrix", {"A1": [[-0.7]], "A2": [[0.9]], "Theta": [[1.3]]}),
    ("sinusoidal_scalar", {"c1": 1.0, "c2": 1.0}),
    ("sinusoidal_scalar", {"c1": -0.6, "c2": 0.4}),
    ("nonaffine_cubic_u", {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}),
    ("nonaffine_cubic_u", {"c1": 0.3, "c2": 0.9, "b_lower": 1.4}),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--t-final", type=float, default=30.0)
    args = parser.parse_args()

    ub = pc.UncertaintyBounds(1.0, 1.0, 1.0)
    gains = pc.suggest_gains("PID", ub, ki=1.0)
    cert = pc.certify_margin("PID", gains, ub, 1)
    print(
        f"one gain triple ({gains.kp:.2f}, {gains.ki:.2f}, {gains.kd:.2f}), "
        f"certified alpha={cert.alpha:.4f}, M={cert.M:.3f}, lambda={cert.lambda_decay:.5f}\n"
    )

    rng = np.random.default_rng(args.seed)
    all_pass = True
    for fam, params in PLANTS:
        plant = pc.build_family(fam, params)
        assert pc.validate_class_membership(plant, samples=300, seed=args.seed).passes
        y = float(rng.uniform(-3, 3))
        cfg = pc.SimConfig(
            plant=plant, gains=gains, y_star=[y],
            x0=rng.uniform(-5, 5, size=2), t_final=args.t_final,
        )
        traj = pc.simulate(cfg, cert=cert)
        audit = pc.envelope_audit(traj)
        all_pass &= audit.passes
        print(
            f"{fam:20s} {str(params):58s} y*={y:+.2f}  "
            f"final|e|={abs(traj.errors[-1, 0]):.2e}  "
            f"envelope={'PASS' if audit.passes else 'FAIL'}"
        )

    print("\nscaling the same triple (region is closed under alpha >= 1):")
    for alpha in (1.0, 2.0, 5.0, 20.0):
        scaled = gains.scaled(alpha)
        member = pc.membership(scaled, ub).member
        print(f"  alpha={alpha:5.1f}: gains ({scaled.kp:6.1f}, {scaled.ki:5.1f}, "
              f"{scaled.kd:6.1f}) member={member}")
        all_pass &= member

    print("\nall checks passed" if all_pass else "\nSOME CHECKS FAILED")
    return 0 if all_pass else 2


if __name__ == "__main__":
    raise SystemExit(main())
