#!/usr/bin/env python3
"""Scalar PI gain-region map for the plant class L = b = 1.

Sweeps (kp, ki) over a grid and marks each point as inside the
exponential-rate region, inside the larger necessary-and-sufficient region,
or outside.  The verdicts on either side of the map are ``pidcert planar``
runs: ``scripts/configs/planar_sufficiency.json`` proves global asymptotic
stability for one relaxed-region pair, and ``planar_necessity.json`` and
``planar_necessity_ki_zero.json`` run the counterexamples for gains outside it.
"""

import argparse
import json
from pathlib import Path

import numpy as np

import pidcert as pc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="planar_out")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ub = pc.UncertaintyBounds.first_order(1.0, 1.0)
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
    print("RATE: exponential-rate region, ASYM: asymptotic-only region")

    path = out / "pi_regions.json"
    path.write_text(json.dumps({"regions": region_rows}, indent=2, sort_keys=True))
    print(f"\nregion map written to {path}")


if __name__ == "__main__":
    main()
