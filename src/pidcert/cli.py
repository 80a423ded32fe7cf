"""Batch front end: JSON configs in, certificates/trajectories/reports out.

Usage:
    pidcert <mode> --config <path> [--seed N] [--out DIR]

Modes: gains, certify, simulate, sweep, planar, verify-class.  Each mode
returns its exit code, the name of its JSON report (None for ``sweep``, which
writes ``sweep.csv`` and prints one summary line itself) and the report;
``run`` writes the report and echoes it.  The CLI judges nothing: each failed
check comes from a library report (``ValidationReport.passes``,
``ConditionReport.sufficiency``, ``CounterexampleReport.nonconvergent`` and,
for every certified run alone or in a sweep, ``simulator.judge``'s
``Verdict.passed``).  A number a config leaves out is not passed on, so the
library function's own default applies.
Exit codes: 0 all checks pass, 1 usage/config error, 2 a certification or
audit check failed (the failing report is still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import certificates as cert_mod
from . import gain_sets as gs
from . import planar_pi
from . import plant_models as pm
from . import simulator as sim
from .errors import PidcertError, UsageError, as_number, as_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise UsageError(msg)


# keys each mode reads from the config root; any other key is a usage error
_SIM_NUMBERS = ("t_final", "dt_max", "rtol", "atol")
_SIM_KEYS = {"integrator", *_SIM_NUMBERS}
_MODE_KEYS = {
    "gains": {"kind", "bounds", "ki", "margin"},
    "certify": {"kind", "bounds", "gains", "n"},
    "simulate": {"plant", "bounds", "kind", "gains", "suggest", "certify", "y_star", "x0"}
    | _SIM_KEYS,
    "sweep": {"kind", "bounds", "plants", "gain_sets", "setpoints", "x0s", "sim"},
    "verify-class": {"plant", "samples", "box_radius"},
}
# the keys of each branch of planar: a necessity case or a plant on a grid
_PLANAR_KEYS = {
    "necessity": {"necessity", "bounds", "gains", "y_star"},
    "grid": {"plant", "gains", "y_star", "grid"},
}
_MODE_KEYS["planar"] = set().union(*_PLANAR_KEYS.values())


def _check_keys(node, allowed, where: str) -> None:
    _expect(isinstance(node, dict), f"{where} must be an object")
    unknown = sorted(set(node) - set(allowed))
    _expect(not unknown, f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _given(node: dict, keys, where: str, ints=()) -> dict:
    """The ``keys`` that ``node`` sets, each read by ``as_number``'s rule (as
    an integer for those in ``ints``); a key it leaves out keeps the
    library's default."""
    return {
        k: as_number(node[k], f"{where}: {k!r}", int if k in ints else float)
        for k in keys
        if k in node
    }


def _parse_bounds(node, where: str) -> gs.UncertaintyBounds:
    _expect(isinstance(node, dict), f"{where}: bounds must be an object")
    keys = ("L", "b_lower") if "L" in node else ("L1", "L2", "b_lower")
    _check_keys(node, keys, f"{where}: bounds")
    for key in keys:
        _expect(key in node, f"{where}: missing bounds field {key!r}")
    values = {k: as_number(node[k], f"{where}: bounds field {k!r}") for k in keys}
    if "L" in node:
        return gs.UncertaintyBounds.first_order(**values)
    return gs.UncertaintyBounds(**values)


def _parse_gains(node, kind: str, where: str) -> gs.GainVector:
    keys = ("kp", "ki", "kd")
    _check_keys(node, keys, f"{where}: gains")
    return gs.GainVector(
        kind, **{k: as_number(node.get(k, 0.0), f"{where}: gains {k!r}") for k in keys}
    )


def _parse_plant(node, where: str) -> pm.PlantModel:
    _check_keys(node, ("family", "params"), f"{where}: plant")
    _expect("family" in node, f"{where}: plant needs a 'family' field")
    return pm.build_family(node["family"], node.get("params", {}))


def _x0(node, n: int, order: str, where: str) -> np.ndarray:
    """The initial state of an ``order`` plant from ``node``; None is rest."""
    want = 2 * n if order == gs.SECOND_ORDER else n
    return np.zeros(want) if node is None else as_vector(node, want, where)


def mode_gains(config: dict, out: Path, seed: int) -> tuple:
    ub = _parse_bounds(config.get("bounds"), "gains mode")
    g = gs.suggest_gains(
        config.get("kind", gs.PID), ub, **_given(config, ("ki", "margin"), "gains mode")
    )
    report = gs.membership(g, ub)
    return EXIT_OK, "gains.json", {
        "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd, "kind": g.kind},
        "member": report.member,
        "margins": dict(report.margins),
        "kbar": report.kbar,
    }


def mode_certify(config: dict, out: Path, seed: int) -> tuple:
    kind = config.get("kind", gs.PID)
    ub = _parse_bounds(config.get("bounds"), "certify mode")
    g = _parse_gains(config.get("gains"), kind, "certify mode")
    n = as_number(config.get("n", 1), "certify mode: 'n'", int)
    cert = cert_mod.certify_margin(kind, g, ub, n)
    return EXIT_OK, "certificate.json", cert.to_json_dict()


def _sim_options(node: dict, where: str) -> dict:
    """SimConfig keywords from the ``_SIM_KEYS`` set in ``node``; the others
    keep SimConfig's defaults, and t_final defaults to 30."""
    opts = {"t_final": 30.0} | _given(node, _SIM_NUMBERS, where)
    if "integrator" in node:
        opts["integrator"] = node["integrator"]
    return opts


def mode_simulate(config: dict, out: Path, seed: int) -> tuple:
    plant = _parse_plant(config.get("plant"), "simulate mode")
    ub = (
        _parse_bounds(config["bounds"], "simulate mode")
        if "bounds" in config
        else plant.declared_bounds
    )
    kind = config.get("kind", gs.PI if plant.order == gs.FIRST_ORDER else gs.PID)
    if "gains" in config:
        g = _parse_gains(config["gains"], kind, "simulate mode")
    else:
        suggest = config.get("suggest", {})
        _check_keys(suggest, ("ki", "margin"), "simulate mode: suggest")
        g = gs.suggest_gains(
            kind, ub, **_given(suggest, ("ki", "margin"), "simulate mode: suggest")
        )
    certify = config.get("certify", True)
    _expect(isinstance(certify, bool), "simulate mode: 'certify' must be true or false")
    cert = cert_mod.certify_margin(kind, g, ub, plant.n) if certify else None
    cfg = sim.SimConfig(
        plant=plant,
        gains=g,
        y_star=as_vector(config.get("y_star", 0.0), plant.n, "simulate mode: y_star"),
        x0=_x0(config.get("x0"), plant.n, plant.order, "simulate mode: x0"),
        **_sim_options(config, "simulate mode"),
    )
    traj = sim.simulate(cfg, cert=cert)
    out.mkdir(parents=True, exist_ok=True)
    traj.to_csv(out / "trajectory.csv")
    summary: dict = {
        "kind": g.kind,
        "gains": {"kp": g.kp, "ki": g.ki, "kd": g.kd},
        "final_error_norm": float(np.linalg.norm(traj.errors[-1])),
        "samples": int(traj.times.size),
        "integrator": {"nfev": traj.nfev, "status": traj.status, "cells": traj.cells},
    }
    code = EXIT_OK
    if cert is not None:
        verdict = sim.judge(traj)
        summary.update({"certificate": cert.to_json_dict(), **dataclasses.asdict(verdict)})
        if not verdict.passed:
            code = EXIT_CHECK_FAILED
    return code, "summary.json", summary


# sweep.csv columns: the cell, its certificate, the fields of its verdict and
# its error; a cell's row starts with every column empty
_SWEEP_COLUMNS = (
    "cell", "plant", "kp", "ki", "kd", "y_star", "member", "alpha", "lambda",
    *(f.name for f in dataclasses.fields(sim.Verdict)),
    "error",
)


def _sweep_list(config: dict, key: str, default=None) -> list:
    node = config.get(key, default)
    _expect(isinstance(node, list) and node, f"sweep mode: {key!r} must be a list")
    return node


def _judge_cells(batch: list) -> int:
    """Fill each (row, cell) of ``batch`` from one stacked integration and
    return the number of cells that passed.

    When the batch raises, the cells not yet judged run again one at a time,
    so the error lands on its own cell.
    """
    done = passed = 0
    try:
        for traj in sim.simulate_batch([cell for _, cell in batch]):
            row, cell = batch[done]
            verdict = sim.judge(traj)
            row.update(
                {"alpha": cell.cert.alpha, "lambda": cell.cert.lambda_decay}
                | dataclasses.asdict(verdict)
            )
            passed += verdict.passed
            done += 1
    except PidcertError as exc:
        if len(batch) == 1:
            batch[0][0]["error"] = f"{type(exc).__name__}: {exc}"
        else:
            passed += sum(_judge_cells([item]) for item in batch[done:])
    return passed


def mode_sweep(config: dict, out: Path, seed: int) -> tuple:
    kind = config.get("kind", gs.PID)
    sim_node = config.get("sim", {})
    _check_keys(sim_node, _SIM_KEYS, "sweep mode: sim")
    opts = _sim_options(sim_node, "sweep mode: sim")
    plant_nodes, gain_nodes, y_nodes = (
        _sweep_list(config, key) for key in ("plants", "gain_sets", "setpoints")
    )
    x_nodes = _sweep_list(config, "x0s", [None])
    plants = [
        _parse_plant(node, f"sweep mode: plants[{i}]") for i, node in enumerate(plant_nodes)
    ]
    ub = (
        _parse_bounds(config["bounds"], "sweep mode")
        if "bounds" in config
        else plants[0].declared_bounds
    )
    gains = [
        _parse_gains(node, kind, f"sweep mode: gain_sets[{i}]")
        for i, node in enumerate(gain_nodes)
    ]
    n = plants[0].n
    for p in plants:
        _expect(p.n == n, "sweep mode: all plants must share the block dimension")
    setpoints = [as_vector(y, n, f"sweep mode: setpoints[{i}]") for i, y in enumerate(y_nodes)]
    x0s = [_x0(x, n, gs.ORDER[kind], f"sweep mode: x0s[{i}]") for i, x in enumerate(x_nodes)]
    # one run per plant, built before any cell runs, checks the plant's order
    # and then the sim settings once; each cell's run is a copy of its plant's
    plant_cfgs = []
    for i, p in enumerate(plants):
        try:
            plant_cfgs.append(
                sim.SimConfig(plant=p, gains=gains[0], y_star=setpoints[0], x0=x0s[0], **opts)
            )
        except UsageError as exc:
            # SimConfig tests the plant's order before the run settings
            node = f"plants[{i}]" if p.order != gs.ORDER[kind] else "sim"
            raise UsageError(f"sweep mode: {node}: {exc}") from None

    # membership and one certificate per gain set; only region members are
    # judged, though the proof certifies about half the outsiders a sweep
    # may list: judging those too would run about 1.5 times the cells
    member = [gs.membership(g, ub).member for g in gains]
    certs = [cert_mod.certify_margin(kind, g, ub, n) if m else None for g, m in zip(gains, member)]

    # every member cell that passes its pre-checks joins one stacked integration
    rows, batch = [], []
    cells = itertools.product(plant_cfgs, enumerate(gains), setpoints, x0s)
    for idx, (plant_cfg, (ig, g), y_star, x0) in enumerate(cells):
        row = dict.fromkeys(_SWEEP_COLUMNS, "") | {
            "cell": idx,
            "plant": plant_cfg.plant.family or "custom",
            "kp": g.kp,
            "ki": g.ki,
            "kd": g.kd,
            # each component's repr, space-separated: one number at n = 1
            "y_star": " ".join(map(repr, y_star.tolist())),
            "member": member[ig],
        }
        rows.append(row)
        if not row["member"]:
            continue
        try:
            cfg = dataclasses.replace(plant_cfg, gains=g, y_star=y_star, x0=x0)
            batch.append((row, sim.prepare_cell(cfg, certs[ig])))
        except PidcertError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
    passed = _judge_cells(batch) if batch else 0

    out.mkdir(parents=True, exist_ok=True)
    judged = sum(r["member"] for r in rows)
    pass_fraction = (passed / judged) if judged else 1.0
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_SWEEP_COLUMNS)
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        writer.writerow(
            dict.fromkeys(_SWEEP_COLUMNS, "") | {"cell": "pass_fraction", "plant": pass_fraction}
        )
    print(f"sweep: {passed}/{judged} certified cells passed")
    return (EXIT_OK if passed == judged else EXIT_CHECK_FAILED), None, None


def mode_planar(config: dict, out: Path, seed: int) -> tuple:
    branch = "necessity" if "necessity" in config else "grid"
    _check_keys(config, _PLANAR_KEYS[branch] | {"mode"}, f"planar mode ({branch})")
    g = _parse_gains(config.get("gains"), gs.PI, "planar mode")
    if branch == "necessity":
        node = config["necessity"]
        _check_keys(node, ("case",), "planar mode: necessity")
        ub = _parse_bounds(config.get("bounds"), "planar mode")
        y_star = as_number(config.get("y_star", 1.0), "planar mode: 'y_star'")
        report = planar_pi.necessity_counterexample(node.get("case", "ki_zero"), ub, g, y_star)
        key, passed = "necessity", report.nonconvergent
    else:
        plant = _parse_plant(config.get("plant"), "planar mode")
        field = planar_pi.PlanarField.build(
            plant, g, as_number(config.get("y_star", 0.0), "planar mode: 'y_star'")
        )
        grid = config.get("grid", {})
        _check_keys(grid, ("radius", "points"), "planar mode: grid")
        report = planar_pi.jacobian_conditions(
            field, **_given(grid, ("radius", "points"), "planar mode: grid", ints=("points",))
        )
        key, passed = "jacobian_conditions", report.sufficiency
    code = EXIT_OK if passed else EXIT_CHECK_FAILED
    return code, "planar.json", {key: dataclasses.asdict(report)}


def mode_verify_class(config: dict, out: Path, seed: int) -> tuple:
    plant = _parse_plant(config.get("plant"), "verify-class mode")
    report = pm.validate_class_membership(
        plant,
        seed=seed,
        **_given(config, ("samples", "box_radius"), "verify-class mode", ints=("samples",)),
    )
    code = EXIT_OK if report.passes else EXIT_CHECK_FAILED
    return code, "validation.json", dataclasses.asdict(report)


_MODES = {
    "gains": mode_gains,
    "certify": mode_certify,
    "simulate": mode_simulate,
    "sweep": mode_sweep,
    "planar": mode_planar,
    "verify-class": mode_verify_class,
}


def run(mode: str, config_path: str, seed: int = 0, out_dir: str = "pidcert_out") -> int:
    """Execute one mode; returns the process exit code."""
    try:
        _expect(mode in _MODES, f"unknown mode {mode!r}")
        try:
            with open(config_path) as fh:
                config = json.load(fh)
        except FileNotFoundError:
            raise UsageError(f"config file not found: {config_path}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed JSON in {config_path}: {exc}") from None
        _expect(isinstance(config, dict), "config root must be a JSON object")
        declared_mode = config.get("mode")
        _expect(
            declared_mode is None or declared_mode == mode,
            f"config declares mode {declared_mode!r} but {mode!r} was requested",
        )
        _check_keys(config, _MODE_KEYS[mode] | {"mode"}, f"{mode} mode")
        code, name, report = _MODES[mode](config, Path(out_dir), seed)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PidcertError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if name is not None:
        # encoded once: the file holds the printed text and its newline
        text = json.dumps(report, indent=2, sort_keys=True)
        path = Path(out_dir) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(text)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pidcert",
        description="Gain regions, Lyapunov certificates, and closed-loop audits "
        "for uncertain non-affine plants.",
    )
    parser.add_argument("mode", choices=sorted(_MODES))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=0, help="seed for all sampling")
    parser.add_argument("--out", default="pidcert_out", help="output directory")
    args = parser.parse_args(argv)
    code = run(args.mode, args.config, seed=args.seed, out_dir=args.out)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
