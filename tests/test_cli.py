"""End-to-end tests of the batch CLI: configs in, files and exit codes out."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from pidcert import cli, gain_sets, planar_pi, plant_models

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.json"))


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestGainsMode:
    def test_suggests_member_gains(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "g.json",
            {"kind": "PID", "bounds": {"L1": 1, "L2": 1, "b_lower": 1}, "ki": 1, "margin": 0.0},
        )
        code = cli.run("gains", cfg, out_dir=str(tmp_path / "out"))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["member"] is True
        assert payload["gains"]["kp"] == 7.0
        assert payload["gains"]["kd"] == 7.0
        assert all(v > 0 for v in payload["margins"].values())


class TestCertifyMode:
    def test_writes_certificate(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "kind": "PID",
                "gains": {"kp": 7, "ki": 1, "kd": 7},
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "n": 1,
            },
        )
        out = tmp_path / "out"
        code = cli.run("certify", cfg, seed=5, out_dir=str(out))
        assert code == 0
        saved = json.loads((out / "certificate.json").read_text())
        assert saved["alpha"] > 0
        assert saved["M"] > 0
        assert saved["lambda"] > 0
        assert saved["method"] == "exact"
        assert saved["alpha"] == min(saved["alpha_lower"], saved["alpha_upper"])
        assert 0.0 <= saved["gap"] <= 1e-9

    @pytest.mark.parametrize("n", [0, -2, 2.5, True, "x"])
    def test_bad_dimension_is_usage_error(self, tmp_path, capsys, n):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "kind": "PID",
                "gains": {"kp": 7, "ki": 1, "kd": 7},
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "n": n,
            },
        )
        out = tmp_path / "out"
        assert cli.run("certify", cfg, out_dir=str(out)) == 1
        assert "must be an integer" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()

    def test_non_member_is_usage_error(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {
                "kind": "PID",
                "gains": {"kp": 1, "ki": 1, "kd": 1},
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
            },
        )
        assert cli.run("certify", cfg, out_dir=str(tmp_path / "out")) == 1

    def test_unused_gain_is_usage_error(self, tmp_path, capsys):
        """A PD certificate has no integral term, so a config that sets ki
        is refused rather than certified with a gain that has no effect."""
        cfg = write_config(
            tmp_path, "c.json",
            {
                "kind": "PD",
                "gains": {"kp": 7, "ki": 5, "kd": 7},
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
            },
        )
        out = tmp_path / "out"
        assert cli.run("certify", cfg, out_dir=str(out)) == 1
        assert "'ki'" in capsys.readouterr().err
        assert not (out / "certificate.json").exists()


class TestSimulateMode:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "s.json",
            {
                "plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                "gains": {"kp": 7, "ki": 1, "kd": 7},
                "y_star": 1.5707963267948966,
                "x0": [0.0, 0.0],
                "t_final": 20.0,
                "certify": True,
            },
        )
        out = tmp_path / "out"
        code = cli.run("simulate", cfg, seed=3, out_dir=str(out))
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,i_0,x1_0,x2_0,e_0,edot_0,u_0,V,")
        summary = json.loads((out / "summary.json").read_text())
        assert summary["envelope_pass"] is True
        assert summary["v_nonincreasing"] is True
        assert summary["lambda_emp"] > 0
        stats = summary["integrator"]
        assert stats["nfev"] > 0 and stats["status"] == 0 and stats["cells"] == 1


    def test_out_of_class_plant_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "s.json",
            {
                "plant": {"family": "sinusoidal_scalar", "params": {"c1": 5.0, "c2": 5.0}},
                "bounds": {"L1": 0.01, "L2": 0.01, "b_lower": 1},
                "gains": {"kp": 3.5, "ki": 1, "kd": 3.5},
                "y_star": 1.0,
                "t_final": 5.0,
            },
        )
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out_dir=str(out)) == 2
        assert "out of class" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize(
        "A1,code",
        [
            # rotation by 0.1 rad: orthogonal, but its computed norm is 1 + 2.2e-16
            ([[0.9950041652780258, -0.09983341664682815],
              [0.09983341664682815, 0.9950041652780258]], 0),
            ([[1.000000002, 0.0], [0.0, 0.0]], 2),
        ],
        ids=["orthogonal", "2e-9_past_L1"],
    )
    def test_a_plant_at_the_class_edge(self, tmp_path, capsys, A1, code):
        """A linear plant declares its computed bounds.  The certificate's
        class admits them within BOUND_SLACK = 1e-9, as it admits a frozen
        point: an orthogonal A1 is inside (1, 1, 1), and an A1 of norm
        1 + 2e-9 is out of class."""
        cfg = write_config(
            tmp_path, "s.json",
            {
                "plant": {"family": "linear_matrix", "params": {
                    "A1": A1, "A2": [[0.0, 0.0], [0.0, 0.0]], "Theta": [[1.0, 0.0], [0.0, 1.0]],
                }},
                "bounds": {"L1": 1.0, "L2": 1.0, "b_lower": 1.0},
                "gains": {"kp": 7, "ki": 1, "kd": 7},
                "y_star": [1.0, -0.5],
                "x0": [0.0, 0.0, 0.0, 0.0],
                "t_final": 20.0,
            },
        )
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out_dir=str(out)) == code
        if code == 0:
            assert json.loads((out / "summary.json").read_text())["envelope_pass"] is True
        else:
            assert "out of class" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["rtol", "atol"])
    def test_negative_tolerance_is_usage_error(self, tmp_path, capsys, key):
        config = json.loads((CONFIG_DIR / "simulate_sinusoidal.json").read_text())
        cfg = write_config(tmp_path, "s.json", config | {key: -1e-10})
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out_dir=str(out)) == 1
        sign = ">= 0" if key == "rtol" else "> 0"
        assert capsys.readouterr().err == f"error: {key} must be {sign}\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("certify", ["no", 0, 1, None])
    def test_certify_must_be_a_boolean(self, tmp_path, capsys, certify):
        config = json.loads((CONFIG_DIR / "simulate_sinusoidal.json").read_text())
        cfg = write_config(tmp_path, "s.json", config | {"certify": certify})
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out_dir=str(out)) == 1
        assert "'certify'" in capsys.readouterr().err
        assert not out.exists()

    def test_certify_false_runs_uncertified(self, tmp_path, capsys):
        config = json.loads((CONFIG_DIR / "simulate_sinusoidal.json").read_text())
        cfg = write_config(tmp_path, "s.json", config | {"certify": False, "t_final": 2.0})
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out_dir=str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "certificate" not in summary and "envelope_pass" not in summary

    def test_zero_rtol_runs_at_its_floor(self, tmp_path, capsys):
        """rtol = 0 is raised to 100 eps, so it runs exactly as that value does."""
        config = json.loads((CONFIG_DIR / "simulate_sinusoidal.json").read_text())
        config["t_final"] = 2.0
        files = []
        for rtol in (0.0, 100 * np.finfo(float).eps):
            out = tmp_path / f"out_{rtol}"
            cfg = write_config(tmp_path, "s.json", config | {"rtol": rtol})
            assert cli.run("simulate", cfg, out_dir=str(out)) == 0
            files.append([(out / name).read_bytes() for name in ("trajectory.csv", "summary.json")])
        assert files[0] == files[1]


class TestSweepMode:
    def sweep_config(self, tmp_path):
        return write_config(
            tmp_path, "sw.json",
            {
                "kind": "PID",
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "plants": [
                    {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                    {"family": "linear_matrix", "params": {"A1": [[0.5]], "A2": [[0.5]], "Theta": [[1.0]]}},
                ],
                "gain_sets": [
                    {"kp": 7, "ki": 1, "kd": 7},
                    {"kp": 1, "ki": 1, "kd": 1},
                ],
                "setpoints": [0.5, -1.0],
                "sim": {"t_final": 15.0},
            },
        )

    def test_gating_and_determinism(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        code1 = cli.run("sweep", cfg, seed=11, out_dir=str(out1))
        code2 = cli.run("sweep", cfg, seed=11, out_dir=str(out2))
        assert code1 == 0 and code2 == 0
        csv1 = (out1 / "sweep.csv").read_bytes()
        csv2 = (out2 / "sweep.csv").read_bytes()
        assert csv1 == csv2  # same config and seed, same bytes
        text = csv1.decode()
        rows = text.splitlines()
        # 2 plants x 2 gain sets x 2 setpoints = 8 cells + header + summary
        assert len(rows) == 10
        non_member_rows = [r for r in rows if ",False," in r]
        assert len(non_member_rows) == 4
        for r in non_member_rows:
            cells = r.split(",")
            assert cells[7] == ""  # no alpha for gated cells

    def test_summary_row_reports_pass_fraction(self, tmp_path):
        cfg = self.sweep_config(tmp_path)
        out = tmp_path / "a"
        cli.run("sweep", cfg, seed=1, out_dir=str(out))
        last = (out / "sweep.csv").read_text().splitlines()[-1]
        assert last.startswith("pass_fraction,1.0")

    def test_y_star_cell_keeps_every_component(self, tmp_path):
        """At n = 2 the setpoints [1, 2] and [1, 3] are two different rows:
        each y_star cell holds every component's repr, space-separated; at
        n = 1 it holds the one number."""
        two = write_config(
            tmp_path, "n2.json",
            {
                "kind": "PID",
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "plants": [{"family": "linear_matrix", "params": {
                    "A1": [[0.5, 0.0], [0.0, 0.5]], "A2": [[0.5, 0.0], [0.0, 0.5]],
                    "Theta": [[1.0, 0.0], [0.0, 1.0]],
                }}],
                "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
                "setpoints": [[1, 2], [1, 3]],
                "sim": {"t_final": 2.0},
            },
        )
        cli.run("sweep", two, out_dir=str(tmp_path / "n2"))
        rows = list(csv.DictReader((tmp_path / "n2" / "sweep.csv").open()))
        assert [r["y_star"] for r in rows[:2]] == ["1.0 2.0", "1.0 3.0"]
        cli.run("sweep", self.sweep_config(tmp_path), out_dir=str(tmp_path / "n1"))
        rows = list(csv.DictReader((tmp_path / "n1" / "sweep.csv").open()))
        assert [r["y_star"] for r in rows[:2]] == ["0.5", "-1.0"]


    def test_out_of_class_cell_is_not_a_pass(self, tmp_path, capsys):
        """Bounds (0.01, 0.01, 1) certify gains that a plant with declared
        bounds (5, 5, 1) lies outside of: the cell records the error and the
        sweep fails instead of counting a pass."""
        cfg = write_config(
            tmp_path, "ooc.json",
            {
                "kind": "PID",
                "bounds": {"L1": 0.01, "L2": 0.01, "b_lower": 1},
                "plants": [{"family": "sinusoidal_scalar", "params": {"c1": 5.0, "c2": 5.0}}],
                "gain_sets": [{"kp": 3.5, "ki": 1, "kd": 3.5}],
                "setpoints": [1.0],
                "sim": {"t_final": 20.0},
            },
        )
        out = tmp_path / "out"
        assert cli.run("sweep", cfg, out_dir=str(out)) == 2
        assert "0/1 certified cells passed" in capsys.readouterr().out
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert rows[0]["member"] == "True"
        assert rows[0]["error"].startswith("CertificateError: out of class")
        assert rows[0]["envelope_pass"] == ""
        assert rows[-1]["plant"] == "0.0"  # pass fraction

    def test_cell_at_rest_passes_without_a_fit(self, tmp_path, capsys):
        """y* = 0 and x0 = 0 on a plant with f(0, 0, 0) = 0: the error signal
        is 0 throughout, so there is no decay to fit; the envelope audit and
        the V monitor judge the cell, as in simulate mode."""
        cfg = write_config(
            tmp_path, "rest.json",
            {
                "kind": "PID",
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "plants": [{"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}}],
                "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
                "setpoints": [0.0],
                "x0s": [[0.0, 0.0]],
                "sim": {"t_final": 10.0},
            },
        )
        out = tmp_path / "out"
        assert cli.run("sweep", cfg, out_dir=str(out)) == 0
        assert "1/1 certified cells passed" in capsys.readouterr().out
        row = next(csv.DictReader((out / "sweep.csv").open()))
        assert row["envelope_pass"] == row["v_nonincreasing"] == "True"
        assert row["min_margin"] == "0.0"
        assert row["lambda_emp"] == row["M_emp"] == ""
        assert row["error"] == ""

    CELL = {
        "kind": "PID",
        "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
        "plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
        "gains": {"kp": 7, "ki": 1, "kd": 7},
        "y_star": 0.5,
        "x0": [1.0, -0.5],
        "sim": {"t_final": 15.0},
    }

    def one_cell_sweep(self, tmp_path):
        c = self.CELL
        return write_config(
            tmp_path, "one.json",
            {
                "kind": c["kind"], "bounds": c["bounds"], "plants": [c["plant"]],
                "gain_sets": [c["gains"]], "setpoints": [c["y_star"]], "x0s": [c["x0"]],
                "sim": c["sim"],
            },
        )

    def test_a_cell_gets_the_verdict_of_simulate(self, tmp_path, capsys):
        """A one-cell sweep and the simulate run of the same cell report the
        same six verdict fields, and sweep.csv writes them as csv writes the
        numbers of summary.json."""
        c = self.CELL
        sim_cfg = write_config(
            tmp_path, "s.json",
            {k: v for k, v in c.items() if k != "sim"} | c["sim"],
        )
        assert cli.run("simulate", sim_cfg, out_dir=str(tmp_path / "s")) == 0
        assert cli.run("sweep", self.one_cell_sweep(tmp_path), out_dir=str(tmp_path / "w")) == 0
        summary = json.loads((tmp_path / "s" / "summary.json").read_text())
        row = next(csv.DictReader((tmp_path / "w" / "sweep.csv").open()))
        assert summary["lambda_emp"] is not None
        fields = ("envelope_pass", "min_margin", "first_violation_time",
                  "v_nonincreasing", "lambda_emp", "M_emp")
        for k in fields:
            assert row[k] == ("" if summary[k] is None else str(summary[k])), k
        assert row["alpha"] == str(summary["certificate"]["alpha"])
        assert row["lambda"] == str(summary["certificate"]["lambda"])

    def test_rising_v_fails_the_cell(self, tmp_path, capsys, monkeypatch):
        """A cell whose V monitor reports an increase fails although its
        envelope holds."""
        real = cli.sim.lyapunov_monitor
        monkeypatch.setattr(
            cli.sim, "lyapunov_monitor",
            lambda traj: dataclasses.replace(real(traj), nonincreasing_pass=False),
        )
        out = tmp_path / "out"
        assert cli.run("sweep", self.one_cell_sweep(tmp_path), out_dir=str(out)) == 2
        assert "0/1 certified cells passed" in capsys.readouterr().out
        row = next(csv.DictReader((out / "sweep.csv").open()))
        assert row["envelope_pass"] == "True"
        assert row["v_nonincreasing"] == "False"
        assert row["error"] == ""


    @pytest.mark.parametrize(
        "change,message",
        [
            ({"sim": {"atol": -1e-10}}, "sweep mode: sim: atol must be > 0"),
            ({"sim": {"t_final": -1}}, "sweep mode: sim: t_final must be > 0"),
            ({"sim": {"integrator": "euler"}}, "sweep mode: sim: unknown integrator 'euler'"),
            (
                {"plants": [{"family": "sinusoidal_scalar", "params": {"order": "first_order"}}]},
                "sweep mode: plants[0]: PID control needs a second-order plant",
            ),
            (
                {
                    "plants": [
                        {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                        {"family": "sinusoidal_scalar", "params": {"order": "first_order"}},
                    ]
                },
                "sweep mode: plants[1]: PID control needs a second-order plant",
            ),
        ],
        ids=["atol", "t_final", "integrator", "plant-order", "second-plant-order"],
    )
    def test_bad_run_setting_is_one_config_error(self, tmp_path, capsys, change, message):
        """A sweep-wide setting is checked once, before any cell: exit 1 and
        nothing written, not one failed row per cell."""
        config = json.loads((CONFIG_DIR / "sweep_small.json").read_text())
        cfg = write_config(tmp_path, "bad.json", config | change)
        out = tmp_path / "out"
        assert cli.run("sweep", cfg, out_dir=str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_failing_cell_is_rerun_alone(self, tmp_path, monkeypatch):
        """The plant returns NaN once the velocity passes 1.5, which only the
        y* = 3 cell reaches (its peak is 2.3, the others' 0.8 or less): the
        stacked run raises, the cells run again one at a time, and only that
        row carries the PlantError."""
        build = cli.pm.build_family

        def nan_when_fast(family, params=None):
            plant = build(family, params)
            f = plant.f
            plant.f = lambda x1, x2, u: np.where(x2 > 1.5, np.nan, f(x1, x2, u))
            return plant

        sizes = []
        real = cli.sim.simulate_batch
        monkeypatch.setattr(cli.pm, "build_family", nan_when_fast)
        monkeypatch.setattr(
            cli.sim, "simulate_batch", lambda cells: sizes.append(len(cells)) or real(cells)
        )
        cfg = write_config(
            tmp_path, "nan.json",
            {
                "kind": "PID",
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "plants": [{"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}}],
                "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
                "setpoints": [0.5, 3.0, -1.0],
                "sim": {"t_final": 10.0},
            },
        )
        out = tmp_path / "out"
        assert cli.run("sweep", cfg, out_dir=str(out)) == 2
        rows = list(csv.DictReader((out / "sweep.csv").open()))[:-1]
        assert sizes == [3, 1, 1, 1]
        assert [r["envelope_pass"] for r in rows] == ["True", "", "True"]
        assert rows[1]["error"].startswith("PlantError: plant returned non-finite value")
        assert rows[0]["error"] == rows[2]["error"] == ""

    def test_precheck_failure_stays_out_of_the_batch(self, tmp_path, monkeypatch):
        """PD at y* = 1 on sin(x1) is not an uncontrolled equilibrium: that
        cell records the usage error, and the other two share one run."""
        sizes = []
        real = cli.sim.simulate_batch
        monkeypatch.setattr(
            cli.sim, "simulate_batch", lambda cells: sizes.append(len(cells)) or real(cells)
        )
        cfg = write_config(
            tmp_path, "pd.json",
            {
                "kind": "PD",
                "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                "plants": [{"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}}],
                "gain_sets": [{"kp": 8, "kd": 8}],
                "setpoints": [0.0, 1.0],
                "x0s": [[0.5, 0.0], [-0.5, 0.2]],
                "sim": {"t_final": 10.0},
            },
        )
        out = tmp_path / "out"
        assert cli.run("sweep", cfg, out_dir=str(out)) == 2
        rows = list(csv.DictReader((out / "sweep.csv").open()))[:-1]
        assert sizes == [2]
        assert [r["envelope_pass"] for r in rows] == ["True", "True", "", ""]
        assert all(r["error"].startswith("UsageError: PD envelope") for r in rows[2:])


class TestPlanarMode:
    def test_jacobian_conditions(self, tmp_path):
        cfg = write_config(
            tmp_path, "p.json",
            {
                "plant": {"family": "sinusoidal_scalar", "params": {"order": "first_order", "c1": 1.0}},
                "gains": {"kp": 2, "ki": 1},
                "y_star": 0.5,
                "grid": {"radius": 20, "points": 21},
            },
        )
        out = tmp_path / "out"
        assert cli.run("planar", cfg, out_dir=str(out)) == 0
        payload = json.loads((out / "planar.json").read_text())
        assert payload["jacobian_conditions"]["sufficiency"] is True

    def test_audit_extreme_points_map_back_to_grid_points(self, tmp_path):
        """Each extreme point (x, u) of the audit is the plant argument of a
        grid point (z0, z1), and the plant's Jacobians there are the
        recorded extremes."""
        params = {"order": "first_order", "c1": 1.0, "b_lower": 1.0}
        config = {
            "plant": {"family": "nonaffine_cubic_u", "params": params},
            "gains": {"kp": 2, "ki": 1},
            "y_star": 0.5,
            "grid": {"radius": 20, "points": 21},
        }
        out = tmp_path / "out"
        assert cli.run("planar", write_config(tmp_path, "p.json", config), out_dir=str(out)) == 0
        audit = json.loads((out / "planar.json").read_text())["jacobian_conditions"]["audit"]
        plant = plant_models.build_family("nonaffine_cubic_u", params)
        field = planar_pi.PlanarField.build(plant, gain_sets.GainVector("PI", 2, 1), 0.5)
        axis = np.linspace(-20.0, 20.0, 21)
        for key in ("max_norm_jac_x1", "min_sym_jac_u", "max_fd_rel_error"):
            x, u = np.array(audit[f"{key}_point"]["x"]), np.array(audit[f"{key}_point"]["u"])
            z1 = field.y_star - x[0]
            z0 = u[0] - field.u_star - 2.0 * z1
            assert np.min(np.abs(axis - z1)) < 1e-12 and np.min(np.abs(axis - z0)) < 1e-12
        x, u = (np.array(audit["max_norm_jac_x1_point"][a]) for a in ("x", "u"))
        assert abs(plant.jac_x1(x, u)[0, 0]) == audit["max_norm_jac_x1"]
        x, u = (np.array(audit["min_sym_jac_u_point"][a]) for a in ("x", "u"))
        assert plant.jac_u(x, u)[0, 0] == audit["min_sym_jac_u"]

    def test_refuted_gains_exit_two_and_name_the_linear_member(self, tmp_path):
        config = {
            "plant": {"family": "sinusoidal_scalar", "params": {"order": "first_order", "c1": 1.0}},
            "gains": {"kp": 1, "ki": 1},
        }
        out = tmp_path / "out"
        assert cli.run("planar", write_config(tmp_path, "p.json", config), out_dir=str(out)) == 2
        report = json.loads((out / "planar.json").read_text())["jacobian_conditions"]
        assert report["sufficiency"] is False and report["audit"]["passes"] is True
        member = report["linear_member"]
        assert (member["a"], member["theta"]) == (1.0, 1.0)
        assert abs(member["max_re_eigenvalue"]) < 1e-12

    def test_failed_audit_exits_two_and_names_the_point(self, tmp_path, monkeypatch):
        """A plant that declares b = 2 but has df/du = 1 fails the audit."""
        build = plant_models.build_family

        def overclaiming(family, params):
            plant = build(family, params)
            return dataclasses.replace(
                plant, declared_bounds=gain_sets.UncertaintyBounds.first_order(1.0, 2.0)
            )

        monkeypatch.setattr(plant_models, "build_family", overclaiming)
        config = {
            "plant": {"family": "sinusoidal_scalar", "params": {"order": "first_order", "c1": 1.0}},
            "gains": {"kp": 2, "ki": 1},
            "grid": {"radius": 4, "points": 3},
        }
        out = tmp_path / "out"
        assert cli.run("planar", write_config(tmp_path, "p.json", config), out_dir=str(out)) == 2
        report = json.loads((out / "planar.json").read_text())["jacobian_conditions"]
        assert report["sufficiency"] is False and report["linear_member"] is None
        assert report["audit"]["passes"] is False
        assert report["audit"]["min_sym_jac_u"] == 1.0
        assert report["audit"]["min_sym_jac_u_point"] == {"x": [4.0], "u": [-12.0]}

    def test_necessity_case(self, tmp_path):
        cfg = write_config(
            tmp_path, "p.json",
            {
                "bounds": {"L": 1, "b_lower": 1},
                "gains": {"kp": 0.5, "ki": 1},
                "y_star": 0.0,
                "necessity": {"case": "unstable_linear"},
            },
        )
        out = tmp_path / "out"
        assert cli.run("planar", cfg, out_dir=str(out)) == 0
        payload = json.loads((out / "planar.json").read_text())
        assert abs(payload["necessity"]["max_re_eigenvalue"] - 0.25) < 1e-9

    def test_necessity_case_records_its_setpoint(self, tmp_path):
        config = json.loads((CONFIG_DIR / "planar_necessity.json").read_text())
        reports = []
        for y_star in (0.0, 7.0):
            out = tmp_path / f"out_{y_star}"
            cfg = write_config(tmp_path, "p.json", config | {"y_star": y_star})
            assert cli.run("planar", cfg, out_dir=str(out)) == 0
            reports.append((out / "planar.json").read_bytes())
        assert reports[0] != reports[1]
        necessity = [json.loads(r)["necessity"] for r in reports]
        assert [n["y_star"] for n in necessity] == [0.0, 7.0]
        assert necessity[0] | {"y_star": 7.0} == necessity[1]


class TestVerifyClassMode:
    def test_passing_plant(self, tmp_path):
        cfg = write_config(
            tmp_path, "v.json",
            {
                "plant": {"family": "nonaffine_cubic_u", "params": {"c1": 1.0, "c2": 1.0, "b_lower": 1.0}},
                "samples": 200,
            },
        )
        assert cli.run("verify-class", cfg, out_dir=str(tmp_path / "out")) == 0

    def test_failing_claim_exits_two(self, tmp_path):
        # a plant built with honest bounds, then audited against a config that
        # relabels them, must fail; easiest route: custom family is not
        # configurable here, so check the exit path via an unstable claim
        cfg = write_config(
            tmp_path, "v.json",
            {"plant": {"family": "nope"}, "samples": 10},
        )
        assert cli.run("verify-class", cfg, out_dir=str(tmp_path / "out")) == 1


    def test_records_the_points_of_the_extremes(self, tmp_path):
        cfg = write_config(
            tmp_path, "v.json",
            {"plant": {"family": "sinusoidal_scalar", "params": {"c1": 0.8, "c2": 0.5}}, "samples": 100},
        )
        out = tmp_path / "out"
        assert cli.run("verify-class", cfg, out_dir=str(out)) == 0
        payload = json.loads((out / "validation.json").read_text())
        for key in ("max_norm_jac_x1", "max_norm_jac_x2", "min_sym_jac_u", "max_fd_rel_error"):
            point = payload[key + "_point"]
            assert sorted(point) == ["u", "x1", "x2"]
            assert all(len(v) == 1 and abs(v[0]) <= 10.0 for v in point.values())
        x1 = payload["max_norm_jac_x1_point"]["x1"][0]
        assert abs(0.8 * np.cos(x1)) == payload["max_norm_jac_x1"]

    def test_nonfinite_jacobian_exits_two_and_names_the_point(self, tmp_path, capsys, monkeypatch):
        """A NaN Jacobian is a failed audit (exit 2), not a usage error."""
        build = cli.pm.build_family

        def nan_jacobian(family, params):
            plant = build(family, params)
            good = plant.jac_x1
            plant.jac_x1 = lambda x1, x2, u: np.where(x1[..., None] > 5.0, np.nan, good(x1, x2, u))
            return plant

        monkeypatch.setattr(cli.pm, "build_family", nan_jacobian)
        cfg = write_config(
            tmp_path, "v.json",
            {"plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0}}, "samples": 200},
        )
        out = tmp_path / "out"
        assert cli.run("verify-class", cfg, out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert "PlantError: jac_x1 returned non-finite value at (array([" in err
        assert not (out / "validation.json").exists()

    @pytest.mark.parametrize(
        "plant,keys",
        [
            ({"family": "sinusoidal_scalar", "params": {"c1": 1.0, "C2": 5.0}}, ["'C2'"]),
            ({"family": "linear_matrix", "params": {"order": "first_order"}}, ["'A'", "'Theta'"]),
        ],
    )
    def test_bad_plant_params_are_usage_errors(self, tmp_path, capsys, plant, keys):
        cfg = write_config(tmp_path, "v.json", {"plant": plant, "samples": 10})
        out = tmp_path / "out"
        assert cli.run("verify-class", cfg, out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert all(k in err for k in keys)
        assert not (out / "validation.json").exists()


class TestErrorPaths:
    def test_missing_config(self, tmp_path):
        assert cli.run("gains", str(tmp_path / "none.json")) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run("gains", str(path)) == 1

    def test_wrong_declared_mode(self, tmp_path):
        cfg = write_config(tmp_path, "m.json", {"mode": "certify"})
        assert cli.run("gains", cfg) == 1

    def test_missing_field_diagnostics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "m.json", {"kind": "PID", "bounds": {"L1": 1}})
        assert cli.run("gains", cfg) == 1
        err = capsys.readouterr().err
        assert "bounds" in err or "b_lower" in err

    @pytest.mark.parametrize(
        "mode, text, message",
        [
            ("bogus", None, "unknown mode 'bogus'"),
            ("gains", None, "config file not found: {path}"),
            (
                "gains",
                "{not json",
                "malformed JSON in {path}: Expecting property name enclosed in "
                "double quotes: line 1 column 2 (char 1)",
            ),
            ("gains", "[1, 2]", "config root must be a JSON object"),
            (
                "gains",
                '{"mode": "certify"}',
                "config declares mode 'certify' but 'gains' was requested",
            ),
        ],
        ids=["unknown-mode", "missing-file", "malformed-json", "non-object-root", "mode-mismatch"],
    )
    def test_config_file_error_is_one_usage_line(self, tmp_path, capsys, mode, text, message):
        """Each error in reading the config file prints one line on stderr,
        nothing on stdout, writes nothing and exits 1."""
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "out"
        assert cli.run(mode, str(path), out_dir=str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message.format(path=path)}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_main_entry_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "g.json",
            {"kind": "PD", "bounds": {"L1": 1, "L2": 1, "b_lower": 1}},
        )
        code = cli.main(["gains", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0


class TestUnknownKeys:
    """A key no mode reads is a usage error that names it; nothing runs."""

    CERTIFY = {
        "kind": "PID",
        "gains": {"kp": 7, "ki": 1, "kd": 7},
        "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
    }

    def test_removed_certificate_settings(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            self.CERTIFY | {"safety": 0.5, "samples": 10, "strategy": "schur_chain"},
        )
        out = tmp_path / "out"
        assert cli.run("certify", cfg, out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert "'safety'" in err and "'samples'" in err and "'strategy'" in err
        assert not (out / "certificate.json").exists()

    def test_misspelled_horizon(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "s.json",
            {
                "plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                "gains": {"kp": 7, "ki": 1, "kd": 7},
                "tfinal": 3.0,
            },
        )
        out = tmp_path / "out"
        assert cli.run("simulate", cfg, out_dir=str(out)) == 1
        assert "'tfinal'" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_misspelled_gain(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", self.CERTIFY | {"gains": {"kp": 7, "KI": 1, "kd": 7}}
        )
        assert cli.run("certify", cfg, out_dir=str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert "'KI'" in err and "ki_positive" not in err

    @pytest.mark.parametrize(
        "mode,config,key",
        [
            ("certify", CERTIFY | {"bounds": {"L1": 1, "L2": 1, "b_lower": 1, "L": 1}}, "'L1'"),
            ("gains", {"bounds": {"L": 1, "b_lower": 1, "b_upper": 2}}, "'b_upper'"),
            ("sweep", {"sim": {"t_final": 1.0, "dtmax": 0.1}}, "'dtmax'"),
        ],
    )
    def test_nested_nodes(self, tmp_path, capsys, mode, config, key):
        cfg = write_config(tmp_path, "n.json", config)
        assert cli.run(mode, cfg, out_dir=str(tmp_path / "out")) == 1
        assert key in capsys.readouterr().err

    PLANAR_GRID = {
        "plant": {"family": "sinusoidal_scalar", "params": {"order": "first_order", "c1": 1.0}},
        "gains": {"kp": 2, "ki": 1},
        "grid": {"radius": 20, "points": 41},
    }

    @pytest.mark.parametrize(
        "config,keys",
        [
            # a grid run audits the plant's own declared bounds
            (PLANAR_GRID | {"bounds": {"L": 100, "b_lower": 1}}, ["'bounds'"]),
            # a necessity case builds its own plant and has no grid
            (
                {
                    "bounds": {"L": 1, "b_lower": 1},
                    "gains": {"kp": 0.5, "ki": 1},
                    "necessity": {"case": "unstable_linear"},
                    "plant": {"family": "bogus"},
                    "grid": {"radius": 20},
                },
                ["'grid'", "'plant'"],
            ),
            (PLANAR_GRID | {"grid": {"radius": 0}}, ["radius"]),
        ],
        ids=["grid-bounds", "necessity-plant-grid", "grid-radius-zero"],
    )
    def test_planar_branch_reads_every_key_it_accepts(self, tmp_path, capsys, config, keys):
        out = tmp_path / "out"
        assert cli.run("planar", write_config(tmp_path, "p.json", config), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and all(k in err for k in keys)
        assert not (out / "planar.json").exists()


class TestNonNumericValues:
    """A value that is not a number is a usage error naming its key; nothing
    is written."""

    @pytest.mark.parametrize(
        "mode,config,named,output",
        [
            (
                "simulate",
                {
                    "plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                    "gains": {"kp": 7, "ki": 1, "kd": 7},
                    "t_final": "long",
                },
                "'t_final'",
                "summary.json",
            ),
            (
                "verify-class",
                {"plant": {"family": "sinusoidal_scalar", "params": {"c1": "one"}}},
                "'sinusoidal_scalar'",
                "validation.json",
            ),
            (
                "sweep",
                {
                    "bounds": {"L1": 1, "L2": 1, "b_lower": 1},
                    "plants": [{"family": "sinusoidal_scalar", "params": {}}],
                    "gain_sets": [{"kp": 7, "ki": "1", "kd": "seven"}],
                    "setpoints": [0.0],
                },
                "'kd'",
                "sweep.csv",
            ),
            ("certify", {"bounds": {"L1": 1, "L2": [1], "b_lower": 1}}, "'L2'", "certificate.json"),
            # a plant matrix is one square matrix, not a stack
            (
                "verify-class",
                {
                    "plant": {
                        "family": "linear_matrix",
                        "params": {"A1": [[[0.5]]], "A2": [[0.0]], "Theta": [[1.0]]},
                    }
                },
                "'A1'",
                "validation.json",
            ),
            # a value the library would default, when set, is read by the same rule
            (
                "verify-class",
                {"plant": {"family": "sinusoidal_scalar", "params": {}}, "samples": 2.5},
                "verify-class mode: 'samples'",
                "validation.json",
            ),
            (
                "gains",
                {"bounds": {"L1": 1, "L2": 1, "b_lower": 1}, "margin": "wide"},
                "gains mode: 'margin'",
                "gains.json",
            ),
            # every entry of a setpoint or initial state is read by the rule of
            # a number, and a sweep checks all of them before any cell runs
            (
                "simulate",
                {
                    "plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                    "gains": {"kp": 7, "ki": 1, "kd": 7},
                    "x0": [float("nan"), 0.0],
                },
                "x0",
                "summary.json",
            ),
            (
                "simulate",
                {
                    "plant": {"family": "sinusoidal_scalar", "params": {"c1": 1.0, "c2": 1.0}},
                    "gains": {"kp": 7, "ki": 1, "kd": 7},
                    "y_star": float("nan"),
                },
                "y_star",
                "summary.json",
            ),
            (
                "sweep",
                {
                    "plants": [{"family": "sinusoidal_scalar", "params": {}}],
                    "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
                    "setpoints": [0.0],
                    "x0s": [[float("nan"), 0.0]],
                },
                "x0s",
                "sweep.csv",
            ),
            (
                "sweep",
                {
                    "plants": [{"family": "sinusoidal_scalar", "params": {}}],
                    "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
                    "setpoints": [float("nan"), 0.5],
                },
                "setpoints",
                "sweep.csv",
            ),
            (
                "sweep",
                {
                    "plants": [{"family": "sinusoidal_scalar", "params": {}}],
                    "gain_sets": [{"kp": 7, "ki": 1, "kd": 7}],
                    "setpoints": [[0.5, 1.0], 0.5],
                },
                "setpoints",
                "sweep.csv",
            ),
            # JSON's Infinity and NaN parse as floats, but they are not numbers
            # a bound can take
            (
                "certify",
                {"bounds": {"L1": 1, "L2": 1, "b_lower": float("inf")}, "gains": {"kp": 7, "ki": 1, "kd": 7}},
                "'b_lower'",
                "certificate.json",
            ),
            (
                "certify",
                {"bounds": {"L1": float("nan"), "L2": 1, "b_lower": 1}, "gains": {"kp": 7, "ki": 1, "kd": 7}},
                "'L1'",
                "certificate.json",
            ),
        ],
    )
    def test_usage_error(self, tmp_path, capsys, mode, config, named, output):
        cfg = write_config(tmp_path, "v.json", config)
        out = tmp_path / "out"
        assert cli.run(mode, cfg, out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (out / output).exists()


REPORTS = {
    "gains": "gains.json",
    "certify": "certificate.json",
    "simulate": "summary.json",
    "planar": "planar.json",
    "verify-class": "validation.json",
}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(path, tmp_path, capsys):
    """Every config under scripts/configs runs in its declared mode and
    passes; a mode with a JSON report echoes exactly what it writes, and a
    sweep writes one row per cell and a pass fraction of 1."""
    config = json.loads(path.read_text())
    mode = config["mode"]
    out = tmp_path / "out"
    assert cli.run(mode, str(path), out_dir=str(out)) == 0
    if mode in REPORTS:
        assert capsys.readouterr().out.encode() == (out / REPORTS[mode]).read_bytes()
    if mode == "sweep":
        *cells, last = csv.DictReader((out / "sweep.csv").open())
        n_cells = np.prod([len(config.get(k, [None])) for k in SWEEP_AXES])
        assert [r["cell"] for r in cells] == [str(k) for k in range(n_cells)]
        assert (last["cell"], last["plant"]) == ("pass_fraction", "1.0")


def test_every_json_report_mode_has_a_shipped_config():
    """test_shipped_config_runs then checks every report byte for byte;
    sweep is the one mode without a JSON report."""
    assert set(REPORTS) == set(cli._MODES) - {"sweep"}
    assert set(REPORTS) <= {json.loads(p.read_text())["mode"] for p in SHIPPED_CONFIGS}


SWEEP_AXES = ("plants", "gain_sets", "setpoints", "x0s")
UNIT_BOUNDS = gain_sets.UncertaintyBounds(1.0, 1.0, 1.0)


def shipped_gains(name):
    config = json.loads((CONFIG_DIR / name).read_text())
    return [gain_sets.GainVector(config["kind"], **g) for g in config["gain_sets"]]


def test_grid_config_gains_are_the_design_formula():
    """The grid sweep's gain sets are suggest_gains' PID triples for the
    bounds (1, 1, 1) at ki = 0.5, 1 and 2, to the last bit."""
    want = [gain_sets.suggest_gains("PID", UNIT_BOUNDS, ki=k) for k in (0.5, 1.0, 2.0)]
    assert shipped_gains("sweep_envelope_grid.json") == want


def test_robustness_config_gains_are_the_scaled_triple():
    """The robustness sweep's gain sets are the ki = 1 triple scaled by 1, 2,
    5 and 20: the region is closed under scaling by any factor >= 1."""
    g = gain_sets.suggest_gains("PID", UNIT_BOUNDS, ki=1.0)
    want = [g.scaled(a) for a in (1.0, 2.0, 5.0, 20.0)]
    assert shipped_gains("sweep_robustness.json") == want
