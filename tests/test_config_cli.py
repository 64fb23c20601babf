import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from kwavelab.cli import _write_csv, main
from kwavelab.config import ConfigError, ExperimentConfig

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONFIG_DIR = os.path.join(ROOT, "configs")

SMALL_MODEL = """
seed = 0
model.dim = 1
model.lambda = 0.1
model.g.kind = cubic_soft
model.h.kind = separable
model.h.amplitude = 0.5
model.h.rate = 0.5
model.h.sigma = 1.0
disc.n_modes = 8
disc.dt = 0.005
disc.t_start = 0.0
disc.t_end = 5.0
disc.record_every = 10
ic.kind = mode
ic.u_amp = 0.5
energy.rho = 1.0
energy.chi = 0.1
energy.c0 = 0.0
energy.c4 = 1.0
attractor.n_points = 8
attractor.taus = 4, 8
attractor.t_star = 0.0
attractor.deltas = 0.2, 0.1, 0.0
attractor.dt = 0.005
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fixture_cfg(name):
    return os.path.join(CONFIG_DIR, name)


class TestConfigParsing:
    def test_load_shipped_fixture(self):
        cfg = ExperimentConfig.load(fixture_cfg("linear.cfg"))
        assert cfg.model.dim == 1
        assert cfg.basis.modes_per_dim == 32
        assert cfg.step.dt == 1e-3

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL + "\nmodel.bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            ExperimentConfig.load(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, "model.dim = 1\n")
        with pytest.raises(ConfigError, match="missing required"):
            ExperimentConfig.load(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL.replace("disc.dt = 0.005",
                                                       "disc.dt = banana"))
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.load(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL + "\nseed = 1\n")
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.load(path)

    def test_overrides(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL)
        cfg = ExperimentConfig.load(path, out="elsewhere", threads=3, seed=99)
        assert cfg.out_dir == "elsewhere" and cfg.threads == 3 and cfg.seed == 99


class TestExitCodes:
    def test_validate_good_fixture_exit_0(self, tmp_path):
        code = main(["validate", "--config", fixture_cfg("linear.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "hypotheses.json").read_text())
        assert report["all_passed"]

    def test_validate_increasing_epsilon_exit_1(self, tmp_path):
        code = main(["validate", "--config", fixture_cfg("eps_increasing.cfg"),
                     "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "hypotheses.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        assert "epsilon_monotone" in failed

    def test_missing_key_exit_2(self, tmp_path):
        path = write_cfg(tmp_path, "model.dim = 1\n")
        assert main(["validate", "--config", path]) == 2

    def test_removed_output_formats_key_exit_2(self, tmp_path, capsys):
        # every removed key: output.formats, disc.scheme (one scheme left),
        # energy.xi (no command evaluates the difference functional it sets)
        # and the constant energy.slack_factor
        for line in ("output.formats = csv,json", "disc.scheme = imex2", "energy.xi = 0.1",
                     "energy.slack_factor = 10"):
            path = write_cfg(tmp_path, SMALL_MODEL + line + "\n")
            assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2
            assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [("model.g.kind = cubic_soft", "model.g.kind = user_table"),
                                         ("model.h.kind = separable", "model.h.kind = modal_table")])
    def test_tabulated_kinds_exit_2(self, tmp_path, capsys, old, new):
        path = write_cfg(tmp_path, SMALL_MODEL.replace(old, new))
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_unreadable_config_exit_2(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_feasibility_empty_exit_1(self, tmp_path):
        code = main(["feasibility", "--config", fixture_cfg("infeasible.cfg"),
                     "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "feasibility.json").read_text())
        assert report["empty"] and report["binding_kill"] == "rho_max_mass_ratio"

    def test_feasibility_linear_fixture_exit_0(self, tmp_path):
        # linear.cfg sets sigma1 = 0.1, which the scan's probe must not take
        code = main(["feasibility", "--config", fixture_cfg("linear.cfg"),
                     "--out", str(tmp_path)])
        assert code == 0
        assert not json.loads((tmp_path / "feasibility.json").read_text())["empty"]

    def test_pullback_tau_off_the_step_grid_exit_2(self, tmp_path, capsys):
        # 0.0625 / 0.005 = 12.5 steps; the sweep integrates only tau_max = 0.25
        path = write_cfg(tmp_path, SMALL_MODEL.replace("attractor.taus = 4, 8",
                                                       "attractor.taus = 0.0625, 0.25"))
        assert main(["pullback", "--config", path, "--out", str(tmp_path / "p")]) == 2
        assert "tau = 0.0625" in capsys.readouterr().err
        assert main(["semicontinuity", "--config", path, "--out", str(tmp_path / "s")]) == 0

    @pytest.mark.parametrize("command,t", [("pullback", -5), ("semicontinuity", -20)])
    def test_nonpositive_epsilon_at_leg_start_exit_2(self, tmp_path, capsys, command, t):
        # eps(t) = 1 - 0.5 exp(-t) < 0 at the start of the first leg integrated
        code = main([command, "--config", fixture_cfg("eps_increasing.cfg"),
                     "--out", str(tmp_path)])
        assert code == 2
        assert f"<= 0 at t = {t}," in capsys.readouterr().err

    @pytest.mark.parametrize("command,case", [
        ("simulate", "eps_sample"), ("simulate", "eps_mode"),
        ("decompose", "eps_sample"), ("decompose", "eps_mode"),
        ("pullback", "negative_delta"), ("semicontinuity", "negative_delta"),
        ("pullback", "empty_deltas"), ("semicontinuity", "empty_deltas"),
        ("pullback", "repeated_delta"), ("semicontinuity", "repeated_delta"),
        ("validate", "h_mode"), ("simulate", "h_mode"), ("decompose", "h_mode"),
        ("pullback", "h_mode"), ("semicontinuity", "h_mode")])
    def test_unrunnable_config_exit_2(self, tmp_path, capsys, command, case):
        # eps(t) = 1 - 0.5 exp(-t) < 0 at disc.t_start = -1; a negative,
        # empty or repeated delta list; a forcing mode outside the 8-mode basis
        deltas = {"negative_delta": "0.2, -0.1, 0.0", "empty_deltas": ",",
                  "repeated_delta": "0.1, 0.1, 0.0"}
        if case.startswith("eps"):
            with open(fixture_cfg("eps_increasing.cfg")) as fh:
                text = fh.read().replace("disc.t_start = 0.0", "disc.t_start = -1.0")
            text += ("ic.kind = sample\n" if case == "eps_sample"
                     else "ic.kind = mode\nic.u_amp = 0.5\n")
            message = "<= 0 at t = -1,"
        elif case in deltas:
            text = SMALL_MODEL.replace("attractor.deltas = 0.2, 0.1, 0.0",
                                       f"attractor.deltas = {deltas[case]}")
            message = "attractor.deltas must be nonnegative, distinct and nonempty"
        else:
            text = SMALL_MODEL + "model.h.mode = 9\n"
            message = "model.h.mode 9 outside basis of 8 modes"
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize("command,line,message", [
        ("simulate", "disc.t_end = 0.0", "disc.t_end = 0 must exceed disc.t_start = 0"),
        ("decompose", "disc.t_end = 0.0", "disc.t_end = 0 must exceed disc.t_start = 0"),
        ("feasibility", "energy.grid_n = -3", "energy.grid_n = -3 must be at least 1"),
        ("feasibility", "energy.grid_n = 0", "energy.grid_n = 0 must be at least 1"),
        # the scan box is the constants RHO_MAX and CHI_MAX: setting either is an unknown key
        pytest.param("feasibility", "energy.chi_max = 0", "unknown key 'energy.chi_max'",
                     id="feasibility-energy.chi_max = 0-energy.chi_max is a constant"),
        pytest.param("feasibility", "energy.rho_max = -1", "unknown key 'energy.rho_max'",
                     id="feasibility-energy.rho_max = -1-energy.rho_max is a constant"),
        ("pullback", "attractor.dt = 0", "attractor.dt = 0 must be positive"),
        ("semicontinuity", "attractor.dt = -0.005", "attractor.dt = -0.005 must be positive"),
        *((command, line, message) for command in ("validate", "feasibility", "simulate")
          for line, message in (
              ("attractor.sampling = bogus", "unknown sampling 'bogus'"),
              ("attractor.n_points = 0", "need at least one ensemble member"),
              ("attractor.taus = 3, 1", "taus must be positive, strictly increasing"),
              ("attractor.taus = ,", "taus must be positive, strictly increasing"))),
        *((command, line, message) for command in ("validate", "feasibility", "pullback")
          for line, message in (("ic.kind = bogus", "unknown ic.kind 'bogus'"),
                                ("ic.mode = 9", "ic.mode 9 outside basis of 8 modes")))])
    def test_unrunnable_value_exit_2(self, tmp_path, capsys, command, line, message):
        # a run of no steps; an empty grid; a scan-box bound that is no longer
        # a key; a pullback step that is not positive; an ensemble or initial state that no command could build,
        # rejected by every command, including those that do not use it
        key = line.split(" = ")[0]
        pattern = rf"^{re.escape(key)} = .*$"
        text = (re.sub(pattern, line, SMALL_MODEL, flags=re.M)
                if re.search(pattern, SMALL_MODEL, flags=re.M) else SMALL_MODEL + line + "\n")
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize("threads", [0, -2])
    def test_nonpositive_threads_key_exit_2(self, tmp_path, capsys, threads):
        path = write_cfg(tmp_path, SMALL_MODEL + f"threads = {threads}\n")
        assert main(["pullback", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert f"threads = {threads} must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [0, -2])
    def test_nonpositive_threads_flag_exit_2(self, tmp_path, capsys, threads):
        path = write_cfg(tmp_path, SMALL_MODEL)
        assert main(["semicontinuity", "--config", path, "--out", str(tmp_path / "o"),
                     "--threads", str(threads)]) == 2
        assert f"threads = {threads} must be at least 1" in capsys.readouterr().err

    def test_blowup_exit_3(self, tmp_path, capsys):
        text = SMALL_MODEL.replace("disc.dt = 0.005", "disc.dt = 0.5")
        text = text.replace("ic.u_amp = 0.5", "ic.u_amp = 1e6")
        text += "model.delta = 1.0\n"
        path = write_cfg(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 3
        assert re.fullmatch(r"numerical failure: non-finite state at t = \S+ \(mode \d+\)\n",
                            capsys.readouterr().err)


class TestCsvWriter:
    def test_exact_text_and_bitwise_round_trip(self, tmp_path):
        row = (float("nan"), math.inf, -math.inf, -0.0, 5e-324, 1 / 3, np.float64(2.0) / 3)
        path = tmp_path / "rows.csv"
        _write_csv(str(path), list("abcdefg"), [row, row])
        text = ("nan,inf,-inf,-0,4.9406564584124654e-324,"
                "0.33333333333333331,0.66666666666666663\n")
        assert path.read_text() == "a,b,c,d,e,f,g\n" + 2 * text
        back = [float(cell) for cell in text.strip().split(",")]
        assert [struct.pack("<d", x) for x in back] == [struct.pack("<d", x) for x in row]

    @pytest.mark.parametrize("row", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_ragged_row_raises(self, tmp_path, row):
        with pytest.raises(TypeError):
            _write_csv(str(tmp_path / "rows.csv"), ["a", "b", "c"], [row])


class TestSimulate:
    def test_small_fixture_outputs(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay"]["passed"]
        assert (out / "trajectory.csv").exists() and (out / "ledger.csv").exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,u_1,") and ",v_1," in header

    def test_zero_data_zero_forcing_zero_ledger(self, tmp_path):
        text = SMALL_MODEL.replace("ic.kind = mode", "ic.kind = zero")
        text = text.replace("model.h.kind = separable", "model.h.kind = zero")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 0
        rows = (out / "ledger.csv").read_text().splitlines()
        assert rows[0] == "t,E,I,K,L,xt_norm_sq,B,residual"
        first = dict(zip(rows[0].split(","), map(float, rows[1].split(","))))
        assert first["E"] == 0.0 and first["xt_norm_sq"] == 0.0

    def test_rerun_bitwise_identical(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2)]) == 0
        for name in ("trajectory.csv", "ledger.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_linear_fixture_residual_budget(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", fixture_cfg("linear.cfg"),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay"]["max_residual"] < 1e-4
        assert summary["final_xt_norm_sq"] < 1e-6


class TestFeasibilityCommand:
    def test_hand_instance_chosen_point(self, tmp_path):
        text = SMALL_MODEL.replace("energy.rho = 1.0", "energy.rho = fit")
        text = text.replace("energy.chi = 0.1", "energy.chi = fit")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["feasibility", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "feasibility.json").read_text())
        assert not report["empty"]
        assert report["chosen"]["rho"] > 0
        assert [report["chosen"]["rho"], report["chosen"]["chi"]] in report["feasible_points"]

    def test_fit_keeps_the_configs_sigma1(self, tmp_path):
        # sigma1 = 0.1 is not below the scan probe's placeholder chi = 0.1
        text = SMALL_MODEL.replace("energy.rho = 1.0", "energy.rho = fit")
        text = text.replace("energy.chi = 0.1", "energy.chi = fit")
        cfg = ExperimentConfig.load(write_cfg(tmp_path, text + "energy.sigma1 = 0.1\n"))
        params = cfg.energy_params()
        rho, chi, _ = cfg.scan_feasibility().chosen
        assert (params.rho, params.chi, params.sigma1) == (rho, chi, 0.1)

    def test_grid_refinement_consistent(self, tmp_path):
        base = SMALL_MODEL + "\nenergy.grid_n = 12\n"
        path = write_cfg(tmp_path, base)
        out1 = tmp_path / "c"
        assert main(["feasibility", "--config", path, "--out", str(out1)]) == 0
        fine = SMALL_MODEL + "\nenergy.grid_n = 24\n"
        path2 = write_cfg(tmp_path, fine, name="fine.cfg")
        out2 = tmp_path / "f"
        assert main(["feasibility", "--config", path2, "--out", str(out2)]) == 0
        coarse_pts = {tuple(p) for p in
                      json.loads((out1 / "feasibility.json").read_text())["feasible_points"]}
        fine_pts = {tuple(p) for p in
                    json.loads((out2 / "feasibility.json").read_text())["feasible_points"]}
        shared_fine = {p for p in fine_pts if p in coarse_pts}
        # every coarse feasible point reappears verbatim on the doubled grid
        assert coarse_pts == shared_fine


class TestAttractorCommands:
    def test_pullback_artifacts(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert main(["pullback", "--config", path, "--out", str(out)]) == 0
        absorbing = json.loads((out / "absorbing.json").read_text())
        assert all(rep["passed"] for rep in absorbing["reports"].values())
        for rep in absorbing["reports"].values():
            gaps = [row["cauchy_gap"] for row in rep["rows"]]
            assert all(math.isfinite(g) and g >= 0.0 for g in gaps)
            assert gaps[-1] == 0.0
        lines = (out / "clouds.csv").read_text().splitlines()
        assert lines[0].startswith("t_star,delta,tau,u_1")
        assert len(lines) == 1 + 8 * 3  # n_points x len(deltas)

    def test_pullback_linear_fixture_absorbed_at_tau_20(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pullback", "--config", fixture_cfg("linear.cfg"),
                     "--out", str(out)]) == 0
        rep = json.loads((out / "absorbing.json").read_text())["reports"]["0"]
        last = rep["rows"][-1]
        assert last["tau"] == 20.0 and last["fraction_inside"] == 1.0

    def test_semicontinuity_monotone(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL)
        out = tmp_path / "out"
        assert main(["semicontinuity", "--config", path, "--out", str(out)]) == 0
        report = json.loads((out / "semicontinuity.json").read_text())
        assert report["monotone_within_band"]
        rows = report["sweep"]["rows"]
        assert rows[-1]["delta"] == 0.0 and rows[-1]["dist"] == 0.0

    def test_single_delta_zero_row(self, tmp_path):
        text = SMALL_MODEL.replace("attractor.deltas = 0.2, 0.1, 0.0",
                                   "attractor.deltas = 0.0")
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert main(["semicontinuity", "--config", path, "--out", str(out)]) == 0
        rows = json.loads((out / "semicontinuity.json").read_text())["sweep"]["rows"]
        assert len(rows) == 1 and rows[0]["dist"] == 0.0


    def test_artifacts_do_not_depend_on_threads(self, tmp_path):
        # d = 2 runs the batched grid transform; with one delta each command
        # has 2 legs, so 2 and 3 threads both run them side by side
        text = (SMALL_MODEL.replace("model.dim = 1", "model.dim = 2")
                .replace("disc.n_modes = 8", "disc.n_modes = 4")
                .replace("attractor.n_points = 8", "attractor.n_points = 5")
                .replace("attractor.taus = 4, 8", "attractor.taus = 0.1, 0.2")
                .replace("attractor.deltas = 0.2, 0.1, 0.0", "attractor.deltas = 0.1"))
        path = write_cfg(tmp_path, text)
        results = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            codes = [main([command, "--config", path, "--out", str(out),
                           "--threads", str(threads)])
                     for command in ("pullback", "semicontinuity")]
            files = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
            results.append((codes, files))
        assert len(results[0][1]) == 4
        assert results[1] == results[0] and results[2] == results[0]


class TestDecomposeCommand:
    def test_linear_fixture(self, tmp_path):
        out = tmp_path / "out"
        assert main(["decompose", "--config", fixture_cfg("linear.cfg"),
                     "--out", str(out)]) == 0
        summary = json.loads((out / "decomposition.json").read_text())
        assert summary["rate2_ok"]
        assert summary["split_error"] < 1e-3
        assert np.isfinite(summary["sup_lap_u2_sq"])


class TestArtifactDigests:
    def test_one_line_per_artifact_identical_across_runs(self, tmp_path):
        path = write_cfg(tmp_path, SMALL_MODEL)
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        script = os.path.join(ROOT, "scripts", "artifact_digests.py")
        outs = []
        for run in ("a", "b"):
            proc = subprocess.run([sys.executable, script, path, "--out", str(tmp_path / run)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        lines = [line.split(" ") for line in outs[0].splitlines()]
        assert {(cmd, name) for _, cmd, name, _ in lines} == {
            ("validate", "hypotheses.json"), ("simulate", "trajectory.csv"),
            ("simulate", "ledger.csv"), ("simulate", "summary.json"),
            ("feasibility", "feasibility.json"), ("pullback", "clouds.csv"),
            ("pullback", "absorbing.json"), ("semicontinuity", "sweep.csv"),
            ("semicontinuity", "semicontinuity.json"),
            ("decompose", "decomposition.csv"), ("decompose", "decomposition.json")}
        assert all(cfg == path and len(sha) == 64 for cfg, _, _, sha in lines)
