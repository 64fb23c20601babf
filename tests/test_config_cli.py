import json
import math
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kwavelab import cli
from kwavelab.cli import COMMANDS, _write_csv, main
from kwavelab.config import ConfigError, ExperimentConfig
from kwavelab.energy import InfeasibleParamsError
from kwavelab.integrator import MAX_RECORD_VALUES
from kwavelab.model import NONLINEARITY_KINDS
from oracles import write_csv_plain

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


def sets_attractor_keys(name):
    with open(fixture_cfg(name)) as fh:
        return any(line.startswith("attractor.") for line in fh)


class TestConfigParsing:
    def test_load_shipped_fixture(self):
        cfg = ExperimentConfig.load(fixture_cfg("linear.cfg"))
        assert cfg.basis.dim == 1
        assert cfg.basis.modes_per_dim == 32
        assert cfg.step.dt == 1e-3

    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(CONFIG_DIR) if n.endswith(".cfg") and sets_attractor_keys(n)))
    def test_fixture_legs_lie_on_the_doubled_step_grid(self, name):
        # every tau of a fixture that sets attractor.* is an even number of its steps
        cfg = ExperimentConfig.load(fixture_cfg(name))
        cfg.check_legs(cfg.ensemble.taus)

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


# each kind's preset constants at coeff = 0.5, gamma = 3, and declared values
# that differ from every preset
G_PRESETS = {
    "zero": dict(k=0.0, growth_c=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0),
    "cubic_soft": dict(k=0.0, growth_c=1.5, c1=0.0, c2=0.0, c3=0.0, c4=0.0),
    "lipschitz_sine": dict(k=0.5, growth_c=1.0, c1=0.25, c2=3.25, c3=0.0, c4=1.0),
}
G_DECLARED = dict(k=0.75, growth_c=2.5, c1=0.125, c2=0.375, c3=0.0625, c4=1.75)


class TestNonlinearityKeys:
    @pytest.mark.parametrize("declared", [(), *((name,) for name in G_DECLARED),
                                          tuple(G_DECLARED)], ids=lambda d: "+".join(d) or "none")
    @pytest.mark.parametrize("kind", NONLINEARITY_KINDS)
    def test_every_g_key_reaches_the_spec(self, tmp_path, kind, declared):
        # each set model.g.* key is the spec's; each unset constant is the kind's preset
        text = SMALL_MODEL.replace("model.g.kind = cubic_soft", f"model.g.kind = {kind}")
        text += "model.g.coeff = 0.5\nmodel.g.gamma = 3\n"
        want = dict(G_PRESETS[kind], kind=kind, coeff=0.5, gamma=3.0)
        for name in declared:
            text += f"model.g.{name} = {G_DECLARED[name]}\n"
            want[name] = G_DECLARED[name]
        g = ExperimentConfig.load(write_cfg(tmp_path, text)).model.g
        assert {name: getattr(g, name) for name in want} == want


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

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_output_under_a_regular_file_exit_2(self, tmp_path, capsys, command):
        # the output directory cannot be made: one line, no traceback
        (tmp_path / "file").write_text("")
        path = write_cfg(tmp_path, SMALL_MODEL)
        assert main([command, "--config", path, "--out", str(tmp_path / "file" / "o")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"configuration error: .*Not a directory.*\n", err)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, command):
        # rejected at load, also where no draw reads it (simulate's ic.kind = mode)
        path = write_cfg(tmp_path, SMALL_MODEL)
        assert main([command, "--config", path, "--out", str(tmp_path / "o"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "configuration error: seed = -1 must be nonnegative\n"

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

    @pytest.mark.parametrize("command,taus", [("pullback", "0.005, 8"),
                                              ("semicontinuity", "4, 8.005")])
    def test_tau_an_odd_number_of_steps_exit_2(self, tmp_path, capsys, command, taus):
        # 1 and 1601 steps of 0.005: on the grid of dt but not of the doubling pass
        path = write_cfg(tmp_path, SMALL_MODEL.replace("attractor.taus = 4, 8",
                                                       f"attractor.taus = {taus}"))
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        tau = taus.split(", ")[0 if command == "pullback" else 1]
        assert capsys.readouterr().err == (
            f"configuration error: pullback horizon tau = {tau} is not a whole number of "
            f"2 attractor.dt = 0.01 steps, the step of the doubling pass\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "decompose"])
    @pytest.mark.parametrize("dt,records", [("1e-09", 5000000001),
                                            ("1e-15", 5000000000000001)])
    def test_record_arrays_over_the_bound_exit_2(self, tmp_path, capsys, command, dt, records):
        # 37 GiB of record times at 1e-9, 36 PiB at 1e-15 (1e-18 no longer moves the
        # clock at t = 5): one line and no output directory, whatever the allocator
        # would have said
        text = open(fixture_cfg("linear.cfg")).read()
        for key, value in (("disc.dt", dt), ("disc.t_end", "5"), ("disc.record_every", "1")):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: disc.dt = {dt} and disc.record_every = 1 give {records} "
            f"records of 65 values, more than the {MAX_RECORD_VALUES} values the record "
            f"arrays may hold\n")
        assert not out.exists()

    def test_record_arrays_at_the_bound_are_checked_exactly(self, monkeypatch):
        # linear.cfg holds 2001 records of 65 values; a bound one value short rejects it
        cfg = ExperimentConfig.load(fixture_cfg("linear.cfg"))
        monkeypatch.setattr("kwavelab.config.MAX_RECORD_VALUES", 2001 * 65)
        cfg.check_records()
        monkeypatch.setattr("kwavelab.config.MAX_RECORD_VALUES", 2001 * 65 - 1)
        with pytest.raises(ConfigError, match="give 2001 records of 65 values"):
            cfg.check_records()

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
        ("pullback", "h_mode"), ("semicontinuity", "h_mode"),
        ("validate", "eps_overflow"), ("simulate", "eps_overflow"),
        ("decompose", "eps_overflow"), ("pullback", "leg_overflow"),
        ("semicontinuity", "leg_overflow"), ("validate", "tail_overflow"),
        ("simulate", "radius_overflow"), ("pullback", "radius_overflow"),
        ("semicontinuity", "radius_overflow")])
    def test_unrunnable_config_exit_2(self, tmp_path, capsys, command, case):
        # eps(t) = 1 - 0.5 exp(-t) < 0 at disc.t_start = -1; a negative,
        # empty or repeated delta list; a forcing mode outside the 8-mode basis;
        # eps(t) = 1 + 0.5 exp(-t) overflowing at a run or leg start t = -800;
        # the forcing tail check's e^((sigma - 2 beta) s) = e^(2 s) overflowing
        # before t = 800; and
        # e^((sigma1 - 2 beta) t) of B overflowing at t = 2999.9, where B is finite
        deltas = {"negative_delta": "0.2, -0.1, 0.0", "empty_deltas": ",",
                  "repeated_delta": "0.1, 0.1, 0.0"}
        if case == "eps_overflow":
            with open(fixture_cfg("cubic3d.cfg")) as fh:
                text = fh.read().replace("disc.t_start = 0.0", "disc.t_start = -800")
            message = "eps overflows at t = -800, the start of the run (disc.t_start)"
        elif case == "leg_overflow":
            with open(fixture_cfg("sweep.cfg")) as fh:
                text = fh.read().replace("attractor.taus = 5, 10, 20", "attractor.taus = 800")
            message = "eps overflows at t = -800, the start of the pullback leg tau = 800"
        elif case == "tail_overflow":
            with open(fixture_cfg("cubic3d.cfg")) as fh:
                text = fh.read().replace("disc.t_end = 10.0", "disc.t_end = 800")
            text = text.replace("model.h.sigma = 1.0", "model.h.sigma = 3")
            message = "integrand e^(sigma s) |h(s)|^2 overflows before t = 800,"
        elif case == "radius_overflow":
            with open(fixture_cfg("cubic3d.cfg")) as fh:
                text = fh.read()
            for key, value in (("disc.t_start", "2999.9"), ("disc.t_end", "3000"),
                               ("attractor.t_star", "3000"), ("attractor.taus", "0.05, 0.1"),
                               ("attractor.dt", "0.005"),
                               ("model.h.rate", "0.001"), ("energy.rho", "0.99"),
                               ("energy.chi", "0.245")):
                text = re.sub(f"^{re.escape(key)} = .*$", f"{key} = {value}", text,
                              flags=re.M)
            text += "energy.sigma1 = 0.244\n"  # feasible: the least margin is 0.00745
            message = "the absorbing radius B overflows at t = 2999.9, an end of the window"
        elif case.startswith("eps"):
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

    @pytest.mark.parametrize("command,case,code", [
        ("decompose", "eps_start", 2), ("feasibility", "probe", 2),
        ("pullback", "infeasible", 1), ("semicontinuity", "radius", 2)])
    def test_failed_check_leaves_no_output_directory(self, tmp_path, capsys, command, case,
                                                     code):
        # eps(-1) < 0 at the run's start; c4 <= c0 in the scan's probe; an empty
        # scan behind fit; B overflowing at t_star - tau (the record bound, the set
        # multipliers, the legs and the delta keys are checked where they are tested)
        edits = {"eps_start": ("eps_increasing.cfg", {"disc.t_start": "-1.0"}),
                 "probe": ("linear.cfg", {"energy.c4": "0.0"}),
                 "infeasible": ("infeasible.cfg", {}),
                 "radius": ("linear.cfg", {"attractor.t_star": "-8000",
                                           "attractor.deltas": "0.1, 0.0"})}
        name, values = edits[case]
        text = open(fixture_cfg(name)).read()
        for key, value in values.items():
            text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(
            "property failure: " if code == 1 else "configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command,code", [
        ("validate", 0), ("feasibility", 0), ("decompose", 0),
        ("simulate", 1), ("pullback", 1), ("semicontinuity", 1)])
    def test_infeasible_set_multipliers_exit_1_before_integrating(self, tmp_path, capsys,
                                                                  command, code):
        # rho = 2.5 violates chi_velocity_coeff; the commands that use the
        # multipliers stop before their first step, the others never read them
        with open(fixture_cfg("linear.cfg")) as fh:
            text = fh.read()
        for key, value in (("energy.rho", "2.5"), ("attractor.taus", "0.5, 1"),
                           ("disc.t_end", "1")):
            text = re.sub(f"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        out = tmp_path / "o"
        assert main([command, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == code
        if code == 1:
            assert capsys.readouterr().err.startswith(
                "property failure: (rho, chi) violates binding constraint")
            assert not out.exists()

    def test_colliding_delta_labels_exit_2(self, tmp_path, capsys, monkeypatch):
        # 0.1 and 0.1000001 both print as '0.1', the key of their absorbing.json reports
        import kwavelab.attractor as att
        legs = []
        monkeypatch.setattr(att, "_evolve_legs", lambda *args: legs.append(args))
        text = SMALL_MODEL.replace("attractor.deltas = 0.2, 0.1, 0.0",
                                   "attractor.deltas = 0.1, 0.1000001, 0.0")
        out = tmp_path / "o"
        assert main(["pullback", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: attractor.deltas [0.1, 0.1000001, 0.0]")
        assert legs == [] and not out.exists()

    def test_forcing_tail_long_horizon_exit_0(self, tmp_path):
        # sigma = 2 beta on cubic3d, so the tail grows linearly: 800.5 at t = 800
        with open(fixture_cfg("cubic3d.cfg")) as fh:
            text = fh.read().replace("disc.t_end = 10.0", "disc.t_end = 800")
        out = tmp_path / "o"
        assert main(["validate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        tail = json.loads((out / "hypotheses.json").read_text())["checks"][-1]
        assert tail["name"] == "forcing_tail" and tail["passed"]
        assert tail["detail"] == "tail integral stabilizes at 8.005000e+02"

    @pytest.mark.parametrize("command,line,message", [
        ("validate", "model.dim = 4", "dim must be 1, 2 or 3"),
        ("simulate", "model.dim = 0", "dim must be 1, 2 or 3"),
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
        # a negative seed, also where no draw reads it (simulate's ic.kind = mode)
        *((command, "seed = -3", "seed = -3 must be nonnegative") for command in COMMANDS),
        # a step count that is not finite: span / dt overflows to inf
        *((command, "disc.dt = 1e-320", "the step count (t_end - t_start) / dt is not finite")
          for command in ("validate", "simulate")),
        *((command, "attractor.dt = 1e-320",
           f"pullback horizon tau = {tau} is not a finite number of 2 attractor.dt = "
           f"{2.0 * 1e-320:g} steps, the step of the doubling pass")
          for command, tau in (("pullback", 4), ("semicontinuity", 8))),
        ("semicontinuity", "attractor.dt = -0.005", "attractor.dt = -0.005 must be positive"),
        # a step that does not move the clock at the largest |t| of the run or leg
        *((command, "disc.dt = 1e-18",
           "disc.dt = 1e-18 does not move the clock at |t| = 5 (t + dt == t)")
          for command in ("validate", "simulate")),
        *((command, "attractor.dt = 1e-18",
           f"attractor.dt = 1e-18 does not move the clock at |t| = {tau} (t + dt == t), "
           f"on the pullback leg tau = {tau}")
          for command, tau in (("pullback", 4), ("semicontinuity", 8))),
        *((command, line, message) for command in ("validate", "feasibility", "simulate")
          for line, message in (
              ("attractor.sampling = bogus", "unknown sampling 'bogus'"),
              ("attractor.n_points = 0", "need at least one ensemble member"),
              ("attractor.taus = 3, 1", "taus must be positive, strictly increasing"),
              ("attractor.taus = ,", "taus must be positive, strictly increasing"))),
        *((command, line, message) for command in ("validate", "feasibility", "pullback")
          for line, message in (("ic.kind = bogus", "unknown ic.kind 'bogus'"),
                                ("ic.mode = 9", "ic.mode 9 outside basis of 8 modes"),
                                ("ic.radius = -1", "ic.radius = -1 must be nonnegative"))),
        # a number that is not finite, named by its line in SMALL_MODEL
        ("validate", "disc.t_end = inf",
         "line 13: value 'inf' for key 'disc.t_end' is not finite"),
        ("simulate", "disc.dt = inf", "line 11: value 'inf' for key 'disc.dt' is not finite"),
        ("simulate", "model.delta = nan",
         "line 26: value 'nan' for key 'model.delta' is not finite"),
        ("pullback", "attractor.taus = 5, inf",
         "line 22: value '5, inf' for key 'attractor.taus' is not finite"),
        ("semicontinuity", "attractor.deltas = inf, 0",
         "line 24: value 'inf, 0' for key 'attractor.deltas' is not finite"),
        # constants no g of its kind satisfies (SMALL_MODEL's g is cubic_soft)
        *((command, line, message) for command in ("validate", "simulate")
          for line, message in (
              ("model.g.gamma = 5", "cubic_soft ships slack-free constants only for gamma <= 4"),
              ("model.g.growth_c = -1", "growth constant must be positive"),
              ("model.g.c1 = -1", "structure constants c1..c4 must be nonnegative"))),
        # a negative preset c_i, even where declared c1..c4 replace all four
        *(pytest.param(command, "model.g.kind = lipschitz_sine\nmodel.g.coeff = -1" + declared,
                       "structure constants c1..c4 must be nonnegative",
                       id=f"{command}-lipschitz_sine coeff = -1{label}")
          for command in ("validate", "simulate")
          for declared, label in (
              ("", ""),
              ("\nmodel.g.c1 = 1\nmodel.g.c2 = 1\nmodel.g.c3 = 1\nmodel.g.c4 = 1",
               ", c1..c4 declared"))),
        *((command, line, "energy.rho and energy.chi are fitted together: set both to fit "
                          "or neither") for command in ("validate", "simulate")
          for line in ("energy.rho = fit", "energy.chi = fit"))])
    def test_unrunnable_value_exit_2(self, tmp_path, capsys, command, line, message):
        # a dimension no basis has; a run of no steps; an empty grid; a scan-box
        # bound that is no longer a key; a pullback step that is not positive; an ensemble or initial state that no command could build,
        # or one fitted multiplier beside a set one (the set one would be dropped),
        # rejected by every command, including those that do not use it
        key = line.split(" = ")[0]
        pattern = rf"^{re.escape(key)} = .*$"
        text = (re.sub(pattern, line, SMALL_MODEL, flags=re.M)
                if re.search(pattern, SMALL_MODEL, flags=re.M) else SMALL_MODEL + line + "\n")
        path = write_cfg(tmp_path, text)
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    def test_zero_kind_keeps_gamma(self, tmp_path, capsys):
        # gamma enters the scan's constraints for every kind, g = 0 included
        blobs = []
        for gamma in ("2", "3"):
            with open(fixture_cfg("linear.cfg")) as fh:
                text = fh.read() + f"model.g.gamma = {gamma}\n"
            out = tmp_path / f"gamma{gamma}"
            assert main(["feasibility", "--config", write_cfg(tmp_path, text),
                         "--out", str(out)]) == 0
            blobs.append((out / "feasibility.json").read_bytes())
        assert blobs[0] != blobs[1]
        path = write_cfg(tmp_path, text.replace("model.g.gamma = 3", "model.g.gamma = 0"))
        assert main(["feasibility", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "configuration error: gamma must be positive" in capsys.readouterr().err

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

    def test_coarse_pass_blowup_exit_3(self, tmp_path, capsys):
        # both passes are stable at attractor.dt = 0.0125; at 0.025 the doubling
        # pass at 0.05 blows up
        text = """
model.dim = 1
model.delta = 1.0
disc.n_modes = 8
disc.dt = 0.01
disc.t_end = 1.0
energy.rho = 1.0
energy.chi = 0.2
energy.sigma1 = 0.1
energy.c14 = 100
attractor.n_points = 8
attractor.taus = 1
attractor.deltas = 1.0
"""
        # on one thread and on two workers; a blow-up leaves the step workspace
        # of the thread that ran it, and the stable run after it writes its bytes
        stable = write_cfg(tmp_path, text + "attractor.dt = 0.0125\n", "stable.cfg")
        unstable = write_cfg(tmp_path, text + "attractor.dt = 0.025\n", "unstable.cfg")
        for threads in ("1", "2"):
            written = []
            for k, (path, code) in enumerate(((stable, 0), (unstable, 3), (stable, 0))):
                out = tmp_path / f"o{threads}{k}"
                assert main(["pullback", "--config", path, "--out", str(out),
                             "--threads", threads]) == code
                if code == 0:
                    written.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            assert written[0] == written[1] and written[0]
            assert re.fullmatch(r"numerical failure: non-finite state at t = \S+ \(ensemble "
                                r"member \d+, mode \d+\) in the pass at dt = 0\.05\n",
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

    @staticmethod
    def assert_plain_bytes(tmp_path, table):
        header = [f"c{j}" for j in range(table.shape[1])]
        _write_csv(str(tmp_path / "fast.csv"), header, table)
        write_csv_plain(str(tmp_path / "plain.csv"), header, table)
        assert (tmp_path / "fast.csv").read_text() == (tmp_path / "plain.csv").read_text()

    def test_ragged_list_raises(self, tmp_path):
        with pytest.raises(TypeError):
            _write_csv(str(tmp_path / "rows.csv"), ["a", "b"], [(1.0, 2.0), (1.0,)])

    # any 64-bit pattern, and the bits of the floats hypothesis favours
    CELL_BITS = st.one_of(st.integers(0, 2 ** 64 - 1),
                          st.floats().map(lambda f: int(np.float64(f).view(np.uint64))))

    @given(hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                      elements=CELL_BITS))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_bit_pattern_matches_plain_writer(self, tmp_path, bits):
        # NaN payloads, -NaN, subnormals and +-inf all occur among the patterns
        self.assert_plain_bytes(tmp_path, bits.view(np.float64))

    def test_edge_cells_match_plain_writer(self, tmp_path):
        tiny = np.finfo(np.float64).smallest_normal
        huge = np.finfo(np.float64).max
        powers = np.array([10.0 ** k for k in range(-30, 31)])  # 1e-14, 1e20: D carries to 10^16
        bounds = np.array([1e16, 1e17, 1e-4, 1e-5, 1e100, 1e-100, 1e200, 1e-200])
        edges = np.concatenate([
            [0.0, 5e-324, tiny, np.nextafter(tiny, 0.0), huge],
            [2251799813685247.75],  # a true tie: 2251799813685247.8
            powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),  # log10 retries
            bounds, np.nextafter(bounds, np.inf), np.nextafter(bounds, -np.inf)])
        cells = np.concatenate([edges, -edges])
        # an odd width and more cells than one block: rows straddle a block boundary
        self.assert_plain_bytes(tmp_path, np.resize(cells, (613, 7)))

    @pytest.mark.parametrize("command, name, edit, check", [
        ("simulate", "trajectory.csv", None,
         lambda rows: [r[0] for r in rows[:2]] == [0.0, 0.05]),
        ("simulate", "ledger.csv", None,
         lambda rows: math.isnan(rows[-1][-1]) and all(map(math.isfinite, rows[0]))),
        ("pullback", "clouds.csv", None,
         lambda rows: [r[:3] for r in rows] == [[0.0, d, 8.0] for d in (0.2, 0.1, 0.0)
                                                for _ in range(8)]),
        ("semicontinuity", "sweep.csv", ("attractor.deltas = 0.2, 0.1, 0.0",
                                         "attractor.deltas = 0.1, 0.0"),
         lambda rows: [r[0] for r in rows] == [0.1, 0.0] and all(math.isnan(r[2]) for r in rows)),
        ("decompose", "decomposition.csv", None,
         lambda rows: [r[0] for r in rows[:2]] == [0.0, 0.05]),
    ], ids=["trajectory", "ledger", "clouds", "sweep", "decomposition"])
    def test_command_artifact_is_plain_writer_output(self, tmp_path, command, name, edit, check):
        # 17 digits round-trip exactly, so each file is the plain writer's bytes
        # of its own parsed values
        path = write_cfg(tmp_path, SMALL_MODEL if edit is None else SMALL_MODEL.replace(*edit))
        out = tmp_path / "out"
        main([command, "--config", path, "--out", str(out)])
        header, *lines = (out / name).read_text().splitlines()
        rows = [[float(cell) for cell in line.split(",")] for line in lines]
        assert check(rows)
        write_csv_plain(str(tmp_path / "plain.csv"), header.split(","), rows)
        assert (out / name).read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_17_digit_negative_cell_of_every_table_exponent(self, tmp_path):
        # one cell per decimal exponent the tables hold: the fixed form
        # (-4 <= X < 17, '0.000ddd' among them) and the exponent form, each
        # with a '-', 17 significant digits and the longest exponent of its X
        cells = []
        for X in range(cli._X_MIN, cli._X_MAX + 1):
            x = -float(f"1.2345678901234567e{X}")
            while not re.fullmatch(r"-[0-9.]*[1-9](e[-+][0-9]+)?", "%.17g" % x):
                x = np.nextafter(x, -math.inf)  # a trailing zero: take the next double
            cells.append(x)
        texts = ["%.17g" % x for x in cells]
        assert any("e" in t for t in texts) and any("e" not in t for t in texts)
        assert any(t.startswith("-0.000") for t in texts)
        self.assert_plain_bytes(tmp_path, np.array(cells).reshape(-1, 1))
        self.assert_plain_bytes(tmp_path, np.resize(cells, (67, 6)))

    @pytest.mark.parametrize("cell", [-2.2250738585072014e-308, -4.9406564584124654e-324,
                                      -1.7976931348623157e+308])
    def test_longest_slow_text_ends_a_row_and_a_block(self, tmp_path, cell):
        # 24 bytes of '%.17g' fill words 0-2 of a cell, and its separator the
        # fourth; two blocks of 6-cell rows, so a block's last cell is mid-row
        width, n = 6, cli._CSV_BLOCK
        assert len("%.17g" % cell) == 24 and (2 * n) % width == 0 and n % width
        table = np.random.default_rng(7).standard_normal(2 * n)
        table[[width - 1, n - 1, 2 * n - 1]] = cell  # ends a row, block 0, the table
        self.assert_plain_bytes(tmp_path, table.reshape(-1, width))

    @pytest.mark.parametrize("width, cells", [
        (1, cli._CSV_BLOCK - 1), (1, cli._CSV_BLOCK), (1, cli._CSV_BLOCK + 1),
        (1, 3 * cli._CSV_BLOCK + 2), (433, 433 * 9), (433, 433 * 10), (433, 433 * 29)])
    def test_random_bits_over_several_blocks_match_plain_writer(self, tmp_path, width, cells):
        bits = np.random.default_rng(cells).integers(0, 2 ** 64, cells, np.uint64, endpoint=False)
        self.assert_plain_bytes(tmp_path, bits.view(np.float64).reshape(-1, width))

    def test_block_arrays_stay_under_the_mmap_threshold(self):
        # glibc's malloc serves a request from mmap once its chunk (the request
        # and an 8-byte header, rounded up to 16 bytes) reaches 128 KiB
        def chunk(nbytes):
            return (nbytes + 8 + 15) // 16 * 16

        limit, n = 128 * 1024, cli._CSV_BLOCK
        text = 8 * cli._CELL_WORDS * n + 1  # the bytearray keeps a closing NUL
        assert max(chunk(a.nbytes) for a in cli._csv_work(n)) <= chunk(text) < limit
        assert chunk(8 * cli._CELL_WORDS * (n + 1) + 1) >= limit  # the most cells that fit


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

    def test_long_horizon_decay_check_exit_0(self, tmp_path):
        # sigma1 = 0.1: e^(sigma1 t) overflows past t = 7098, inside this run,
        # while the decay envelope e^(-sigma1 t) W_sigma1(t) stays finite
        with open(fixture_cfg("linear.cfg")) as fh:
            text = fh.read()
        for key, value in (("disc.dt", "0.5"), ("disc.t_end", "7200"),
                           ("disc.record_every", "1")):
            text = re.sub(f"^{re.escape(key)} = .*$", f"{key} = {value}", text, flags=re.M)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay"]["integrated_passed"]

    def test_linear_fixture_residual_budget(self, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", fixture_cfg("linear.cfg"),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay"]["max_residual"] < 1e-4
        assert summary["final_xt_norm_sq"] < 1e-6


class TestEnergyParams:
    def test_infeasible_params_rejected(self, tmp_path):
        # rho = 2.9, chi = 1.4 lie outside the box the binding constraints allow
        with open(fixture_cfg("linear.cfg")) as fh:
            text = fh.read().replace("energy.rho = 1.0", "energy.rho = 2.9")
        cfg = ExperimentConfig.load(write_cfg(tmp_path, text.replace("energy.chi = 0.2",
                                                                     "energy.chi = 1.4")))
        with pytest.raises(InfeasibleParamsError, match="violates binding constraint"):
            cfg.energy_params()


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
            assert all(0.0 < row["dt_gap"] < 1e-2 * row["worst_ratio"] for row in rep["rows"])
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
        assert rows[-1]["delta"] == 0.0 and rows[-1]["dist"] == 0.0 == rows[-1]["dt_gap"]
        assert all(0.0 < row["dt_gap"] < 1e-2 * row["dist"] for row in rows[:-1])

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
        files = results[0][1]
        rows = (json.loads(files["absorbing.json"])["reports"]["0.1"]["rows"]
                + json.loads(files["semicontinuity.json"])["sweep"]["rows"])
        assert all("dt_gap" in row for row in rows)


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


class TestScriptsRun:
    """Every script that no other test runs, run once at a small scale, so that a
    stale library call fails here."""

    @staticmethod
    def script(name, *args, cwd=None):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_convergence_study(self):
        lines = self.script("convergence_study.py")
        assert len(lines) == 2 + 5

    def test_run_baseline(self, tmp_path):
        # the script names its config relative to the repository root
        lines = self.script("run_baseline.py", "--out", str(tmp_path / "b"), cwd=ROOT)
        assert lines[-1] == f"baseline artifacts in {tmp_path / 'b'}"
        assert {"hypotheses.json", "trajectory.csv", "decomposition.csv"} <= set(
            os.listdir(tmp_path / "b"))

    @pytest.mark.parametrize("flags", [[], ["--absorbing"]], ids=["sweep", "absorbing"])
    def test_dt_study(self, tmp_path, flags):
        # 3 modes, 4 members; taus whole numbers of 2 dt steps at every default dt
        text = (SMALL_MODEL.replace("disc.n_modes = 8", "disc.n_modes = 3")
                .replace("attractor.n_points = 8", "attractor.n_points = 4")
                .replace("attractor.taus = 4, 8", "attractor.taus = 0.5, 1"))
        lines = self.script("dt_study.py", write_cfg(tmp_path, text), *flags)
        assert sum(" wall " in line for line in lines) == 4

    @pytest.mark.parametrize("flags", [[], ["--absorbing"]], ids=["sweep", "absorbing"])
    def test_dt_study_checks_the_radius(self, tmp_path, flags):
        # e^(-sigma1 t) of B overflows at t_star - tau_max = -8020, as the commands say
        text = open(fixture_cfg("linear.cfg")).read()
        for key, value in (("attractor.t_star", "-8000"), ("attractor.deltas", "0.1, 0.0")):
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        window = "[-8020, -8020]" if not flags else "[-8020, -8000]"
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "dt_study.py"),
                               write_cfg(tmp_path, text), *flags],
                              env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        assert proc.stderr == ("configuration error: the absorbing radius B overflows at "
                               f"t = -8020, an end of the window {window} it is evaluated on\n")

    def test_run_attractor_study_help(self):
        assert self.script("run_attractor_study.py", "--help")[0].startswith("usage:")


class TestArtifactDiff:
    @staticmethod
    def diff(tmp_path, a_files, b_files):
        """artifact_diff.py on two trees of {relative path: text}: (exit code, lines)."""
        for run, files in (("a", a_files), ("b", b_files)):
            for name, text in files.items():
                (tmp_path / run / name).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / run / name).write_text(text)
        script = os.path.join(ROOT, "scripts", "artifact_diff.py")
        proc = subprocess.run([sys.executable, script, str(tmp_path / "a"), str(tmp_path / "b")],
                              capture_output=True, text=True, timeout=60)
        return proc.returncode, proc.stdout.splitlines()

    CSV = "t,x\n0,4\n1,nan\n"
    JSON = '{"n": 3, "ok": true, "rows": [{"r": 2.0}, {"r": -8.0}], "tag": "a"}\n'

    def test_reports_the_largest_difference_relative_to_the_column_maximum(self, tmp_path):
        code, lines = self.diff(
            tmp_path, {"c/simulate/t.csv": self.CSV, "c/pullback/s.json": self.JSON},
            {"c/simulate/t.csv": "t,x\n0,4.001\n1,nan\n",
             "c/pullback/s.json": self.JSON.replace("2.0", "2.0004")})
        assert code == 0
        assert lines == ["c/pullback/s.json 5e-05 .rows[].r", "c/simulate/t.csv 0.00025 x",
                         "largest relative difference 0.00025 over 2 artifacts"]

    def test_equal_trees_differ_by_zero(self, tmp_path):
        files = {"c/simulate/t.csv": self.CSV, "c/pullback/s.json": self.JSON}
        code, lines = self.diff(tmp_path, files, files)
        assert code == 0 and lines[-1] == "largest relative difference 0 over 2 artifacts"

    @pytest.mark.parametrize("name,other", [
        ("t.csv", "t,x\n0,4\n1,0\n"),  # a NaN moved
        ("t.csv", "t,y\n0,4\n1,nan\n"),  # a header field
        ("t.csv", "t,x\n0,4\n1,nan\n2,1\n"),  # a row more
        ("s.json", JSON.replace("true", "false")),
        ("s.json", JSON.replace('"a"', '"b"')),
        ("s.json", JSON.replace(', {"r": -8.0}', "")),
        ("s.json", JSON.replace('"n"', '"m"')),
        ("s.json", JSON.replace("3", "NaN")),
    ])
    def test_exits_1_when_anything_but_a_number_moves(self, tmp_path, name, other):
        base = {"t.csv": self.CSV, "s.json": self.JSON}
        code, lines = self.diff(tmp_path, base, dict(base, **{name: other}))
        assert code == 1 and any(line.startswith(f"{name}: ") for line in lines)

    def test_an_added_column_leaves_the_shared_ones_compared(self, tmp_path):
        gained = self.JSON.replace("2.0", "2.0008").replace('"tag"', '"dt_gap": 0.5, "tag"')
        code, lines = self.diff(tmp_path, {"s.json": self.JSON}, {"s.json": gained})
        assert code == 1
        assert "s.json 0.0001 .rows[].r" in lines
        assert "s.json: column .dt_gap only in RUN_B" in lines

    @pytest.mark.parametrize("old,new,column", [
        ('"tag"', '"dt_gap": 0.5, "tag"', ".dt_gap"),
        ('{"r": 2.0}', '{"r": 2.0, "dt_gap": 0.5}', ".rows[].dt_gap")])
    def test_an_added_key_is_one_problem(self, tmp_path, old, new, column):
        code, lines = self.diff(tmp_path, {"s.json": self.JSON},
                                {"s.json": self.JSON.replace(old, new)})
        assert code == 1
        assert [line for line in lines if line.startswith("s.json: ")] == [
            f"s.json: column {column} only in RUN_B"]

    def test_a_key_that_empties_a_dict_is_caught(self, tmp_path):
        code, lines = self.diff(tmp_path, {"s.json": '{"a": {}, "b": 1}\n'},
                                {"s.json": '{"b": 1}\n'})
        assert code == 1 and "s.json: column .a only in RUN_A" in lines

    def test_exits_1_on_a_file_in_one_tree_only(self, tmp_path):
        code, lines = self.diff(tmp_path, {"t.csv": self.CSV},
                                {"t.csv": self.CSV, "u.csv": self.CSV})
        assert code == 1 and "u.csv: only in " + str(tmp_path / "b") in lines


# benchmark/run.py of a fake checkout: logs the name and the path of the root
# it was started from, then prints the result line with wall_vs_ref from the
# checkout's value list of the workload, one per run
FAKE_RUN = """import json, os, sys
root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(os.path.dirname(os.path.realpath(root)), "log.txt"), "a") as fh:
    fh.write(os.path.basename(root) + "\\t" + root + "\\n")
with open(os.path.join(root, "values.json")) as fh:
    values = json.load(fh)
value = values[sys.argv[sys.argv.index("--workload") + 1]].pop(0)
with open(os.path.join(root, "values.json"), "w") as fh:
    json.dump(values, fh)
print(json.dumps({"correct": True, "attempted": 5, "failed": 0, "metrics": {
    "wall_vs_ref": {"value": value, "unit": "ratio"},
    "peak_rss_mb": {"value": 50.0, "unit": "MB"}}}))
"""


class TestBenchPairs:
    @staticmethod
    def pairs(tmp_path, parent, change, workloads=("w",)):
        """bench_pairs.py on two fake checkouts, at paths of unequal length,
        whose runs read the given wall_vs_ref values in turn, a list for
        workload w or one list per workload: (exit code, output lines, run
        order). Every run starts from the path of a link of one length."""
        dirs = {"parent": "parent", "change": "the-change-checkout"}
        for side, values in (("parent", parent), ("change", change)):
            name = dirs[side]
            (tmp_path / name / "benchmark").mkdir(parents=True)
            (tmp_path / name / "benchmark" / "run.py").write_text(FAKE_RUN)
            (tmp_path / name / "values.json").write_text(
                json.dumps(values if isinstance(values, dict) else {"w": values}))
            (tmp_path / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
                {"name": "wall_vs_ref", "better": "lower", "bound": 0.25},
                {"name": "peak_rss_mb", "better": "lower", "bound": 0.2}],
                "workloads": [{"name": "w"}, {"name": "x"}]}))
        script = os.path.join(ROOT, "scripts", "bench_pairs.py")
        n = len(parent) if isinstance(parent, list) else len(next(iter(parent.values())))
        proc = subprocess.run([sys.executable, script, str(tmp_path / dirs["parent"]),
                               str(tmp_path / dirs["change"])]
                              + [arg for w in workloads for arg in ("--workload", w)]
                              + ["--pairs", str(n), "--seconds", "1", "--seed", "3"],
                              capture_output=True, text=True, timeout=120)
        log = [line.split("\t") for line in (tmp_path / "log.txt").read_text().splitlines()]
        roots = {root for _, root in log}
        assert len(roots) == 2 and len({len(root) for root in roots}) == 1, roots
        assert not any(os.path.lexists(root) for root in roots)  # the links are gone
        return proc.returncode, proc.stdout.splitlines(), [side for side, _ in log]

    def test_alternates_the_order_and_finds_a_gain(self, tmp_path):
        code, lines, order = self.pairs(tmp_path, [4.5, 4.4, 4.6, 4.5], [4.0, 4.1, 3.9, 4.0])
        assert code == 0
        assert order == ["parent", "change", "change", "parent"] * 2
        assert "pair 2 w (change first): wall_vs_ref 4.4 -> 4.1; peak_rss_mb 50 -> 50" in lines
        i = lines.index("w wall_vs_ref (lower is better):")
        assert lines[i + 1] == "  parent: median 4.5, quartiles 4.475 .. 4.525"
        assert lines[i + 3].startswith("  change better in 4 of 4 pairs (0 worse, 0 tied)")
        assert lines[i + 3].endswith("; gain")
        # 4.0/4.5, 4.1/4.4, 3.9/4.6, 4.0/4.5
        assert lines[i + 4] == "  median per-pair ratio change / parent: 0.8889"
        j = lines.index("w peak_rss_mb (lower is better):")
        assert lines[j + 3].endswith(
            "0 worse, 4 tied); parent quartile spread 0; within the bound 0.2")
        assert lines[j + 4] == "  median per-pair ratio change / parent: 1"

    @pytest.mark.parametrize("workloads", [("w", "x"), ("all",)])
    def test_every_pair_runs_every_workload(self, tmp_path, workloads):
        # a gain on w and a loss on x, each reported in its own block
        parent = {"w": [4.5, 4.4, 4.6], "x": [2.0, 2.0, 2.0]}
        change = {"w": [4.0, 4.1, 3.9], "x": [3.0, 3.0, 3.0]}
        code, lines, order = self.pairs(tmp_path, parent, change, workloads)
        assert code == 0
        assert order == ["parent", "change"] * 2 + ["change", "parent"] * 2 + [
            "parent", "change"] * 2
        assert "pair 2 x (change first): wall_vs_ref 2 -> 3; peak_rss_mb 50 -> 50" in lines
        i, j = lines.index("w wall_vs_ref (lower is better):"), lines.index(
            "x wall_vs_ref (lower is better):")
        assert lines[i + 3].endswith("; gain")
        assert lines[j + 3].endswith("worse by 0.5 of the parent's median (bound 0.25)")

    def test_nine_tenths_of_the_pairs_and_the_spread_are_both_needed(self, tmp_path):
        # 8 of 10 pairs won, though the medians differ by more than the spread
        code, lines, _ = self.pairs(tmp_path, [4.5] * 10, [4.0] * 8 + [4.6, 4.5])
        verdict = lines[lines.index("w wall_vs_ref (lower is better):") + 3]
        assert "change better in 8 of 10 pairs (1 worse, 1 tied)" in verdict
        assert verdict.endswith("within the bound 0.25")

    def test_reports_a_median_worse_than_the_bound(self, tmp_path):
        code, lines, _ = self.pairs(tmp_path, [4.0, 4.0, 4.0], [5.2, 5.0, 5.1])
        verdict = lines[lines.index("w wall_vs_ref (lower is better):") + 3]
        assert verdict.endswith("worse by 0.275 of the parent's median (bound 0.25)")


class TestRuntimeDependencies:
    def test_no_command_loads_scipy(self, tmp_path):
        # numpy is the only runtime dependency in pyproject.toml; scipy is a test one
        text = SMALL_MODEL.replace("disc.t_end = 5.0", "disc.t_end = 0.5")
        text = text.replace("attractor.taus = 4, 8", "attractor.taus = 0.05, 0.1")
        path = write_cfg(tmp_path, text)
        commands = ["validate", "simulate", "feasibility", "pullback", "semicontinuity",
                    "decompose"]
        code = ("import json, sys\n"
                "from kwavelab.cli import main\n"
                f"codes = [main([c, '--config', {path!r}, '--out', {str(tmp_path / 'o')!r}])"
                f" for c in {commands!r}]\n"
                "print(json.dumps([codes, sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy')]))\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        codes, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0] * len(commands) and loaded == []
