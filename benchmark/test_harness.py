"""Tests of the benchmark harness itself.

    python3 -m pytest benchmark/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

SMOKE_SCALE = 0.08  # 1/12.5 of the benchmark horizons: a few steps per run


# ---------------------------------------------------------------------------
# self time

def test_self_time_subtracts_union_of_children():
    root = Span("root", None, 0.0, 10.0)
    a = Span("a", root, 1.0, 3.0)
    b = Span("b", root, 2.0, 5.0)  # overlaps a: covered once
    c = Span("c", root, 8.0, 12.0)  # runs past the parent: clipped at 10
    grandchild = Span("g", a, 1.5, 2.0)
    st = self_times([root, a, b, c, grandchild])
    assert st[id(root)] == pytest.approx(10.0 - (5.0 - 1.0) - (10.0 - 8.0))
    assert st[id(a)] == pytest.approx(2.0 - 0.5)
    assert st[id(b)] == pytest.approx(3.0)
    assert st[id(grandchild)] == pytest.approx(0.5)


def test_self_time_of_leaf_and_disjoint_children():
    root = Span("root", None, 0.0, 4.0)
    kids = [Span("k", root, 0.0, 1.0), Span("k", root, 2.0, 3.0)]
    st = self_times([root, *kids])
    assert st[id(root)] == pytest.approx(2.0)
    assert all(st[id(k)] == pytest.approx(1.0) for k in kids)


def test_tracer_nests_spans_reads_arguments_and_restores():
    import types
    mod = types.ModuleType("fakepkg.mod")  # outer looks inner up as a global
    exec("def inner(x, n=3):\n    return x * n\n"
         "def outer(x):\n    return inner(x) + inner(x, n=1)\n", mod.__dict__)
    sys.modules["fakepkg.mod"] = mod
    original = mod.inner
    try:
        tracer = Tracer()
        tracer.patch_function(mod, "inner", "inner", lambda get: {"n": get("n")})
        tracer.patch_function(mod, "outer", "outer")
        assert mod.outer(2) == 8
        tracer.restore()
    finally:
        del sys.modules["fakepkg.mod"]
    assert mod.inner is original
    names = [s.name for s in tracer.spans]
    assert names == ["inner", "inner", "outer"]
    outer = tracer.spans[-1]
    assert all(s.parent is outer for s in tracer.spans[:2])
    assert [s.attrs["n"] for s in tracer.spans[:2]] == [3, 1]


# ---------------------------------------------------------------------------
# generator

def _parsed(text, tmp_path):
    from kwavelab.config import read_config_file
    path = tmp_path / "w.cfg"
    path.write_text(text)
    return read_config_file(str(path))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_in_its_seed(name, tmp_path):
    w = workloads.WORKLOADS[name]
    lines = workloads.read_fixture(ROOT, w.fixture)
    a = workloads.generate_config(w, lines, 7)
    assert a == workloads.generate_config(w, lines, 7)
    b = workloads.generate_config(w, lines, 8)
    assert a != b
    assert _parsed(a, tmp_path)["seed"] == 7


def test_workloads_keep_their_defining_properties(tmp_path):
    def cfg(name):
        w = workloads.WORKLOADS[name]
        return _parsed(workloads.generate_config(w, workloads.read_fixture(ROOT, w.fixture), 3),
                       tmp_path)

    pb = cfg("pullback-d3")
    assert len(pb["attractor.taus"]) >= 2 and len(pb["attractor.deltas"]) >= 2
    assert (pb["model.dim"], pb["disc.n_modes"], pb["attractor.n_points"]) == (3, 6, 64)
    assert pb["model.g.kind"] == "cubic_soft"
    sw = cfg("sweep-d2")
    deltas = list(sw["attractor.deltas"])
    assert len(deltas) == 5 and deltas == sorted(deltas, reverse=True) and deltas[-1] == 0.0
    assert sw["attractor.n_points"] == 64 and sw["disc.n_modes"] ** sw["model.dim"] == 256
    sim = cfg("simulate-d3")
    assert (sim["model.dim"], sim["disc.n_modes"]) == (3, 6)
    base = cfg("baseline-d1")
    assert base["model.g.kind"] == "zero" and base["model.h.kind"] == "zero"


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_vs_ref", "setup_s", "peak_rss_mb"}


# ---------------------------------------------------------------------------
# artifact checks

def test_checks_flag_nonfinite_values_and_false_pass_flags(tmp_path):
    (tmp_path / "ledger.csv").write_text("t,E,Etilde\n0,1,nan\n0.1,2,nan\n")
    (tmp_path / "sweep.csv").write_text("delta,dist,fitted_order\n0.1,inf,1\n")
    (tmp_path / "semicontinuity.json").write_text('{"monotone_within_band": false}')
    (tmp_path / "hypotheses.json").write_text(
        '{"all_passed": true, "checks": [{"margin": Infinity}, {"other": NaN}]}')
    names = ["ledger.csv", "sweep.csv", "semicontinuity.json", "hypotheses.json",
             "absent.json"]
    digests, size, problems = workloads.check_artifacts(str(tmp_path), names)
    text = "\n".join(problems)
    assert "ledger.csv" not in text  # NaN is allowed in Etilde
    assert "sweep.csv:2: non-finite dist" in text
    assert "monotone_within_band is False" in text
    assert "margin" not in text and "other = nan" in text
    assert "absent.json: missing" in text
    assert set(digests) == set(names) - {"absent.json"} and size > 0


# ---------------------------------------------------------------------------
# smoke runs

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name, tmp_path):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        r = run.run_workload(name, seed=1, seconds=0.0, trace=trace, scale=SMOKE_SCALE)
        assert r["failed"] == 0 and r["attempted"] >= 4
        assert list(r["metrics"]) == [m["name"] for m in SPEC[group]]
        for key, (value, unit) in r["metrics"].items():
            assert unit == units[key]
            assert isinstance(value, (int, float))

    from kwavelab.config import ExperimentConfig
    m = {k: v for k, (v, _) in r["metrics"].items()}
    cfg = ExperimentConfig.load(workloads.write_configs(ROOT, str(tmp_path), 1, [name],
                                                        SMOKE_SCALE)[name])
    n = cfg.values["attractor.n_points"]
    deltas = cfg.values["attractor.deltas"]
    leg_steps = [round(tau / cfg.attractor_dt) for tau in cfg.values["attractor.taus"]]
    if name == "baseline-d1":
        assert m["spectral.grid_points"] == 0
        assert m["integrator.member_steps"] == 2 * cfg.step.n_steps  # simulate + decompose
        assert m["integrator.decomposition_s"] > 0
    elif name == "simulate-d3":
        assert m["integrator.member_steps"] == cfg.step.n_steps
        assert m["energy.ledger_records"] == cfg.step.n_steps // cfg.step.record_every + 1
    elif name == "sweep-d2":
        assert m["integrator.member_steps"] == len(deltas) * n * leg_steps[-1]
        assert m["attractor.evolutions"] == len(deltas)
        assert m["attractor.useful_evolution_ratio"] == 1.0
        assert m["attractor.hausdorff_pairs"] == len(deltas) * n * n
    else:
        # one leg per (delta, tau); the tau_max leg may be evolved a second time
        distinct = len(deltas) * len(leg_steps)
        assert m["attractor.evolutions"] * m["attractor.useful_evolution_ratio"] \
            == pytest.approx(distinct)
        repeats = m["attractor.evolutions"] // len(deltas) - len(leg_steps)
        assert m["integrator.member_steps"] == \
            len(deltas) * n * (sum(leg_steps) + repeats * leg_steps[-1])
    if name != "baseline-d1":
        assert m["spectral.grid_points"] > 0 and m["spectral.flops_computed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "simulate-d3",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
