"""The traced benchmark run (benchmark/layers.py) wraps kwavelab functions
by name and reads some of their call arguments by name, so removing one of
those functions or renaming one of those arguments must fail here, not only
in a traced benchmark run. Only reads benchmark/."""

import os

import kwavelab.attractor as att
import kwavelab.cli as cli
import kwavelab.spectral as spectral

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmark")

# every layer of a simulate and a pullback run, as small as it gets: a cubic g
# (grid transforms), forcing, a fitted (rho, chi) (the feasibility scan) and
# two horizons at two deltas (the Hausdorff semi-distance), each an even
# number of steps, as the step-doubling pass needs
TINY = """
model.dim = 1
model.lambda = 0.1
model.g.kind = cubic_soft
model.h.kind = separable
model.h.amplitude = 0.5
disc.n_modes = 4
disc.dt = 0.01
disc.t_end = 0.1
ic.kind = sample
energy.grid_n = 8
attractor.n_points = 4
attractor.taus = 0.06, 0.1
attractor.deltas = 0.1, 0.0
"""
# the wrapped names whose spans take attributes from the call arguments and
# that these runs reach (model.eval_g is wrapped at a site that never calls it)
WITH_ATTRS = {"spectral.eval_nonlinearity_modal", "spectral.integral_of_G",
              "model.eval_g_value", "integrator.run", "integrator.evolve_ensemble",
              "energy.build_ledger", "energy.solve_feasibility",
              "attractor.hausdorff_semidist"}


def test_every_traced_name_exists_and_is_restored(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK)
    import layers
    from tracer import Tracer

    originals = (spectral.integral_of_G, att.pullback_cloud, cli.main)
    tracer = Tracer()
    try:
        layers.install(tracer)  # AttributeError if a wrapped name is gone
        assert spectral.integral_of_G is not originals[0]
        assert att.pullback_cloud is not originals[1] and cli.main is not originals[2]
    finally:
        tracer.restore()
    assert (spectral.integral_of_G, att.pullback_cloud, cli.main) == originals


def test_every_span_resolves_its_attributes(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(BENCHMARK)
    import layers
    from tracer import Tracer

    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    tracer = Tracer()
    try:
        layers.install(tracer)
        for command in ("simulate", "pullback"):
            # a renamed argument raises KeyError from inside the traced call;
            # whether the run's checks pass is not what this test is about
            code = cli.main([command, "--config", str(config), "--out", str(tmp_path / command)])
            assert code in (0, 1), command
    finally:
        tracer.restore()
    spans = tracer.spans
    assert WITH_ATTRS <= {s.name for s in spans}
    assert all(s.attrs for s in spans if s.name in WITH_ATTRS)
    layers.layer_metrics(spans, threads=1)  # reads every attribute it defines
