"""The traced benchmark run (benchmark/layers.py) wraps kwavelab functions
by name, so removing one of those names must fail here, not only in a
traced benchmark run. Only reads benchmark/."""

import os

import kwavelab.attractor as att
import kwavelab.cli as cli
import kwavelab.spectral as spectral

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "benchmark")


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
