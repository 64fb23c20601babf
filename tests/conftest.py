import numpy as np
import pytest

import kwavelab as kw
from kwavelab.energy import EnergyParams


@pytest.fixture(scope="session")
def linear_setup():
    """d=1 strongly damped wave, no Kirchhoff term, no forcing."""
    spec = kw.ModelSpec()
    basis = kw.Basis(1, 8)
    return spec, basis


@pytest.fixture(scope="session")
def linear_trajectory(linear_setup):
    spec, basis = linear_setup
    u0 = np.zeros(basis.n_modes)
    u0[0] = 1.0
    ic = kw.ModalState(u0, np.zeros(basis.n_modes), 0.0)
    cfg = kw.StepConfig(dt=1e-3, t_start=0.0, t_end=20.0, record_every=10)
    return kw.run(ic, spec, basis, cfg)


@pytest.fixture(scope="session")
def cubic3d_setup():
    """d=3 defocusing cubic with decaying mass and separable forcing."""
    spec = kw.ModelSpec(
        delta=0.1, lam=0.1,
        epsilon=kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5),
        g=kw.NonlinearitySpec("cubic_soft"),
        h=kw.ForcingSpec(kind="separable", amplitude=1.0, rate=0.5, mode=1, sigma=1.0))
    basis = kw.Basis(3, 6)
    return spec, basis


@pytest.fixture(scope="session")
def hand_instance():
    """Hand-checkable feasibility instance: lam1 = pi^2, L = 1, lam = 0.1."""
    spec = kw.ModelSpec(lam=0.1, g=kw.NonlinearitySpec("cubic_soft"))
    basis = kw.Basis(1, 8)
    params = EnergyParams(rho=1.0, chi=0.1, c0=0.0, c4=1.0)
    return spec, basis, params


@pytest.fixture(scope="session", params=[(1, 8), (2, 5), (3, 6)], ids=["d1", "d2", "d3"])
def forced_cubic_run(request):
    """(spec, basis, trajectory) with every term of the model on: cubic g,
    delta > 0, decaying eps and separable forcing, from t = -0.3 so that the
    kink of |h| at t = 0 lies inside. The 71 records of the d = 3 run span
    four row blocks of the grid transforms."""
    dim, n = request.param
    spec = kw.ModelSpec(
        delta=0.3, lam=0.2,
        epsilon=kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5),
        g=kw.NonlinearitySpec("cubic_soft"),
        h=kw.ForcingSpec(kind="separable", amplitude=1.0, rate=0.5, mode=2, sigma=1.0))
    basis = kw.Basis(dim, n)
    rng = np.random.default_rng(dim)
    ic = kw.ModalState(rng.standard_normal(basis.n_modes) / np.sqrt(basis.eigenvalues),
                       rng.standard_normal(basis.n_modes), -0.3)
    return spec, basis, kw.run(ic, spec, basis, kw.StepConfig(dt=1e-2, t_start=-0.3, t_end=0.4))
