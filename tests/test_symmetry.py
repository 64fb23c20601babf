"""Symmetries of the model as oracles that need no reference solution.

The equation commutes with u -> -u together with h -> -h (g is odd), with
time shifts of an autonomous model (constant eps, h = 0), with permutations
of the axes and with the reflections x_i -> 1 - x_i, which multiply mode m by
(-1)^(k_i + 1); both leave the forced mode (1, ..., 1) in place. The modes
whose k_i are all odd span an invariant subspace. Each relation is checked on
`run` (one state, every step recorded) and on `evolve_ensemble` (the endpoints
of a batch), at d = 1, 2 and 3: bitwise where every operation of the step
commutes with the map, to 1e-14 of the state where a map reorders a sum. Each
map is also an isometry of the X_t metric, so the Hausdorff semi-distance of
two mapped clouds is that of the clouds.
"""

import dataclasses
import itertools

import numpy as np
import pytest

import kwavelab as kw
from kwavelab.attractor import AttractorCloud, hausdorff_semidist
from kwavelab.spectral import sample_xt

MODES = {1: 6, 2: 4, 3: 3}  # modes per dimension at d = 1, 2, 3
DT, STEPS, MEMBERS = 2.0 ** -6, 64, 4
RTOL = 1e-14
STEPPERS = ("run", "evolve_ensemble")

DECAYING = kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5)


def forced_model(amplitude=1.0):
    """Cubic g, delta > 0, decaying eps, forcing on mode (1, ..., 1)."""
    return kw.ModelSpec(delta=0.3, lam=0.2, epsilon=DECAYING,
                        g=kw.NonlinearitySpec("cubic_soft"),
                        h=kw.ForcingSpec(kind="separable", amplitude=amplitude, rate=0.5,
                                         mode=1, sigma=1.0))


AUTONOMOUS = kw.ModelSpec(delta=0.3, lam=0.2, epsilon=kw.EpsilonProfile(alpha=1.5),
                          g=kw.NonlinearitySpec("cubic_soft"))


def start(basis, seed=0):
    """MEMBERS states of X_t norm about 2 sqrt(2 n_modes), as rows of (us, vs)."""
    rng = np.random.default_rng(seed)
    shape = (MEMBERS, basis.n_modes)
    return (2.0 * rng.standard_normal(shape) / np.sqrt(basis.eigenvalues),
            2.0 * rng.standard_normal(shape))


def flow(stepper, spec, basis, us, vs, t0=-0.5):
    """(us, vs) rows after STEPS steps of DT from t0: with ``run``, every record
    of the first state's trajectory; with ``evolve_ensemble``, every endpoint."""
    t1 = t0 + STEPS * DT
    if stepper == "run":
        traj = kw.run(kw.ModalState(us[0], vs[0], t0), spec, basis,
                      kw.StepConfig(dt=DT, t_start=t0, t_end=t1))
        return traj.us, traj.vs
    return kw.evolve_ensemble(us, vs, spec, basis, t0, t1, DT)


def swap_axes(basis, i, j):
    """x_i <-> x_j on the coefficients (columns): mode k goes to k with k_i and
    k_j exchanged, an involution."""
    ks = basis.multi_indices.copy()
    ks[:, [i, j]] = ks[:, [j, i]]
    perm = np.ravel_multi_index(tuple((ks - 1).T), (basis.modes_per_dim,) * basis.dim)
    return lambda x: x[..., perm]


def reflect_axis(basis, i):
    """x_i -> 1 - x_i on the coefficients: mode k times (-1)^(k_i + 1)."""
    sign = np.where(basis.multi_indices[:, i] % 2 == 1, 1.0, -1.0)
    return lambda x: x * sign


def spatial_maps(basis):
    """(name, map) of every axis swap and every reflection of one axis."""
    maps = [(f"swap{i}{j}", swap_axes(basis, i, j))
            for i, j in itertools.combinations(range(basis.dim), 2)]
    return maps + [(f"reflect{i}", reflect_axis(basis, i)) for i in range(basis.dim)]


def assert_close(got, want, name):
    """Equal to RTOL of the largest coefficient of ``want``."""
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want)), name


@pytest.fixture(params=sorted(MODES), ids=lambda d: f"d{d}")
def basis(request):
    return kw.Basis(request.param, MODES[request.param])


@pytest.mark.parametrize("stepper", STEPPERS)
class TestFlowSymmetries:
    def test_sign_flip_with_the_forcing_is_bitwise(self, basis, stepper):
        us, vs = start(basis)
        u, v = flow(stepper, forced_model(), basis, us, vs)
        u_neg, v_neg = flow(stepper, forced_model(-1.0), basis, -us, -vs)
        assert np.array_equal(u_neg, -u) and np.array_equal(v_neg, -v)

    def test_the_nonlinear_terms_move_the_flow(self, basis, stepper):
        # the maps must commute with g and the Kirchhoff product, so both matter here
        us, vs = start(basis)
        u, _ = flow(stepper, forced_model(), basis, us, vs)
        linear = dataclasses.replace(forced_model(), delta=0.0, g=kw.NonlinearitySpec())
        u_lin, _ = flow(stepper, linear, basis, us, vs)
        assert np.max(np.abs(u - u_lin)) > 1e-3 * np.max(np.abs(u))

    def test_time_shift_of_an_autonomous_model_is_bitwise(self, basis, stepper):
        us, vs = start(basis)
        u, v = flow(stepper, AUTONOMOUS, basis, us, vs, t0=0.0)
        u_late, v_late = flow(stepper, AUTONOMOUS, basis, us, vs, t0=3.0)
        assert np.array_equal(u_late, u) and np.array_equal(v_late, v)

    def test_axis_swaps_and_reflections_commute_with_the_flow(self, basis, stepper):
        us, vs = start(basis)
        u, v = flow(stepper, forced_model(), basis, us, vs)
        for name, sigma in spatial_maps(basis):
            u_map, v_map = flow(stepper, forced_model(), basis, sigma(us), sigma(vs))
            assert_close(u_map, sigma(u), name)
            assert_close(v_map, sigma(v), name)

    def test_all_odd_modes_span_an_invariant_subspace(self, basis, stepper):
        odd = np.all(basis.multi_indices % 2 == 1, axis=1)
        us, vs = (x * odd for x in start(basis))
        u, v = flow(stepper, forced_model(), basis, us, vs)
        size = max(np.max(np.abs(u)), np.max(np.abs(v)))
        assert np.max(np.abs(u[:, ~odd])) <= RTOL * size
        assert np.max(np.abs(v[:, ~odd])) <= RTOL * size


def test_each_map_is_an_isometry_of_the_xt_metric(basis):
    # sign flips of coordinates keep every rounding; a swap reorders the sums
    eps = kw.eval_epsilon(DECAYING, 0.0)[0]
    A, B = (AttractorCloud(0.0, 1.0, 0.0, basis,
                           *sample_xt(np.random.default_rng(seed), 16, basis, eps, 2.0))
            for seed in (1, 2))
    want = hausdorff_semidist(A, B, DECAYING)
    for name, sigma in [("sign", np.negative)] + spatial_maps(basis):
        sA, sB = (AttractorCloud(0.0, 1.0, 0.0, basis, sigma(c.us), sigma(c.vs))
                  for c in (A, B))
        got = hausdorff_semidist(sA, sB, DECAYING)
        if name.startswith("swap"):
            assert got == pytest.approx(want, rel=RTOL, abs=0.0), name
        else:
            assert got == want, name
