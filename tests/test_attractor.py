import dataclasses
import math
import multiprocessing
import re
import time

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import kstest

import kwavelab as kw
import kwavelab.attractor as att
from kwavelab.attractor import (AttractorCloud, EnsembleSpec, hausdorff_semidist,
                                pullback_cloud, semicontinuity_sweep, verify_absorbing)
from kwavelab.energy import EnergyParams, eval_B
from kwavelab.spectral import sample_xt, xt_scale


@pytest.fixture(scope="module")
def forced_setup():
    spec = kw.ModelSpec(h=kw.ForcingSpec(kind="separable", amplitude=0.5,
                                                rate=0.5, mode=1, sigma=1.0))
    basis = kw.Basis(1, 8)
    params = EnergyParams(rho=1.0, chi=0.2, sigma1=0.1, c0=0.0, c4=1.0)
    return spec, basis, params


@pytest.fixture(scope="module")
def free_setup():
    spec = kw.ModelSpec()
    basis = kw.Basis(1, 8)
    params = EnergyParams(rho=1.0, chi=0.2, sigma1=0.1, c0=0.0, c4=1.0)
    return spec, basis, params


def all_pair_sq_dists(P, Q):
    """Squared distances between every row of P and every row of Q,
    (len(P), len(Q)), by the exact kernel."""
    ia, ib = np.divmod(np.arange(len(P) * len(Q)), len(Q))
    return att._sq_dist(P, Q, ia, ib).reshape(len(P), len(Q))


def all_pair_dists(P, Q):
    return np.sqrt(all_pair_sq_dists(P, Q))


def screening_cases():
    """(P, Q) pairs on which screening could drop a row's nearest point if its
    bound were not rigorous."""
    rng = np.random.default_rng(14)
    P = rng.standard_normal((40, 24))
    lattice = rng.integers(-2, 3, (50, 6)).astype(float)  # many exact ties
    ring = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    far = rng.standard_normal((20, 50)) + 1e3
    sub = rng.standard_normal((20, 8)) * 1e-162
    cases = {
        # five candidates per row nearer to each other than the GEMM's rounding
        "near_ties_far_from_origin": (
            far, np.repeat(far, 5, axis=0) + 1e-7 * rng.standard_normal((100, 50))),
        # squares below the smallest normal: only the bound's tiny term covers them
        "near_ties_subnormal": (
            sub, np.repeat(sub, 5, axis=0) + 1e-163 * rng.standard_normal((100, 8))),
        "ties_and_duplicates": (lattice[:30], np.concatenate([lattice[10:], lattice[10:20]])),
        "a_is_b": (P, P),
        "b_is_a_shifted_one_ulp": (P, np.nextafter(P, np.inf)),
        "equidistant_candidates": (np.zeros((3, 2)), ring),
        "equidistant_scaled": (np.array([[0.5, 0.5]]) * 1e-3, ring * 1e-3 + 0.5e-3),
        "tiny_1e-150": (P * 1e-150, (P[::-1] + 1e-9 * rng.standard_normal(P.shape)) * 1e-150),
        "huge_1e150": (P * 1e150, (P[::-1] + 1e-9 * rng.standard_normal(P.shape)) * 1e150),
        "one_by_n": (P[:1], P[1:]),
        "n_by_one": (P[1:], P[:1]),
    }
    return [pytest.param(P, Q, id=name) for name, (P, Q) in cases.items()]


def cloud_from_states(states, basis, t, delta=0.0, tau=0.0):
    us = np.stack([s.u for s in states])
    vs = np.stack([s.v for s in states])
    return AttractorCloud(t, tau, delta, basis, us, vs)


class TestSampling:
    def test_single_sphere_point_on_boundary(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=1, sampling="sphere_surface", seed=5, taus=(1.0,), dt=1e-2)
        us, vs = att._sample_arrays(spec, params, basis, 0.0, ens)
        assert us.shape == vs.shape == (1, basis.n_modes)
        radius = eval_B(0.0, spec, params)
        state = kw.ModalState(us[0], vs[0], 0.0)
        assert math.sqrt(kw.xt_norm_sq(basis, state, spec.epsilon)) == pytest.approx(
            radius, abs=1e-10)

    def test_ball_samples_inside_with_radial_law(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=10_000, sampling="ball_uniform", seed=1, taus=(1.0,),
                           dt=1e-2)
        us, vs = att._sample_arrays(spec, params, basis, 0.0, ens)
        radius = eval_B(0.0, spec, params)
        norms = np.sqrt(kw.xt_norm_sq(basis, kw.ModalState(us, vs, 0.0), spec.epsilon))
        assert norms.shape == (ens.n_points,)
        assert np.all(norms <= radius * (1 + 1e-10))
        D = 2 * basis.n_modes
        stat = kstest(norms / radius, lambda r: np.clip(r, 0, 1) ** D)
        assert stat.pvalue > 0.01

    def test_seed_reproducibility(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=16, seed=42, taus=(1.0,), dt=1e-2)
        ua, va = att._sample_arrays(spec, params, basis, 0.0, ens)
        ub, vb = att._sample_arrays(spec, params, basis, 0.0, ens)
        assert np.array_equal(ua, ub) and np.array_equal(va, vb)


class TestEnsembleSpec:
    @pytest.mark.parametrize("field,value,message", [
        ("deltas", (), "attractor.deltas must be nonnegative, distinct and nonempty, not []"),
        ("deltas", (0.2, -0.1, 0.0), "not [0.2, -0.1, 0.0]"),
        ("deltas", (0.1, 0.1, 0.0), "not [0.1, 0.1, 0.0]"),
        ("dt", 0.0, "attractor.dt = 0 must be positive"),
        ("dt", -0.005, "attractor.dt = -0.005 must be positive")],
        ids=["empty_deltas", "negative_delta", "repeated_delta", "zero_dt", "negative_dt"])
    def test_rejects_what_load_rejects(self, field, value, message):
        fields = {"deltas": (0.1, 0.0), "dt": 1e-2, field: value}
        with pytest.raises(ValueError, match=re.escape(message)):
            EnsembleSpec(**fields)

    def test_resolves_the_lists_to_floats(self):
        ens = EnsembleSpec(taus=(1, 2), deltas=(0, 1), dt=0.5)
        assert ens.taus == (1.0, 2.0) and ens.deltas == (0.0, 1.0)
        assert all(type(x) is float for x in ens.taus + ens.deltas)


class TestPullbackCloud:
    def test_tau_zero_is_initial_sample(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=8, seed=3, taus=(1.0,), t_star=0.0, dt=1e-2)
        cloud = pullback_cloud(spec, params, basis, ens, tau=0.0)
        us, vs = att._sample_arrays(spec, params, basis, 0.0, ens)
        assert np.array_equal(cloud.us, us) and np.array_equal(cloud.vs, vs)

    def test_unforced_linear_cloud_collapses(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=16, seed=3, taus=(5.0, 10.0, 20.0), dt=5e-3)
        diam = []
        max_norm = []
        for tau in ens.taus:
            cloud = pullback_cloud(spec, params, basis, ens, tau)
            scale_u, scale_v = xt_scale(basis, kw.eval_epsilon(spec.epsilon, cloud.t_star)[0])
            P = np.concatenate([cloud.us * scale_u, cloud.vs * scale_v], axis=1)
            diam.append(float(np.max(all_pair_dists(P, P))))
            norms = (np.sum(basis.eigenvalues * cloud.us ** 2, axis=1)
                     + np.sum(cloud.vs ** 2, axis=1))
            max_norm.append(float(np.sqrt(np.max(norms))))
        assert diam[0] > diam[1] > diam[2]
        assert diam[2] < 1e-4
        # exponential envelope: fitted rate is positive
        rate = -np.polyfit(ens.taus, np.log(max_norm), 1)[0]
        assert rate > 0.5

    def test_forced_cloud_cauchy_in_tau(self, forced_setup):
        # past the transient (rate ~ 1) the endpoint set stabilizes in tau
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=8, seed=9, taus=(10.0, 16.0), dt=5e-3)
        c1 = pullback_cloud(spec, params, basis, ens, 10.0)
        c2 = pullback_cloud(spec, params, basis, ens, 16.0)
        assert hausdorff_semidist(c2, c1, spec.epsilon) < 1e-4

    def test_blowup_propagates_member_index(self, free_setup):
        from kwavelab.integrator import BlowUpError
        spec = kw.ModelSpec(delta=1.0)
        _, basis, _ = free_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0, c14=1e12)
        ens = EnsembleSpec(n_points=4, sampling="sphere_surface", seed=0, taus=(5.0,), dt=0.1)
        with pytest.raises(BlowUpError) as exc:
            pullback_cloud(spec, params, basis, ens, 5.0)
        assert exc.value.member is not None

    def test_bitwise_deterministic(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=8, seed=11, taus=(2.0,), dt=1e-2)
        a = pullback_cloud(spec, params, basis, ens, 2.0)
        b = pullback_cloud(spec, params, basis, ens, 2.0)
        assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)


class TestHausdorff:
    def test_reflexive_zero(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=8, seed=1, taus=(1.0,), dt=1e-2)
        cloud = pullback_cloud(spec, params, basis, ens, 0.0)
        assert hausdorff_semidist(cloud, cloud, spec.epsilon) == 0.0

    def test_singletons_equal_norm_of_difference(self, free_setup):
        spec, basis, _ = free_setup
        rng = np.random.default_rng(2)
        x = kw.ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
        y = kw.ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
        A = cloud_from_states([x], basis, 0.0)
        B = cloud_from_states([y], basis, 0.0)
        diff = kw.ModalState(x.u - y.u, x.v - y.v, 0.0)
        expected = math.sqrt(kw.xt_norm_sq(basis, diff, spec.epsilon))
        assert hausdorff_semidist(A, B, spec.epsilon) == pytest.approx(expected, abs=1e-12)

    def test_asymmetry_on_strict_inclusion(self, free_setup):
        spec, basis, _ = free_setup
        rng = np.random.default_rng(4)
        states = [kw.ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
                  for _ in range(6)]
        B = cloud_from_states(states, basis, 0.0)
        A = cloud_from_states(states[:3], basis, 0.0)
        assert hausdorff_semidist(A, B, spec.epsilon) == 0.0
        assert hausdorff_semidist(B, A, spec.epsilon) > 0.0

    def test_semi_triangle_inequality(self, free_setup):
        spec, basis, _ = free_setup
        rng = np.random.default_rng(6)
        for _ in range(1000):
            clouds = []
            for _ in range(3):
                n = int(rng.integers(1, 6))
                clouds.append(AttractorCloud(0.0, 0.0, 0.0, basis,
                                             rng.standard_normal((n, 8)),
                                             rng.standard_normal((n, 8))))
            A, B, C = clouds
            dAC = hausdorff_semidist(A, C, spec.epsilon)
            dAB = hausdorff_semidist(A, B, spec.epsilon)
            dBC = hausdorff_semidist(B, C, spec.epsilon)
            assert dAC <= dAB + dBC + 1e-12

    @pytest.mark.parametrize("n_a, n_b, dim", [(64, 64, 432), (64, 64, 512), (7, 3, 33),
                                               (1, 5, 1), (1100, 1000, 3)])
    def test_pairwise_distances_equal_cdist_bitwise(self, n_a, n_b, dim):
        rng = np.random.default_rng(n_a + dim)
        P = rng.standard_normal((n_a, dim)) * np.logspace(-3, 3, dim)
        Q = P[rng.integers(0, n_a, n_b)] + 1e-4 * rng.standard_normal((n_b, dim))
        assert np.array_equal(all_pair_dists(P, Q), cdist(P, Q))

    @pytest.mark.parametrize("P, Q", screening_cases())
    def test_screened_distance_equals_brute_force_bitwise(self, P, Q):
        brute = float(np.max(np.min(cdist(P, Q), axis=1)))
        assert float(np.sqrt(np.max(att._min_sq_dist(P, Q)))) == brute
        assert np.array_equal(att._min_sq_dist(P, Q), np.min(all_pair_sq_dists(P, Q), axis=1))

    def test_screening_leaves_one_candidate_per_row(self, monkeypatch):
        # at a sweep's cloud shape the GEMM screen leaves only the nearest point
        rng = np.random.default_rng(5)
        P = rng.standard_normal((64, 512))
        Q = P[rng.permutation(64)] + 0.1 * rng.standard_normal((64, 512))
        pairs = []
        sq_dist = att._sq_dist

        def counting(P, Q, ia, ib):
            pairs.append(ia.size)
            return sq_dist(P, Q, ia, ib)

        monkeypatch.setattr(att, "_sq_dist", counting)
        att._min_sq_dist(P, Q)
        assert pairs == [64]

    def test_hausdorff_semidist_equals_brute_force_bitwise(self, free_setup):
        spec, basis, _ = free_setup
        rng = np.random.default_rng(3)
        A = AttractorCloud(0.0, 0.0, 0.0, basis, rng.standard_normal((9, 8)),
                           rng.standard_normal((9, 8)))
        B = AttractorCloud(0.0, 0.0, 0.0, basis, A.us[::-1] + 1e-12, A.vs[::-1])
        scale_u, scale_v = xt_scale(basis, kw.eval_epsilon(spec.epsilon, 0.0)[0])
        P, Q = (np.concatenate([c.us * scale_u, c.vs * scale_v], axis=1) for c in (A, B))
        assert hausdorff_semidist(A, B, spec.epsilon) == float(np.max(np.min(cdist(P, Q), axis=1)))

    def test_empty_cloud_rejected(self, free_setup):
        spec, basis, _ = free_setup
        empty = AttractorCloud(0.0, 0.0, 0.0, basis, np.empty((0, 8)), np.empty((0, 8)))
        other = AttractorCloud(0.0, 0.0, 0.0, basis, np.zeros((1, 8)), np.zeros((1, 8)))
        with pytest.raises(ValueError):
            hausdorff_semidist(empty, other, spec.epsilon)


# eps at the cloud time that leaves X_t unnormed: zero (1 - e^0), negative
# (eps_increasing.cfg's profile at t = -1) and not finite
BAD_EPS = {
    "zero": (kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=-1.0), 0.0),
    "negative": (kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=-0.5), -1.0),
    "inf": (kw.EpsilonProfile(alpha=math.inf), 0.0),
    "minus_inf": (kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0,
                                    amplitude=-math.inf), 0.0),
    "nan": (kw.EpsilonProfile(alpha=math.nan), 0.0),
}


@pytest.mark.parametrize("case", sorted(BAD_EPS))
class TestXtPrecondition:
    def test_sample_xt_rejects_eps(self, case, free_setup):
        _, basis, _ = free_setup
        profile, t = BAD_EPS[case]
        eps = kw.eval_epsilon(profile, t)[0]
        with pytest.raises(ValueError, match="X_t metric needs a finite eps > 0"):
            sample_xt(np.random.default_rng(0), 4, basis, eps, 1.0)

    def test_hausdorff_semidist_rejects_eps(self, case, free_setup):
        _, basis, _ = free_setup
        profile, t = BAD_EPS[case]
        rng = np.random.default_rng(1)
        A, B = (AttractorCloud(t, 1.0, 0.0, basis, rng.standard_normal((3, 8)),
                               rng.standard_normal((3, 8))) for _ in range(2))
        with pytest.raises(ValueError, match="X_t metric needs a finite eps > 0"):
            hausdorff_semidist(A, B, profile)


class TestAbsorbing:
    def test_unforced_linear_absorbed_quickly(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=16, seed=2, taus=(2.0, 5.0, 10.0), t_star=0.0,
                           deltas=(spec.delta,), dt=5e-3)
        rep, = verify_absorbing(spec, params, basis, ens)
        assert rep.passed
        assert all(r.fraction_inside == 1.0 for r in rep.rows)

    def test_tau_zero_boundary_case(self, free_setup):
        # two steps of 1e-9, so the doubling pass takes one
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=8, sampling="sphere_surface", seed=2, taus=(2e-9,),
                           t_star=0.0, deltas=(spec.delta,), dt=1e-9)
        rep, = verify_absorbing(spec, params, basis, ens)
        assert rep.rows[0].fraction_inside == 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_clouds_are_the_pullback_clouds(self, forced_setup, threads):
        spec, basis, params = forced_setup
        deltas = [0.1, 0.0]
        ens = EnsembleSpec(n_points=8, seed=4, taus=(1.0, 2.0, 3.0), t_star=0.5,
                           deltas=deltas, dt=1e-2)
        reps = verify_absorbing(spec, params, basis, ens, threads=threads)
        assert len(reps) == len(deltas)
        for delta, rep in zip(deltas, reps):
            refs = [pullback_cloud(spec.with_delta(delta), params, basis, ens, tau)
                    for tau in ens.taus]
            assert len(rep.clouds) == len(refs)
            for cloud, ref, row in zip(rep.clouds, refs, rep.rows):
                assert cloud.tau == ref.tau == row.tau
                assert cloud.delta == ref.delta == delta
                assert np.array_equal(cloud.us, ref.us) and np.array_equal(cloud.vs, ref.vs)
                assert row.cauchy_gap == hausdorff_semidist(ref, refs[-1], spec.epsilon)
            assert rep.rows[0].cauchy_gap > 0.0
            assert rep.rows[-1].cauchy_gap == 0.0
            assert "clouds" not in rep.to_dict()

    def test_last_row_skips_the_self_distance(self, forced_setup, monkeypatch):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=4, seed=1, taus=(1.0, 2.0, 3.0), t_star=0.0,
                           deltas=(0.2, 0.0), dt=1e-2)
        pairs = []
        semidist = att.hausdorff_semidist

        def counting(A, B, eps_profile):
            pairs.append((A.delta, A.tau, B.tau))
            return semidist(A, B, eps_profile)

        monkeypatch.setattr(att, "hausdorff_semidist", counting)
        reps = verify_absorbing(spec, params, basis, ens)
        # each gap once at dt and once at 2 dt
        assert pairs == [(d, tau, 3.0) for d in (0.2, 0.0) for tau in (1.0, 2.0)
                         for _ in range(2)]
        assert all(rep.rows[-1].cauchy_gap == 0.0 for rep in reps)

    def test_smaller_c14_needs_longer_horizon(self, forced_setup):
        spec, basis, _ = forced_setup
        taus = tuple(float(t) for t in range(1, 11))
        Ts = []
        for c14 in (4.0, 0.25):
            params = EnergyParams(rho=1.0, chi=0.2, sigma1=0.1, c0=0.0, c4=1.0, c14=c14)
            ens = EnsembleSpec(n_points=16, seed=2, taus=taus, t_star=0.0,
                               deltas=(spec.delta,), dt=5e-3)
            rep, = verify_absorbing(spec, params, basis, ens)
            assert rep.passed
            Ts.append(rep.empirical_T)
        assert Ts[1] >= Ts[0]


PULLBACK_CFG = """
model.dim = 1
model.delta = 0.1
model.h.kind = separable
model.h.amplitude = 0.5
disc.n_modes = 8
disc.dt = 0.01
disc.t_end = 1.0
energy.rho = 1.0
energy.chi = 0.2
energy.sigma1 = 0.1
attractor.n_points = 4
attractor.taus = 4, 8
attractor.deltas = 0.1, 0.0
attractor.dt = 0.01
"""


def test_pullback_command_evolves_each_leg_once_per_step(tmp_path, monkeypatch):
    from kwavelab.cli import main
    batches = []
    evolve = att._evolve_legs

    def counting(legs_in, basis, threads):
        batches.append([(spec.delta, t0, t1, dt) for spec, _, _, t0, t1, dt in legs_in])
        return evolve(legs_in, basis, threads)

    monkeypatch.setattr(att, "_evolve_legs", counting)
    path = tmp_path / "pullback.cfg"
    path.write_text(PULLBACK_CFG)
    assert main(["pullback", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    # one batch: per delta, the fine legs, then the same legs at 2 dt
    assert batches == [[(d, -tau, 0.0, dt) for d in (0.1, 0.0) for dt in (0.01, 0.02)
                        for tau in (4.0, 8.0)]]


class TestStepDoubling:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_coarse_clouds_are_a_run_at_twice_the_step(self, forced_setup, threads):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=6, seed=4, taus=(0.4, 0.8), t_star=0.25,
                           deltas=(0.1, 0.0), dt=1e-2)
        doubled = dataclasses.replace(ens, dt=2 * ens.dt)
        both = list(att._clouds(spec, params, basis, ens, ens.deltas, ens.taus, threads))
        alone = list(att._clouds(spec, params, basis, doubled, ens.deltas, ens.taus, 1))
        assert len(both) == len(alone) == len(ens.deltas)
        for (_, coarse), (ref, _) in zip(both, alone):
            for a, b in zip(coarse, ref, strict=True):
                assert (a.t_star, a.tau, a.delta) == (b.t_star, b.tau, b.delta)
                assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)

    def test_absorbing_dt_gap_is_the_richardson_estimate(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=6, seed=2, taus=(1.0, 2.0), t_star=0.0,
                           deltas=(0.2, 0.0), dt=2.5e-2)
        fine = verify_absorbing(spec, params, basis, ens)
        coarse = verify_absorbing(spec, params, basis, dataclasses.replace(ens, dt=2 * ens.dt))
        for a, b in zip(fine, coarse, strict=True):
            for r, q in zip(a.rows, b.rows, strict=True):
                assert r.dt_gap == max(abs(r.worst_ratio - q.worst_ratio),
                                       abs(r.cauchy_gap - q.cauchy_gap)) / 3.0
                assert 0.0 < r.dt_gap < 1e-2 * r.worst_ratio
            assert [row["dt_gap"] for row in a.to_dict()["rows"]] == [r.dt_gap for r in a.rows]

    def test_sweep_dt_gap_is_the_richardson_estimate(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=6, seed=2, taus=(2.0,), t_star=0.0,
                           deltas=(0.2, 0.1, 0.0), dt=2.5e-2)
        fine = semicontinuity_sweep(spec, params, basis, ens)
        coarse = semicontinuity_sweep(spec, params, basis,
                                      dataclasses.replace(ens, dt=2 * ens.dt))
        assert [r.dt_gap for r in fine.rows] == [
            abs(r.dist - q.dist) / 3.0 for r, q in zip(fine.rows, coarse.rows, strict=True)]
        assert all(0.0 < r.dt_gap < 1e-2 * r.dist for r in fine.rows[:-1])
        assert fine.rows[-1].dt_gap == 0.0
        assert [row["dt_gap"] for row in fine.to_dict()["rows"]] == [r.dt_gap for r in fine.rows]

    def test_pullback_cloud_is_one_fine_leg(self, forced_setup, monkeypatch):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=4, seed=1, taus=(1.0,), dt=1e-2)
        steps = []
        evolve = att.evolve_ensemble

        def counting(us, vs, spec, basis, t0, t1, dt):
            steps.append(dt)
            return evolve(us, vs, spec, basis, t0, t1, dt)

        monkeypatch.setattr(att, "evolve_ensemble", counting)
        pullback_cloud(spec, params, basis, ens, 1.0)
        assert steps == [1e-2]


class TestLegScheduler:
    @pytest.mark.parametrize("threads", [2, 3, 4, 8, 10 ** 6])
    def test_whole_legs_longest_first(self, threads):
        sizes = [(64, 100.0), (64, 200.0), (32, 200.0), (64, 50.0)]
        order, workers = att._plan_pool(sizes, threads)  # planning only: no thread starts
        assert order == [1, 0, 2, 3]
        assert workers == min(threads, len(sizes))

    @staticmethod
    def record_pool(monkeypatch):
        """Put a recorder in place of _leg_pool: it notes the worker count of
        every pool asked for and the leg (rows, t0, dt) of every submission,
        and hands each leg to the process's pool of that worker count."""
        workers, submitted, leg_pool = [], [], att._leg_pool

        class Recording:
            def __init__(self, max_workers):
                workers.append(max_workers)
                self.pool = leg_pool(max_workers)

            def submit(self, fn, us, vs, spec, basis, t0, t1, dt):
                submitted.append((us.shape[0], t0, dt))
                return self.pool.submit(fn, us, vs, spec, basis, t0, t1, dt)

        monkeypatch.setattr(att, "_leg_pool", Recording)
        return workers, submitted

    def test_dt_leg_goes_before_the_2dt_leg_of_the_same_span(self, free_setup,
                                                             monkeypatch):
        # the 2 dt leg has half the member-steps, though the span and the
        # members are the same
        spec, basis, _ = free_setup
        us = np.zeros((4, basis.n_modes))
        legs = [(spec, us, us, -0.4, 0.0, 0.02), (spec, us, us, -0.4, 0.0, 0.01)]
        _, submitted = self.record_pool(monkeypatch)
        list(att._evolve_legs(legs, basis, 2))
        assert [dt for _, _, dt in submitted] == [0.01, 0.02]

    @pytest.mark.parametrize("n_legs, threads", [(2, 3), (3, 2), (4, 4)])
    def test_pool_runs_whole_legs_longest_first(self, free_setup, monkeypatch,
                                                n_legs, threads):
        spec, basis, _ = free_setup
        rng = np.random.default_rng(3)
        us, vs = 0.1 * rng.standard_normal((2, 4, basis.n_modes))
        legs = [(spec.with_delta(0.1 * k), us, vs, -0.1 * (k + 1), 0.0, 1e-2)
                for k in range(n_legs)]
        solo = list(att._evolve_legs(legs, basis, 1))
        workers, submitted = self.record_pool(monkeypatch)
        multi = list(att._evolve_legs(legs, basis, threads))
        assert workers == [min(threads, n_legs)]
        assert [(rows, t0) for rows, t0, _ in submitted] == [
            (4, -0.1 * (k + 1)) for k in reversed(range(n_legs))]
        assert len(multi) == n_legs
        for (ua, va), (ub, vb) in zip(solo, multi):
            assert np.array_equal(ua, ub) and np.array_equal(va, vb)

    def test_fewer_than_two_legs_start_no_pool(self, free_setup, monkeypatch):
        spec, basis, _ = free_setup
        monkeypatch.setattr(att, "_leg_pool", None)
        assert list(att._evolve_legs([], basis, 2)) == []
        us = np.zeros((2, basis.n_modes))
        (ue, ve), = att._evolve_legs([(spec, us, us, -0.1, 0.0, 1e-2)], basis, 2)
        assert ue.shape == ve.shape == us.shape

    def test_blowup_is_that_of_the_first_failing_leg(self, free_setup):
        # leg 1 fails on row 3; leg 2 fails earlier in t, on row 0; leg 0 is stable
        _, basis, _ = free_setup
        spec = kw.ModelSpec(delta=1.0)
        legs = []
        for col in ([0.01, 0.02, 0.03, 0.04], [0.01, 3.0, 0.02, 1e3], [1e4, 0.01, 0.02, 0.03]):
            us = np.zeros((4, basis.n_modes))
            us[:, 0] = col
            legs.append((spec, us, np.zeros_like(us), 0.0, 5.0, 0.1))
        from kwavelab.integrator import BlowUpError
        seen = set()
        for threads in (1, 2, 3, 4):
            with pytest.raises(BlowUpError) as exc:
                list(att._evolve_legs(legs, basis, threads))
            seen.add((exc.value.t, exc.value.member, exc.value.mode, str(exc.value)))
        assert len(seen) == 1 and seen.pop()[1] == 3

    def test_blowup_is_raised_after_every_leg_has_ended(self, free_setup, monkeypatch):
        # leg 0 fails at once; the stable legs take longer, and must all have
        # ended when the blow-up reaches the caller
        _, basis, _ = free_setup
        spec = kw.ModelSpec(delta=1.0)
        legs = []
        for amp in (1e4, 0.01, 0.02):
            us = np.zeros((4, basis.n_modes))
            us[:, 0] = amp
            legs.append((spec, us, np.zeros_like(us), 0.0, 1.0, 0.1))
        ended, evolve = [], att.evolve_ensemble

        def leg(us, *args):
            try:
                if us[0, 0] < 1.0:  # a stable leg
                    time.sleep(0.2)
                return evolve(us, *args)
            finally:
                ended.append(float(us[0, 0]))

        monkeypatch.setattr(att, "evolve_ensemble", leg)
        from kwavelab.integrator import BlowUpError
        with pytest.raises(BlowUpError):
            list(att._evolve_legs(legs, basis, 2))
        assert sorted(ended) == [0.01, 0.02, 1e4]

    def test_a_forked_child_runs_legs_on_a_pool_of_its_own(self, free_setup):
        # the child inherits the parent's pool object but not its threads, so
        # a pool it took over would never run what the child submits
        spec, basis, _ = free_setup
        rng = np.random.default_rng(8)
        us, vs = 0.1 * rng.standard_normal((2, 4, basis.n_modes))
        legs = [(spec.with_delta(0.1 * k), us, vs, -0.1 * (k + 1), 0.0, 1e-2) for k in range(3)]
        serial = list(att._evolve_legs(legs, basis, 1))
        list(att._evolve_legs(legs, basis, 2))  # the parent's pool of 2 now has threads

        def child(conn):
            conn.send(list(att._evolve_legs(legs, basis, 2)))
            conn.close()

        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=child, args=(send,))
        proc.start()
        send.close()
        try:
            assert recv.poll(60), "the forked child's legs did not end"
            ends = recv.recv()
        finally:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        assert len(ends) == len(serial)
        for (ua, va), (ub, vb) in zip(serial, ends):
            assert np.array_equal(ua, ub) and np.array_equal(va, vb)


class TestSemicontinuity:
    def test_delta_zero_only_row_is_exact_zero(self, free_setup):
        spec, basis, params = free_setup
        ens = EnsembleSpec(n_points=8, seed=1, taus=(2.0,), t_star=0.0, deltas=(0.0,),
                           dt=1e-2)
        sweep = semicontinuity_sweep(spec, params, basis, ens)
        assert len(sweep.rows) == 1
        assert sweep.rows[0].dist == 0.0

    def test_no_positive_delta_evolves_no_leg(self, free_setup, monkeypatch):
        # no distance reads the delta = 0 clouds, so neither is evolved
        spec, basis, params = free_setup
        calls = []
        monkeypatch.setattr(att, "_evolve_legs", lambda *args: calls.append(args))
        ens = EnsembleSpec(n_points=8, seed=1, taus=(2.0,), t_star=0.0, deltas=(0.0,),
                           dt=1e-2)
        sweep = semicontinuity_sweep(spec, params, basis, ens, threads=2)
        assert calls == []
        assert sweep.rows == (att.SweepRow(0.0, 0.0, 0.0),)
        assert sweep.fitted_order is None

    def test_reference_row_skips_the_self_distance(self, forced_setup, monkeypatch):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=4, seed=1, taus=(1.0,), t_star=0.0,
                           deltas=(0.2, 0.1, 0.0), dt=1e-2)
        pairs = []
        semidist = att.hausdorff_semidist

        def counting(A, B, eps_profile):
            pairs.append((A.delta, B.delta))
            return semidist(A, B, eps_profile)

        monkeypatch.setattr(att, "hausdorff_semidist", counting)
        sweep = semicontinuity_sweep(spec, params, basis, ens)
        assert pairs == [(0.2, 0.0), (0.2, 0.0), (0.1, 0.0), (0.1, 0.0)]  # at dt, at 2 dt
        assert sweep.rows[-1].dist == 0.0

    def test_distances_track_delta(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=12, seed=1, taus=(4.0,), t_star=0.0,
                           deltas=(0.4, 0.2, 0.1, 0.0), dt=5e-3)
        sweep = semicontinuity_sweep(spec, params, basis, ens)
        d = [r.dist for r in sweep.rows if r.delta > 0]
        assert d[0] > d[1] > d[2] > 0
        assert sweep.rows[-1].dist == 0.0
        assert sweep.fitted_order == pytest.approx(1.0, abs=0.35)

    def test_any_delta_order_gives_the_descending_sweep(self, forced_setup):
        # the sweep sorts the deltas itself and adds the delta = 0 reference
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=4, seed=1, taus=(1.0,), t_star=0.0,
                           deltas=(0.3, 0.2, 0.1, 0.0), dt=1e-2)
        ref = semicontinuity_sweep(spec, params, basis, ens)
        assert [r.delta for r in ref.rows] == [0.3, 0.2, 0.1, 0.0]
        for deltas in ([0.1, 0.2, 0.3], [0.2, 0.3, 0.1]):
            assert semicontinuity_sweep(spec, params, basis,
                                        dataclasses.replace(ens, deltas=deltas)) == ref

    def test_rows_are_distances_between_pullback_clouds(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=4, seed=3, taus=(1.0,), t_star=0.0, deltas=(0.1, 0.2),
                           dt=1e-2)
        sweep = semicontinuity_sweep(spec, params, basis, ens)
        clouds = {d: pullback_cloud(spec.with_delta(d), params, basis, ens, 1.0)
                  for d in (0.2, 0.1, 0.0)}
        assert [(r.delta, r.dist) for r in sweep.rows] == [
            (d, hausdorff_semidist(clouds[d], clouds[0.0], spec.epsilon)) for d in clouds]

    def test_threads_do_not_change_membership(self, forced_setup):
        spec, basis, params = forced_setup
        ens = EnsembleSpec(n_points=8, seed=5, taus=(1.0, 2.0), t_star=0.0,
                           deltas=(0.2, 0.1, 0.0), dt=1e-2)
        solo = semicontinuity_sweep(spec, params, basis, ens, threads=1)
        for threads in (2, 4):
            multi = semicontinuity_sweep(spec, params, basis, ens, threads=threads)
            assert multi == solo
        ens = dataclasses.replace(ens, deltas=(0.1, 0.0))
        reps = [verify_absorbing(spec, params, basis, ens, threads)
                for threads in (1, 4)]
        for solo_rep, multi_rep in zip(*reps):
            assert multi_rep.rows == solo_rep.rows
            for a, b in zip(solo_rep.clouds, multi_rep.clouds):
                assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)
