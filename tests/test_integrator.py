import math
import os
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import kwavelab as kw
from kwavelab.config import ExperimentConfig
from kwavelab.integrator import BlowUpError, StepConfig, Trajectory, run, run_decomposition
from oracles import record, run_difference, zero_state

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

try:
    import resource
except ImportError:  # not on every platform
    resource = None


def damped_mode_exact(mu, lam, u0, v0):
    """Closed form of a'' + mu a' + (mu + lam) a = 0 (eps = 1, delta = 0)."""
    r1, r2 = np.roots([1.0, mu, mu + lam])
    A = np.linalg.solve(np.array([[1.0, 1.0], [r1, r2]]), np.array([u0, v0]))

    def a(t):
        return (A[0] * np.exp(r1 * t) + A[1] * np.exp(r2 * t)).real

    def v(t):
        return (A[0] * r1 * np.exp(r1 * t) + A[1] * r2 * np.exp(r2 * t)).real

    return a, v


def single_mode_ic(basis, amp_u=1.0, amp_v=0.0, t=0.0):
    u = np.zeros(basis.n_modes)
    v = np.zeros(basis.n_modes)
    u[0], v[0] = amp_u, amp_v
    return kw.ModalState(u, v, t)


class TestStep:
    def test_linear_single_mode_vs_closed_form(self, linear_setup):
        spec, basis = linear_setup
        exact, _ = damped_mode_exact(np.pi ** 2, 0.0, 1.0, 0.0)
        traj = run(single_mode_ic(basis), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=1000))
        rel = abs(traj.us[-1, 0] - exact(1.0)) / abs(exact(1.0))
        assert rel < 1e-4

    def test_zero_data_zero_forcing_fixed_point(self, linear_setup):
        spec, basis = linear_setup
        traj = run(zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=5.0, record_every=100))
        assert not traj.us.any() and not traj.vs.any()

    def test_kirchhoff_single_mode_vs_reference_ode(self):
        spec = kw.ModelSpec(dim=1, delta=0.3, lam=0.2)
        basis = kw.Basis(1, 1)
        mu = basis.eigenvalues[0]

        def rhs(t, y):
            u, v = y
            S = mu * u * u
            return [v, -(1.0 + spec.delta * S) * mu * u - mu * v - spec.lam * u]

        ref = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        traj = run(single_mode_ic(basis), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=1000))
        rel = abs(traj.us[-1, 0] - ref.sol(1.0)[0]) / abs(ref.sol(1.0)[0])
        assert rel < 1e-4

    def test_convergence_is_second_order(self, linear_setup):
        spec, basis = linear_setup
        exact, _ = damped_mode_exact(np.pi ** 2, 0.0, 1.0, 0.0)
        errs = []
        for dt in (2e-3, 1e-3):
            traj = run(single_mode_ic(basis), spec, basis,
                       StepConfig(dt=dt, t_start=0.0, t_end=1.0,
                                  record_every=int(round(1.0 / dt))))
            errs.append(abs(traj.us[-1, 0] - exact(1.0)))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_single_step_api(self, linear_setup):
        # one step is a run over one step of dt
        spec, basis = linear_setup
        cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=1e-3)
        ic = single_mode_ic(basis, amp_v=0.5)
        u0, v0 = ic.u.copy(), ic.v.copy()
        traj = run(ic, spec, basis, cfg)
        assert traj.times.tolist() == [0.0, 1e-3]
        assert not np.array_equal(traj.us[-1], u0) and not np.array_equal(traj.vs[-1], v0)
        # the stepping loop works in its own buffers, never in the caller's
        assert np.array_equal(ic.u, u0) and np.array_equal(ic.v, v0)
        assert not np.shares_memory(traj.us, ic.u) and not np.shares_memory(traj.vs, ic.v)

    def test_blow_up_reports_time(self):
        spec = kw.ModelSpec(dim=1, delta=1.0)
        basis = kw.Basis(1, 8)
        ic = kw.ModalState(np.full(8, 1e3), np.zeros(8), 0.0)
        with pytest.raises(BlowUpError) as exc:
            run(ic, spec, basis, StepConfig(dt=0.1, t_start=0.0, t_end=50.0))
        assert math.isfinite(exc.value.t)

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_blow_up_reports_exact_step_and_mode(self, field):
        # g = 0 and delta = 0 keep the modes apart, so only mode 3 turns NaN;
        # a single record at the end must not delay the report to t_end
        spec, basis = kw.ModelSpec(dim=1), kw.Basis(1, 8)
        data = {"u": np.full(8, 0.1), "v": np.zeros(8)}
        data[field][3] = np.nan
        ic = kw.ModalState(data["u"], data["v"], 0.5)
        cfg = StepConfig(dt=0.1, t_start=0.5, t_end=1.5, record_every=10)
        with pytest.raises(BlowUpError) as exc:
            run(ic, spec, basis, cfg)
        assert exc.value.t == 0.5 + 0.1
        assert exc.value.member is None and exc.value.mode == 3
        assert str(exc.value) == "non-finite state at t = 0.6 (mode 3)"

    def test_ensemble_blow_up_names_member_and_mode(self):
        spec, basis = kw.ModelSpec(dim=1), kw.Basis(1, 8)
        us, vs = np.full((3, 8), 0.1), np.zeros((3, 8))
        us[1, 5] = np.inf  # member 2 fails in the same step; the lower row is named
        vs[2, 2] = np.nan
        with pytest.raises(BlowUpError) as exc:
            kw.evolve_ensemble(us, vs, spec, basis, 0.5, 1.5, 0.1)
        assert exc.value.t == 0.5 + 0.1
        assert (exc.value.member, exc.value.mode) == (1, 5)
        assert "(ensemble member 1, mode 5)" in str(exc.value)

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    def test_ensemble_rows_equal_single_runs_bitwise(self, dim, n):
        spec = kw.ModelSpec(
            dim=dim, delta=0.3, lam=0.1,
            epsilon=kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5),
            g=kw.NonlinearitySpec.cubic_soft(),
            h=kw.ForcingSpec(kind="separable", amplitude=1.0, rate=0.5, mode=1, sigma=1.0))
        basis = kw.Basis(dim, n)
        rng = np.random.default_rng(dim)
        us = rng.standard_normal((5, basis.n_modes)) / basis.eigenvalues
        vs = rng.standard_normal((5, basis.n_modes)) / np.sqrt(basis.eigenvalues)
        cfg = StepConfig(dt=1e-2, t_start=-0.3, t_end=0.2, record_every=50)
        us0, vs0 = us.copy(), vs.copy()
        u_end, v_end = kw.evolve_ensemble(us, vs, spec, basis, cfg.t_start, cfg.t_end, cfg.dt)
        u_keep, v_keep = u_end.copy(), v_end.copy()
        # a second call returns fresh arrays and leaves the first result and the inputs alone
        u_again, v_again = kw.evolve_ensemble(us, vs, spec, basis,
                                              cfg.t_start, cfg.t_end, cfg.dt)
        assert not np.shares_memory(u_again, u_end) and not np.shares_memory(v_again, v_end)
        assert np.array_equal(u_end, u_keep) and np.array_equal(v_end, v_keep)
        assert np.array_equal(us, us0) and np.array_equal(vs, vs0)
        for k in range(us.shape[0]):
            traj = run(kw.ModalState(us[k], vs[k], cfg.t_start), spec, basis, cfg)
            assert np.array_equal(u_end[k], traj.us[-1])
            assert np.array_equal(v_end[k], traj.vs[-1])

    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                        reason="needs getrusage minor page-fault counts (Linux)")
    def test_ensemble_page_faults_do_not_grow_with_steps(self):
        # the stepping loop allocates its work arrays once per call, so a long
        # run faults no more pages than a short one (before, about 128 per step)
        spec = kw.ModelSpec(dim=2, delta=0.1, g=kw.NonlinearitySpec.cubic_soft())
        basis = kw.Basis(2, 16)
        rng = np.random.default_rng(0)
        us = rng.standard_normal((64, basis.n_modes)) / basis.eigenvalues
        vs = rng.standard_normal((64, basis.n_modes)) / np.sqrt(basis.eigenvalues)
        dt = 1e-3

        def faults(n_steps):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            kw.evolve_ensemble(us, vs, spec, basis, 0.0, n_steps * dt, dt)
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(10)  # warm-up: caches, BLAS buffers
        short, long = faults(10), faults(200)
        assert long - short < 100, (short, long)


class TestRun:
    def test_identity_process(self, linear_setup):
        spec, basis = linear_setup
        ic = single_mode_ic(basis)
        traj = run(ic, spec, basis, StepConfig(dt=1e-3, t_start=0.0, t_end=0.0))
        assert traj.n_records == 1
        assert np.array_equal(traj.us[0], ic.u)

    def test_composition_bitwise(self):
        # time-dependent eps + forcing + cubic g so time stamps matter
        spec = kw.ModelSpec(
            dim=1, delta=0.2, lam=0.1,
            epsilon=kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5),
            g=kw.NonlinearitySpec.cubic_soft(),
            h=kw.ForcingSpec(kind="separable", amplitude=1.0, rate=0.5, mode=1, sigma=1.0))
        basis = kw.Basis(1, 8)
        ic = single_mode_ic(basis, amp_u=0.5)
        whole = run(ic, spec, basis, StepConfig(dt=1e-3, t_start=0.0, t_end=1.0,
                                                record_every=100))
        first = run(ic, spec, basis, StepConfig(dt=1e-3, t_start=0.0, t_end=0.5,
                                                record_every=100))
        nl_prev = first.resume.nl_prev.copy()
        second = run(record(first, -1), spec, basis,
                     StepConfig(dt=1e-3, t_start=0.5, t_end=1.0, record_every=100),
                     resume=first.resume)
        # the resumed run reads the history and leaves it as it was
        assert np.array_equal(first.resume.nl_prev, nl_prev)
        assert not np.shares_memory(second.resume.nl_prev, first.resume.nl_prev)
        stitched_us = np.vstack([first.us, second.us[1:]])
        stitched_vs = np.vstack([first.vs, second.vs[1:]])
        assert np.array_equal(stitched_us, whole.us)
        assert np.array_equal(stitched_vs, whole.vs)

    def test_determinism_bitwise(self, cubic3d_setup):
        spec, basis = cubic3d_setup
        rng = np.random.default_rng(2)
        ic = kw.ModalState(rng.standard_normal(basis.n_modes) * 0.05,
                           rng.standard_normal(basis.n_modes) * 0.05, 0.0)
        cfg = StepConfig(dt=1e-2, t_start=0.0, t_end=0.5, record_every=10)
        a = run(ic, spec, basis, cfg)
        b = run(ic, spec, basis, cfg)
        assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)

    def test_linear_decay_reaches_floor(self, linear_trajectory, linear_setup):
        spec, basis = linear_setup
        final = record(linear_trajectory, -1)
        assert kw.xt_norm_sq(basis, final, spec.epsilon) < 1e-6

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_dissipativity_without_forcing(self, delta):
        # unit phase-space norm keeps the Kirchhoff modulation moderate
        spec = kw.ModelSpec(dim=1, delta=delta)
        basis = kw.Basis(1, 8)
        rng = np.random.default_rng(1)
        y = rng.standard_normal(2 * basis.n_modes)
        y /= math.sqrt(np.sum(y ** 2))
        ic = kw.ModalState(y[:8] / np.sqrt(basis.eigenvalues), y[8:], 0.0)
        traj = run(ic, spec, basis, StepConfig(dt=1e-2, t_start=0.0, t_end=20.0))
        xt = np.array([kw.xt_norm_sq(basis, record(traj, i), spec.epsilon)
                       for i in range(traj.n_records)])
        assert np.all(xt[1:] <= xt[:-1] + 1e-8 * np.maximum(1.0, xt[:-1]))

    def test_rejects_non_divisible_span(self):
        with pytest.raises(ValueError):
            StepConfig(dt=0.3, t_start=0.0, t_end=1.0).n_steps


class TestReconstructAccel:
    def test_zero_equilibrium(self, linear_setup):
        spec, basis = linear_setup
        traj = run(zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=1.0))
        assert not kw.reconstruct_accel(record(traj, -1), spec, basis).any()

    def test_matches_second_difference(self, linear_setup):
        spec, basis = linear_setup
        traj = run(single_mode_ic(basis), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0))
        i = 500
        acc = kw.reconstruct_accel(record(traj, i), spec, basis)
        fd = (traj.us[i + 1] - 2 * traj.us[i] + traj.us[i - 1]) / 1e-6
        assert np.max(np.abs(acc - fd)) < 1e-3 * max(np.max(np.abs(acc)), 1e-12)

    def test_matches_reference_ode(self):
        spec = kw.ModelSpec(dim=1, delta=0.3, lam=0.2)
        basis = kw.Basis(1, 1)
        mu = basis.eigenvalues[0]

        def rhs(t, y):
            u, v = y
            return [v, -(1.0 + spec.delta * mu * u * u) * mu * u - mu * v - spec.lam * u]

        ref = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        traj = run(single_mode_ic(basis), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=1000))
        acc = kw.reconstruct_accel(record(traj, -1), spec, basis)[0]
        acc_ref = rhs(1.0, ref.sol(1.0))[1]
        assert abs(acc - acc_ref) / abs(acc_ref) < 1e-4


def heun_u1_oracle(parent, spec):
    """u1 by the per-record Heun loop: every stage evaluates S, the implicit
    diagonal and phi(u) of its own record afresh, one row at a time."""
    basis = parent.basis
    mu = basis.eigenvalues
    k_eff = max(spec.g.k, 1e-3)

    def phi(u):
        return kw.eval_nonlinearity_modal(spec.g, basis, u) - k_eff * u

    def rhs(i, a):
        u = parent.us[i]
        S = kw.grad_norm_sq(basis, u)
        return (phi(u) - phi(u - a) - ((1.0 + spec.delta * S) * mu + spec.lam) * a) / mu

    a1 = np.empty_like(parent.us)
    a1[0] = parent.us[0]
    for i in range(parent.n_records - 1):
        h = float(parent.times[i + 1] - parent.times[i])
        k1 = rhs(i, a1[i])
        pred = a1[i] + h * k1
        k2 = rhs(i + 1, pred)
        a1[i + 1] = a1[i] + 0.5 * h * (k1 + k2)
    return a1


def every_kth_record(parent, k):
    """The parent's records as record_every = k would keep them."""
    return Trajectory(parent.basis, parent.times[::k], parent.us[::k], parent.vs[::k])


class TestDecomposition:
    def test_u1_equals_the_per_record_heun_loop(self, forced_cubic_run):
        spec, _, parent = forced_cubic_run
        assert np.array_equal(run_decomposition(parent, spec).u1, heun_u1_oracle(parent, spec))

    def test_u1_equals_the_per_record_heun_loop_linear(self, linear_trajectory, linear_setup):
        spec, _ = linear_setup
        pair = run_decomposition(linear_trajectory, spec)
        assert np.array_equal(pair.u1, heun_u1_oracle(linear_trajectory, spec))

    def test_transforms_once_per_heun_stage(self, forced_cubic_run, monkeypatch):
        import kwavelab.integrator as integ
        spec, _, parent = forced_cubic_run
        calls = []
        transform = integ.eval_nonlinearity_modal

        def counting(*args, **kwargs):
            calls.append(1)
            return transform(*args, **kwargs)

        monkeypatch.setattr(integ, "eval_nonlinearity_modal", counting)
        run_decomposition(parent, spec)
        # phi(u) of all records in one call, then phi(u - a1) at each of the
        # 2 (n - 1) Heun stages on every record and the 2 floor((n - 1) / 2)
        # on every other record
        n = parent.n_records
        assert len(calls) == 1 + 2 * (n - 1) + 2 * ((n - 1) // 2)

    def test_zero_parent(self, linear_setup):
        spec, basis = linear_setup
        traj = run(zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=1.0))
        pair = run_decomposition(traj, spec)
        assert not pair.u1.any() and not pair.u2.any()

    def test_sum_invariant_exact(self, linear_trajectory, linear_setup):
        spec, _ = linear_setup
        pair = run_decomposition(linear_trajectory, spec)
        assert np.array_equal(pair.u2, linear_trajectory.us - pair.u1)
        # recomposition is exact to one rounding of the component scale
        recomposed = pair.u1 + pair.u2
        scale = np.maximum(np.abs(pair.u1), np.abs(linear_trajectory.us)) + 1e-300
        assert np.max(np.abs(recomposed - linear_trajectory.us) / scale) < 4 * np.finfo(float).eps

    def test_residual_small_on_linear_case(self, linear_trajectory, linear_setup):
        spec, _ = linear_setup
        pair = run_decomposition(linear_trajectory, spec)
        assert pair.split_error < 1e-3

    def test_exponential_decay_bound(self, linear_trajectory, linear_setup):
        spec, basis = linear_setup
        pair = run_decomposition(linear_trajectory, spec)
        g0 = kw.grad_norm_sq(basis, pair.u1[0])
        t0 = float(linear_trajectory.times[0])
        for i in range(linear_trajectory.n_records):
            g1 = kw.grad_norm_sq(basis, pair.u1[i])
            t = float(linear_trajectory.times[i])
            assert g1 <= math.exp(-2.0 * (t - t0)) * g0 * (1.0 + 1e-3)

    def test_split_error_is_the_richardson_formula(self, forced_cubic_run):
        spec, basis, parent = forced_cubic_run
        fine = heun_u1_oracle(parent, spec)
        coarse = heun_u1_oracle(every_kth_record(parent, 2), spec)
        want = max(math.sqrt(kw.grad_norm_sq(basis, fine[2 * j] - coarse[j]))
                   for j in range(coarse.shape[0])) / 3.0
        assert run_decomposition(parent, spec).split_error == want > 0.0
        # with fewer than three records both passes end on the first record
        two = Trajectory(basis, parent.times[:2], parent.us[:2], parent.vs[:2])
        assert run_decomposition(two, spec).split_error == 0.0

    @pytest.mark.parametrize("name", ["linear.cfg", "cubic3d.cfg"])
    def test_split_error_estimates_the_heun_error(self, name):
        # u1 of a parent recorded every step is the reference: its own Heun
        # error is 1/k^2 of that of every k-th record
        cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, name))
        spec, basis = cfg.model, cfg.basis
        ref = run(cfg.initial_state(), spec, basis,
                  StepConfig(dt=cfg.step.dt, t_start=cfg.step.t_start, t_end=4.0))
        u1_ref = run_decomposition(ref, spec).u1
        estimates = []
        for k in (10, 20):
            pair = run_decomposition(every_kth_record(ref, k), spec)
            error = np.max(np.sqrt(kw.grad_norm_sq(basis, pair.u1 - u1_ref[::k])))
            assert 0.9 * error <= pair.split_error <= 1.2 * error
            estimates.append(pair.split_error)
        # second order: a doubled record spacing quadruples the estimate
        assert 3.5 <= estimates[1] / estimates[0] <= 4.5

    def test_decay_bound_with_cubic(self, cubic3d_setup):
        spec, basis = cubic3d_setup
        rng = np.random.default_rng(4)
        ic = kw.ModalState(rng.standard_normal(basis.n_modes) * 0.05,
                           np.zeros(basis.n_modes), 0.0)
        traj = run(ic, spec, basis, StepConfig(dt=2e-3, t_start=0.0, t_end=4.0,
                                               record_every=2))
        pair = run_decomposition(traj, spec)
        g0 = kw.grad_norm_sq(basis, pair.u1[0])
        for i in range(traj.n_records):
            g1 = kw.grad_norm_sq(basis, pair.u1[i])
            t = float(traj.times[i])
            assert g1 <= math.exp(-2.0 * t) * g0 * (1.0 + 1e-3)


class TestDifference:
    def test_identical_inputs_give_zero(self, linear_setup):
        spec, basis = linear_setup
        ic = single_mode_ic(basis)
        cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=100)
        z = run_difference(spec, spec, ic, ic, basis, cfg)
        assert not z.u.any() and not z.v.any()

    def test_rows_are_differences_of_two_runs(self, forced_cubic_run):
        spec, basis, parent = forced_cubic_run
        ic_a, ic_b = record(parent, 0), record(parent, 3)
        ic_b = kw.ModalState(ic_b.u, ic_b.v, ic_a.t)
        cfg = StepConfig(dt=1e-2, t_start=-0.3, t_end=0.2, record_every=10)
        z = run_difference(spec, spec.with_delta(0.0), ic_a, ic_b, basis, cfg)
        ta = run(ic_a, spec, basis, cfg)
        tb = run(ic_b, spec.with_delta(0.0), basis, cfg)
        assert isinstance(z, kw.ModalState)
        assert np.array_equal(z.t, ta.times)
        assert np.array_equal(z.u, ta.us - tb.us) and np.array_equal(z.v, ta.vs - tb.vs)

    def test_specs_must_match_except_delta(self, linear_setup):
        spec, basis = linear_setup
        other = kw.ModelSpec(dim=1, lam=0.5)
        ic = single_mode_ic(basis)
        cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=0.01)
        with pytest.raises(ValueError):
            run_difference(spec, other, ic, ic, basis, cfg)

    def test_response_proportional_to_initial_gap(self, linear_setup):
        spec, basis = linear_setup
        cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=1000)
        ic = single_mode_ic(basis)
        norms = []
        for gap in (1e-4, 5e-5):
            shifted = kw.ModalState(ic.u + gap, ic.v, 0.0)
            z = run_difference(spec, spec, shifted, ic, basis, cfg)
            norms.append(math.sqrt(kw.xt_norm_sq(basis, z, spec.epsilon)[-1]))
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=0.05)

    def test_delta_perturbation_bound(self, hand_instance):
        # finite-horizon estimate |z(T)|^2 <= V3 * delta: V3 is fitted on the
        # largest delta only and must bound the squared norm at the smaller one
        spec, basis, _ = hand_instance
        ic = single_mode_ic(basis, amp_u=0.8)
        cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=2.0, record_every=2000)
        deltas = (1e-3, 1e-4)
        sq_norms = []
        for d in deltas:
            z = run_difference(spec.with_delta(d), spec, ic, ic, basis, cfg)
            sq_norms.append(kw.xt_norm_sq(basis, z, spec.epsilon)[-1])
        V3 = sq_norms[0] / deltas[0]
        assert sq_norms[1] <= V3 * deltas[1]

    def test_matches_independent_galerkin_integration(self):
        # criterion-6 instance against the same Galerkin ODE integrated by
        # Radau, with g projected by an N-independent midpoint rule that is
        # exact here: g(u) phi_m is a cosine polynomial in pi x of degree 4N < 2Q
        spec = kw.ModelSpec(dim=1, lam=0.1, g=kw.NonlinearitySpec.cubic_soft())
        basis = kw.Basis(1, 8)
        n = basis.n_modes
        k = np.arange(1, n + 1)
        mu = (np.pi * k) ** 2
        Q = 64
        phi = np.sqrt(2.0) * np.sin(np.pi * np.outer(k, (np.arange(Q) + 0.5) / Q))

        def rhs(t, y, delta):
            a, b = y[:n], y[n:]
            g_m = phi @ -(a @ phi) ** 3 / Q
            S = np.sum(mu * a * a)
            return np.concatenate([b, g_m - (1.0 + delta * S) * mu * a - mu * b
                                   - spec.lam * a])

        u0 = np.zeros(n)
        u0[0], u0[2] = 1.0, 0.3
        ic = kw.ModalState(u0, np.zeros(n), 0.0)
        cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=2.0, record_every=2000)

        def ref_end(delta):
            sol = solve_ivp(rhs, (0.0, 2.0), np.concatenate([u0, np.zeros(n)]),
                            method="Radau", rtol=1e-12, atol=1e-14, args=(delta,))
            return sol.y[:, -1]

        y0_end = ref_end(0.0)
        for d in (1e-2, 1e-3):
            z_ref = ref_end(d) - y0_end
            z = run_difference(spec.with_delta(d), spec, ic, ic, basis, cfg)
            want = kw.xt_norm_sq(basis, kw.ModalState(z_ref[:n], z_ref[n:], 2.0), spec.epsilon)
            gap = kw.xt_norm_sq(basis, kw.ModalState(z.u[-1] - z_ref[:n], z.v[-1] - z_ref[n:],
                                                     2.0), spec.epsilon)
            assert math.sqrt(gap / want) < 1e-4
