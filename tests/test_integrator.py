import contextlib
import copy
import dataclasses
import math
import os
import pickle
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import kwavelab as kw
import kwavelab.attractor as att
import kwavelab.integrator as integ
from kwavelab.config import ExperimentConfig
from kwavelab.integrator import BlowUpError, StepConfig, Trajectory, run, run_decomposition
from oracles import accel, imex2_plain, imex2_unfolded, record, run_difference, zero_state

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


DECAYING_EPS = kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5)
# a negative amplitude, which no fixture uses, and a forced mode other than the first
FORCING = kw.ForcingSpec(kind="separable", amplitude=-1.0, rate=0.5, mode=2, sigma=1.0)
CUBIC = kw.NonlinearitySpec("cubic_soft")


def plain_model(name):
    """The models the plain-expression oracle is checked on, g = delta = 0 first."""
    return {
        "linear": kw.ModelSpec(lam=0.1),
        "linear_forced": kw.ModelSpec(lam=0.1, h=FORCING),
        "eps_decay_cubic": kw.ModelSpec(epsilon=DECAYING_EPS, g=CUBIC),
        "kirchhoff_cubic_forced": kw.ModelSpec(delta=0.3, lam=0.1, g=CUBIC,
                                               h=FORCING),
    }[name]


def plain_case(model, dim, n):
    """(spec, basis, us, vs, cfg) of the plain-expression checks: three random
    rows stepped 50 times."""
    spec, basis = plain_model(model), kw.Basis(dim, n)
    rng = np.random.default_rng(dim)
    us = rng.standard_normal((3, basis.n_modes)) / basis.eigenvalues
    vs = rng.standard_normal((3, basis.n_modes)) / np.sqrt(basis.eigenvalues)
    return spec, basis, us, vs, StepConfig(dt=1e-2, t_start=-0.3, t_end=0.2, record_every=50)


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
        spec = kw.ModelSpec(delta=0.3, lam=0.2)
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
        spec = kw.ModelSpec(delta=1.0)
        basis = kw.Basis(1, 8)
        ic = kw.ModalState(np.full(8, 1e3), np.zeros(8), 0.0)
        with pytest.raises(BlowUpError) as exc:
            run(ic, spec, basis, StepConfig(dt=0.1, t_start=0.0, t_end=50.0))
        assert math.isfinite(exc.value.t)

    @pytest.mark.parametrize("field", ["u", "v"])
    def test_blow_up_reports_exact_step_and_mode(self, field):
        # g = 0 and delta = 0 keep the modes apart, so only mode 3 turns NaN;
        # a single record at the end must not delay the report to t_end
        spec, basis = kw.ModelSpec(), kw.Basis(1, 8)
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
        spec, basis = kw.ModelSpec(), kw.Basis(1, 8)
        us, vs = np.full((3, 8), 0.1), np.zeros((3, 8))
        us[1, 5] = np.inf  # member 2 fails in the same step; the lower row is named
        vs[2, 2] = np.nan
        with pytest.raises(BlowUpError) as exc:
            kw.evolve_ensemble(us, vs, spec, basis, 0.5, 1.5, 0.1)
        assert exc.value.t == 0.5 + 0.1
        assert (exc.value.member, exc.value.mode) == (1, 5)
        assert "(ensemble member 1, mode 5)" in str(exc.value)

    def test_ensemble_blow_up_pickles_and_copies_as_plain_data(self):
        # what a worker process would send back: the fields and the message
        spec, basis = kw.ModelSpec(), kw.Basis(1, 8)
        us, vs = np.full((3, 8), 0.1), np.zeros((3, 8))
        us[2, 4] = np.inf
        with pytest.raises(BlowUpError) as exc:
            kw.evolve_ensemble(us, vs, spec, basis, 0.5, 1.5, 0.1)
        assert str(exc.value) == ("non-finite state at t = 0.6 (ensemble member 2, mode 4) "
                                  "in the pass at dt = 0.1")
        for other in (pickle.loads(pickle.dumps(exc.value)), copy.copy(exc.value)):
            assert type(other) is BlowUpError and other is not exc.value
            assert (other.t, other.member, other.mode, other.dt) == (0.5 + 0.1, 2, 4, 0.1)
            assert other.args == exc.value.args and str(other) == str(exc.value)

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    def test_ensemble_rows_equal_single_runs_bitwise(self, dim, n):
        spec = kw.ModelSpec(
            delta=0.3, lam=0.1,
            epsilon=kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5),
            g=kw.NonlinearitySpec("cubic_soft"),
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

    def test_empty_span_returns_copies(self):
        # no step runs, yet the result belongs to the call: writing to the
        # inputs afterwards leaves it unchanged
        basis = kw.Basis(2, 4)
        us, vs = np.full((3, basis.n_modes), 0.5), np.full((3, basis.n_modes), -0.25)
        u, v = kw.evolve_ensemble(us, vs, kw.ModelSpec(g=CUBIC), basis, 1.0, 1.0, 0.1)
        assert u is not us and v is not vs
        us[:] = 7.0
        vs[:] = 7.0
        assert np.all(u == 0.5) and np.all(v == -0.25)

    @pytest.mark.parametrize("dim,n", [(1, 8), (3, 4)])
    @pytest.mark.parametrize("model", ["linear", "linear_forced", "eps_decay_cubic",
                                       "kirchhoff_cubic_forced"])
    def test_run_and_ensemble_equal_the_plain_expressions(self, model, dim, n):
        spec, basis, us, vs, cfg = plain_case(model, dim, n)
        u_ref, v_ref = imex2_plain(us, vs, spec, basis, cfg.t_start, cfg.dt, cfg.n_steps)
        assert np.all(np.isfinite(u_ref)) and np.any(u_ref != us)
        u_end, v_end = kw.evolve_ensemble(us, vs, spec, basis, cfg.t_start, cfg.t_end, cfg.dt)
        assert np.array_equal(u_end, u_ref) and np.array_equal(v_end, v_ref)
        for k in range(us.shape[0]):
            traj = run(kw.ModalState(us[k], vs[k], cfg.t_start), spec, basis, cfg)
            assert np.array_equal(traj.us[-1], u_ref[k])
            assert np.array_equal(traj.vs[-1], v_ref[k])

    @pytest.mark.parametrize("dim,n", [(1, 8), (3, 4)])
    @pytest.mark.parametrize("model", ["linear", "linear_forced", "eps_decay_cubic",
                                       "kirchhoff_cubic_forced"])
    def test_folded_step_stays_at_roundoff_of_the_unfolded_one(self, model, dim, n):
        # the folded rows reassociate the trapezoid/AB2 step, so 50 steps
        # drift from the unfolded expressions by roundoff only
        spec, basis, us, vs, cfg = plain_case(model, dim, n)
        u_ref, v_ref = imex2_unfolded(us, vs, spec, basis, cfg.t_start, cfg.dt, cfg.n_steps)
        u_end, v_end = kw.evolve_ensemble(us, vs, spec, basis, cfg.t_start, cfg.t_end, cfg.dt)
        traj = run(kw.ModalState(us[0], vs[0], cfg.t_start), spec, basis, cfg)
        for got, want in [(u_end, u_ref), (v_end, v_ref),
                          (traj.us[-1], u_ref[0]), (traj.vs[-1], v_ref[0])]:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("eps", [DECAYING_EPS, kw.EpsilonProfile()],
                             ids=["eps_decay", "eps_constant"])
    def test_step_time_blocks_equal_the_plain_expressions(self, eps):
        # the step ends, forcing means and (a varying eps) rows of a block of
        # steps are formed at once: 37 steps at d = 3, N = 6, so 100 steps cross
        # two block edges, and the split run resumes mid-block
        spec = kw.ModelSpec(delta=0.3, lam=0.1, epsilon=eps, g=CUBIC, h=FORCING)
        basis = kw.Basis(3, 6)
        assert integ._ROW_BLOCK_VALUES // basis.n_modes == 37
        rng = np.random.default_rng(3)
        us = rng.standard_normal((3, basis.n_modes)) / basis.eigenvalues
        vs = rng.standard_normal((3, basis.n_modes)) / np.sqrt(basis.eigenvalues)
        dt, t0 = 1e-2, -0.3
        u_ref, v_ref = imex2_plain(us, vs, spec, basis, t0, dt, 100)
        u_end, v_end = kw.evolve_ensemble(us, vs, spec, basis, t0, t0 + 100 * dt, dt)
        assert np.array_equal(u_end, u_ref) and np.array_equal(v_end, v_ref)
        x0 = kw.ModalState(us[0], vs[0], t0)
        whole = run(x0, spec, basis, StepConfig(dt=dt, t_start=t0, t_end=t0 + 100 * dt,
                                                record_every=100))
        first = run(x0, spec, basis, StepConfig(dt=dt, t_start=t0, t_end=t0 + 50 * dt,
                                                record_every=50))
        second = run(record(first, -1), spec, basis,
                     StepConfig(dt=dt, t_start=float(first.times[-1]), t_end=t0 + 100 * dt,
                                record_every=50), resume=first.resume)
        for traj in (whole, second):
            assert np.array_equal(traj.us[-1], u_ref[0])
            assert np.array_equal(traj.vs[-1], v_ref[0])

    @pytest.mark.parametrize("spec,per_step", [
        (kw.ModelSpec(lam=0.1, epsilon=DECAYING_EPS, h=FORCING), 0),
        (kw.ModelSpec(delta=0.3), 1),
        (kw.ModelSpec(g=CUBIC), 1)], ids=["linear", "kirchhoff", "cubic"])
    def test_transforms_once_per_step_and_never_without_an_explicit_term(
            self, spec, per_step, monkeypatch):
        basis = kw.Basis(1, 8)
        calls = []
        transform = integ.eval_nonlinearity_modal

        def counting(*args, **kwargs):
            calls.append(1)
            return transform(*args, **kwargs)

        monkeypatch.setattr(integ, "eval_nonlinearity_modal", counting)
        cfg = StepConfig(dt=1e-2, t_start=0.0, t_end=0.2)
        run(single_mode_ic(basis), spec, basis, cfg)
        assert len(calls) == per_step * cfg.n_steps
        kw.evolve_ensemble(np.full((4, 8), 0.1), np.zeros((4, 8)), spec, basis,
                           cfg.t_start, cfg.t_end, cfg.dt)
        assert len(calls) == 2 * per_step * cfg.n_steps

    @pytest.mark.skipif(resource is None or not sys.platform.startswith("linux"),
                        reason="needs getrusage minor page-fault counts (Linux)")
    def test_ensemble_page_faults_do_not_grow_with_steps(self):
        # the stepping loop allocates its work arrays once per thread and
        # (g, basis, batch shape), its u and v pairs once per call, so a long
        # run faults no more pages than a short one (before, about 128 per step)
        spec = kw.ModelSpec(delta=0.1, g=kw.NonlinearitySpec("cubic_soft"))
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

    def test_traced_memory_does_not_grow_with_steps(self):
        # the step-time terms are formed per block of steps, so a call holds
        # nothing whose size grows with its step count (before, the step ends,
        # the half-step eps and the forcing means of every step: 8 floats a step)
        spec = kw.ModelSpec(delta=0.1, lam=0.1, epsilon=DECAYING_EPS, g=CUBIC, h=FORCING)
        basis = kw.Basis(1, 4)
        us, vs = np.full((2, basis.n_modes), 0.1), np.zeros((2, basis.n_modes))
        dt = 1e-3

        def peak(n_steps):
            tracemalloc.start()
            try:
                kw.evolve_ensemble(us, vs, spec, basis, 0.0, n_steps * dt, dt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(2000), peak(20000)
        assert long <= short + (1 << 16), (short, long)


def frozen(a):
    """A read-only copy of a: numpy raises on any write to it."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def stepwise_blow_up(state, spec, basis, dt, n, resume=None):
    """(k, BlowUpError) of the first of n steps from state whose state is
    non-finite, or None: one step per run call, resumed through ResumePoint
    (split runs are bitwise equal to unsplit ones), u and v checked after
    every step."""
    for k in range(n):
        try:
            traj = run(state, spec, basis, StepConfig(dt=dt, t_start=state.t,
                                                      t_end=state.t + dt), resume=resume)
        except BlowUpError as exc:
            return k, exc
        assert np.isfinite(traj.us[-1]).all() and np.isfinite(traj.vs[-1]).all()
        state, resume = record(traj, -1), traj.resume
    return None


class TestBlockCheck:
    """_march checks u at each block's last step and replays a failing call
    with a check after every step, so a blow-up in a later block is still
    reported at its exact step. g = +u^3 blows up in finite time; at d = 1,
    N = 8 a block is 2^8 steps (the step cap binds), and data of amplitude 8
    in mode 2 blows up at step 789 at dt = 2^-11, beyond a call of two whole
    blocks and a partial one."""

    SPEC = kw.ModelSpec(g=kw.NonlinearitySpec("cubic_soft", coeff=-1.0))
    BASIS = kw.Basis(1, 8)
    DT = 2.0 ** -11  # every step end is exact
    BLOCK = 1 << 8
    CALL = 2 * BLOCK + 64
    # a block's first step, its last, mid-block, the call's final partial
    # block and its last step
    AT = [BLOCK, 2 * BLOCK - 1, BLOCK + 101, 2 * BLOCK + 31, CALL - 1]
    # member 0 decays; member 2 blows up first and member 1 about 20 steps later,
    # so a check at the block's end alone would name member 1 or a later t
    AMPLITUDES = (4.0, 7.9, 8.0)

    def data(self, amplitude):
        u = np.zeros(self.BASIS.n_modes)
        u[1] = amplitude
        return kw.ModalState(u, np.zeros_like(u), 0.0)

    def advance(self, state, q):
        """The state q >= 1 steps after state, and its resume point."""
        traj = run(state, self.SPEC, self.BASIS, StepConfig(
            dt=self.DT, t_start=state.t, t_end=state.t + q * self.DT, record_every=q))
        return record(traj, -1), traj.resume

    @pytest.fixture(scope="class")
    def reference(self):
        """(k, BlowUpError) of the largest data, stepwise."""
        first = stepwise_blow_up(self.data(self.AMPLITUDES[-1]), self.SPEC, self.BASIS,
                                 self.DT, 4 * self.BLOCK)
        assert first is not None and first[0] >= self.CALL
        return first

    def test_block_is_capped(self):
        assert min(integ._BLOCK_STEPS, integ._ROW_BLOCK_VALUES // self.BASIS.n_modes) \
            == self.BLOCK

    @pytest.mark.parametrize("at", AT)
    def test_run_names_the_exact_step(self, reference, at):
        # the call starts `at` steps before the reference's blow-up
        k, want = reference
        start, resume = self.advance(self.data(self.AMPLITUDES[-1]), k - at)
        cfg = StepConfig(dt=self.DT, t_start=start.t, t_end=start.t + self.CALL * self.DT,
                         record_every=2)
        with pytest.raises(BlowUpError) as exc:
            run(start, self.SPEC, self.BASIS, cfg, resume=resume)
        assert exc.value.args == want.args

    @pytest.mark.parametrize("at", AT)
    def test_ensemble_names_the_exact_step_member_and_mode(self, reference, at):
        # the members' states q steps in, q chosen so that their stepwise
        # reference, which like evolve_ensemble bootstraps at its first step,
        # first fails at step `at`
        q = reference[0] - at
        for _ in range(4):
            starts = [self.advance(self.data(a), q)[0] for a in self.AMPLITUDES]
            firsts = [stepwise_blow_up(x, self.SPEC, self.BASIS, self.DT, self.CALL)
                      for x in starts]
            k, member = min((f[0], m) for m, f in enumerate(firsts) if f is not None)
            if k == at:
                break
            q += k - at
        assert k == at and member == 2 and firsts[0] is None
        t0 = starts[0].t
        with pytest.raises(BlowUpError) as exc:
            kw.evolve_ensemble(np.array([x.u for x in starts]), np.array([x.v for x in starts]),
                               self.SPEC, self.BASIS, t0, t0 + self.CALL * self.DT, self.DT)
        want = firsts[member][1]
        assert exc.value.args == (want.t, member, want.mode, self.DT)

    @pytest.mark.parametrize("dim,n,steps", [(1, 8, 1), (1, 8, 256), (1, 8, 257),
                                             (1, 8, 700), (3, 6, 100)])
    def test_finite_call_checks_once_per_block(self, monkeypatch, dim, n, steps):
        spec = kw.ModelSpec(delta=0.1, lam=0.1, epsilon=DECAYING_EPS, g=CUBIC, h=FORCING)
        basis = kw.Basis(dim, n)
        calls, isfinite = [], integ.math.isfinite
        monkeypatch.setattr(integ.math, "isfinite", lambda x: calls.append(x) or isfinite(x))
        us, vs = np.full((2, basis.n_modes), 0.1), np.zeros((2, basis.n_modes))
        integ._march(us, vs, spec, basis, 1e-3, 0.0, 0, steps, None)
        block = min(steps, integ._BLOCK_STEPS, integ._ROW_BLOCK_VALUES // basis.n_modes)
        assert len(calls) == math.ceil(steps / block)

    @pytest.mark.parametrize("amplitude,fails", [(4.0, False), (8.0, True)],
                             ids=["finite", "blow_up"])
    def test_inputs_are_never_written(self, amplitude, fails):
        # the replay reruns the call from its own inputs; read-only inputs
        # make numpy raise on any write to them
        x0 = self.data(amplitude)
        first = run(x0, self.SPEC, self.BASIS,
                    StepConfig(dt=self.DT, t_start=0.0, t_end=100 * self.DT, record_every=100))
        x = record(first, -1)
        resume = dataclasses.replace(first.resume, nl_prev=frozen(first.resume.nl_prev))
        cfg = StepConfig(dt=self.DT, t_start=x.t, t_end=x.t + 4 * self.BLOCK * self.DT,
                         record_every=2)
        us, vs = frozen(np.tile(x0.u, (3, 1))), frozen(np.zeros((3, self.BASIS.n_modes)))
        calls = [lambda: run(kw.ModalState(frozen(x.u), frozen(x.v), x.t), self.SPEC,
                             self.BASIS, cfg, resume=resume),
                 lambda: kw.evolve_ensemble(us, vs, self.SPEC, self.BASIS, 0.0,
                                            4 * self.BLOCK * self.DT, self.DT)]
        for call in calls:
            with pytest.raises(BlowUpError) if fails else contextlib.nullcontext():
                call()


class TestStepWorkspace:
    """_march's plan, explicit-term pair and scratch: one set per thread and
    (g, basis, batch shape)."""

    SPEC = kw.ModelSpec(delta=0.3, lam=0.1, epsilon=DECAYING_EPS, g=CUBIC, h=FORCING)
    BASIS = kw.Basis(2, 5)

    @pytest.fixture
    def binds(self, monkeypatch):
        """The thread of every plan bound, from an empty workspace in every thread."""
        monkeypatch.setattr(integ, "_workspace", type(integ._workspace)())
        threads, work = [], integ.nonlinearity_work
        monkeypatch.setattr(integ, "nonlinearity_work",
                            lambda *args: threads.append(threading.get_ident()) or work(*args))
        return threads

    def states(self, rows, seed=0):
        rng = np.random.default_rng(seed)
        mu = self.BASIS.eigenvalues
        return (rng.standard_normal((rows, mu.size)) / mu,
                rng.standard_normal((rows, mu.size)) / np.sqrt(mu))

    def evolve(self, us, vs, spec=SPEC):
        return kw.evolve_ensemble(us, vs, spec, self.BASIS, 0.0, 0.2, 1e-2)

    def test_bound_once_per_thread_and_key(self, binds):
        us, vs = self.states(4)
        self.evolve(us, vs)
        self.evolve(2.0 * us, vs, self.SPEC.with_delta(0.1))  # delta is not in the key
        assert len(binds) == 1
        self.evolve(us[:3], vs[:3])  # a new row count
        assert len(binds) == 2
        self.evolve(us[:3], vs[:3], dataclasses.replace(
            self.SPEC, g=kw.NonlinearitySpec("cubic_soft", coeff=0.5)))  # g's factor
        assert len(binds) == 3
        self.evolve(us[:3], vs[:3])  # one entry per thread: the old key binds again
        assert len(binds) == 4

    def test_legs_on_two_threads_bind_once_per_thread(self, binds, monkeypatch):
        # the barrier makes each of the 2 workers take 2 of the 4 legs
        us, vs = self.states(4)
        barrier, ran, evolve = threading.Barrier(2, timeout=60), [], att.evolve_ensemble

        def leg(*args):
            ran.append(threading.get_ident())
            barrier.wait()
            return evolve(*args)

        monkeypatch.setattr(att, "evolve_ensemble", leg)
        legs = [(self.SPEC, us, vs, -0.1 * (k + 1), 0.0, 1e-2) for k in range(4)]
        ends = list(att._evolve_legs(legs, self.BASIS, 2))
        assert len(ran) == 4 and len(set(ran)) == 2 and threading.get_ident() not in ran
        assert sorted(binds) == sorted(set(ran))
        for (u, v), (_, us0, vs0, t0, t1, dt) in zip(ends, legs):
            u1, v1 = evolve(us0, vs0, self.SPEC, self.BASIS, t0, t1, dt)
            assert np.array_equal(u, u1) and np.array_equal(v, v1)

    def test_successive_leg_batches_keep_the_pool_threads_and_their_workspaces(
            self, binds, monkeypatch):
        # the legs of the second call run on the threads of the first, whose
        # workspaces, bound by the first call, serve the second
        us, vs = self.states(4)
        barrier, ran, evolve = threading.Barrier(2, timeout=60), [], att.evolve_ensemble

        def leg(*args):
            ran[-1].append(threading.get_ident())
            barrier.wait()
            return evolve(*args)

        monkeypatch.setattr(att, "evolve_ensemble", leg)
        legs = [(self.SPEC, us, vs, -0.1 * (k + 1), 0.0, 1e-2) for k in range(4)]
        calls = []
        for _ in range(2):
            ran.append([])
            calls.append(list(att._evolve_legs(legs, self.BASIS, 2)))
        first, second = ran
        assert len(set(first)) == 2 and set(second) == set(first)
        assert threading.get_ident() not in first
        assert sorted(binds) == sorted(set(first))
        for ends in calls:
            for (u, v), (_, us0, vs0, t0, t1, dt) in zip(ends, legs):
                u1, v1 = evolve(us0, vs0, self.SPEC, self.BASIS, t0, t1, dt)
                assert np.array_equal(u, u1) and np.array_equal(v, v1)

    def test_reused_workspace_gives_the_bits_of_a_fresh_one(self, binds):
        us, vs = self.states(4)
        fresh = self.evolve(us, vs)
        self.evolve(*self.states(4, seed=1))
        bad = us.copy()
        bad[2, 7] = np.nan  # leaves non-finite values in the workspace
        with pytest.raises(BlowUpError):
            self.evolve(bad, vs)
        reused = self.evolve(us, vs)
        assert len(binds) == 1
        assert all(np.array_equal(a, b) for a, b in zip(fresh, reused))

    def test_nothing_returned_aliases_the_workspace(self, binds):
        # each second call reuses the workspace of the first
        us, vs = self.states(4)
        u, v = self.evolve(us, vs)
        kept = u.copy(), v.copy()
        self.evolve(*self.states(4, seed=1))
        assert np.array_equal(u, kept[0]) and np.array_equal(v, kept[1])
        cfg = StepConfig(dt=1e-2, t_start=0.0, t_end=0.2)
        traj = run(kw.ModalState(us[0], vs[0], 0.0), self.SPEC, self.BASIS, cfg)
        nl_prev = traj.resume.nl_prev.copy()
        run(kw.ModalState(us[1], vs[1], 0.0), self.SPEC, self.BASIS, cfg)
        assert np.array_equal(traj.resume.nl_prev, nl_prev)
        assert len(binds) == 2


def placed(a, offset):
    """A copy of the float array a whose data start ``offset`` bytes past a
    64-byte boundary."""
    raw = np.empty(a.size + 16)
    skip = (offset - raw.ctypes.data) % 64 // 8
    out = raw[skip:skip + a.size].reshape(a.shape)
    out[...] = a
    return out


class TestAlignment:
    """Every field-sized step and transform buffer starts on a 64-byte
    boundary, and no bit depends on where any array starts."""

    SPEC = TestStepWorkspace.SPEC  # cubic g, delta > 0, decaying eps, forcing
    OFFSETS = range(0, 64, 8)

    @pytest.mark.parametrize("dim,n", [(1, 8), (2, 5), (3, 4)])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_step_buffers_start_on_a_cache_line(self, monkeypatch, dim, n, batch):
        monkeypatch.setattr(integ, "_workspace", type(integ._workspace)())
        basis = kw.Basis(dim, n)
        us = np.full((batch, basis.n_modes), 0.01)
        buffers = []
        for steps in (1, 2):  # the returned u and v: each entry of the pairs
            buffers += kw.evolve_ensemble(us, us, self.SPEC, basis, 0.0, steps * 1e-2, 1e-2)
        (to, g, back), nl_pair, scratch, _ = integ._step_work(self.SPEC, basis, us.shape)
        buffers += [*nl_pair, scratch, g] + [stage[-1] for plan in (to, back)
                                             for stage in (plan.head,) + plan.tail]
        assert len(buffers) == 4 + 4 + 2 * dim
        assert [b.ctypes.data % 64 for b in buffers] == [0] * len(buffers)

    @pytest.fixture
    def misplace(self, monkeypatch):
        """misplace(offset): every buffer that empty_aligned makes starts
        ``offset`` bytes past a 64-byte boundary, from an empty workspace."""
        def at(offset):
            monkeypatch.setattr(integ, "_workspace", type(integ._workspace)())
            helper = lambda shape: placed(np.empty(shape), offset)  # noqa: E731
            for module in (integ, kw.spectral, att):
                monkeypatch.setattr(module, "empty_aligned", helper)
        return at

    def test_steps_do_not_depend_on_alignment(self, misplace):
        basis = kw.Basis(2, 5)
        rng = np.random.default_rng(8)
        us = 0.3 * rng.standard_normal((64, basis.n_modes)) / basis.eigenvalues
        vs = 0.3 * rng.standard_normal((64, basis.n_modes)) / np.sqrt(basis.eigenvalues)
        cfg = StepConfig(dt=1e-2, t_start=0.0, t_end=0.2, record_every=5)

        def both(us, vs):
            ends = kw.evolve_ensemble(us, vs, self.SPEC, basis, 0.0, 0.2, 1e-2)
            traj = run(kw.ModalState(us[3], vs[3], 0.0), self.SPEC, basis, cfg)
            return (*ends, traj.us, traj.vs, traj.resume.nl_prev)

        want = both(us, vs)
        for offset in self.OFFSETS:  # the inputs, then every buffer, off by offset
            got = both(placed(us, offset), placed(vs, offset))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), offset
        for offset in self.OFFSETS:
            misplace(offset)
            got = both(us, vs)
            assert integ._workspace.work[2].ctypes.data % 64 == offset  # run's scratch
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), offset

    def test_hausdorff_semidist_does_not_depend_on_alignment(self, misplace):
        basis = kw.Basis(2, 5)
        rng = np.random.default_rng(9)
        A = att.AttractorCloud(0.0, 1.0, 0.1, basis, rng.standard_normal((40, 25)),
                               rng.standard_normal((40, 25)))
        B = att.AttractorCloud(0.0, 1.0, 0.0, basis, A.us[::-1] + 1e-3, A.vs[::-1])
        want = att.hausdorff_semidist(A, B, DECAYING_EPS)
        for offset in self.OFFSETS:
            A_off, B_off = (dataclasses.replace(c, us=placed(c.us, offset),
                                                vs=placed(c.vs, offset)) for c in (A, B))
            assert att.hausdorff_semidist(A_off, B_off, DECAYING_EPS) == want, offset
        for offset in self.OFFSETS:
            misplace(offset)
            assert att.hausdorff_semidist(A, B, DECAYING_EPS) == want, offset


class TestRun:
    def test_identity_process(self, linear_setup):
        spec, basis = linear_setup
        ic = single_mode_ic(basis)
        traj = run(ic, spec, basis, StepConfig(dt=1e-3, t_start=0.0, t_end=0.0))
        assert traj.n_records == 1
        assert np.array_equal(traj.us[0], ic.u)

    @staticmethod
    def split_and_whole(spec):
        """The halves of a run split at t = 0.5, after checking that they
        stitch to the unsplit run bit for bit."""
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
        return first, second

    def test_composition_bitwise(self):
        # time-dependent eps + forcing + cubic g so time stamps matter
        self.split_and_whole(kw.ModelSpec(
            delta=0.2, lam=0.1,
            epsilon=kw.EpsilonProfile(kind="exp_decay_to_limit", alpha=1.0, amplitude=0.5),
            g=kw.NonlinearitySpec("cubic_soft"),
            h=kw.ForcingSpec(kind="separable", amplitude=1.0, rate=0.5, mode=1, sigma=1.0)))

    def test_composition_bitwise_linear(self):
        # g = delta = 0: no explicit term, so the carried history is zero
        spec = kw.ModelSpec(lam=0.1, epsilon=DECAYING_EPS, h=FORCING)
        for half in self.split_and_whole(spec):
            nl_prev = half.resume.nl_prev
            assert nl_prev.shape == (8,) and not nl_prev.any()

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
        spec = kw.ModelSpec(delta=delta)
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
        assert not accel(record(traj, -1), spec, basis).any()

    def test_matches_second_difference(self, linear_setup):
        spec, basis = linear_setup
        traj = run(single_mode_ic(basis), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0))
        i = 500
        acc = accel(record(traj, i), spec, basis)
        fd = (traj.us[i + 1] - 2 * traj.us[i] + traj.us[i - 1]) / 1e-6
        assert np.max(np.abs(acc - fd)) < 1e-3 * max(np.max(np.abs(acc)), 1e-12)

    def test_matches_reference_ode(self):
        spec = kw.ModelSpec(delta=0.3, lam=0.2)
        basis = kw.Basis(1, 1)
        mu = basis.eigenvalues[0]

        def rhs(t, y):
            u, v = y
            return [v, -(1.0 + spec.delta * mu * u * u) * mu * u - mu * v - spec.lam * u]

        ref = solve_ivp(rhs, (0.0, 1.0), [1.0, 0.0], rtol=1e-11, atol=1e-13,
                        dense_output=True)
        traj = run(single_mode_ic(basis), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=1000))
        acc = accel(record(traj, -1), spec, basis)[0]
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
        other = kw.ModelSpec(lam=0.5)
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
        spec = kw.ModelSpec(lam=0.1, g=kw.NonlinearitySpec("cubic_soft"))
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
