import dataclasses
import math

import numpy as np
import pytest

import kwavelab as kw
from kwavelab.energy import (EnergyParams, Functionals, build_ledger, eval_B,
                             eval_functionals, fit_norm_sandwich, solve_feasibility,
                             verify_decay_inequality)
from kwavelab.integrator import StepConfig, run
from kwavelab.model import forcing_norm_sq
from kwavelab.spectral import ModalState
from oracles import accel, eval_Etilde, record, zero_state


def single_mode_state(basis, u1=0.0, v1=0.0, t=0.0):
    u = np.zeros(basis.n_modes)
    v = np.zeros(basis.n_modes)
    u[0], v[0] = u1, v1
    return ModalState(u, v, t)


class TestPointFunctionals:
    def test_E_zero_state_no_offset(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        assert eval_functionals(zero_state(basis), spec, basis, params).E == 0.0

    def test_E_zero_state_offset_survives(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=1.0, c4=2.0)
        assert eval_functionals(zero_state(basis), spec, basis, params).E == 2.0

    def test_E_single_mode_hand_expansion(self):
        spec = kw.ModelSpec(lam=0.3,
                            epsilon=kw.EpsilonProfile(kind="constant", alpha=1.5))
        basis = kw.Basis(1, 4)
        params = EnergyParams(rho=0.7, chi=0.1, c0=0.0, c4=1.0)
        u1, v1 = 0.4, -0.2
        st = single_mode_state(basis, u1, v1)
        mu = np.pi ** 2
        eps = 1.5
        expected = (eps * (v1 + 0.7 * u1) ** 2 - 0.7 ** 2 * eps * u1 ** 2
                    + mu * u1 ** 2 + 0.7 * mu * u1 ** 2 + 0.3 * u1 ** 2)
        assert eval_functionals(st, spec, basis, params).E == pytest.approx(expected, rel=1e-13)

    def test_I_zero_state(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.5, c4=1.0)
        assert eval_functionals(zero_state(basis), spec, basis, params).I == pytest.approx(
            -0.2 * 2 * 0.5, rel=1e-14)

    def test_K_zero_state(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        assert eval_functionals(zero_state(basis), spec, basis, params).K == 0.0

    def test_K_nonnegative_under_rho_bound(self):
        # rho <= min(2/L, lam1 sqrt(L)/(4L)) forces K >= 0
        spec = kw.ModelSpec(epsilon=kw.EpsilonProfile(kind="constant", alpha=1.0))
        basis = kw.Basis(1, 8)
        L = spec.epsilon.bound
        rho = min(2.0 / L, basis.lambda1 * math.sqrt(L) / (4.0 * L))
        params = EnergyParams(rho=rho, chi=0.05, c0=0.0, c4=1.0)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            st = ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
            assert eval_functionals(st, spec, basis, params).K >= -1e-10

    def test_I_bounded_below_on_trajectory(self, hand_instance):
        spec, basis, params = hand_instance
        u0 = np.zeros(8)
        u0[0] = 0.6
        traj = run(ModalState(u0, np.zeros(8), 0.0), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=5.0, record_every=50))
        I_series = [eval_functionals(record(traj, i), spec, basis, params).I
                    for i in range(traj.n_records)]
        c5 = max(0.0, -min(I_series)) + 1e-12
        assert all(I >= -c5 for I in I_series)

    def test_ledger_evaluates_E_once_per_record(self, cubic3d_setup, monkeypatch):
        import kwavelab.energy as en
        spec, basis = cubic3d_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        rng = np.random.default_rng(4)
        ic = ModalState(0.1 * rng.standard_normal(basis.n_modes),
                        0.1 * rng.standard_normal(basis.n_modes), 0.0)
        traj = run(ic, spec, basis, StepConfig(dt=1e-2, t_start=0.0, t_end=0.1))
        calls = []
        quadrature = en.integral_of_G

        def counting(*args):
            calls.append(1)
            return quadrature(*args)

        monkeypatch.setattr(en, "integral_of_G", counting)
        ledger = build_ledger(traj, spec, basis, params)
        assert len(calls) == 1  # one batched call evaluates E at every record
        for i in range(traj.n_records):  # the same bits as evaluating E afresh
            assert ledger.I[i] == eval_functionals(record(traj, i), spec, basis, params).I

    def test_ledger_evaluates_modal_g_once_for_I_and_L(self, forced_cubic_run, monkeypatch):
        import kwavelab.energy as en
        import kwavelab.integrator as integ
        spec, basis, traj = forced_cubic_run
        calls = []
        transform = en.eval_nonlinearity_modal

        def counting(*args, **kwargs):
            calls.append(1)
            return transform(*args, **kwargs)

        for module in (en, integ):
            monkeypatch.setattr(module, "eval_nonlinearity_modal", counting)
        build_ledger(traj, spec, basis, EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0))
        assert len(calls) == 1

    def test_ledger_evaluates_B_once(self, forced_cubic_run, monkeypatch):
        import kwavelab.energy as en
        spec, basis, traj = forced_cubic_run
        calls = []
        radius = en.eval_B

        def counting(t, *args):
            calls.append(t)
            return radius(t, *args)

        monkeypatch.setattr(en, "eval_B", counting)
        build_ledger(traj, spec, basis, EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0))
        assert len(calls) == 1 and np.array_equal(calls[0], traj.times)

    def test_ledger_evaluates_eps_and_grad_norm_twice(self, forced_cubic_run, monkeypatch):
        # once each for the functionals and once in spectral.xt_norm_sq, the X_t
        # metric's one definition; u_tt is formed from the functionals' own
        import kwavelab.energy as en
        import kwavelab.integrator as integ
        import kwavelab.spectral as sp
        spec, basis, traj = forced_cubic_run
        calls = {"eps": 0, "grad": 0}

        def counting(name, fn, data):
            def wrapped(first, x, *args):
                calls[name] += np.shape(x) == data.shape and np.array_equal(x, data)
                return fn(first, x, *args)
            return wrapped

        for module in (en, integ, sp):
            monkeypatch.setattr(module, "eval_epsilon",
                                counting("eps", module.eval_epsilon, traj.times))
            monkeypatch.setattr(module, "grad_norm_sq",
                                counting("grad", module.grad_norm_sq, traj.us))
        build_ledger(traj, spec, basis, EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0))
        assert calls == {"eps": 2, "grad": 2}


class TestBatchedLedger:
    def test_ledger_equals_per_state_calls_bitwise(self, forced_cubic_run):
        spec, basis, traj = forced_cubic_run
        params = EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0)
        ledger = build_ledger(traj, spec, basis, params)
        series = {name: np.empty(traj.n_records)
                  for name in ("E", "I", "K", "L", "xt_norm_sq", "B", "grad_norm_sq")}
        for i in range(traj.n_records):  # the per-record oracle
            st = record(traj, i)
            f = eval_functionals(st, spec, basis, params)
            series["E"][i], series["I"][i], series["K"][i], series["L"][i] = f.E, f.I, f.K, f.L
            series["xt_norm_sq"][i] = kw.xt_norm_sq(basis, st, spec.epsilon)
            series["B"][i] = eval_B(st.t, spec, params)
            series["grad_norm_sq"][i] = kw.grad_norm_sq(basis, st.u)
        for name, want in series.items():
            assert np.array_equal(getattr(ledger, name), want), name

    def test_ledger_L_matches_the_plain_modal_equation(self, forced_cubic_run):
        # L's u_tt against oracles.accel, which shares no code with the ledger,
        # with every term of the model on
        spec, basis, traj = forced_cubic_run
        rho, mu, w = 0.5, basis.eigenvalues, traj.vs
        ledger = build_ledger(traj, spec, basis, EnergyParams(rho=rho, chi=0.1, c0=0.0, c4=1.0))
        wt = accel(ModalState(traj.us, w, traj.times), spec, basis)
        eps = 1.0 + 0.5 * np.exp(-traj.times)
        want = (eps * np.sum(wt ** 2 / mu, axis=1) + 2.0 * rho * eps * np.sum(wt * w, axis=1)
                + np.sum(w ** 2, axis=1) + rho * np.sum(mu * w ** 2, axis=1)
                + spec.lam * np.sum(w ** 2 / mu, axis=1))
        assert np.allclose(ledger.L, want, rtol=1e-10, atol=0.0)

    def test_decay_check_leaves_the_ledger_as_it_was(self, forced_cubic_run):
        spec, basis, traj = forced_cubic_run
        params = EnergyParams(rho=0.8, chi=0.1, c0=0.0, c4=1.0)  # feasible here
        ledger = build_ledger(traj, spec, basis, params)
        before = [c.copy() for c in ledger.columns()]
        rep = verify_decay_inequality(ledger, spec, params)
        assert all(np.array_equal(a, b) for a, b in zip(ledger.columns(), before))
        # one forward-difference residual per record but the last
        t, E = ledger.times, ledger.E
        want = ((E[1:] - E[:-1]) / float(t[1] - t[0]) + params.chi * E[:-1]
                - forcing_norm_sq(spec.h, t[:-1]) / params.rho)
        assert np.array_equal(rep.residuals, want)

    def test_single_state_and_one_row_batch_agree(self, cubic3d_setup):
        spec, basis = cubic3d_setup
        params = EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0)
        rng = np.random.default_rng(9)
        st = ModalState(0.1 * rng.standard_normal(basis.n_modes),
                        0.1 * rng.standard_normal(basis.n_modes), 0.7)
        row = ModalState(st.u[None], st.v[None], np.array([st.t]))
        single = eval_functionals(st, spec, basis, params)
        batch = eval_functionals(row, spec, basis, params)
        pairs = [*zip(Functionals._fields, single, batch),
                 ("Etilde", eval_Etilde(st, spec, basis, xi=0.1),
                  eval_Etilde(row, spec, basis, xi=0.1))]
        for name, one, rows in pairs:
            assert isinstance(one, float) and rows.shape == (1,)
            assert rows[0] == one, name


class TestSecondEnergy:
    def test_zero_trajectory(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        traj = run(zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=1.0))
        assert eval_functionals(record(traj, -1), spec, basis, params).L == 0.0

    def test_single_mode_hand_expansion(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=0.8, chi=0.1, c0=0.0, c4=1.0)
        traj = run(single_mode_state(basis, 1.0), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=100))
        state = record(traj, 5)
        assert state.t == 0.5
        mu = basis.eigenvalues
        w = state.v
        wt = accel(state, spec, basis)
        expected = (np.sum(wt ** 2 / mu) + 2 * 0.8 * np.dot(wt, w) + np.sum(w ** 2)
                    + 0.8 * np.sum(mu * w ** 2))
        assert eval_functionals(state, spec, basis, params).L == pytest.approx(expected, rel=1e-12)

    def test_equivalence_sandwich(self, linear_setup):
        # fit c18, c19 on one run, then the sandwich holds at every instant
        spec, basis = linear_setup
        params = EnergyParams(rho=0.8, chi=0.1, c0=0.0, c4=1.0)
        rng = np.random.default_rng(5)
        ic = ModalState(rng.standard_normal(8) * 0.2, rng.standard_normal(8) * 0.2, 0.0)
        traj = run(ic, spec, basis, StepConfig(dt=1e-3, t_start=0.0, t_end=2.0,
                                               record_every=100))
        pairs = []
        for i in range(traj.n_records):
            state = record(traj, i)
            w = state.v
            wt = accel(state, spec, basis)
            core = float(np.sum(wt ** 2 / basis.eigenvalues)
                         + np.sum(basis.eigenvalues * w ** 2))
            pairs.append((eval_functionals(state, spec, basis, params).L, core))
        ratios = [L / c for L, c in pairs if c > 1e-250]
        c18, c19 = min(ratios), max(ratios)
        assert 0.0 < c18 <= c19
        for L, core in pairs:
            assert c18 * core - 1e-12 <= L <= c19 * core + 1e-12


class TestDifferenceEnergy:
    def test_zero_difference(self, linear_setup):
        spec, basis = linear_setup
        assert eval_Etilde(zero_state(basis), spec, basis, xi=0.1) == 0.0

    def test_xi_zero_reduction(self, linear_setup):
        spec, basis = linear_setup
        rng = np.random.default_rng(8)
        z = ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
        expected = (kw.norm_sq(z.v) + kw.grad_norm_sq(basis, z.u))
        assert eval_Etilde(z, spec, basis, xi=0.0) == pytest.approx(expected, rel=1e-13)

    def test_nonnegative_for_small_xi(self, linear_setup):
        spec, basis = linear_setup
        xi = math.sqrt(basis.lambda1) / 2.0
        rng = np.random.default_rng(13)
        for _ in range(500):
            z = ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
            assert eval_Etilde(z, spec, basis, xi=xi) >= -1e-10


class TestAbsorbingRadius:
    def test_zero_forcing_constant_radius(self, linear_setup):
        spec, _ = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c14=2.5, c0=0.0, c4=1.0)
        for t in (-5.0, 0.0, 7.0):
            assert eval_B(t, spec, params) == pytest.approx(math.sqrt(2.5), rel=1e-14)

    def test_quadrature_matches_closed_form(self):
        from scipy.integrate import quad

        spec = kw.ModelSpec(h=kw.ForcingSpec(kind="separable", amplitude=1.3,
                                                    rate=0.8, sigma=1.0))
        params = EnergyParams(rho=1.0, chi=0.4, sigma1=0.2, c0=0.0, c4=1.0)
        s1 = params.sigma1

        def integrand(s):
            return math.exp(s1 * s) * forcing_norm_sq(spec.h, s)

        for t in (-2.0, 0.0, 3.0, 10.0):
            # oracle: adaptive quadrature, split at the kink of |h|^2 at s = 0
            tail = quad(integrand, -np.inf, min(t, 0.0))[0]
            if t > 0:
                tail += quad(integrand, 0.0, t)[0]
            bq = math.sqrt(params.c14 * math.exp(-s1 * t) * tail + params.c14)
            assert bq == pytest.approx(eval_B(t, spec, params), abs=1e-8)

    def test_radius_nonincreasing_for_decaying_forcing(self):
        # with sigma1 < 2 beta the weighted memory peaks shortly after the
        # forcing maximum and shrinks from then on; monotonicity holds past
        # the peak (the radius still charges up while |h| is near its max)
        spec = kw.ModelSpec(h=kw.ForcingSpec(kind="separable", amplitude=1.0,
                                                    rate=1.0, sigma=1.0))
        params = EnergyParams(rho=1.0, chi=0.4, sigma1=0.3, c0=0.0, c4=1.0)
        ts = np.linspace(-5.0, 10.0, 61)
        vals = np.array([eval_B(float(t), spec, params) for t in ts])
        peak = int(np.argmax(vals))
        assert ts[peak] == pytest.approx(0.57, abs=0.3)
        tail = vals[peak:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


    @staticmethod
    def radius_oracle(t, h, params):
        """B from the scalar closed form, split at t = 0 by a branch."""
        s1 = params.sigma1
        tail = 0.0
        if h.kind != "zero":
            A2, up, dn = h.amplitude ** 2, s1 + 2.0 * h.rate, s1 - 2.0 * h.rate
            if t <= 0:
                tail = A2 * math.exp(up * t) / up
            elif abs(dn) < 1e-14:
                tail = A2 / up + A2 * t
            else:
                tail = A2 / up + A2 * (math.exp(dn * t) - 1.0) / dn
        return math.sqrt(params.c14 * math.exp(-s1 * t) * tail + params.c14)

    @pytest.mark.parametrize("kind,sigma1,rate", [
        ("separable", 0.05, 0.5), ("separable", 0.44, 0.05), ("separable", 0.4, 0.2),
        ("zero", 0.3, 1.0)], ids=["sigma1<2beta", "sigma1>2beta", "sigma1=2beta", "h=0"])
    def test_batched_radius_equals_scalar_calls_bitwise(self, kind, sigma1, rate):
        spec = kw.ModelSpec(h=kw.ForcingSpec(kind=kind, amplitude=1.3,
                                                    rate=rate, sigma=1.0))
        params = EnergyParams(rho=1.0, chi=0.9, sigma1=sigma1, c0=0.0, c4=1.0, c14=1.7)
        assert (sigma1 == 2.0 * rate) == (kind == "separable" and rate == 0.2)
        ts = np.concatenate([np.linspace(-40.0, 40.0, 321),
                             [0.0, -0.0, 5e-324, -5e-324, 1e-9, -1e-9]])
        batch = eval_B(ts, spec, params)
        assert batch.shape == ts.shape
        for t, b in zip(ts, batch):
            single = eval_B(float(t), spec, params)
            assert isinstance(single, float)
            assert b == single == self.radius_oracle(float(t), spec.h, params), t


class TestDecayInequality:
    def test_zero_trajectory_passes(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0, c5=0.0)
        traj = run(zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=1.0))
        ledger = build_ledger(traj, spec, basis, params)
        rep = verify_decay_inequality(ledger, spec, params)
        assert rep.passed and rep.max_violation <= 0.0

    def test_linear_case_c5_zero_tiny_slack(self, linear_trajectory, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, sigma1=0.1, c0=0.0, c4=1.0, c5=0.0)
        ledger = build_ledger(linear_trajectory, spec, basis, params)
        rep = verify_decay_inequality(ledger, spec, params)
        assert rep.passed and rep.energy_nonneg
        assert float(np.max(rep.residuals)) < 1e-6

    def test_residuals_shrink_first_order_in_record_spacing(self, linear_setup):
        # the forward difference converges to the true derivative linearly
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0, c5=0.0)
        u0 = np.zeros(8)
        u0[0] = 1.0
        ic = ModalState(u0, np.zeros(8), 0.0)
        traj_fine = run(ic, spec, basis, StepConfig(dt=1e-4, t_start=0.0, t_end=2.0,
                                                    record_every=10))
        ref = build_ledger(traj_fine, spec, basis, params)
        ref_r = verify_decay_inequality(ref, spec, params).residuals
        errs = []
        for every in (400, 200):
            traj = run(ic, spec, basis, StepConfig(dt=1e-4, t_start=0.0, t_end=2.0,
                                                   record_every=every))
            led = build_ledger(traj, spec, basis, params)
            r = verify_decay_inequality(led, spec, params).residuals
            # compare residuals at shared times against the near-continuum run
            idx = [ref.times.searchsorted(t) for t in led.times[:-1]]
            errs.append(float(np.max(np.abs(r - ref_r[idx]))))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

    @staticmethod
    def front_constant(ledger, spec, params, forced):
        """The integrated check's C, with the forcing term of its envelope given."""
        t, S0 = ledger.times, float(ledger.grad_norm_sq[0])
        data0 = ledger.xt_norm_sq[0] + S0 ** ((spec.sobolev_p + 2.0) / 2.0) + spec.delta * S0 ** 2
        denom = np.exp(-params.sigma1 * (t - float(t[0]))) * data0 + forced + 1.0
        return float(np.max(ledger.xt_norm_sq / denom))

    def test_unforced_envelope_keeps_its_bits(self, linear_trajectory, linear_setup):
        # the forcing term as the trapezoid of e^(sigma1 s) |h|^2 = 0 gave it
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, sigma1=0.1, c0=0.0, c4=1.0, c5=0.0)
        ledger = build_ledger(linear_trajectory, spec, basis, params)
        forced = np.exp(-params.sigma1 * ledger.times) * np.zeros(ledger.times.size)
        rep = verify_decay_inequality(ledger, spec, params)
        assert rep.front_constant == self.front_constant(ledger, spec, params, forced)

    def test_forced_envelope_matches_quadrature(self, hand_instance):
        # from rest at t0 = -2, so the forcing alone lifts the state and the
        # kink of |h|^2 at s = 0 lies inside the window
        from scipy.integrate import quad

        spec, basis, params = hand_instance
        spec = dataclasses.replace(spec, h=kw.ForcingSpec(kind="separable", amplitude=1.0,
                                                          rate=0.5, sigma=1.0))
        traj = run(zero_state(basis, -2.0), spec, basis,
                   StepConfig(dt=1e-2, t_start=-2.0, t_end=6.0, record_every=10))
        ledger = build_ledger(traj, spec, basis, params)
        s1 = params.sigma1

        def integrand(s):
            return math.exp(s1 * s) * forcing_norm_sq(spec.h, s)

        forced = np.array([math.exp(-s1 * t) * sum(
            quad(integrand, lo, hi)[0] for lo, hi in ((-2.0, min(t, 0.0)), (0.0, t)) if lo < hi)
            for t in ledger.times])
        want = self.front_constant(ledger, spec, params, forced)
        rep = verify_decay_inequality(ledger, spec, params)
        assert rep.front_constant == pytest.approx(want, rel=1e-10) and rep.integrated_passed
        # the forcing term moves C: an envelope without it is far off
        assert self.front_constant(ledger, spec, params, 0.0) > 1.5 * want

    def test_cubic_fixture_with_fitted_c5(self, cubic3d_setup):
        spec, basis = cubic3d_setup
        probe = EnergyParams(rho=1.0, chi=0.1, c0=0.0, c4=1.0)
        feas = solve_feasibility(spec, basis, probe)
        assert not feas.is_empty
        rho, chi, sigma1 = feas.chosen
        params = EnergyParams(rho=rho, chi=chi, sigma1=sigma1, c0=0.0, c4=1.0)
        rng = np.random.default_rng(3)
        y = rng.standard_normal(2 * basis.n_modes)
        y /= math.sqrt(np.sum(y ** 2))
        ic = ModalState(y[:basis.n_modes] / np.sqrt(basis.eigenvalues),
                        y[basis.n_modes:], 0.0)
        traj = run(ic, spec, basis, StepConfig(dt=2e-3, t_start=0.0, t_end=4.0,
                                               record_every=20))
        ledger = build_ledger(traj, spec, basis, params)
        rep = verify_decay_inequality(ledger, spec, params)
        assert rep.fitted_c5 and rep.passed and rep.energy_nonneg
        assert np.min(ledger.E) >= 0.0
        sandwich = fit_norm_sandwich(ledger, spec, params)
        assert sandwich.passed


class TestFeasibility:
    @staticmethod
    def oracle_point(rho, chi, lam1, L, alpha, lam, delta, gamma, c1, c2, c3):
        """Literal transcription of the binding system, scalar arithmetic."""
        checks = [
            rho >= math.sqrt(2 * lam),
            rho <= lam1 / (4 * L),
            rho <= math.sqrt((lam1 + 4 * lam) * L) / (2 * L),
            rho <= 2 / L,
            rho <= lam1 * math.sqrt(L) / (4 * L),
            rho / 2 - chi - chi * rho >= 0,
            delta * (2 * rho - chi / 2) >= 0,
        ]
        for eps in (alpha, L):
            checks.append(2 * rho * eps - rho ** 2 - chi * eps >= 0)
            checks.append(chi * rho ** 2 * eps - chi * lam - 2 * rho * gamma * c3
                          + 2 * chi * c3 - 2 * rho * c1 >= 0)
        checks.append(2 * lam1 + rho * lam1 - rho ** 2 * L - 2 * c3 >= 0)
        checks.append(c3 <= lam / 2)
        checks.append(math.sqrt(max(lam - 2 * c3, 0.0) * L) / L <= rho <= 2)
        return all(checks)

    def test_hand_instance_matches_fine_oracle(self, hand_instance):
        spec, basis, params = hand_instance
        n = 24
        report = solve_feasibility(spec, basis, params, grid_n=n)
        assert not report.is_empty
        consts = dict(lam1=basis.lambda1, L=spec.epsilon.bound,
                      alpha=spec.epsilon.alpha, lam=spec.lam, delta=spec.delta,
                      gamma=spec.g.gamma, c1=spec.g.c1, c2=spec.g.c2, c3=spec.g.c3)
        # 10x finer grid contains the coarse grid points; verdicts must agree
        fine = np.linspace(0.0, 3.0, 10 * n + 1)[1:]
        fine_chi = np.linspace(0.0, 1.5, 10 * n + 1)[1:]
        for i, rho in enumerate(report.rho_grid):
            for j, chi in enumerate(report.chi_grid):
                assert math.isclose(rho, fine[10 * i + 9])
                assert math.isclose(chi, fine_chi[10 * j + 9])
                assert report.feasible_mask[i, j] == self.oracle_point(rho, chi, **consts)

    def test_lambda_zero_degenerate_lower_bound(self, linear_setup):
        spec, basis = linear_setup  # lam = 0
        params = EnergyParams(rho=1.0, chi=0.1, c0=0.0, c4=1.0)
        report = solve_feasibility(spec, basis, params, grid_n=24)
        assert report.kill_counts["rho_min_zero_order"] == 0
        assert not report.is_empty

    def test_contradictory_instance_is_empty(self):
        # lam1/(4L) < sqrt(2 lam): upper and lower rho bounds cross
        spec = kw.ModelSpec(lam=0.5,
                            epsilon=kw.EpsilonProfile(alpha=1.0, bound=100.0))
        basis = kw.Basis(1, 8)
        params = EnergyParams(rho=1.0, chi=0.1, c0=0.0, c4=1.0)
        assert basis.lambda1 / (4 * 100.0) < math.sqrt(2 * 0.5)
        report = solve_feasibility(spec, basis, params, grid_n=24)
        assert report.is_empty
        assert report.binding_kill == "rho_max_mass_ratio"

    def test_chosen_point_passes_every_binding_constraint(self, hand_instance):
        spec, basis, params = hand_instance
        report = solve_feasibility(spec, basis, params, grid_n=32)
        rho, chi, sigma1 = report.chosen
        assert 0.0 < sigma1 < chi
        chosen_params = EnergyParams(rho=rho, chi=chi, sigma1=sigma1, c0=0.0, c4=1.0)
        from kwavelab.energy import check_point_margins
        margins = check_point_margins(spec, basis, chosen_params)
        assert min(margins.values()) >= -1e-12

    def test_refinement_consistency(self, hand_instance):
        spec, basis, params = hand_instance
        coarse = solve_feasibility(spec, basis, params, grid_n=16)
        fine = solve_feasibility(spec, basis, params, grid_n=32)
        # coarse grid is a subset of the doubled grid; verdicts must agree
        for i, rho in enumerate(coarse.rho_grid):
            for j, chi in enumerate(coarse.chi_grid):
                assert coarse.feasible_mask[i, j] == fine.feasible_mask[2 * i + 1, 2 * j + 1]

    def test_report_serializes(self, hand_instance):
        import json
        spec, basis, params = hand_instance
        report = solve_feasibility(spec, basis, params, grid_n=12)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert "feasible_count" in text


class TestParams:
    def test_sigma1_default_half_chi(self):
        params = EnergyParams(rho=1.0, chi=0.4, c0=0.0, c4=1.0)
        assert params.sigma1 == 0.2

    def test_sigma1_range_enforced(self):
        with pytest.raises(ValueError):
            EnergyParams(rho=1.0, chi=0.2, sigma1=0.3, c0=0.0, c4=1.0)

    def test_c0_below_c4_enforced(self):
        with pytest.raises(ValueError):
            EnergyParams(rho=1.0, chi=0.2, c0=1.0, c4=1.0)
