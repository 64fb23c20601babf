import math

import numpy as np
import pytest

import kwavelab as kw
from kwavelab.energy import (EnergyParams, InfeasibleParamsError, build_ledger,
                             eval_B, eval_E, eval_Etilde, eval_I, eval_K, eval_L,
                             fit_norm_sandwich, solve_feasibility,
                             verify_decay_inequality, xi_value)
from kwavelab.integrator import StepConfig, run
from kwavelab.model import forcing_norm_sq
from kwavelab.spectral import ModalState


def single_mode_state(basis, u1=0.0, v1=0.0, t=0.0):
    u = np.zeros(basis.n_modes)
    v = np.zeros(basis.n_modes)
    u[0], v[0] = u1, v1
    return ModalState(u, v, t)


class TestPointFunctionals:
    def test_E_zero_state_no_offset(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        assert eval_E(kw.zero_state(basis), spec, basis, params) == 0.0

    def test_E_zero_state_offset_survives(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=1.0, c4=2.0)
        assert eval_E(kw.zero_state(basis), spec, basis, params) == 2.0

    def test_E_single_mode_hand_expansion(self):
        spec = kw.ModelSpec(dim=1, lam=0.3,
                            epsilon=kw.EpsilonProfile(kind="constant", alpha=1.5))
        basis = kw.Basis(1, 4)
        params = EnergyParams(rho=0.7, chi=0.1, c0=0.0, c4=1.0)
        u1, v1 = 0.4, -0.2
        st = single_mode_state(basis, u1, v1)
        mu = np.pi ** 2
        eps = 1.5
        expected = (eps * (v1 + 0.7 * u1) ** 2 - 0.7 ** 2 * eps * u1 ** 2
                    + mu * u1 ** 2 + 0.7 * mu * u1 ** 2 + 0.3 * u1 ** 2)
        assert eval_E(st, spec, basis, params) == pytest.approx(expected, rel=1e-13)

    def test_I_zero_state(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.5, c4=1.0)
        assert eval_I(kw.zero_state(basis), spec, basis, params) == pytest.approx(
            -0.2 * 2 * 0.5, rel=1e-14)

    def test_K_zero_state(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        assert eval_K(kw.zero_state(basis), spec, basis, params) == 0.0

    def test_K_nonnegative_under_rho_bound(self):
        # rho <= min(2/L, lam1 sqrt(L)/(4L)) forces K >= 0
        spec = kw.ModelSpec(dim=1, epsilon=kw.EpsilonProfile(kind="constant", alpha=1.0))
        basis = kw.Basis(1, 8)
        L = spec.epsilon.bound
        rho = min(2.0 / L, basis.lambda1 * math.sqrt(L) / (4.0 * L))
        params = EnergyParams(rho=rho, chi=0.05, c0=0.0, c4=1.0)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            st = ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
            assert eval_K(st, spec, basis, params) >= -1e-10

    def test_I_bounded_below_on_trajectory(self, hand_instance):
        spec, basis, params = hand_instance
        u0 = np.zeros(8)
        u0[0] = 0.6
        traj = run(ModalState(u0, np.zeros(8), 0.0), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=5.0, record_every=50))
        I_series = [eval_I(traj.state(i), spec, basis, params)
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
            assert ledger.I[i] == eval_I(traj.state(i), spec, basis, params)


class TestBatchedLedger:
    def test_ledger_equals_per_state_calls_bitwise(self, forced_cubic_run):
        spec, basis, traj = forced_cubic_run
        params = EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0)
        ledger = build_ledger(traj, spec, basis, params)
        series = {name: np.empty(traj.n_records)
                  for name in ("E", "I", "K", "L", "xt_norm_sq", "B")}
        for i in range(traj.n_records):  # the per-record oracle
            st = traj.state(i)
            series["E"][i] = eval_E(st, spec, basis, params)
            series["I"][i] = eval_I(st, spec, basis, params, E=series["E"][i])
            series["K"][i] = eval_K(st, spec, basis, params)
            series["L"][i] = eval_L(st, spec, basis, params)
            series["xt_norm_sq"][i] = kw.xt_norm_sq(basis, st, spec.epsilon)
            series["B"][i] = eval_B(st.t, spec, params)
        for name, want in series.items():
            assert np.array_equal(getattr(ledger, name), want), name
        assert np.isnan(ledger.Etilde).all() and np.isnan(ledger.residuals).all()

    def test_single_state_and_one_row_batch_agree(self, cubic3d_setup):
        spec, basis = cubic3d_setup
        params = EnergyParams(rho=0.5, chi=0.1, c0=0.0, c4=1.0)
        rng = np.random.default_rng(9)
        st = ModalState(0.1 * rng.standard_normal(basis.n_modes),
                        0.1 * rng.standard_normal(basis.n_modes), 0.7)
        row = ModalState(st.u[None], st.v[None], np.array([st.t]))
        for fn in (eval_E, eval_I, eval_K, eval_L, eval_Etilde):
            single, batch = fn(st, spec, basis, params), fn(row, spec, basis, params)
            assert isinstance(single, float) and batch.shape == (1,)
            assert batch[0] == single, fn.__name__


class TestSecondEnergy:
    def test_zero_trajectory(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        traj = run(kw.zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=1.0))
        assert eval_L(traj.final_state, spec, basis, params) == 0.0

    def test_single_mode_hand_expansion(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=0.8, chi=0.1, c0=0.0, c4=1.0)
        traj = run(single_mode_state(basis, 1.0), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=1.0, record_every=100))
        state = traj.state(5)
        assert state.t == 0.5
        mu = basis.eigenvalues
        w = state.v
        wt = kw.reconstruct_accel(state, spec, basis)
        expected = (np.sum(wt ** 2 / mu) + 2 * 0.8 * np.dot(wt, w) + np.sum(w ** 2)
                    + 0.8 * np.sum(mu * w ** 2))
        assert eval_L(state, spec, basis, params) == pytest.approx(expected, rel=1e-12)

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
            state = traj.state(i)
            w = state.v
            wt = kw.reconstruct_accel(state, spec, basis)
            core = float(np.sum(wt ** 2 / basis.eigenvalues)
                         + np.sum(basis.eigenvalues * w ** 2))
            pairs.append((eval_L(state, spec, basis, params), core))
        ratios = [L / c for L, c in pairs if c > 1e-250]
        c18, c19 = min(ratios), max(ratios)
        assert 0.0 < c18 <= c19
        for L, core in pairs:
            assert c18 * core - 1e-12 <= L <= c19 * core + 1e-12


class TestDifferenceEnergy:
    def test_zero_difference(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        assert eval_Etilde(kw.zero_state(basis), spec, basis, params) == 0.0

    def test_xi_zero_reduction(self, linear_setup):
        spec, basis = linear_setup
        rng = np.random.default_rng(8)
        z = ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
        params = EnergyParams(rho=1.0, chi=0.2, xi=0.0, c0=0.0, c4=1.0)
        expected = (kw.norm_sq(z.v) + kw.grad_norm_sq(basis, z.u))
        assert eval_Etilde(z, spec, basis, params) == pytest.approx(expected, rel=1e-13)

    def test_nonnegative_for_small_xi(self, linear_setup):
        spec, basis = linear_setup
        xi = math.sqrt(basis.lambda1) / 2.0
        params = EnergyParams(rho=1.0, chi=0.2, xi=xi, c0=0.0, c4=1.0)
        rng = np.random.default_rng(13)
        for _ in range(500):
            z = ModalState(rng.standard_normal(8), rng.standard_normal(8), 0.0)
            assert eval_Etilde(z, spec, basis, params) >= -1e-10

    def test_default_xi_guarantee(self, cubic3d_setup):
        spec, basis = cubic3d_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0)
        assert xi_value(params, basis) == pytest.approx(min(0.1, math.sqrt(basis.lambda1) / 4))


class TestAbsorbingRadius:
    def test_zero_forcing_constant_radius(self, linear_setup):
        spec, _ = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c14=2.5, c0=0.0, c4=1.0)
        for t in (-5.0, 0.0, 7.0):
            assert eval_B(t, spec, params) == pytest.approx(math.sqrt(2.5), rel=1e-14)

    def test_quadrature_matches_closed_form(self):
        from scipy.integrate import quad

        spec = kw.ModelSpec(dim=1, h=kw.ForcingSpec(kind="separable", amplitude=1.3,
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
        spec = kw.ModelSpec(dim=1, h=kw.ForcingSpec(kind="separable", amplitude=1.0,
                                                    rate=1.0, sigma=1.0))
        params = EnergyParams(rho=1.0, chi=0.4, sigma1=0.3, c0=0.0, c4=1.0)
        ts = np.linspace(-5.0, 10.0, 61)
        vals = np.array([eval_B(float(t), spec, params) for t in ts])
        peak = int(np.argmax(vals))
        assert ts[peak] == pytest.approx(0.57, abs=0.3)
        tail = vals[peak:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


class TestDecayInequality:
    def test_zero_trajectory_passes(self, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, c0=0.0, c4=1.0, c5=0.0)
        traj = run(kw.zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=1.0))
        ledger = build_ledger(traj, spec, basis, params)
        rep = verify_decay_inequality(ledger, traj, spec, basis, params)
        assert rep.passed and rep.max_violation <= 0.0

    def test_linear_case_c5_zero_tiny_slack(self, linear_trajectory, linear_setup):
        spec, basis = linear_setup
        params = EnergyParams(rho=1.0, chi=0.2, sigma1=0.1, c0=0.0, c4=1.0, c5=0.0)
        ledger = build_ledger(linear_trajectory, spec, basis, params)
        rep = verify_decay_inequality(ledger, linear_trajectory, spec, basis, params)
        assert rep.passed and rep.energy_nonneg
        assert float(np.max(rep.residuals)) < 1e-6

    def test_infeasible_params_rejected(self, linear_setup):
        spec, basis = linear_setup
        bad = EnergyParams(rho=2.9, chi=1.4, c0=0.0, c4=1.0)  # violates rho box
        traj = run(kw.zero_state(basis), spec, basis,
                   StepConfig(dt=1e-2, t_start=0.0, t_end=0.1))
        ledger = build_ledger(traj, spec, basis, bad)
        with pytest.raises(InfeasibleParamsError):
            verify_decay_inequality(ledger, traj, spec, basis, bad)

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
        verify_decay_inequality(ref, traj_fine, spec, basis, params)
        errs = []
        for every in (400, 200):
            traj = run(ic, spec, basis, StepConfig(dt=1e-4, t_start=0.0, t_end=2.0,
                                                   record_every=every))
            led = build_ledger(traj, spec, basis, params)
            verify_decay_inequality(led, traj, spec, basis, params)
            # compare residuals at shared times against the near-continuum run
            idx = [ref.times.searchsorted(t) for t in led.times[:-1]]
            errs.append(float(np.max(np.abs(led.residuals[:-1] - ref.residuals[idx]))))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.25)

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
        rep = verify_decay_inequality(ledger, traj, spec, basis, params)
        assert rep.fitted_c5 and rep.passed and rep.energy_nonneg
        assert np.min(ledger.E) >= 0.0
        sandwich = fit_norm_sandwich(ledger, traj, spec, basis, params)
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
        spec = kw.ModelSpec(dim=1, lam=0.5,
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
