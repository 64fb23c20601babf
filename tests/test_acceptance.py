"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criterion 6 checks the finite-horizon difference estimate
behind upper semicontinuity, |z(T)|^2 <= C delta for z = u^delta - u^0 with
common data, together with the linear rate of the unsquared distance |z(T)|:
the Kirchhoff term is smooth in delta, so z = delta w + O(delta^2) and the
squared distance is quadratic, not linear, in delta.
"""

import json
import math
import time

import numpy as np
import pytest

import kwavelab as kw
from kwavelab.attractor import (AttractorCloud, EnsembleSpec, hausdorff_semidist,
                                semicontinuity_sweep, verify_absorbing)
from kwavelab.cli import main
from kwavelab.config import ExperimentConfig
from kwavelab.energy import (EnergyParams, build_ledger, fit_norm_sandwich,
                             solve_feasibility, verify_decay_inequality)
from kwavelab.integrator import StepConfig, run, run_decomposition
from oracles import run_difference

CONFIGS = "configs"


def report(num, label, ok, detail=""):
    print(f"[acceptance] criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_integrator_order():
    t0 = time.time()
    spec = kw.ModelSpec(dim=1)
    basis = kw.Basis(1, 1)
    mu = basis.eigenvalues[0]
    r1, r2 = np.roots([1.0, mu, mu])
    A = np.linalg.solve(np.array([[1.0, 1.0], [r1, r2]]), np.array([1.0, 0.0]))
    exact = float((A[0] * np.exp(r1) + A[1] * np.exp(r2)).real)

    errs = {}
    for dt in (1e-3, 5e-4):
        ic = kw.ModalState(np.array([1.0]), np.array([0.0]), 0.0)
        traj = run(ic, spec, basis, StepConfig(dt=dt, t_start=0.0, t_end=1.0,
                                               record_every=int(round(1.0 / dt))))
        errs[dt] = abs(traj.us[-1, 0] - exact)
    rel = errs[1e-3] / abs(exact)
    ratio = errs[1e-3] / errs[5e-4]
    elapsed = time.time() - t0
    ok = rel < 1e-4 and 3.5 <= ratio <= 4.5 and elapsed < 1.0
    assert report(1, "integrator order", ok,
                  f"rel_err={rel:.3e} ratio={ratio:.2f} runtime={elapsed:.2f}s")


def test_criterion_2_energy_decay(tmp_path):
    t0 = time.time()
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", f"{CONFIGS}/cubic3d.cfg",
                 "--out", str(out)]) == 0
    chosen = json.loads((out / "feasibility.json").read_text())["chosen"]
    cfg = ExperimentConfig.load(f"{CONFIGS}/cubic3d.cfg")
    params = EnergyParams(rho=chosen["rho"], chi=chosen["chi"],
                          sigma1=chosen["sigma1"], c0=0.0, c4=1.0)
    traj = run(cfg.initial_state(), cfg.model, cfg.basis, cfg.step)
    ledger = build_ledger(traj, cfg.model, cfg.basis, params)
    decay = verify_decay_inequality(ledger, traj, cfg.model, cfg.basis, params,
                                    dt=cfg.step.dt)
    sandwich = fit_norm_sandwich(ledger, traj, cfg.model, cfg.basis, params)
    elapsed = time.time() - t0
    ok = (decay.fitted_c5 and decay.passed and decay.integrated_passed
          and sandwich.passed and float(np.min(ledger.E)) >= 0.0 and elapsed < 120.0)
    assert report(2, "energy decay", ok,
                  f"c5={decay.c5:.3e} max_violation={decay.max_violation:.3e} "
                  f"C={decay.front_constant:.3e} runtime={elapsed:.1f}s")


def test_criterion_3_absorbing_family():
    t0 = time.time()
    cfg = ExperimentConfig.load(f"{CONFIGS}/cubic3d.cfg")
    params = cfg.energy_params()
    ens = EnsembleSpec(n_points=64, sampling="sphere_surface", seed=cfg.seed,
                       taus=(10.0, 20.0))
    fractions = []
    for rep in verify_absorbing(cfg.model, params, cfg.basis, ens, [0.0, 0.1],
                                t=0.0, dt=5e-3):
        fractions.extend(r.fraction_inside for r in rep.rows)
    elapsed = time.time() - t0
    ok = all(f == 1.0 for f in fractions) and elapsed < 300.0
    assert report(3, "absorbing family", ok,
                  f"fractions={fractions} runtime={elapsed:.1f}s")


def test_criterion_4_decomposition():
    cfg = ExperimentConfig.load(f"{CONFIGS}/linear.cfg")
    traj = run(cfg.initial_state(), cfg.model, cfg.basis, cfg.step)
    pair = run_decomposition(traj, cfg.model)
    sum_exact = bool(np.array_equal(pair.u2, traj.us - pair.u1))
    split_ok = pair.split_error < 1e-3
    g0 = kw.grad_norm_sq(cfg.basis, pair.u1[0])
    t_0 = float(traj.times[0])
    rate2_ok = all(
        kw.grad_norm_sq(cfg.basis, pair.u1[i])
        <= math.exp(-2.0 * (float(traj.times[i]) - t_0)) * g0 * (1.0 + 1e-3)
        for i in range(traj.n_records))
    ok = sum_exact and split_ok and rate2_ok
    assert report(4, "decomposition", ok,
                  f"sum_exact={sum_exact} split_error={pair.split_error:.3e} "
                  f"rate2={rate2_ok}")


def test_criterion_5_h2_boundedness():
    spec = kw.ModelSpec(dim=1, lam=0.1,
                        h=kw.ForcingSpec(kind="separable", amplitude=1.0, rate=0.5,
                                         mode=1, sigma=1.0))
    basis = kw.Basis(1, 16)
    mu = basis.eigenvalues
    u0 = np.zeros(16)
    u0[0] = 0.5
    sups = []
    for t_end in (10.0, 20.0):
        traj = run(kw.ModalState(u0, np.zeros(16), 0.0), spec, basis,
                   StepConfig(dt=1e-3, t_start=0.0, t_end=t_end, record_every=10))
        pair = run_decomposition(traj, spec)
        sups.append(float(np.max(np.sum(mu ** 2 * pair.u2 ** 2, axis=1))))
    change = abs(sups[1] - sups[0]) / sups[0]
    ok = all(math.isfinite(s) for s in sups) and change < 0.05
    assert report(5, "H2 boundedness of u2", ok,
                  f"sup(T)={sups[0]:.6e} sup(2T)={sups[1]:.6e} change={change:.2%}")


def test_criterion_6_delta_continuity():
    # phase-space distance |z(T)|_{X_T} of trajectories with common initial
    # data: its log-log slope against delta must lie in [0.8, 1.2] (the rate),
    # and C = |z|^2 / delta fitted at the largest delta must bound |z|^2 at
    # the smaller ones (the finite-horizon estimate |z(T)|^2 <= C delta)
    spec = kw.ModelSpec(dim=1, lam=0.1, g=kw.NonlinearitySpec.cubic_soft())
    basis = kw.Basis(1, 8)
    u0 = np.zeros(8)
    u0[0], u0[2] = 1.0, 0.3
    ic = kw.ModalState(u0, np.zeros(8), 0.0)
    cfg = StepConfig(dt=1e-3, t_start=0.0, t_end=2.0, record_every=2000)
    deltas = (1e-2, 1e-3, 1e-4)
    sq_norms = []
    for d in deltas:
        z = run_difference(spec.with_delta(d), spec, ic, ic, basis, cfg)
        sq_norms.append(kw.xt_norm_sq(basis, z, spec.epsilon)[-1])
    slope_sq = float(np.polyfit(np.log(deltas), np.log(sq_norms), 1)[0])
    slope_norm = slope_sq / 2.0
    C = sq_norms[0] / deltas[0]
    bound_ok = all(sq <= C * d for sq, d in zip(sq_norms[1:], deltas[1:]))
    ok = 0.8 <= slope_norm <= 1.2 and bound_ok
    assert report(6, "delta continuity", ok,
                  f"slope(|z| vs delta)={slope_norm:.3f} "
                  f"slope(|z|^2 vs delta)={slope_sq:.3f} "
                  f"C={C:.3e} bound={bound_ok}")


def test_criterion_7_upper_semicontinuity():
    t0 = time.time()
    cfg = ExperimentConfig.load(f"{CONFIGS}/sweep.cfg")
    params = cfg.energy_params()
    ens = EnsembleSpec(n_points=64, sampling="sphere_surface", seed=cfg.seed,
                       taus=(20.0,))
    sweep = semicontinuity_sweep(cfg.model, params, cfg.basis, ens,
                                 [0.2, 0.1, 0.05, 0.01], 0.0, 20.0, dt=5e-3)
    dists = [r.dist for r in sweep.rows if r.delta > 0]
    elapsed = time.time() - t0
    monotone = all(b <= a * 1.1 for a, b in zip(dists, dists[1:]))
    ratio = dists[-1] / dists[0]
    ok = monotone and ratio <= 0.2 and elapsed < 900.0
    assert report(7, "upper semicontinuity", ok,
                  f"dists={['%.3e' % d for d in dists]} final/initial={ratio:.3f} "
                  f"order={sweep.fitted_order:.2f} runtime={elapsed:.1f}s")


def test_criterion_8_hausdorff_axioms():
    spec = kw.ModelSpec(dim=1)
    basis = kw.Basis(1, 6)
    rng = np.random.default_rng(17)

    def cloud(n):
        return AttractorCloud(0.0, 0.0, 0.0, basis,
                              rng.standard_normal((n, 6)), rng.standard_normal((n, 6)))

    reflexive = all(hausdorff_semidist(c, c, spec.epsilon) == 0.0
                    for c in (cloud(1), cloud(5), cloud(9)))
    singles_ok = True
    for _ in range(50):
        a, b = cloud(1), cloud(1)
        diff = kw.ModalState(a.us[0] - b.us[0], a.vs[0] - b.vs[0], 0.0)
        want = math.sqrt(kw.xt_norm_sq(basis, diff, spec.epsilon))
        if abs(hausdorff_semidist(a, b, spec.epsilon) - want) > 1e-12:
            singles_ok = False
    triangle_ok = True
    for _ in range(1000):
        A, B, C = (cloud(int(rng.integers(1, 6))) for _ in range(3))
        dAC = hausdorff_semidist(A, C, spec.epsilon)
        dAB = hausdorff_semidist(A, B, spec.epsilon)
        dBC = hausdorff_semidist(B, C, spec.epsilon)
        if dAC > dAB + dBC + 1e-12:
            triangle_ok = False
    ok = reflexive and singles_ok and triangle_ok
    assert report(8, "Hausdorff semi-distance axioms", ok,
                  f"reflexive={reflexive} singletons={singles_ok} triangle={triangle_ok}")


def test_criterion_9_feasibility_solver():
    # hand-checkable instance vs an independent brute-force scan
    spec = kw.ModelSpec(dim=1, lam=0.1, g=kw.NonlinearitySpec.cubic_soft())
    basis = kw.Basis(1, 8)
    params = EnergyParams(rho=1.0, chi=0.1, c0=0.0, c4=1.0)
    n = 24
    rep = solve_feasibility(spec, basis, params, grid_n=n)

    lam1, L, alpha = basis.lambda1, spec.epsilon.bound, spec.epsilon.alpha
    lam, delta, gamma = spec.lam, spec.delta, spec.g.gamma
    c1, c3 = spec.g.c1, spec.g.c3

    def brute(rho, chi):
        conds = [rho >= math.sqrt(2 * lam),
                 rho <= lam1 / (4 * L),
                 rho <= math.sqrt((lam1 + 4 * lam) * L) / (2 * L),
                 rho <= 2 / L,
                 rho <= lam1 * math.sqrt(L) / (4 * L),
                 rho / 2 - chi - chi * rho >= 0,
                 delta * (2 * rho - chi / 2) >= 0,
                 2 * lam1 + rho * lam1 - rho ** 2 * L - 2 * c3 >= 0,
                 c3 <= lam / 2,
                 math.sqrt(max(lam - 2 * c3, 0) * L) / L <= rho <= 2]
        for eps in (alpha, L):
            conds.append(2 * rho * eps - rho ** 2 - chi * eps >= 0)
            conds.append(chi * rho ** 2 * eps - chi * lam - 2 * rho * gamma * c3
                         + 2 * chi * c3 - 2 * rho * c1 >= 0)
        return all(conds)

    fine_rho = np.linspace(0.0, 3.0, 10 * n + 1)[1:]
    fine_chi = np.linspace(0.0, 1.5, 10 * n + 1)[1:]
    agree = True
    for i, rho in enumerate(rep.rho_grid):
        for j, chi in enumerate(rep.chi_grid):
            assert math.isclose(rho, fine_rho[10 * i + 9])
            assert math.isclose(chi, fine_chi[10 * j + 9])
            if rep.feasible_mask[i, j] != brute(rho, chi):
                agree = False
    nonempty = not rep.is_empty

    bad_spec = kw.ModelSpec(dim=1, lam=0.5,
                            epsilon=kw.EpsilonProfile(alpha=1.0, bound=100.0))
    bad = solve_feasibility(bad_spec, basis, params, grid_n=n)
    empty_ok = bad.is_empty and bad.binding_kill == "rho_max_mass_ratio"
    ok = agree and nonempty and empty_ok
    assert report(9, "feasibility solver", ok,
                  f"agree={agree} nonempty={nonempty} empty_named={empty_ok}")
