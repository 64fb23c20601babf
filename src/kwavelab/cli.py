"""Command-line front end.

Commands: validate, simulate, feasibility, pullback, semicontinuity,
decompose. Exit codes: 0 success, 1 property failure, 2 configuration
error, 3 numerical failure. All artifacts are written with 17 significant
digits so CSV round-trips are exact, and identical config + seed produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import attractor as att
from . import energy as en
from .config import ConfigError, ExperimentConfig
from .integrator import BlowUpError, StepConfig, run, run_decomposition
from .model import eval_epsilon, exp_each, validate_hypotheses
from .spectral import grad_norm_sq

MONOTONE_NOISE_BAND = 0.10  # tolerated relative increase between sweep rows


def _write_csv(path: str, header: list[str], rows) -> None:
    """One line per row, every cell as %.17g; a row whose length differs
    from the header's raises TypeError."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stage(msg: str) -> None:
    print(f"[kwavelab] {msg}", flush=True)


def _out_dir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def cmd_validate(cfg: ExperimentConfig) -> int:
    _stage("validating hypotheses")
    t_lo = cfg.step.t_start
    t_hi = max(cfg.step.t_end, t_lo + 50.0)
    report = validate_hypotheses(cfg.model, t_range=(t_lo, t_hi))
    out = _out_dir(cfg)
    _write_json(os.path.join(out, "hypotheses.json"), report.to_dict())
    for check in report.checks:
        flag = "ok " if check.passed else "FAIL"
        _stage(f"  {flag} {check.name} (margin {check.margin:.3e})")
    _stage(f"report written to {out}/hypotheses.json")
    return 0 if report.all_passed else 1


def _state_columns(basis) -> list[str]:
    labels = basis.mode_labels()
    return [f"u_{m}" for m in labels] + [f"v_{m}" for m in labels]


def cmd_simulate(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    params = cfg.energy_params(log=_stage)
    _stage(f"integrating {cfg.step.n_steps} steps of dt = {cfg.step.dt:g}")
    traj = run(cfg.initial_state(), cfg.model, cfg.basis, cfg.step)
    _write_csv(os.path.join(out, "trajectory.csv"), ["t"] + _state_columns(cfg.basis),
               np.column_stack([traj.times, traj.us, traj.vs]))
    _stage("building energy ledger")
    ledger = en.build_ledger(traj, cfg.model, cfg.basis, params)
    decay = en.verify_decay_inequality(ledger, traj, cfg.model, cfg.basis, params,
                                       dt=cfg.step.dt)
    sandwich = en.fit_norm_sandwich(ledger, traj, cfg.model, cfg.basis, params)
    residual = np.append(decay.residuals, np.nan)  # the last record has no forward difference
    _write_csv(os.path.join(out, "ledger.csv"), [*ledger.COLUMNS, "residual"],
               np.column_stack(ledger.columns() + [residual]))
    summary = {
        "final_xt_norm_sq": float(ledger.xt_norm_sq[-1]),
        "decay": decay.to_dict(),
        "sandwich": {"c6": sandwich.c6, "c9": sandwich.c9, "c10": sandwich.c10,
                     "passed": sandwich.passed},
        "energy_min": float(np.min(ledger.E)),
        "params": {"rho": params.rho, "chi": params.chi, "sigma1": params.sigma1},
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    _stage(f"max decay residual {float(np.max(decay.residuals)):.3e}, "
           f"c5 = {decay.c5:.6g}")
    ok = (decay.passed and decay.integrated_passed and decay.energy_nonneg
          and sandwich.passed)
    return 0 if ok else 1


def cmd_feasibility(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    _stage(f"scanning {cfg.values['energy.grid_n']}^2 grid over "
           f"(0, {en.RHO_MAX:g}] x (0, {en.CHI_MAX:g}]")
    report = cfg.scan_feasibility()
    _write_json(os.path.join(out, "feasibility.json"), report.to_dict())
    if report.is_empty:
        _stage(f"feasible set EMPTY; binding constraint: {report.binding_kill}")
        return 1
    rho, chi, sig = report.chosen
    _stage(f"chosen point rho = {rho:.6g}, chi = {chi:.6g}, sigma1 = {sig:.6g}")
    return 0


def _cloud_rows(clouds):
    for cloud in clouds:
        for i in range(cloud.n_points):
            yield (cloud.t_star, cloud.delta, cloud.tau, *cloud.us[i], *cloud.vs[i])


def _check_legs(cfg: ExperimentConfig, t_star: float, taus) -> None:
    """ConfigError unless each pullback leg t_star - tau -> t_star is a whole
    number of attractor.dt steps and starts where eps > 0 (the eps profiles
    are monotone, so eps stays positive along the leg)."""
    dt = cfg.attractor_dt
    for tau in taus:
        try:
            StepConfig(dt=dt, t_start=t_star - tau, t_end=t_star).n_steps
        except ValueError:
            raise ConfigError(f"pullback horizon tau = {tau:g} is not a whole number "
                              f"of attractor.dt = {dt:g} steps") from None
        eps, _ = eval_epsilon(cfg.model.epsilon, t_star - tau)
        if eps <= 0.0:
            raise ConfigError(f"eps = {eps:.6g} <= 0 at t = {t_star - tau:g}, the start "
                              f"of the pullback leg tau = {tau:g}")


def cmd_pullback(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    ens = cfg.ensemble
    t_star = float(cfg.values["attractor.t_star"])
    _check_legs(cfg, t_star, ens.taus)
    params = cfg.energy_params(log=_stage)
    deltas = [float(d) for d in cfg.values["attractor.deltas"]]
    dt = cfg.attractor_dt
    _stage(f"absorbing check over deltas {deltas} and taus {list(ens.taus)}")
    reps = att.verify_absorbing(cfg.model, params, cfg.basis, ens, deltas, t_star,
                                dt=dt, threads=cfg.threads)
    reports = {}
    for d, rep in zip(deltas, reps):
        reports[f"{d:g}"] = rep.to_dict()
        _stage(f"delta = {d:g}: fraction inside at tau = {rep.rows[-1].tau:g} "
               f"is {rep.rows[-1].fraction_inside:.3f}")
    clouds = [rep.clouds[-1] for rep in reps]
    _write_csv(os.path.join(out, "clouds.csv"),
               ["t_star", "delta", "tau"] + _state_columns(cfg.basis), _cloud_rows(clouds))
    _write_json(os.path.join(out, "absorbing.json"),
                {"t_star": t_star, "reports": reports})
    all_ok = all(rep["passed"] for rep in reports.values())
    return 0 if all_ok else 1


def cmd_semicontinuity(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    ens = cfg.ensemble
    t_star = float(cfg.values["attractor.t_star"])
    tau = ens.taus[-1]
    _check_legs(cfg, t_star, [tau])
    params = cfg.energy_params(log=_stage)
    deltas = sorted(map(float, cfg.values["attractor.deltas"]), reverse=True)
    _stage(f"sweep over deltas {deltas} at tau = {tau:g}")
    sweep = att.semicontinuity_sweep(cfg.model, params, cfg.basis, ens, deltas,
                                     t_star, tau, cfg.attractor_dt,
                                     threads=cfg.threads)
    order = sweep.fitted_order
    rows = [(r.delta, r.dist, order if order is not None else float("nan"))
            for r in sweep.rows]
    _write_csv(os.path.join(out, "sweep.csv"), ["delta", "dist", "fitted_order"], rows)
    dists = [r.dist for r in sweep.rows if r.delta > 0]
    monotone = all(b <= a * (1.0 + MONOTONE_NOISE_BAND)
                   for a, b in zip(dists, dists[1:]))
    ratio = dists[-1] / dists[0] if dists and dists[0] > 0 else 0.0
    _write_json(os.path.join(out, "semicontinuity.json"),
                {"sweep": sweep.to_dict(), "monotone_within_band": monotone,
                 "final_over_initial": ratio})
    _stage(f"distances {['%.3e' % d for d in dists]}, fitted order "
           f"{'n/a' if order is None else '%.3f' % order}")
    return 0 if monotone else 1


def cmd_decompose(cfg: ExperimentConfig) -> int:
    out = _out_dir(cfg)
    _stage(f"integrating parent trajectory ({cfg.step.n_steps} steps)")
    traj = run(cfg.initial_state(), cfg.model, cfg.basis, cfg.step)
    _stage("integrating decomposition")
    pair = run_decomposition(traj, cfg.model)
    g1 = grad_norm_sq(cfg.basis, pair.u1)
    bound = exp_each(-2.0 * (traj.times - traj.times[0])) * g1[0] * (1.0 + 1e-3)
    rate2_ok = not np.any(g1 > bound + 1e-300)
    lap_sq = np.sum(cfg.basis.eigenvalues ** 2 * pair.u2 ** 2, axis=1)
    _write_csv(os.path.join(out, "decomposition.csv"),
               ["t", "grad_u1_sq", "decay_bound", "lap_u2_sq"],
               zip(traj.times, g1, bound, lap_sq))
    _write_json(os.path.join(out, "decomposition.json"),
                {"split_error": pair.split_error, "rate2_ok": rate2_ok,
                 "sup_lap_u2_sq": float(np.max(lap_sq)), "k_eff": pair.k_eff})
    _stage(f"split error {pair.split_error:.3e}, rate-2 bound "
           f"{'holds' if rate2_ok else 'FAILS'}")
    return 0 if rate2_ok else 1


COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "feasibility": cmd_feasibility,
    "pullback": cmd_pullback,
    "semicontinuity": cmd_semicontinuity,
    "decompose": cmd_decompose,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kwavelab",
                                     description="Damped Kirchhoff wave laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a .cfg file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, out=args.out,
                                    threads=args.threads, seed=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except en.InfeasibleParamsError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
