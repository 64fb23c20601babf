"""Time-step study of the attractor commands: each row's dt_gap at several
values of attractor.dt.

Runs the config's delta sweep (what `semicontinuity` computes) or, with
--absorbing, its absorbing check (what `pullback` computes) once per step of
--dts, and prints one line per row and step: the row's value, its
step-doubling estimate dt_gap, dt_gap relative to the value, and the value's
change relative to the run at the first step of the list. An absorbing row
prints two lines, its worst_ratio and its cauchy_gap, with the row's one
dt_gap (the larger of their two estimates); the last row's cauchy_gap is 0 by
definition and prints no relative columns. Each run ends with its wall time
and, for the sweep, its fitted order.

Usage: python scripts/dt_study.py CONFIG [--dts DT ...] [--absorbing] [--threads N]

Every tau the run integrates must be a whole number of 2 dt steps, and B must
be finite on the window the mirrored command evaluates it on, as for the
commands themselves (exit 2 otherwise).
"""

import argparse
import dataclasses
import sys
import time

from kwavelab import attractor as att
from kwavelab.config import ConfigError, ExperimentConfig

DEFAULT_DTS = (0.005, 0.0078125, 0.015625, 0.03125)


def study_rows(cfg: ExperimentConfig, params, absorbing: bool):
    """(label, value, dt_gap) per printed line of one run, and a note for its
    last line (the sweep's fitted order)."""
    ens, tau_max = cfg.ensemble, cfg.ensemble.taus[-1]
    if not absorbing:
        cfg.check_legs([tau_max])
        cfg.check_radius(params, ens.t_star - tau_max, ens.t_star - tau_max)
        sweep = att.semicontinuity_sweep(cfg.model, params, cfg.basis, ens, cfg.threads)
        return ([(f"delta={r.delta:g} dist", r.dist, r.dt_gap) for r in sweep.rows],
                f", fitted order {sweep.fitted_order}")
    cfg.check_legs(ens.taus)
    cfg.check_radius(params, ens.t_star - tau_max, ens.t_star)
    reps = att.verify_absorbing(cfg.model, params, cfg.basis, ens, cfg.threads)
    return ([(f"delta={d:g} tau={r.tau:g} {name}", value, r.dt_gap)
             for d, rep in zip(ens.deltas, reps) for r in rep.rows
             for name, value in (("worst_ratio", r.worst_ratio), ("cauchy_gap", r.cauchy_gap))],
            "")


def ratio(a: float, b: float) -> str:
    return f"{a / b:>10.2e}" if b != 0.0 else f"{'-':>10}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("--dts", type=float, nargs="+", default=DEFAULT_DTS)
    parser.add_argument("--absorbing", action="store_true",
                        help="the absorbing check instead of the delta sweep")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args()
    try:
        cfg = ExperimentConfig.load(args.config, threads=args.threads)
        params = cfg.energy_params()
        first = None
        print(f"{'dt':>10} {'row':<34} {'value':>14} {'dt_gap':>10} {'gap/value':>10} "
              f"{'change':>10}")
        for dt in args.dts:
            run_cfg = dataclasses.replace(cfg, ensemble=dataclasses.replace(cfg.ensemble,
                                                                             dt=dt))
            start = time.perf_counter()
            rows, note = study_rows(run_cfg, params, args.absorbing)
            wall = time.perf_counter() - start
            first = first or {label: value for label, value, _ in rows}
            for label, value, gap in rows:
                change = abs(value - first[label])
                print(f"{dt:>10g} {label:<34} {value:>14.6e} {gap:>10.2e} "
                      f"{ratio(gap, value)} {ratio(change, first[label])}")
            print(f"{dt:>10g} wall {wall:.2f} s{note}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        sys.exit(2)
