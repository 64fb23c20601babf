"""Command-line front end.

Commands: validate, simulate, feasibility, pullback, semicontinuity,
decompose. Exit codes: 0 success, 1 property failure, 2 configuration error
(ExperimentConfig's checks, a negative seed, an uncountable step count and, for
simulate and decompose, record arrays over MAX_RECORD_VALUES among them;
pullback's of its report keys; an unusable output directory), 3 numerical failure.
All artifacts are written with 17 significant digits so CSV round-trips are
exact, and identical config + seed produce identical bytes. Every CSV cell
is the text of '%.17g' % x, byte for byte. _write_csv makes that text with
numpy, one block of at most 2^11 cells at a time, and leaves to '%.17g'
itself only the few cells its screen cannot decide (see _decimal).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import attractor as att
from . import energy as en
from .config import ConfigError, ExperimentConfig
from .integrator import BlowUpError, run, run_decomposition
from .model import exp_each
from .spectral import grad_norm_sq

MONOTONE_NOISE_BAND = 0.10  # tolerated relative increase between sweep rows

# Cells per numpy pass. Each array of a pass stays below the 128 KiB at which
# glibc's malloc turns to mmap, so a pass maps no fresh pages and does not move
# that threshold for the rest of the run.
_CSV_BLOCK = 1 << 11
_FAST_MIN, _FAST_MAX = 1e-200, 1e200  # |x| whose digits numpy makes: splits and tails stay normal
_TIE_SCREEN = 1e-6  # a scaled cell this close to a rounding tie goes to '%.17g'
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two halves with exact products
_X_MIN, _X_MAX = -202, 202  # decimal exponents of fast cells, retry and carry included
_CELL_WORDS = 7  # int64 words of one cell's NUL-padded text
_COMMA, _NEWLINE = ord(",") << 40, ord("\n") << 40  # separators, in byte 5 of word 6


@functools.cache
def _csv_tables():
    """Lookup tables of the CSV writer, built on first use. Column X - _X_MIN
    of the first four belongs to the decimal exponent X:

    - scale (3, n): 10^(16-X) as a double head = bh + bl (Veltkamp's split)
      and the tail lo = 10^(16-X) - head, both correctly rounded from the
      exact integers;
    - split (2, n): how many of the 17 digits stand before the '.' (17 for
      '0.000ddd', which carries its own '.'), and how many are kept even
      when zero (the integer digits of the fixed form);
    - prefix (n,): '0.', '0.0', ... of the form '0.000ddd' (X = -1..-4), in
      bytes 1-5 of word 0;
    - suffix (n,): 'e+XX' / 'e-XXX' of the exponent form (X < -4 or
      X >= 17), in bytes 0-4 of word 6.

    keep (2, 18): column c masks the two words of digits 1-8 and 9-16 to
    the digits i < c."""
    xs = range(_X_MIN, _X_MAX + 1)
    scale = np.empty((3, len(xs)))
    split = np.empty((2, len(xs)), np.int64)
    prefix = np.zeros(len(xs), np.int64)
    suffix = np.zeros(len(xs), np.int64)
    for i, X in enumerate(xs):
        num, den = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        head = num / den
        p, q = head.as_integer_ratio()
        c = _VELTKAMP * head
        bh = c - (c - head)
        scale[:, i] = bh, head - bh, (num * q - p * den) / (den * q)
        if -4 <= X < 0:
            split[:, i] = 17, 1
            prefix[i] = int.from_bytes(b"\0" + b"0." + b"0" * (-X - 1), "little")
        elif 0 <= X < 17:
            split[:, i] = X + 1, X + 1
        else:
            split[:, i] = 1, 1
            suffix[i] = int.from_bytes(b"e%+03d" % X, "little")

    def low_bytes(k):
        return (1 << 8 * min(max(k, 0), 8)) - 1

    keep = np.array([[low_bytes(c - 1), low_bytes(c - 9)] for c in range(18)],
                    np.uint64).view(np.int64).T.copy()
    tables = scale, split, prefix, suffix, keep
    for t in tables:
        t.flags.writeable = False
    return tables


def _scaled(a, scale):
    """floor(s) (int64) and s - floor(s) of s = a * 10^(16-X), scale the
    table columns of each cell's X. a * head is an exact Dekker product and
    a * lo adds the tail, so s is off by far less than _TIE_SCREEN."""
    bh, bl, lo = scale
    p = a * (bh + bl)
    ah = _VELTKAMP * a
    ah -= ah - a
    al = a - ah
    err = ah * bh  # err = a * head - p, exactly
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    whole = np.floor(p)
    p -= whole
    p += err
    p += a * lo
    p_whole = np.floor(p)
    p -= p_whole
    return whole.astype(np.int64) + p_whole.astype(np.int64), p


def _decimal(x):
    """(col, D, slow) for the cells of x: |x| rounds to the 17 digits
    D * 10^(X-16), col = X - _X_MIN is the table column of X, and slow marks
    the cells left to '%.17g'.

    For a finite nonzero |x| in [_FAST_MIN, _FAST_MAX], D is the rounding of
    s = |x| * 10^(16-X), X = floor(log10|x|), to an integer in
    [10^16, 10^17). log10 may round across a power of ten, so X is retried
    once with X - 1 or X + 1 when floor(s) falls outside that range, and
    D = 10^17 carries to 10^16 at X + 1. A zero has D = 0 at X = 0. slow
    holds the cells this cannot decide: s within _TIE_SCREEN of a tie (a
    true tie rounds half to even), NaN, +-inf and |x| outside the range."""
    scale_t = _csv_tables()[0]
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    col = np.floor(np.log10(a)).astype(np.int64) - _X_MIN
    D, frac = _scaled(a, scale_t.take(col, axis=1))
    off = np.flatnonzero((D < 10 ** 16) | (D >= 10 ** 17))
    if off.size:
        col[off] += np.where(D[off] < 10 ** 16, -1, 1)
        D[off], frac[off] = _scaled(a[off], scale_t.take(col[off], axis=1))
    D += frac > 0.5
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    col += carry
    D[zero] = 0
    return col, D, ~(fast | zero) | (np.abs(frac - 0.5) <= _TIE_SCREEN)


def _digit_bytes(v):
    """The 8 decimal digits of each v < 10^8 (int64) as byte values 0-9,
    the most significant in the lowest byte: v splits into two 4-digit
    lanes, each into two 2-digit lanes, each into two digits, every split
    a multiply-shift division that no lane carries out of."""
    hi = v // 10000
    w = hi | ((v - hi * 10000) << 32)
    q = ((w * 5243) >> 19) & 0x0000007F0000007F  # lane // 100 for lanes < 10^4
    w = q | ((w - q * 100) << 16)
    q = ((w * 103) >> 10) & 0x000F000F000F000F  # lane // 10 for lanes < 100
    return q | ((w - q * 10) << 8)


def _digit_words(D):
    """(digits, n_sig) for each D in [0, 10^17): its 17 digits as ASCII in
    three int64 words (digit 0 in byte 7 of word 0, digits 1-8 and 9-16 in
    words 1 and 2, the most significant first), and how many digits are
    left once trailing zeros are dropped (1 for D = 0)."""
    digits = np.empty((3, D.size), np.int64)
    digits[0] = D // 10 ** 16
    u = D - digits[0] * 10 ** 16
    digits[1] = u // 10 ** 8
    digits[2] = u - digits[1] * 10 ** 8
    digits[1:] = _digit_bytes(digits[1:])
    # the highest nonzero byte of each word, from the exponent of its float value
    top = ((digits[1:].astype(np.float64).view(np.int64) >> 52) - 1023) >> 3
    n_sig = np.where(digits[2] != 0, 10 + top[1], np.where(digits[1] != 0, 2 + top[0], 1))
    digits[0] = (digits[0] + ord("0")) << 56
    digits[1:] |= 0x3030303030303030
    return digits, n_sig


def _format_cells(x, seps, words) -> None:
    """Lay out '%.17g' % x[i] and its separator word seps[i] (_COMMA or
    _NEWLINE), NUL-padded, in row i of words ((x.size, _CELL_WORDS) int64),
    for the at most _CSV_BLOCK cells of x (float64). Dropping the NULs leaves
    the text. Word 0 holds the sign (byte 0), the '0.000' of -4 <= X < 0
    (bytes 1-5) and digit 0 (byte 7); words 1-2 the digits before the '.',
    word 3 the '.', words 4-5 the digits after it, word 6 the exponent
    (bytes 0-4) and the separator (byte 5). The cells _decimal cannot decide
    are formatted by '%.17g' itself and spliced in."""
    _, split_t, prefix_t, suffix_t, keep_t = _csv_tables()
    col, D, slow = _decimal(x)
    digits, n_sig = _digit_words(D)
    split = split_t.take(col, axis=1)
    n_keep = np.maximum(n_sig, split[1])
    n_before = np.minimum(n_keep, split[0])
    words[:, 0] = digits[0] | prefix_t.take(col) | np.signbit(x) * ord("-")
    for j in (1, 2):
        before = keep_t[j - 1].take(n_before)
        words[:, j] = digits[j] & before
        words[:, j + 3] = digits[j] & (keep_t[j - 1].take(n_keep) ^ before)
    words[:, 3] = (n_keep > n_before) * ord(".")
    words[:, 6] = suffix_t.take(col) | seps
    for i in np.flatnonzero(slow):
        text = ("%.17g" % x[i]).encode("ascii")
        words[i] = 0
        words[i].view(np.uint8)[:len(text)] = np.frombuffer(text, np.uint8)
        words[i, 6] = seps[i]


def _write_csv(path: str, header: list[str], table) -> None:
    """The header, then one line per row of table (a 2-D float array), every
    cell the bytes of '%.17g' % x. A row whose length differs from the
    header's raises TypeError."""
    try:
        table = np.asarray(table, dtype=np.float64)
    except ValueError as exc:  # a ragged list of rows
        raise TypeError(f"rows must have {len(header)} cells: {exc}") from exc
    if table.ndim != 2 or table.shape[1] != len(header):
        raise TypeError(f"rows must have {len(header)} cells, got shape {table.shape}")
    cells = table.ravel()
    # near-equal blocks share one text buffer: the one spare row of a shorter
    # block is zeroed and drops out with the padding
    blocks = np.array_split(cells, max(1, -(-cells.size // _CSV_BLOCK)))
    text = bytearray(8 * _CELL_WORDS * blocks[0].size)
    words = np.frombuffer(text, np.int64).reshape(-1, _CELL_WORDS)
    start = 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for block in blocks:
            ends_row = np.arange(start, start + block.size) % len(header) == len(header) - 1
            words[block.size:] = 0
            _format_cells(block, np.where(ends_row, _NEWLINE, _COMMA), words[:block.size])
            fh.write(text.translate(None, b"\0"))
            start += block.size


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _stage(msg: str) -> None:
    print(f"[kwavelab] {msg}", flush=True)


def _out_dir(cfg: ExperimentConfig) -> str:
    """Make the output directory; each command calls it after its checks."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def cmd_validate(cfg: ExperimentConfig) -> int:
    _stage("validating hypotheses")
    report = cfg.hypotheses()
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
    cfg.check_records()
    params = cfg.energy_params(log=_stage)
    cfg.check_radius(params, cfg.step.t_start, cfg.step.t_end)
    _stage(f"integrating {cfg.step.n_steps} steps of dt = {cfg.step.dt:g}")
    initial = cfg.initial_state()
    out = _out_dir(cfg)
    traj = run(initial, cfg.model, cfg.basis, cfg.step)
    _write_csv(os.path.join(out, "trajectory.csv"), ["t"] + _state_columns(cfg.basis),
               np.column_stack([traj.times, traj.us, traj.vs]))
    _stage("building energy ledger")
    ledger = en.build_ledger(traj, cfg.model, cfg.basis, params)
    decay = en.verify_decay_inequality(ledger, cfg.model, params, dt=cfg.step.dt)
    sandwich = en.fit_norm_sandwich(ledger, cfg.model, params)
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
    _stage(f"scanning {cfg.values['energy.grid_n']}^2 grid over "
           f"(0, {en.RHO_MAX:g}] x (0, {en.CHI_MAX:g}]")
    report = cfg.scan_feasibility()
    out = _out_dir(cfg)
    _write_json(os.path.join(out, "feasibility.json"), report.to_dict())
    if report.is_empty:
        _stage(f"feasible set EMPTY; binding constraint: {report.binding_kill}")
        return 1
    rho, chi, sig = report.chosen
    _stage(f"chosen point rho = {rho:.6g}, chi = {chi:.6g}, sigma1 = {sig:.6g}")
    return 0


def cmd_pullback(cfg: ExperimentConfig) -> int:
    ens = cfg.ensemble
    labels = [f"{d:g}" for d in ens.deltas]  # the keys of absorbing.json
    if len(set(labels)) < len(labels):
        raise ConfigError(f"attractor.deltas {list(ens.deltas)} repeat a key: {labels}")
    params = cfg.energy_params(log=_stage)
    cfg.check_legs(ens.taus)
    cfg.check_radius(params, ens.t_star - ens.taus[-1], ens.t_star)
    out = _out_dir(cfg)
    _stage(f"absorbing check over deltas {list(ens.deltas)} and taus {list(ens.taus)}")
    reps = att.verify_absorbing(cfg.model, params, cfg.basis, ens, threads=cfg.threads)
    reports = {}
    for label, rep in zip(labels, reps):
        reports[label] = rep.to_dict()
        _stage(f"delta = {label}: fraction inside at tau = {rep.rows[-1].tau:g} "
               f"is {rep.rows[-1].fraction_inside:.3f}")
    clouds = [rep.clouds[-1] for rep in reps]
    table = np.concatenate([
        np.column_stack([np.full((c.n_points, 3), (c.t_star, c.delta, c.tau)), c.us, c.vs])
        for c in clouds])
    _write_csv(os.path.join(out, "clouds.csv"),
               ["t_star", "delta", "tau"] + _state_columns(cfg.basis), table)
    _write_json(os.path.join(out, "absorbing.json"),
                {"t_star": ens.t_star, "reports": reports})
    all_ok = all(rep["passed"] for rep in reports.values())
    return 0 if all_ok else 1


def cmd_semicontinuity(cfg: ExperimentConfig) -> int:
    ens = cfg.ensemble
    tau = ens.taus[-1]
    params = cfg.energy_params(log=_stage)
    cfg.check_legs([tau])
    cfg.check_radius(params, ens.t_star - tau, ens.t_star - tau)
    out = _out_dir(cfg)
    _stage(f"sweep over deltas {list(ens.deltas)} at tau = {tau:g}")
    sweep = att.semicontinuity_sweep(cfg.model, params, cfg.basis, ens, threads=cfg.threads)
    order = sweep.fitted_order
    _write_csv(os.path.join(out, "sweep.csv"), ["delta", "dist", "fitted_order"],
               np.array([(r.delta, r.dist, np.nan if order is None else order)
                         for r in sweep.rows]))
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
    cfg.check_records()
    _stage(f"integrating parent trajectory ({cfg.step.n_steps} steps)")
    initial = cfg.initial_state()
    out = _out_dir(cfg)
    traj = run(initial, cfg.model, cfg.basis, cfg.step)
    _stage("integrating decomposition")
    pair = run_decomposition(traj, cfg.model)
    g1 = grad_norm_sq(cfg.basis, pair.u1)
    bound = exp_each(-2.0 * (traj.times - traj.times[0])) * g1[0] * (1.0 + 1e-3)
    rate2_ok = not np.any(g1 > bound + 1e-300)
    lap_sq = np.sum(cfg.basis.eigenvalues ** 2 * pair.u2 ** 2, axis=1)
    _write_csv(os.path.join(out, "decomposition.csv"),
               ["t", "grad_u1_sq", "decay_bound", "lap_u2_sq"],
               np.column_stack([traj.times, g1, bound, lap_sq]))
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


@functools.cache
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
        return COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as exc:
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
