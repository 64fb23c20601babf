"""Command-line front end.

Commands: validate, simulate, feasibility, pullback, semicontinuity,
decompose. Exit codes: 0 success, 1 property failure, 2 configuration error
(ExperimentConfig's checks, a negative seed, an uncountable step count and, for
simulate and decompose, record arrays over MAX_RECORD_VALUES among them;
pullback's of its report keys; an unusable output directory), 3 numerical failure.
All artifacts are written with 17 significant digits so CSV round-trips are
exact, and identical config + seed produce identical bytes. Every CSV cell
is the text of '%.17g' % x, byte for byte. _write_csv makes that text with
numpy, in near-equal blocks of at most _CSV_BLOCK (4095) cells, each cell
four NUL-padded int64 words whose digits come from a table of 4-digit
groups, and leaves to '%.17g' itself only the few cells its screen cannot
decide (see _decimal).
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

# Cells per block: the most for which the text (4 int64 words a cell) and each
# per-block array stay below the 128 KiB at which glibc's malloc turns to mmap,
# with 32 bytes spare for the bytearray's closing NUL and malloc's chunk header.
_CELL_WORDS = 4
_CSV_BLOCK = (128 * 1024 - 32) // (8 * _CELL_WORDS)
_FAST_MIN, _FAST_MAX = 1e-200, 1e200  # |x| whose digits numpy makes: splits and tails stay normal
_TIE_SCREEN = 1e-6  # a scaled cell this close to a rounding tie goes to '%.17g'
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two halves with exact products
_X_MIN, _X_MAX = -201, 200  # decimal exponents of fast cells, log10's slips included
_COMMA, _NEWLINE = ord(",") << 48, ord("\n") << 48  # separators, in byte 6 of word 3


@functools.cache
def _csv_tables():
    """Lookup tables of the CSV writer, built at the first write. Column
    X - _X_MIN of scale holds head = 10^(16-X) correctly rounded, its
    Veltkamp split head = bh + bl and the tail lo = 10^(16-X) - head; of
    per_x the '0.', '0.0', ... of '0.000ddd' (X = -1..-4) in bytes 1-5 of
    word 0, the 'e+XX' / 'e-XXX' of the exponent form (X < -4, X >= 17) in
    bytes 1-5 of word 3, and 18 f for the form f of X (X if fixed, 17 for
    '0.000ddd', 18 for the exponent form). groups: the 4 ASCII digits of
    each g < 10^4, the first in the lowest byte; lanes: 1 << (z-1) for the
    z digits of g left once trailing zeros are dropped. n_sig maps the
    exponent field of the float of the lanes of digits 1-4, ..., 13-16 (top
    bit 16 k + z - 1 for the last nonzero group k) to the digits kept,
    1 + 4 k + z (1 if none). Row 18 f + n_sig of layout masks words 1-2 to
    the digits before the '.' and those kept after it, and holds the '.' in
    the byte that shifting the latter up frees. lead: digit 0, in byte 7."""
    xs = range(_X_MIN, _X_MAX + 1)
    scale, per_x = np.empty((4, len(xs))), np.zeros((3, len(xs)), np.int64)
    for i, X in enumerate(xs):
        num, den = (10 ** (16 - X), 1) if X <= 16 else (1, 10 ** (X - 16))
        head = num / den
        p, q = head.as_integer_ratio()
        c = _VELTKAMP * head
        bh = c - (c - head)
        scale[:, i] = head, bh, head - bh, (num * q - p * den) / (den * q)
        form = 17 if -4 <= X < 0 else X if 0 <= X < 17 else 18
        per_x[:, i] = (int.from_bytes(b"\0" + b"0." + b"0" * (-X - 1), "little") * (form == 17),
                       int.from_bytes(b"\0" + b"e%+03d" % X, "little") * (form == 18), 18 * form)
    g = np.arange(10 ** 4)
    groups, zeros = np.full(g.size, 0x30303030), np.zeros(g.size, np.int64)
    for j in range(4):  # the digit of 10^j of each g, in byte 3 - j, and its trailing zeros
        groups += (g // 10 ** j - g // 10 ** (j + 1) * 10) << 24 - 8 * j
        zeros += g // 10 ** (j + 1) * 10 ** (j + 1) == g
    n_sig = np.ones(1023 + 52, np.int64)  # exponent field 1023 + h: top bit h = 16 k + z - 1
    n_sig[1023:] = [2 + 4 * (h >> 4) + (h & 15) for h in range(52)]
    layout = [[bytes(16)] * (18 * 19) for _ in range(3)]
    for f in range(19):
        before, least = (f + 1, f + 1) if f < 17 else (17, 1) if f == 17 else (1, 1)
        for n in range(1, 18):
            keep = max(n, least)  # the digits kept, digit 0 included, and of them
            cut = min(keep, before)  # those before the '.'; bytes lo..hi-1 set to byte:
            for row, (lo, hi, byte) in zip(layout, ((0, cut - 1, 255), (cut - 1, keep - 1, 255),
                                                    (cut - 1, min(cut, keep - 1), ord(".")))):
                row[18 * f + n] = bytes(lo) + bytes([byte]) * (hi - lo) + bytes(16 - hi)
    tables = (scale, per_x, groups.astype(np.uint32), (8 >> zeros).astype(np.uint16), n_sig,
              np.frombuffer(b"".join(map(b"".join, layout)), np.int64).reshape(3, -1, 2),
              (np.arange(10) + ord("0")) << 56)
    for t in tables:
        t.flags.writeable = False
    return tables


def _csv_work(n):
    """What a _write_csv call lends each block of n cells: eight int64 rows,
    as arrays of 2, 2 and 4 rows (an (n, 2) or (n, 4) array), and 3 of flags."""
    return [np.empty((k, n), np.int64) for k in (2, 2, 4)] + [np.empty((3, n), bool)]


def _decimal(x, work):
    """(col, D, slow) for the cells x: |x| rounds to the 17 digits
    D * 10^(X-16), col = X - _X_MIN is the table column of X, and slow lists
    the cells left to '%.17g'. For a finite nonzero |x| in [_FAST_MIN,
    _FAST_MAX], D is the rounding of s = |x| * 10^(16-X), X = floor(log10|x|),
    to an integer in [10^16, 10^17); a zero has D = 0 at X = 0. slow holds
    the cells this cannot decide: s within _TIE_SCREEN of a tie (a true tie
    rounds half to even), floor(s) outside that range (log10 rounded across
    a power of ten), D = 10^17 (a carry), NaN, +-inf and |x| outside the
    range. col and D are rows 6 and 7 of work; rows 0-5 are left free."""
    (r0, r1), (r2, r3), (r4, r5, col, D), (other, zero, flag) = work
    a, ah, al, err, b, p = (r.view(np.float64) for r in (r0, r1, r2, r3, r4, r5))
    np.abs(x, out=a)
    np.greater_equal(a, _FAST_MIN, out=other)
    np.less_equal(a, _FAST_MAX, out=flag)
    other &= flag
    np.invert(other, out=other)  # outside the range, or NaN
    a[other] = 1.0
    np.log10(a, out=p)
    p -= _X_MIN  # > 0, so the cast to int64 takes the floor
    np.copyto(col, p, casting="unsafe")
    head, bh, bl, lo = _csv_tables()[0]
    # s = p + err: p = a * head is an integer wherever s >= 2^53, Dekker's product gives
    # its error exactly and a * lo adds the tail, so s is off by far less than _TIE_SCREEN
    head.take(col, out=b, mode="wrap")
    np.multiply(a, b, out=p)
    np.multiply(a, _VELTKAMP, out=ah)
    np.subtract(ah, a, out=al)
    ah -= al
    np.subtract(a, ah, out=al)
    bh.take(col, out=b, mode="wrap")
    np.multiply(ah, b, out=err)  # err = a * head - p, exactly
    err -= p
    np.copyto(D, p, casting="unsafe")
    bl.take(col, out=p, mode="wrap")
    for u, v in ((ah, p), (b, al), (al, p)):  # err += ah bl, al bh, al bl, in place of a factor
        u *= v
        err += u
    lo.take(col, out=p, mode="wrap")
    p *= a
    err += p
    np.floor(err, out=p)
    err -= p  # s - floor(s)
    np.copyto(r0, p, casting="unsafe")
    D += r0  # floor(s)
    other |= np.less(D, 10 ** 16, out=zero)
    D += np.greater(err, 0.5, out=zero)
    other |= np.greater_equal(D, 10 ** 17, out=zero)
    np.equal(x, 0.0, out=zero)
    D[zero] = 0
    other[zero] = False
    np.abs(np.subtract(err, 0.5, out=err), out=err)
    other |= np.less_equal(err, _TIE_SCREEN, out=flag)
    return col, D, np.flatnonzero(other)


def _format_cells(x, work, seps, words) -> None:
    """Lay out '%.17g' % x[i] and the separator seps[i] (_COMMA or _NEWLINE),
    NUL-padded, in row i of words ((x.size, _CELL_WORDS) int64): word 0 the
    sign, a '0.000' (-4 <= X < 0) and digit 0 (bytes 0, 1-5, 7); words 1-2
    digits 1-16, those after the '.' shifted up a byte to make room for it,
    the last into byte 0 of word 3; word 3 the exponent (bytes 1-5) and the
    separator (byte 6). '%.17g' formats the cells _decimal cannot."""
    _, per_x, groups_t, lanes_t, n_sig_t, layout_t, lead_t = _csv_tables()
    col, D, slow = _decimal(x, work)
    pair, (r2, r3), quad, _ = work
    digits, groups = pair.reshape(-1, 2), quad.reshape(-1, 4)
    for num, q, rest in ((D, r2, pair[1]), (r2, r3, pair[0])):  # D = r3 10^16 + hi 10^8 + lo
        np.floor_divide(num, 10 ** 8, out=q)
        np.multiply(q, 10 ** 8, out=rest)
        np.subtract(num, rest, out=rest)
    lead_t.take(r3, out=r2, mode="wrap")
    per_x[0].take(col, out=D, mode="wrap")
    r2 |= D
    np.right_shift(x.view(np.int64), 63, out=D)
    D &= ord("-")
    np.bitwise_or(r2, D, out=words[:, 0])
    per_x[1].take(col, out=r2, mode="wrap")
    np.bitwise_or(r2, seps, out=words[:, 3])
    per_x[2].take(col, out=r3, mode="wrap")
    for k, part in enumerate(pair):  # groups holds hi and lo, 4 digits a group
        np.floor_divide(part, 10 ** 4, out=r2)
        np.copyto(groups[:, 2 * k], r2)
        r2 *= 10 ** 4
        np.subtract(part, r2, out=groups[:, 2 * k + 1])
    groups_t.take(groups, out=digits.view(np.uint32), mode="wrap")
    lanes_t.take(groups, out=r2.view(np.uint16).reshape(-1, 4), mode="wrap")
    np.copyto(quad[0].view(np.float64), r2)
    np.right_shift(quad[0], 52, out=r2)
    n_sig_t.take(r2, out=quad[1], mode="wrap")
    r3 += quad[1]
    before, after = masks = quad.reshape(2, -1, 2)
    layout_t[:2].take(r3, axis=1, out=masks, mode="wrap")
    masks &= digits
    layout_t[2].take(r3, axis=0, out=digits, mode="wrap")  # the '.'
    before |= digits
    np.right_shift(after, 56, out=digits)  # the byte each word carries out
    after <<= 8
    for j in (1, 0):  # one column at a time: numpy runs 2-D strided outputs far slower
        np.bitwise_or(before[:, j], after[:, j], out=words[:, j + 1])
        words[:, j + 2] |= digits[:, j]
    for i in slow:
        text = ("%.17g" % x[i]).encode("ascii")
        words[i] = 0, 0, 0, seps[i]
        words[i].view(np.uint8)[:len(text)] = np.frombuffer(text, np.uint8)


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
    cells, width = table.ravel(), len(header)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if not cells.size:
            return
        n = -(-cells.size // -(-cells.size // _CSV_BLOCK))  # near-equal blocks
        work, text = _csv_work(n), bytearray(8 * _CELL_WORDS * n)
        words = np.frombuffer(text, np.int64).reshape(-1, _CELL_WORDS)
        seps = np.full(width - 1 + n, _COMMA)  # from a row's first cell on
        seps[width - 1::width] = _NEWLINE
        for end in range(n, cells.size + n, n):
            start = min(end, cells.size) - n  # the last block ends at the last cell
            _format_cells(cells[start:start + n], work, seps[start % width:][:n], words)
            words[:end - n - start] = 0  # and drops the cells written before
            fh.write(text.translate(None, b"\0"))


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
