"""Paired A/B runs of the benchmark on two checkouts.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
       --pairs N --seconds S --seed K

PARENT and CHANGE are the roots of two source checkouts. ``--workload`` names
one workload and may be given more than once; ``all`` stands for every
workload in CHANGE's BENCHMARK.json. Each pair runs, for every named workload
in turn, ``benchmark/run.py --workload W --seed K --seconds S --trace 0`` once
in each checkout, every checkout with its own ``benchmark/run.py`` and from its
own root, the parent first in odd pairs and the change first in even ones, so
a drift in the host's load falls on both sides alike. Each checkout is reached
through a symlink, ``parent`` or ``change``, in one new temporary directory,
so both sides run from paths of the same length: on ``pullback-d3``,
``peak_rss_mb`` takes one of two levels about 2 MB apart, and which one
moves with the path a run starts from (one tree read 50.8-51.1 MB in 3 of 3
runs from paths of 20, 32 and 55 characters and 52.9-53.1 MB in 3 of 3 from
paths of 35 and 47; one of 39 gave both, so a single path can read either).
The links are removed at exit. Nothing is written in either checkout beyond
what the benchmark itself writes.

It prints one block per workload: for every end-to-end metric of the result
lines, each side's median and quartiles, the pairs the change won, lost and
tied, and the median of the per-pair ratios change / parent (a pair's two
runs share the host's load of their time, so a small gain reads more clearly
there than in the ratio of the medians; pairs with a parent value of 0 are
left out). It applies the rule for a measured gain: the change wins at least
nine tenths of the pairs (ties count for neither) and the medians differ, in
the change's favour, by more than the parent's quartile spread. A metric
without a gain is checked against its bound from CHANGE's BENCHMARK.json:
worse if the change's median is worse than the parent's by more than the
bound (relative to the parent's median), unresolved if either side's quartile
spread exceeds the bound and the change did not read better in every run,
otherwise within the bound. Exits 1 if a run fails or reports failed
repetitions.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile


def run_once(root: str, workload: str, seconds: float, seed: int) -> dict:
    """The result line of one benchmark run in ``root``: {"correct",
    "failed", "metrics": {name: value}}."""
    cmd = [sys.executable, os.path.join(root, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    res = json.loads(lines[-1])
    return {"correct": res["correct"], "failed": res["failed"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()}}


def quartiles(xs: list) -> tuple:
    """(lower quartile, median, upper quartile), as benchmark/run.py takes them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def compare(parent: list, change: list, lower_is_better: bool, bound: float) -> dict:
    """Paired comparison of one metric; parent[i] and change[i] are pair i."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    qp, qc = quartiles(parent), quartiles(change)
    spread = qp[2] - qp[0]
    gain = (wins >= math.ceil(0.9 * len(parent)) and sign * (qc[1] - qp[1]) < 0
            and abs(qc[1] - qp[1]) > spread)
    worse = sign * (qc[1] - qp[1]) / abs(qp[1]) if qp[1] else 0.0
    wide = max((q[2] - q[0]) / abs(q[1]) if q[1] else 0.0 for q in (qp, qc)) > bound
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    ratios = [c / p for p, c in zip(parent, change) if p]
    if gain:
        verdict = "gain"
    elif worse > bound:
        verdict = f"worse by {worse:.3g} of the parent's median (bound {bound:g})"
    elif wide and not all_better:
        verdict = f"unresolved: a quartile spread exceeds the bound {bound:g}"
    else:
        verdict = f"within the bound {bound:g}"
    return {"parent": qp, "change": qc, "ratio": statistics.median(ratios) if ratios else None,
            "wins": wins, "losses": losses,
            "ties": len(parent) - wins - losses, "spread": spread, "verdict": verdict}


def benchmark_spec(root: str) -> tuple:
    """({metric: (lower is better, bound)}, [workload names]) from a
    checkout's BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: (m["better"] == "lower", float(m["bound"])) for m in spec["end_to_end"]},
            [w["name"] for w in spec.get("workloads", [])])


def run_pairs(roots: dict, args) -> int:
    """Run and report the pairs that ``args`` asks for, each side from its
    path in ``roots``; 1 if a run failed or reported failed repetitions."""
    metrics, declared = benchmark_spec(roots["change"])
    names = list(dict.fromkeys(w for name in args.workload
                               for w in (declared if name == "all" else [name])))
    runs = {(w, side): [] for w in names for side in ("parent", "change")}
    failed = False
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in names:
            for side in order:
                res = run_once(roots[side], w, args.seconds, args.seed)
                failed |= not res["correct"] or res["failed"] > 0
                runs[w, side].append(res)
            print(f"pair {i + 1} {w} ({order[0]} first): " + "; ".join(
                f"{name} {runs[w, 'parent'][i]['metrics'][name]:.6g} -> "
                f"{runs[w, 'change'][i]['metrics'][name]:.6g}" for name in metrics), flush=True)

    for w in names:
        for name, (lower, bound) in metrics.items():
            r = compare([x["metrics"][name] for x in runs[w, "parent"]],
                        [x["metrics"][name] for x in runs[w, "change"]], lower, bound)
            print(f"{w} {name} ({'lower' if lower else 'higher'} is better):")
            for side in ("parent", "change"):
                q = r[side]
                print(f"  {side}: median {q[1]:.6g}, quartiles {q[0]:.6g} .. {q[2]:.6g}")
            print(f"  change better in {r['wins']} of {args.pairs} pairs "
                  f"({r['losses']} worse, {r['ties']} tied); parent quartile spread "
                  f"{r['spread']:.6g}; {r['verdict']}")
            ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.4g}"
            print(f"  median per-pair ratio change / parent: {ratio}")
    for side in ("parent", "change"):
        bad = sum(x["failed"] for w in names for x in runs[w, side])
        print(f"{side} failed repetitions: {bad}")
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", action="append", required=True,
                   help="a workload name, once per workload, or all")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as links:
        roots = {}
        for side in ("parent", "change"):  # link names of one length
            roots[side] = os.path.join(links, side)
            os.symlink(os.path.abspath(getattr(args, side)), roots[side])
        return run_pairs(roots, args)


if __name__ == "__main__":
    raise SystemExit(main())
