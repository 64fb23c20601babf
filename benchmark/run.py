"""Benchmark of the kwavelab command line on four seeded workloads.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (``src/kwavelab`` and ``configs/`` present). The
workload's config is generated from a shipped fixture and the seed; the
workload's CLI commands then run in a separate process, in-process after
imports, repeatedly for S seconds, one command at a time. BLAS is pinned to
one thread there, so ``--threads`` is the only parallelism.

With ``--trace 0`` the last stdout line is a JSON object whose metrics are the
end-to-end ones:

- wall_vs_ref: wall time of a repetition over that of a fixed reference
  kernel timed just before and after it (see worker.Reference), median over
  the run. Raw seconds swing with the load other tenants put on a shared
  host; the ratio does not. The lines before the JSON give the raw seconds.
- setup_s: time for a fresh interpreter to import ``kwavelab.cli`` and load
  the config, median of several.
- peak_rss_mb: peak resident memory of the workload process.

With ``--trace 1`` it holds the per-layer metrics of a traced run (see
layers.py) and the tracing overhead. ``--workload all`` runs every workload in
turn and prints the metric lines only.

Every repetition is checked: exit codes, pass flags, finite artifact values,
and artifact bytes equal to those of the first repetition in the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import workloads
from layers import UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 11
CHILD_TIMEOUT = 150  # seconds; a run must end well inside 180
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import kwavelab.cli
from kwavelab.config import ExperimentConfig
ExperimentConfig.load(sys.argv[1])
print(time.perf_counter() - t0)
"""


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def measure_setup(config: str, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, config], env=env,
                             cwd=ROOT, capture_output=True, text=True, check=True,
                             timeout=CHILD_TIMEOUT)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 scale: float = 1.0) -> dict:
    """Run one workload; returns the result line's fields plus ``env``.
    ``scale`` shortens the horizons (see workloads.generate_config)."""
    scratch = os.path.join(ROOT, ".kwbench")
    os.makedirs(scratch, exist_ok=True)
    env = child_env()
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=scratch) as work:
        config = workloads.write_configs(ROOT, work, seed, [name], scale)[name]
        setup = measure_setup(config, env) if trace == 0 else None
        result_path = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
               "--config", config, "--work", work, "--seconds", str(seconds),
               "--trace", str(trace), "--seed", str(seed), "--root", ROOT,
               "--result", result_path]
        if trace:
            cmd += ["--spans", os.path.join(scratch, f"spans-{name}.jsonl")]
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT)
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)

    timed = res["timed"]
    if trace == 0:
        metrics = {"wall_vs_ref": (statistics.median(timed["ratios"]), "ratio"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
        samples = {"wall_vs_ref": (timed["ratios"], "ratio"), "setup_s": (setup, "s"),
                   "wall_s": (timed["walls"], "s"), "ref_s": (timed["refs"], "s")}
    else:
        metrics = {k: (res["layers"][k], unit) for k, unit in UNITS.items()}
        samples = {}
    return {"env": res["env"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics, "samples": samples}


def print_result(name: str, r: dict) -> None:
    print(f"{name} env {json.dumps(r['env'], sort_keys=True)}")
    for key, (value, unit) in r["metrics"].items():
        print(f"{name} {key} = {value:.6g} {unit}")
    for key, (xs, unit) in r["samples"].items():
        q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
        print(f"{name}   {key} ({unit}): n = {len(xs)}, median {q[1]:.6g}, "
              f"quartiles {q[0]:.6g} .. {q[2]:.6g}, min {min(xs):.6g}, max {max(xs):.6g}")
    print(f"{name} failed_frac = {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']} of {r['attempted']} repetitions)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    missing = [d for d in ("src/kwavelab", "configs") if not os.path.isdir(os.path.join(ROOT, d))]
    if missing:
        print(f"not a kwavelab source checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            print(f"{name}: benchmark run failed: {exc}", file=sys.stderr)
            return 1
        print_result(name, results[name])
    if args.workload != "all":
        r = results[args.workload]
        print(json.dumps({"correct": r["failed"] == 0, "attempted": r["attempted"],
                          "failed": r["failed"],
                          "metrics": {k: {"value": v, "unit": u}
                                      for k, (v, u) in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
