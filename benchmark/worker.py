"""One workload process: runs the workload's CLI commands in-process, over and
over for a fixed time, and checks every repetition's artifacts.

Started by run.py with BLAS pinned to one thread and ``src`` on PYTHONPATH.
The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

import workloads
from layers import UNITS, install, layer_metrics
from tracer import Tracer

MIN_REPS = 3  # timed repetitions per phase, whatever --seconds says


class Reference:
    """A fixed kernel, independent of kwavelab, timed between repetitions.

    On a shared host the speed of this machine swings by up to 1.5x over
    minutes as other tenants come and go, and a repetition's wall time swings
    with it. Its ratio to the reference timed just before and after it does
    not, so that ratio is the headline time. The kernel mixes the kinds of
    work the workloads do: interpreted Python, many small NumPy calls,
    tensor contractions at the transform's shapes and elementwise passes over
    ensemble-sized arrays, about 5 ms each. It runs on as many threads as the
    workload, since the host can slow one of the two processors and not the
    other.
    """

    def __init__(self, threads: int):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.threads = threads
        self.a3, self.t3 = rng.standard_normal((64, 6, 6, 6)), rng.standard_normal((6, 11))
        self.a2, self.t2 = rng.standard_normal((64, 16, 16)), rng.standard_normal((16, 31))
        self.v, self.e = rng.standard_normal(216), rng.standard_normal((64, 256))

    def _kernel(self) -> None:
        np = self.np
        counts = {}
        for i in range(30000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        x = self.v
        for _ in range(600):
            x = np.tanh(x * 0.5 + 0.1)
            float(np.sum(x * x))
        for _ in range(30):
            np.moveaxis(np.tensordot(self.a3, self.t3, axes=([1], [0])), -1, 1)
            np.moveaxis(np.tensordot(self.a2, self.t2, axes=([1], [0])), -1, 1)
        x = self.e
        for _ in range(80):
            x = x * 0.5 + np.tanh(x) * 0.1

    def __call__(self) -> float:
        t0 = time.perf_counter()
        if self.threads == 1:
            self._kernel()
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                for fut in [pool.submit(self._kernel) for _ in range(self.threads)]:
                    fut.result()
        return time.perf_counter() - t0


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    import kwavelab

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        pass
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {"nproc": os.cpu_count(), "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in thread_vars},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "kwavelab": kwavelab.__version__,
            "commit": _commit(root), "seed": seed}


def _commit(root: str):
    """HEAD of a git checkout, read from the files; None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


class Runner:
    """Runs repetitions of one workload and keeps the failure account."""

    def __init__(self, workload: workloads.Workload, config: str, work: str):
        import kwavelab.cli
        self.cli = kwavelab.cli
        self.workload = workload
        self.config = config
        self.work = work
        self.names = workloads.artifact_names(workload)
        self.first_digests = None
        self.kernel = Reference(workload.threads)
        self.attempted = 0
        self.failed = 0
        self.artifact_bytes = 0

    def rep(self) -> float:
        """One repetition; returns the wall time of its CLI commands."""
        out = os.path.join(self.work, f"rep-{self.attempted}")
        self.attempted += 1
        problems, wall = [], 0.0
        gc.collect()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for argv in self.workload.argv(self.config, out):
                    t0 = time.perf_counter()
                    code = self.cli.main(argv)  # looked up per call, so tracing applies
                    wall += time.perf_counter() - t0
                    if code != 0:
                        problems.append(f"{argv[0]} exited with {code}, expected 0")
        except Exception:  # a crash is one failed repetition; the run goes on
            problems.append(traceback.format_exc())
        else:
            digests, self.artifact_bytes, found = workloads.check_artifacts(out, self.names)
            problems += found
            if self.first_digests is None:
                self.first_digests = digests
            else:
                problems += [f"{name}: bytes differ from the first repetition"
                             for name in sorted(self.names)
                             if digests.get(name) != self.first_digests.get(name)]
        shutil.rmtree(out, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"repetition {self.attempted - 1} failed:", *problems,
                  sep="\n  ", file=sys.stderr)
        return wall

    def timed(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Repeat for ``seconds`` (at least MIN_REPS times). Returns each
        repetition's wall time, the reference times, each wall time over the
        mean of the reference times around it and, when tracing, each
        repetition's per-layer metrics."""
        out = {"walls": [], "refs": [], "ratios": [], "layers": []}
        ref_before = self.kernel()
        deadline = time.perf_counter() + seconds
        while len(out["walls"]) < MIN_REPS or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.reset()
            wall = self.rep()
            if tracer is not None:
                out["layers"].append(layer_metrics(tracer.spans, self.workload.threads))
            ref_after = self.kernel()
            out["walls"].append(wall)
            out["refs"].append(ref_after)
            out["ratios"].append(wall / (0.5 * (ref_before + ref_after)))
            ref_before = ref_after
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--config", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--spans", default=None, help="where to write the traced spans")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    runner = Runner(workload, args.config, args.work)
    result = {"env": environment(args.root, args.seed)}
    runner.rep()  # warm-up: fills caches and records the digests to compare against
    if args.trace == 0:
        result["timed"] = runner.timed(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        plain = runner.timed(args.seconds / 2.0)
        tracer = Tracer()
        install(tracer)
        try:
            traced = runner.timed(args.seconds / 2.0, tracer)
        finally:
            tracer.restore()
        if args.spans:
            tracer.write(args.spans)
        metrics = {k: statistics.median(r[k] for r in traced["layers"])
                   for k in traced["layers"][0]}
        metrics["cli.artifact_bytes"] = runner.artifact_bytes
        metrics["run.wall_s"] = statistics.median(plain["walls"])
        metrics["run.ref_s"] = statistics.median(plain["refs"])
        metrics["trace.overhead_frac"] = (statistics.median(traced["ratios"])
                                          / statistics.median(plain["ratios"]) - 1.0)
        missing = set(UNITS) - set(metrics)
        if missing:
            raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
        result["timed"] = plain
        result["layers"] = metrics
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
