"""Which kwavelab functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are the package's modules: spectral, model, integrator, energy,
attractor, config and cli. Counts come from the call arguments, so they repeat
exactly; times are span durations or self times. Definitions that the names
do not give away:

- spectral.transform_s: self time of the two collocation functions, i.e. the
  grid transform without the g evaluation (model.g_eval_s) inside it.
- spectral.grid_points: sum over transforms of batch * (M-1)^d, read from the
  size of the nodal array handed to g; spectral.flops_computed is the dense
  separable contraction count implied by the same shapes, not a measurement.
- integrator.member_steps_per_s: member-steps per second of stepping-span
  time, summed over threads (busy time, not wall time).
- integrator.us_per_step_self: step_self_s per member-step.
- attractor.parallel_busy_ratio: summed chunk time over threads x leg wall
  time, where a leg's wall time runs from its first chunk's start to its last
  chunk's end.
- run.wall_s, run.ref_s: median wall time of an untraced repetition and of
  the reference kernel (worker.Reference) in the same run, in seconds;
  trace.overhead_frac compares traced and untraced repetitions, each over
  the reference.
"""

from __future__ import annotations

import math

from tracer import Tracer, self_times

# metric name -> unit, in report order
UNITS = {
    "spectral.nonlinearity_calls": "count",
    "spectral.quadrature_calls": "count",
    "spectral.transform_s": "s",
    "spectral.us_per_member": "us",
    "spectral.grid_points": "count",
    "spectral.flops_computed": "flop",
    "spectral.gflops_achieved": "GFLOP/s",
    "model.g_eval_s": "s",
    "model.validate_s": "s",
    "integrator.member_steps": "count",
    "integrator.member_steps_per_s": "1/s",
    "integrator.step_self_s": "s",
    "integrator.us_per_step_self": "us",
    "integrator.decomposition_s": "s",
    "integrator.blowups": "count",
    "energy.ledger_s": "s",
    "energy.ledger_records": "count",
    "energy.us_per_record": "us",
    "energy.verify_s": "s",
    "energy.feasibility_s": "s",
    "energy.feasibility_grid_points": "count",
    "energy.radius_calls": "count",
    "energy.radius_s": "s",
    "attractor.evolutions": "count",
    "attractor.useful_evolution_ratio": "ratio",
    "attractor.parallel_busy_ratio": "ratio",
    "attractor.hausdorff_s": "s",
    "attractor.hausdorff_pairs": "count",
    "config.load_s": "s",
    "config.fit_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "run.wall_s": "s",
    "run.ref_s": "s",
    "trace.overhead_frac": "ratio",
}

SPECTRAL = ("spectral.eval_nonlinearity_modal", "spectral.integral_of_G")
G_EVAL = ("model.eval_g_value", "model.eval_g")
STEPPING = ("integrator.run", "integrator.evolve_ensemble")


def _spectral_attrs(get):
    f, basis = get("f"), get("basis")
    return {"batch": math.prod(f.shape[:-1]), "n": basis.modes_per_dim, "dim": basis.dim}


def _grid_attrs(get):
    u = get("u")
    return {"size": int(u.size), "side": int(u.shape[-1])}


def _run_attrs(get):
    initial, cfg = get("initial"), get("cfg")
    return {"batch": math.prod(initial.u.shape[:-1]), "steps": cfg.n_steps}


def _ensemble_attrs(get):
    t0, t1, dt = float(get("t_start")), float(get("t_end")), float(get("dt"))
    return {"batch": int(get("us").shape[0]), "steps": int(round((t1 - t0) / dt)),
            "t0": t0, "t1": t1, "delta": float(get("spec").delta)}


def _ledger_attrs(get):
    return {"records": get("traj").n_records}


def _feasibility_attrs(get):
    return {"grid_points": int(get("grid_n")) ** 2}


def _pairs_attrs(get):
    return {"pairs": get("A").n_points * get("B").n_points}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions; ``tracer.restore()`` undoes it."""
    from kwavelab import attractor, cli, config, energy, integrator, model, spectral

    fn = tracer.patch_function
    fn(spectral, "eval_nonlinearity_modal", SPECTRAL[0], _spectral_attrs)
    fn(spectral, "integral_of_G", SPECTRAL[1], _spectral_attrs)
    # only the calls the grid transform makes, not the hypothesis audit's
    fn(model, "eval_g_value", G_EVAL[0], _grid_attrs, sites=[spectral])
    fn(model, "eval_g", G_EVAL[1], _grid_attrs, sites=[spectral])
    fn(model, "validate_hypotheses", "model.validate_hypotheses")
    fn(integrator, "run", STEPPING[0], _run_attrs)
    fn(integrator, "evolve_ensemble", STEPPING[1], _ensemble_attrs)
    fn(integrator, "run_decomposition", "integrator.run_decomposition")
    fn(energy, "build_ledger", "energy.build_ledger", _ledger_attrs)
    fn(energy, "verify_decay_inequality", "energy.verify_decay_inequality")
    fn(energy, "fit_norm_sandwich", "energy.fit_norm_sandwich")
    fn(energy, "solve_feasibility", "energy.solve_feasibility", _feasibility_attrs)
    fn(energy, "eval_B", "energy.eval_B")
    fn(attractor, "verify_absorbing", "attractor.verify_absorbing")
    fn(attractor, "pullback_cloud", "attractor.pullback_cloud")
    fn(attractor, "semicontinuity_sweep", "attractor.semicontinuity_sweep")
    fn(attractor, "hausdorff_semidist", "attractor.hausdorff_semidist", _pairs_attrs)
    fn(cli, "main", "cli.main")
    tracer.patch_method(config.ExperimentConfig, "load", "config.load")
    tracer.patch_method(config.ExperimentConfig, "energy_params", "config.energy_params")


def _contraction_flops(batch: int, n: int, side: int, dim: int) -> int:
    """Multiply-adds x 2 of one separable transform between n^dim modes and
    side^dim nodes, one axis at a time."""
    return 2 * batch * n * side * sum(side ** a * n ** (dim - 1 - a) for a in range(dim))


def layer_metrics(spans, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition: all of UNITS except
    cli.artifact_bytes and the run.* and trace.* metrics, which the worker
    measures outside the spans.

    A pullback leg is one ensemble evolution: the evolve_ensemble calls made
    under one parent span with the same (t0, t1, delta), one per thread chunk.
    The seed is fixed within a run, so (delta, t0, t1) identifies a leg's
    inputs.
    """
    selft = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def spans_of(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in spans_of(*names))

    m: dict[str, float] = {}
    spectral = spans_of(*SPECTRAL)
    g_evals = [s for s in spans_of(*G_EVAL) if s.parent is not None and s.parent.name in SPECTRAL]
    side = {id(s.parent): s.attrs["side"] for s in g_evals}
    flops = 0
    members = 0
    for s in spectral:
        if id(s) not in side:  # g = 0: no transform
            continue
        a = s.attrs
        one = _contraction_flops(a["batch"], a["n"], side[id(s)], a["dim"])
        if s.name == SPECTRAL[0]:
            flops += 2 * one
        else:
            flops += one + a["batch"] * side[id(s)] ** a["dim"]
        members += a["batch"]
    m["spectral.nonlinearity_calls"] = len(by_name.get(SPECTRAL[0], ()))
    m["spectral.quadrature_calls"] = len(by_name.get(SPECTRAL[1], ()))
    transform_s = sum(selft[id(s)] for s in spectral)
    m["spectral.transform_s"] = transform_s
    m["spectral.us_per_member"] = 1e6 * transform_s / members if members else 0.0
    m["spectral.grid_points"] = sum(s.attrs["size"] for s in g_evals)
    m["spectral.flops_computed"] = flops
    m["spectral.gflops_achieved"] = flops / transform_s / 1e9 if flops else 0.0
    m["model.g_eval_s"] = sum(s.duration for s in g_evals)
    m["model.validate_s"] = total("model.validate_hypotheses")

    stepping = spans_of(*STEPPING)
    member_steps = sum(s.attrs["batch"] * s.attrs["steps"] for s in stepping)
    busy = sum(s.duration for s in stepping)
    step_self = sum(selft[id(s)] for s in stepping)
    m["integrator.member_steps"] = member_steps
    m["integrator.member_steps_per_s"] = member_steps / busy if busy else 0.0
    m["integrator.step_self_s"] = step_self
    m["integrator.us_per_step_self"] = 1e6 * step_self / member_steps if member_steps else 0.0
    m["integrator.decomposition_s"] = total("integrator.run_decomposition")
    m["integrator.blowups"] = sum(1 for s in stepping if s.error == "BlowUpError")

    ledger = spans_of("energy.build_ledger")
    records = sum(s.attrs["records"] for s in ledger)
    m["energy.ledger_s"] = total("energy.build_ledger")
    m["energy.ledger_records"] = records
    m["energy.us_per_record"] = 1e6 * m["energy.ledger_s"] / records if records else 0.0
    m["energy.verify_s"] = total("energy.verify_decay_inequality", "energy.fit_norm_sandwich")
    m["energy.feasibility_s"] = total("energy.solve_feasibility")
    m["energy.feasibility_grid_points"] = sum(
        s.attrs["grid_points"] for s in spans_of("energy.solve_feasibility"))
    m["energy.radius_calls"] = len(by_name.get("energy.eval_B", ()))
    m["energy.radius_s"] = total("energy.eval_B")

    legs: dict[tuple, list] = {}
    for s in spans_of(STEPPING[1]):
        a = s.attrs
        legs.setdefault((id(s.parent), a["t0"], a["t1"], a["delta"]), []).append(s)
    distinct = {key[1:] for key in legs}
    chunk_time = sum(s.duration for chunks in legs.values() for s in chunks)
    leg_wall = sum(max(s.end for s in chunks) - min(s.start for s in chunks)
                   for chunks in legs.values())
    m["attractor.evolutions"] = len(legs)
    m["attractor.useful_evolution_ratio"] = len(distinct) / len(legs) if legs else 0.0
    m["attractor.parallel_busy_ratio"] = chunk_time / (threads * leg_wall) if legs else 0.0
    m["attractor.hausdorff_s"] = total("attractor.hausdorff_semidist")
    m["attractor.hausdorff_pairs"] = sum(
        s.attrs["pairs"] for s in spans_of("attractor.hausdorff_semidist"))

    m["config.load_s"] = total("config.load")
    m["config.fit_s"] = total("config.energy_params")
    m["cli.self_s"] = sum(selft[id(s)] for s in spans_of("cli.main"))
    return m
