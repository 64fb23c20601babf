"""Flat key-value experiment configuration.

Files are plain text, one ``section.key = value`` per line, ``#`` comments.
Unknown keys are rejected so fixtures stay diff-reviewable. KEY_SPECS lists
every key with its default; REQUIRED marks keys every config must set, and all
randomness derives from ``seed``. Load resolves the attractor.* section into one
EnsembleSpec; energy_params rejects infeasible set multipliers before any step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attractor import EnsembleSpec
from .energy import (EnergyParams, FeasibilityReport, InfeasibleParamsError,
                     check_point_margins, eval_B, solve_feasibility)
from .integrator import MAX_RECORD_VALUES, StepConfig
from .model import (EpsilonProfile, ForcingSpec, HypothesisReport, ModelSpec,
                    NonlinearitySpec, eval_epsilon, validate_hypotheses)
from .spectral import Basis, ModalState, sample_xt


class ConfigError(ValueError):
    pass


REQUIRED = object()
RUN_START = "the start of the run (disc.t_start)"

# key -> (type tag, default); type tags: int, float, str, floatlist,
# optfloat (float or unset), fitfloat (float or the literal "fit")
KEY_SPECS: dict[str, tuple[str, object]] = {
    "seed": ("int", 0),
    "threads": ("int", 1),
    "model.delta": ("float", 0.0),
    "model.lambda": ("float", 0.0),
    "model.dim": ("int", REQUIRED),
    "model.sobolev_p": ("float", 4.0),
    "model.epsilon.kind": ("str", "constant"),
    "model.epsilon.alpha": ("float", 1.0),
    "model.epsilon.amplitude": ("float", 0.0),
    "model.epsilon.bound": ("optfloat", None),
    "model.g.kind": ("str", "zero"),
    "model.g.coeff": ("float", 1.0),
    "model.g.k": ("optfloat", None),
    "model.g.gamma": ("float", 2.0),
    "model.g.growth_c": ("optfloat", None),
    "model.g.c1": ("optfloat", None),
    "model.g.c2": ("optfloat", None),
    "model.g.c3": ("optfloat", None),
    "model.g.c4": ("optfloat", None),
    "model.h.kind": ("str", "zero"),
    "model.h.amplitude": ("float", 1.0),
    "model.h.rate": ("float", 1.0),
    "model.h.mode": ("int", 1),
    "model.h.sigma": ("float", 1.0),
    "disc.n_modes": ("int", REQUIRED),
    "disc.dt": ("float", REQUIRED),
    "disc.t_start": ("float", 0.0),
    "disc.t_end": ("float", REQUIRED),
    "disc.record_every": ("int", 1),
    "ic.kind": ("str", "zero"),
    "ic.mode": ("int", 1),
    "ic.u_amp": ("float", 1.0),
    "ic.v_amp": ("float", 0.0),
    "ic.radius": ("float", 1.0),
    "energy.rho": ("fitfloat", "fit"),
    "energy.chi": ("fitfloat", "fit"),
    "energy.sigma1": ("optfloat", None),
    "energy.c0": ("float", 0.0),
    "energy.c4": ("float", 1.0),
    "energy.c5": ("fitfloat", "fit"),
    "energy.c14": ("float", 1.0),
    "energy.grid_n": ("int", 48),
    "attractor.n_points": ("int", 64),
    "attractor.sampling": ("str", "sphere_surface"),
    "attractor.taus": ("floatlist", (5.0, 10.0, 20.0)),
    "attractor.t_star": ("float", 0.0),
    "attractor.deltas": ("floatlist", (0.1, 0.05, 0.0)),
    "attractor.dt": ("optfloat", None),
    "output.dir": ("str", "out"),
}


def _convert(key: str, tag: str, raw: str, lineno: int):
    try:
        if tag == "int":
            return int(raw)
        if tag == "str":
            return raw
        if tag == "optfloat" and raw.lower() in ("none", "auto"):
            return None
        if tag == "fitfloat" and raw.lower() == "fit":
            return "fit"
        value = (tuple(float(x) for x in raw.split(",") if x.strip())
                 if tag == "floatlist" else float(raw))
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r} for key {key!r}")
    if not np.isfinite(value).all():
        raise ConfigError(f"line {lineno}: value {raw!r} for key {key!r} is not finite")
    return value


def read_config_file(path: str) -> dict:
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {text!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in KEY_SPECS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = _convert(key, KEY_SPECS[key][0], raw, lineno)
    for key, (tag, default) in KEY_SPECS.items():
        if key not in values:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = default
    return values


def _build_model(v: dict) -> ModelSpec:
    eps = EpsilonProfile(kind=v["model.epsilon.kind"], alpha=v["model.epsilon.alpha"],
                         amplitude=v["model.epsilon.amplitude"],
                         bound=v["model.epsilon.bound"])
    g = NonlinearitySpec(**{name: v[f"model.g.{name}"] for name in (
        "kind", "coeff", "gamma", "k", "growth_c", "c1", "c2", "c3", "c4")})
    h = ForcingSpec(kind=v["model.h.kind"], amplitude=v["model.h.amplitude"],
                    rate=v["model.h.rate"], mode=v["model.h.mode"],
                    sigma=v["model.h.sigma"])
    return ModelSpec(delta=v["model.delta"], lam=v["model.lambda"],
                     sobolev_p=v["model.sobolev_p"], epsilon=eps, g=g, h=h)


@dataclass(frozen=True)
class ExperimentConfig:
    """A config's resolved key values and what they build. Load rejects what
    no command could run; eps at a start time is checked, through one
    method, by the command that starts there."""

    model: ModelSpec
    basis: Basis
    step: StepConfig
    ensemble: EnsembleSpec
    values: dict

    @classmethod
    def load(cls, path: str, out: Optional[str] = None, threads: Optional[int] = None,
             seed: Optional[int] = None) -> "ExperimentConfig":
        values = read_config_file(path)
        if out is not None:
            values["output.dir"] = out
        if threads is not None:
            values["threads"] = threads
        if seed is not None:
            values["seed"] = seed
        try:
            model = _build_model(values)
            basis = Basis(dim=values["model.dim"], modes_per_dim=values["disc.n_modes"])
            step = StepConfig(dt=values["disc.dt"], t_start=values["disc.t_start"],
                              t_end=values["disc.t_end"],
                              record_every=values["disc.record_every"])
            if step.n_steps == 0:
                raise ValueError(f"disc.t_end = {step.t_end:g} must exceed "
                                 f"disc.t_start = {step.t_start:g}")
            if model.h.kind != "zero" and model.h.mode > basis.n_modes:
                raise ValueError(f"model.h.mode {model.h.mode} outside basis of "
                                 f"{basis.n_modes} modes")
            if (values["energy.rho"] == "fit") != (values["energy.chi"] == "fit"):
                raise ValueError("energy.rho and energy.chi are fitted together: "
                                 "set both to fit or neither")
            for key in ("threads", "energy.grid_n"):
                if values[key] < 1:
                    raise ValueError(f"{key} = {values[key]} must be at least 1")
            if values["ic.kind"] not in ("zero", "mode", "sample"):
                raise ValueError(f"unknown ic.kind {values['ic.kind']!r}")
            if values["ic.kind"] == "mode" and not 1 <= values["ic.mode"] <= basis.n_modes:
                raise ValueError(f"ic.mode {values['ic.mode']} outside basis of "
                                 f"{basis.n_modes} modes")
            if values["ic.radius"] < 0:
                raise ValueError(f"ic.radius = {values['ic.radius']:g} must be nonnegative")
            ensemble = EnsembleSpec(**{k: values[f"attractor.{k}"] for k in (
                "n_points", "sampling", "taus", "t_star", "deltas")}, seed=values["seed"],
                dt=step.dt if values["attractor.dt"] is None else values["attractor.dt"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        except FloatingPointError as exc:  # StepConfig's clock check, on disc.dt
            raise ConfigError(f"disc.{exc}") from exc
        return cls(model, basis, step, ensemble, values)

    @property
    def seed(self) -> int:
        return int(self.values["seed"])

    @property
    def threads(self) -> int:
        return int(self.values["threads"])

    @property
    def out_dir(self) -> str:
        return str(self.values["output.dir"])

    def eps_at(self, t: float, where: str) -> float:
        """eps at time t, the start of ``where``; ConfigError if it overflows."""
        try:
            return eval_epsilon(self.model.epsilon, t)[0]
        except OverflowError:
            raise ConfigError(f"eps overflows at t = {t:g}, {where}") from None

    def _start_eps(self, t: float, where: str) -> float:
        """eps_at, and ConfigError unless eps > 0 (monotone eps then stays positive)."""
        eps = self.eps_at(t, where)
        if eps <= 0.0:
            raise ConfigError(f"eps = {eps:.6g} <= 0 at t = {t:g}, {where}")
        return eps

    def check_legs(self, taus) -> None:
        """ConfigError unless each pullback leg t_star - tau -> t_star is a whole
        number of 2 attractor.dt steps, the step of the doubling pass (so also of
        attractor.dt steps), each moves the clock, and it starts where eps > 0."""
        t_star, (fine, coarse) = self.ensemble.t_star, self.ensemble.steps
        for tau in taus:
            try:
                for dt in (fine, coarse):
                    StepConfig(dt=dt, t_start=t_star - tau, t_end=t_star)
            except FloatingPointError as exc:
                raise ConfigError(f"attractor.{exc}, on the pullback leg tau = {tau:g}") from None
            except ValueError:
                count = "whole" if math.isfinite(tau / coarse) else "finite"
                raise ConfigError(f"pullback horizon tau = {tau:g} is not a {count} number "
                                  f"of 2 attractor.dt = {coarse:g} steps, the step of "
                                  f"the doubling pass") from None
            self._start_eps(t_star - tau, f"the start of the pullback leg tau = {tau:g}")

    def check_records(self) -> None:
        """ConfigError unless a run's record arrays (times, us and vs) hold at
        most MAX_RECORD_VALUES floats; checked before they are allocated, as
        the allocator's answer depends on the host."""
        n_rec, width = self.step.n_records, 2 * self.basis.n_modes + 1
        if n_rec * width > MAX_RECORD_VALUES:
            raise ConfigError(f"disc.dt = {self.step.dt:g} and disc.record_every = "
                              f"{self.step.record_every} give {n_rec} records of {width} "
                              f"values, more than the {MAX_RECORD_VALUES} values the "
                              f"record arrays may hold")

    def check_radius(self, params: EnergyParams, t_lo: float, t_hi: float) -> None:
        """ConfigError unless B is finite at t_lo and t_hi, the ends of the window
        a command evaluates B on; each factor of B is monotone in t."""
        for t in dict.fromkeys((t_lo, t_hi)):  # each end once
            try:
                finite = math.isfinite(eval_B(t, self.model, params))
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(f"the absorbing radius B overflows at t = {t:g}, an end "
                                  f"of the window [{t_lo:g}, {t_hi:g}] it is evaluated on")

    def hypotheses(self) -> HypothesisReport:
        """validate_hypotheses from disc.t_start to max(disc.t_end, t_start + 50);
        ConfigError where eps overflows at the start or the forcing tail check
        overflows (eps <= 0 is a failed hypothesis, not an error)."""
        t_lo = self.step.t_start
        t_hi = max(self.step.t_end, t_lo + 50.0)
        self.eps_at(t_lo, RUN_START)
        try:
            return validate_hypotheses(self.model, t_range=(t_lo, t_hi))
        except OverflowError:
            raise ConfigError(f"the forcing tail integrand e^(sigma s) |h(s)|^2 overflows "
                              f"before t = {t_hi:g}, the end of the validated window") from None

    def initial_state(self) -> ModalState:
        """The state at disc.t_start; ConfigError unless eps > 0 there."""
        v = self.values
        kind = v["ic.kind"]
        n = self.basis.n_modes
        t0 = self.step.t_start
        eps0 = self._start_eps(t0, RUN_START)
        if kind == "zero":
            return ModalState(np.zeros(n), np.zeros(n), t0)
        if kind == "mode":
            u = np.zeros(n)
            w = np.zeros(n)
            u[v["ic.mode"] - 1] = v["ic.u_amp"]
            w[v["ic.mode"] - 1] = v["ic.v_amp"]
            return ModalState(u, w, t0)
        # ic.kind = sample, as load rejects every other kind
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])
        [u], [w] = sample_xt(rng, 1, self.basis, eps0, v["ic.radius"])
        return ModalState(u, w, t0)

    def scan_feasibility(self) -> FeasibilityReport:
        """The (rho, chi) feasibility scan over the energy.* grid keys.

        The scan reads only the structure constants c0 and c4 of its probe
        (c14 is validated with them), so the probe's rho, chi and sigma1 are
        placeholders: the config's sigma1 is left out, as it need not lie
        below the placeholder chi.
        """
        v = self.values
        try:
            probe = EnergyParams(rho=1.0, chi=0.1, c0=v["energy.c0"], c4=v["energy.c4"],
                                 c14=v["energy.c14"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return solve_feasibility(self.model, self.basis, probe,
                                 grid_n=int(v["energy.grid_n"]))

    def energy_params(self, log=None) -> EnergyParams:
        """Resolve the energy multipliers: rho and chi as set, or, when both
        are 'fit', the feasibility scan's chosen point. An unset sigma1 is
        chi / 2, which is also the scan's choice. InfeasibleParamsError when the
        scan is empty or the multipliers violate a binding constraint."""
        v = self.values
        kw = dict(rho=v["energy.rho"], chi=v["energy.chi"], sigma1=v["energy.sigma1"],
                  c0=v["energy.c0"], c4=v["energy.c4"], c14=v["energy.c14"],
                  c5=None if v["energy.c5"] == "fit" else v["energy.c5"])
        if kw["rho"] == "fit":  # load rejects fitting only one of rho and chi
            report = self.scan_feasibility()
            if report.is_empty:
                raise InfeasibleParamsError(
                    f"feasibility scan is empty (binding: {report.binding_kill})")
            kw["rho"], kw["chi"], _ = report.chosen
            if log is not None:
                log(f"feasible point rho = {kw['rho']:.6g}, chi = {kw['chi']:.6g}")
        try:
            params = EnergyParams(**kw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        margins = check_point_margins(self.model, self.basis, params)
        bad = min(margins, key=margins.get)
        if margins[bad] < -1e-9:
            raise InfeasibleParamsError(
                f"(rho, chi) violates binding constraint {bad} by {-margins[bad]:.3e}")
        return params

    @property
    def attractor_dt(self) -> float:
        return self.ensemble.dt
