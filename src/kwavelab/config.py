"""Flat key-value experiment configuration.

Files are plain text, one ``section.key = value`` per line, ``#`` comments.
Unknown keys are rejected so fixtures stay diff-reviewable. The full key
list with defaults lives in KEY_SPECS below; REQUIRED marks keys every
config must set. All randomness derives from the single ``seed`` key.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .attractor import EnsembleSpec
from .energy import (EnergyParams, FeasibilityReport, InfeasibleParamsError,
                     solve_feasibility)
from .integrator import StepConfig
from .model import (EpsilonProfile, ForcingSpec, ModelSpec, NonlinearitySpec,
                    eval_epsilon)
from .spectral import Basis, ModalState


class ConfigError(ValueError):
    pass


REQUIRED = object()

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
        if tag == "float":
            return float(raw)
        if tag == "optfloat":
            return None if raw.lower() in ("none", "auto") else float(raw)
        if tag == "fitfloat":
            return "fit" if raw.lower() == "fit" else float(raw)
        if tag == "floatlist":
            return tuple(float(x) for x in raw.split(",") if x.strip())
        return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value {raw!r} for key {key!r}")


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


_G_BUILDERS = {
    "zero": lambda v: NonlinearitySpec.zero(),
    "cubic_soft": lambda v: NonlinearitySpec.cubic_soft(c=v["model.g.coeff"],
                                                        gamma=v["model.g.gamma"]),
    "lipschitz_sine": lambda v: NonlinearitySpec.lipschitz_sine(a=v["model.g.coeff"],
                                                                gamma=v["model.g.gamma"]),
}


def _build_model(v: dict) -> ModelSpec:
    eps = EpsilonProfile(kind=v["model.epsilon.kind"], alpha=v["model.epsilon.alpha"],
                         amplitude=v["model.epsilon.amplitude"],
                         bound=v["model.epsilon.bound"])
    kind = v["model.g.kind"]
    if kind not in _G_BUILDERS:
        raise ConfigError(f"model.g.kind must be one of {sorted(_G_BUILDERS)}")
    g = _G_BUILDERS[kind](v)
    overrides = {}
    for name in ("k", "growth_c", "c1", "c2", "c3", "c4"):
        val = v[f"model.g.{name}"]
        if val is not None:
            overrides[name] = val
    if overrides:
        g = dataclasses.replace(g, **overrides)
    h = ForcingSpec(kind=v["model.h.kind"], amplitude=v["model.h.amplitude"],
                    rate=v["model.h.rate"], mode=v["model.h.mode"],
                    sigma=v["model.h.sigma"])
    return ModelSpec(delta=v["model.delta"], lam=v["model.lambda"], dim=v["model.dim"],
                     sobolev_p=v["model.sobolev_p"], epsilon=eps, g=g, h=h)


@dataclass(frozen=True)
class ExperimentConfig:
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
            if step.n_steps == 0:  # also validates divisibility
                raise ValueError(f"disc.t_end = {step.t_end:g} must exceed "
                                 f"disc.t_start = {step.t_start:g}")
            if step.n_steps % values["disc.record_every"] != 0:
                raise ValueError("record_every must divide the step count")
            if model.h.kind != "zero" and model.h.mode > basis.n_modes:
                raise ValueError(f"model.h.mode {model.h.mode} outside basis of "
                                 f"{basis.n_modes} modes")
            deltas = values["attractor.deltas"]
            if not deltas or min(deltas) < 0 or len(set(deltas)) < len(deltas):
                raise ValueError(f"attractor.deltas must be nonnegative, distinct and "
                                 f"nonempty, not {list(deltas)}")
            for key in ("threads", "energy.grid_n"):
                if values[key] < 1:
                    raise ValueError(f"{key} = {values[key]} must be at least 1")
            if values["attractor.dt"] is not None and values["attractor.dt"] <= 0:
                raise ValueError(f"attractor.dt = {values['attractor.dt']:g} must be positive")
            if values["ic.kind"] not in ("zero", "mode", "sample"):
                raise ValueError(f"unknown ic.kind {values['ic.kind']!r}")
            if values["ic.kind"] == "mode" and not 1 <= values["ic.mode"] <= basis.n_modes:
                raise ValueError(f"ic.mode {values['ic.mode']} outside basis of "
                                 f"{basis.n_modes} modes")
            ensemble = EnsembleSpec(n_points=values["attractor.n_points"],
                                    sampling=values["attractor.sampling"],
                                    seed=values["seed"], taus=values["attractor.taus"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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

    def initial_state(self) -> ModalState:
        """The state at disc.t_start; ConfigError unless eps > 0 there (the
        eps profiles are monotone, so eps stays positive along the run)."""
        v = self.values
        kind = v["ic.kind"]
        n = self.basis.n_modes
        t0 = self.step.t_start
        eps0, _ = eval_epsilon(self.model.epsilon, t0)
        if eps0 <= 0.0:
            raise ConfigError(f"eps = {eps0:.6g} <= 0 at t = {t0:g}, the start of the run "
                              f"(disc.t_start)")
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
        y = rng.standard_normal(2 * n)
        y *= v["ic.radius"] / math.sqrt(np.sum(y ** 2))
        u = y[:n] / np.sqrt(self.basis.eigenvalues)
        return ModalState(u, y[n:] / math.sqrt(eps0), t0)

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
        """Resolve energy multipliers, running the feasibility scan when rho
        or chi is declared 'fit'."""
        v = self.values
        rho, chi = v["energy.rho"], v["energy.chi"]
        base_kwargs = dict(sigma1=v["energy.sigma1"], c0=v["energy.c0"], c4=v["energy.c4"],
                           c5=None if v["energy.c5"] == "fit" else v["energy.c5"],
                           c14=v["energy.c14"])
        if rho == "fit" or chi == "fit":
            report = self.scan_feasibility()
            if report.is_empty:
                raise InfeasibleParamsError(
                    f"feasibility scan is empty (binding: {report.binding_kill})")
            rho_f, chi_f, sig_f = report.chosen
            if log is not None:
                log(f"feasible point rho = {rho_f:.6g}, chi = {chi_f:.6g}")
            if base_kwargs["sigma1"] is None:
                base_kwargs["sigma1"] = sig_f
            try:
                return EnergyParams(rho=rho_f, chi=chi_f, **base_kwargs)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        try:
            return EnergyParams(rho=float(rho), chi=float(chi), **base_kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def attractor_dt(self) -> float:
        v = self.values["attractor.dt"]
        return float(self.step.dt if v is None else v)
