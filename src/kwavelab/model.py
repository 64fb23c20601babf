"""Problem definition for the damped Kirchhoff wave model.

Everything in this package solves

    eps(t) u_tt - (1 + delta |grad u|^2) Lap u - Lap u_t + lam u = g(u) + h(x, t)

on the unit box (0,1)^d with homogeneous Dirichlet data, where |grad u|^2 is
the squared H^1_0 seminorm of the current state (the nonlocal Kirchhoff
modulation). This module holds the immutable coefficient containers, the
closed-form evaluators for the shipped presets, and a numerical audit of the
standing assumptions:

* the mass coefficient eps is C^1, non-increasing, with limit alpha >= 1 and
  a declared uniform bound L >= alpha on |eps| + |eps'|;
* g is C^1 with g(0) = 0, derivative bounded above by k, polynomial growth of
  g', and asymptotically dissipative ratio conditions on u*g - gamma*G and on
  the antiderivative G;
* the forcing has a finite exponentially weighted tail integral
  int_{-inf}^t e^{sigma s} |h(s)|^2 ds.

The asymptotic (limsup) conditions cannot be decided from finite samples.
They are tested as ratio bounds at the largest sampled amplitude, using the
declared structure constants c1..c4 as the admissible slack, and are flagged
as "sampled" in the hypothesis report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

EPSILON_KINDS = ("constant", "exp_decay_to_limit")
NONLINEARITY_KINDS = ("zero", "cubic_soft", "lipschitz_sine")
FORCING_KINDS = ("zero", "separable")


@dataclass(frozen=True)
class EpsilonProfile:
    """Time-dependent mass coefficient eps(t).

    ``constant`` is eps = alpha; ``exp_decay_to_limit`` is
    eps(t) = alpha + amplitude * exp(-t). ``bound`` is the declared uniform
    constant L; when omitted it defaults to alpha + 2*|amplitude|, which is
    sharp for sample grids contained in t >= 0.
    """

    kind: str = "constant"
    alpha: float = 1.0
    amplitude: float = 0.0
    bound: Optional[float] = None

    def __post_init__(self):
        if self.kind not in EPSILON_KINDS:
            raise ValueError(f"unknown epsilon kind {self.kind!r}")
        if self.alpha < 1.0:
            raise ValueError("epsilon limit alpha must be >= 1")
        if self.bound is None:
            object.__setattr__(self, "bound", self.alpha + 2.0 * abs(self.amplitude))
        if self.bound < self.alpha:
            raise ValueError("declared bound L must be >= alpha")


def exp_each(x):
    """math.exp of a float, or of each entry of an array. np.exp rounds some
    inputs differently, and every closed form in t keeps math.exp's bits."""
    if getattr(x, "ndim", 0):
        return np.array([math.exp(s) for s in x.ravel()]).reshape(x.shape)
    return math.exp(x)


def eval_epsilon(profile: EpsilonProfile, t):
    """Return (eps(t), eps'(t)) in closed form: floats for a float t, arrays
    of its shape for an array of times."""
    if profile.kind == "constant":
        if getattr(t, "ndim", 0):
            return np.full(t.shape, float(profile.alpha)), np.zeros(t.shape)
        return float(profile.alpha), 0.0
    decay = exp_each(-t)
    return profile.alpha + profile.amplitude * decay, -profile.amplitude * decay


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity g with antiderivative G, G(0) = 0.

    Presets:
      zero            g = 0
      cubic_soft      g(u) = -coeff * u^3        (defocusing)
      lipschitz_sine  g(u) = coeff * sin(u)

    ``k`` bounds g' from above, ``gamma`` and ``growth_c`` enter the
    dissipativity and growth conditions, and ``c1..c4`` are the declared
    structure constants of the finite-range surrogates
        u g(u) - gamma G(u) <= c1 u^2 + c2,     G(u) <= c3 u^2 + c4.
    """

    kind: str = "zero"
    coeff: float = 1.0
    k: float = 0.0
    gamma: float = 2.0
    growth_c: float = 1.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.growth_c <= 0:
            raise ValueError("growth constant must be positive")
        if min(self.c1, self.c2, self.c3, self.c4) < 0:
            raise ValueError("structure constants c1..c4 must be nonnegative")

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        return cls(kind="zero", coeff=0.0, growth_c=1.0)

    @classmethod
    def cubic_soft(cls, c: float = 1.0, gamma: float = 2.0, k: float = 0.0) -> "NonlinearitySpec":
        # u*g - gamma*G = (gamma/4 - 1) u^4 <= 0 for gamma <= 4 and G <= 0,
        # so the structure constants are zero (slack-free).
        if gamma > 4.0:
            raise ValueError("cubic_soft ships slack-free constants only for gamma <= 4")
        return cls(kind="cubic_soft", coeff=c, k=k, gamma=gamma,
                   growth_c=max(3.0 * c, 1.0))

    @classmethod
    def lipschitz_sine(cls, a: float = 1.0, gamma: float = 2.0) -> "NonlinearitySpec":
        # |u g - gamma G| <= a|u| + 2*gamma*a and G <= 2a; a|u| <= a(1+u^2)/2.
        return cls(kind="lipschitz_sine", coeff=a, k=a, gamma=gamma, growth_c=max(a, 1.0),
                   c1=a / 2.0, c2=a / 2.0 + 2.0 * gamma * a, c3=0.0, c4=2.0 * a)


def eval_g_value(spec: NonlinearitySpec, u, out: Optional[np.ndarray] = None) -> np.ndarray:
    """g(u) alone; cheaper than eval_g inside integrator loops. A given
    ``out`` (of u's shape, not u itself) is filled in place and returned."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "zero":
        if out is None:
            return np.zeros_like(u)
        out.fill(0.0)
        return out
    if spec.kind == "cubic_soft":
        out = np.multiply(u, u, out=out)
        np.multiply(out, u, out=out)
        return np.multiply(out, -spec.coeff, out=out)
    return np.multiply(np.sin(u, out=out), spec.coeff, out=out)


def eval_g(spec: NonlinearitySpec, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (g(u), g'(u), G(u)) elementwise; G is the exact antiderivative
    with G(0) = 0."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "zero":
        z = np.zeros_like(u)
        return z, z.copy(), z.copy()
    if spec.kind == "cubic_soft":
        c = spec.coeff
        u2 = u * u
        return -c * u2 * u, -3.0 * c * u2, -0.25 * c * u2 * u2
    a = spec.coeff
    cos_u = np.cos(u)
    return a * np.sin(u), a * cos_u, a * (1.0 - cos_u)


@dataclass(frozen=True)
class ForcingSpec:
    """External force h(x, t) in modal coefficients.

    ``separable`` is h = amplitude * exp(-rate*|t|) * phi_mode with phi_mode
    the unit-norm eigenfunction at 1-based position ``mode`` in the basis
    enumeration. ``sigma`` is the declared weight of the tail integrability
    condition.
    """

    kind: str = "zero"
    amplitude: float = 1.0
    rate: float = 1.0
    mode: int = 1
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in FORCING_KINDS:
            raise ValueError(f"unknown forcing kind {self.kind!r}")
        if self.kind == "separable" and self.rate <= 0:
            raise ValueError("separable forcing needs rate > 0")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.mode < 1:
            raise ValueError("mode index is 1-based")


def forcing_norm_sq(spec: ForcingSpec, t):
    """Squared L^2 norm of h(., t), in closed form; one value per time of an
    array of times."""
    if spec.kind == "zero":
        return np.zeros(t.shape) if getattr(t, "ndim", 0) else 0.0
    return spec.amplitude ** 2 * exp_each(-2.0 * spec.rate * abs(t))


def eval_h(spec: ForcingSpec, n_modes: int, t) -> np.ndarray:
    """Modal coefficients of h(., t) on a basis of n_modes; one row per time
    of an array of times."""
    h = np.zeros(getattr(t, "shape", ()) + (n_modes,))
    if spec.kind == "zero":
        return h
    if spec.mode > n_modes:
        raise ValueError(f"forcing mode {spec.mode} outside basis of {n_modes} modes")
    h[..., spec.mode - 1] = spec.amplitude * exp_each(-spec.rate * abs(t))
    return h


@dataclass(frozen=True)
class ModelSpec:
    """Full problem instance."""

    delta: float = 0.0
    lam: float = 0.0
    dim: int = 1
    sobolev_p: float = 4.0
    epsilon: EpsilonProfile = field(default_factory=EpsilonProfile)
    g: NonlinearitySpec = field(default_factory=NonlinearitySpec.zero)
    h: ForcingSpec = field(default_factory=ForcingSpec)

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.sobolev_p <= 0:
            raise ValueError("sobolev_p must be positive")

    def with_delta(self, delta: float) -> "ModelSpec":
        return replace(self, delta=delta)


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    margin: float
    detail: str = ""
    sampled: bool = False

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "margin": float(self.margin), "detail": self.detail,
                "sampled": bool(self.sampled)}


@dataclass(frozen=True)
class HypothesisReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.to_dict() for c in self.checks]}


def validate_hypotheses(spec: ModelSpec,
                        u_range: tuple[float, float] = (-8.0, 8.0),
                        t_range: tuple[float, float] = (0.0, 50.0),
                        samples: int = 512) -> HypothesisReport:
    """Audit the standing assumptions on sampled grids.

    Margins are 'distance to violation': nonnegative means the check passed
    with that much room. Asymptotic ratio conditions are evaluated at the
    largest sampled |u| against the slack implied by the declared c1..c4 and
    carry ``sampled=True``.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    if not (u_range[1] > u_range[0]) or not (t_range[1] > t_range[0]):
        raise ValueError("empty sampling range")
    checks: list[HypothesisCheck] = []
    tgrid = np.linspace(t_range[0], t_range[1], samples)
    eps_vals, eps_der = eval_epsilon(spec.epsilon, tgrid)

    m = -float(np.max(eps_der))
    checks.append(HypothesisCheck("epsilon_monotone", m >= -1e-12, m,
                                  "max eps' over the t-grid must be <= 0"))
    t_far = max(t_range[1], 0.0) + 60.0
    far_gap = abs(eval_epsilon(spec.epsilon, t_far)[0] - spec.epsilon.alpha)
    tol = 1e-8 * max(1.0, spec.epsilon.alpha)
    checks.append(HypothesisCheck("epsilon_limit", far_gap <= tol, tol - far_gap,
                                  f"|eps({t_far:g}) - alpha| = {far_gap:.3e}"))
    m = spec.epsilon.bound - float(np.max(np.abs(eps_vals) + np.abs(eps_der)))
    checks.append(HypothesisCheck("epsilon_bound", m >= -1e-12, m,
                                  "sup(|eps| + |eps'|) <= declared L on the t-grid"))

    ugrid = np.linspace(u_range[0], u_range[1], samples)
    g0 = float(eval_g(spec.g, np.array([0.0]))[0][0])
    checks.append(HypothesisCheck("g_zero_at_zero", abs(g0) <= 1e-12, 1e-12 - abs(g0),
                                  f"g(0) = {g0:.3e}"))
    gv, gp, Gv = eval_g(spec.g, ugrid)
    growth = spec.g.growth_c * (1.0 + np.abs(ugrid) ** spec.sobolev_p)
    m = float(np.min(growth - np.abs(gp)))
    checks.append(HypothesisCheck("g_growth", m >= -1e-12, m,
                                  "|g'(u)| <= C (1 + |u|^p) on the u-grid"))
    m = spec.g.k - float(np.max(gp))
    checks.append(HypothesisCheck("g_derivative_bound", m >= -1e-12, m,
                                  "g'(u) <= k on the u-grid"))

    # Finite-range surrogates of the asymptotic ratio conditions.
    resid = ugrid * gv - spec.g.gamma * Gv - spec.g.c1 * ugrid ** 2 - spec.g.c2
    m = -float(np.max(resid / (1.0 + ugrid ** 2)))
    checks.append(HypothesisCheck("g_structure_bound", m >= -1e-9, m,
                                  "u g - gamma G <= c1 u^2 + c2 on the u-grid"))
    resid = Gv - spec.g.c3 * ugrid ** 2 - spec.g.c4
    m = -float(np.max(resid / (1.0 + ugrid ** 2)))
    checks.append(HypothesisCheck("G_structure_bound", m >= -1e-9, m,
                                  "G <= c3 u^2 + c4 on the u-grid"))
    u_edge = max(abs(u_range[0]), abs(u_range[1]))
    edge = np.array([-u_edge, u_edge])
    ge, _, Ge = eval_g(spec.g, edge)
    allowance6 = spec.g.c1 + spec.g.c2 / u_edge ** 2
    ratio6 = float(np.max((edge * ge - spec.g.gamma * Ge) / edge ** 2))
    checks.append(HypothesisCheck("g_dissipative_ratio", ratio6 <= allowance6 + 1e-9,
                                  allowance6 - ratio6,
                                  f"(u g - gamma G)/u^2 at |u| = {u_edge:g}", sampled=True))
    allowance7 = spec.g.c3 + spec.g.c4 / u_edge ** 2
    ratio7 = float(np.max(Ge / edge ** 2))
    checks.append(HypothesisCheck("G_ratio", ratio7 <= allowance7 + 1e-9,
                                  allowance7 - ratio7,
                                  f"G/u^2 at |u| = {u_edge:g}", sampled=True))

    checks.append(_forcing_tail_check(spec.h, t_range[1]))
    return HypothesisReport(tuple(checks))


def _forcing_tail_check(h: ForcingSpec, t_end: float) -> HypothesisCheck:
    """Stabilization of int_{-T0}^{t} e^{sigma s} |h|^2 ds as T0 grows."""
    if h.kind == "zero":
        return HypothesisCheck("forcing_tail", True, math.inf, "h = 0")
    from scipy.integrate import quad

    def integrand(s):
        return math.exp(h.sigma * s) * forcing_norm_sq(h, s)

    horizons = [20.0, 40.0, 80.0]
    vals = [quad(integrand, -T0, t_end, limit=200)[0] for T0 in horizons]
    gap = abs(vals[-1] - vals[-2])
    tol = max(1e-10, 1e-8 * abs(vals[-1]))
    return HypothesisCheck("forcing_tail", gap <= tol, tol - gap,
                           f"tail integral stabilizes at {vals[-1]:.6e}")
