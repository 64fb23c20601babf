"""Problem definition for the damped Kirchhoff wave model.

Everything in this package solves

    eps(t) u_tt - (1 + delta |grad u|^2) Lap u - Lap u_t + lam u = g(u) + h(x, t)

on the unit box (0,1)^d with homogeneous Dirichlet data, where |grad u|^2 is
the squared H^1_0 seminorm of the current state (the nonlocal Kirchhoff
modulation). This module holds the immutable coefficient containers, the
closed-form evaluators of each kind, and a numerical audit of the standing
assumptions:

* the mass coefficient eps is C^1, non-increasing, with limit alpha >= 1 and
  a declared uniform bound L >= alpha on |eps| + |eps'|;
* g is C^1 with g(0) = 0, derivative bounded above by k, polynomial growth of
  g', and asymptotically dissipative ratio conditions on u*g - gamma*G and on
  the antiderivative G. The constants of these conditions are facts of g, so
  each kind's preset values live here, in _g_preset;
* the forcing has a finite exponentially weighted tail integral
  W_sigma(t) = int_{-inf}^t e^{sigma s} |h(s)|^2 ds, whose one definition,
  the closed form weighted_tail_integral, every check and estimate uses.

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
        return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)
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


def _g_preset(kind: str, a: float, gamma: float) -> dict:
    """The preset k, growth_c and c1..c4 of a kind at coeff a and gamma."""
    if kind == "zero":
        return dict(k=0.0, growth_c=1.0, c1=0.0, c2=0.0, c3=0.0, c4=0.0)
    if kind == "cubic_soft":
        # u*g - gamma*G = (gamma/4 - 1) u^4 <= 0 for gamma <= 4 and G <= 0,
        # so the structure constants are zero (slack-free).
        return dict(k=0.0, growth_c=max(3.0 * a, 1.0), c1=0.0, c2=0.0, c3=0.0, c4=0.0)
    # lipschitz_sine: |u g - gamma G| <= a|u| + 2*gamma*a and G <= 2a; a|u| <= a(1+u^2)/2.
    return dict(k=a, growth_c=max(a, 1.0), c1=a / 2.0, c2=a / 2.0 + 2.0 * gamma * a,
                c3=0.0, c4=2.0 * a)


@dataclass(frozen=True)
class NonlinearitySpec:
    """Nonlinearity g with antiderivative G, G(0) = 0.

    Kinds:
      zero            g = 0
      cubic_soft      g(u) = -coeff * u^3        (defocusing; gamma <= 4)
      lipschitz_sine  g(u) = coeff * sin(u)

    ``k`` bounds g' from above, ``gamma`` and ``growth_c`` enter the
    dissipativity and growth conditions, and ``c1..c4`` are the declared
    structure constants of the finite-range surrogates
        u g(u) - gamma G(u) <= c1 u^2 + c2,     G(u) <= c3 u^2 + c4.
    Each of k, growth_c and c1..c4 left unset is the kind's preset at
    (coeff, gamma), which satisfies these conditions; the preset c1..c4 must
    be nonnegative even where declared values replace them.
    """

    kind: str = "zero"
    coeff: float = 1.0
    gamma: float = 2.0
    k: Optional[float] = None
    growth_c: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    c3: Optional[float] = None
    c4: Optional[float] = None

    def __post_init__(self):
        if self.kind not in NONLINEARITY_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.kind == "cubic_soft" and self.gamma > 4.0:
            raise ValueError("cubic_soft ships slack-free constants only for gamma <= 4")
        preset = _g_preset(self.kind, self.coeff, self.gamma)
        if min(preset["c1"], preset["c2"], preset["c3"], preset["c4"]) < 0:
            raise ValueError("structure constants c1..c4 must be nonnegative")
        for name, value in preset.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if self.growth_c <= 0:
            raise ValueError("growth constant must be positive")
        if min(self.c1, self.c2, self.c3, self.c4) < 0:
            raise ValueError("structure constants c1..c4 must be nonnegative")

    @property
    def factor(self) -> float:
        """g's constant factor: g(u) = factor * eval_g_value(self, u,
        unscaled=True), -coeff for cubic_soft, coeff for lipschitz_sine
        (0 for zero)."""
        return {"zero": 0.0, "cubic_soft": -self.coeff, "lipschitz_sine": self.coeff}[self.kind]


def eval_g_value(spec: NonlinearitySpec, u, out: Optional[np.ndarray] = None,
                 unscaled: bool = False) -> np.ndarray:
    """g(u) alone; cheaper than eval_g inside integrator loops. A given
    ``out`` (of u's shape, not u itself) is filled in place and returned.

    With ``unscaled``, g(u) / spec.factor (u^3 or sin u; 0 for zero): one
    pass fewer, for a caller that multiplies the factor in elsewhere (the
    grid transform folds it into its inverse matrix)."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "zero":
        if out is None:
            return np.zeros_like(u)
        out.fill(0.0)
        return out
    if spec.kind == "cubic_soft":
        out = np.square(u, out=out)
        np.multiply(out, u, out=out)
    else:
        out = np.sin(u, out=out)
    return out if unscaled else np.multiply(out, spec.factor, out=out)


def eval_G(spec: NonlinearitySpec, u, out: Optional[np.ndarray] = None,
           scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """G(u) alone, elementwise: the exact antiderivative of g with G(0) = 0.

    Written into ``out`` and, for cubic g, ``scratch`` (both of u's shape,
    neither u itself), made here when not given, so a caller that holds them
    allocates nothing. The operands pair as in the plain expressions
    (c u^2) u^2, c = -0.25 coeff, and coeff (1 - cos u)."""
    u = np.asarray(u, dtype=float)
    if spec.kind == "zero":
        if out is None:
            return np.zeros_like(u)
        out.fill(0.0)
        return out
    if out is None:
        out = np.empty_like(u)
    if spec.kind == "cubic_soft":
        u2 = np.square(u, out=np.empty_like(u) if scratch is None else scratch)
        np.multiply(u2, -0.25 * spec.coeff, out=out)
        return np.multiply(out, u2, out=out)
    np.cos(u, out=out)
    np.subtract(1.0, out, out=out)
    return np.multiply(out, spec.coeff, out=out)


def eval_g(spec: NonlinearitySpec, u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (g(u), g'(u), G(u)) elementwise, g as eval_g_value and G as
    eval_G give them."""
    u = np.asarray(u, dtype=float)
    g = eval_g_value(spec, u, out=np.empty_like(u))
    if spec.kind == "zero":
        gp = np.zeros_like(u)
    elif spec.kind == "cubic_soft":
        gp = -3.0 * spec.coeff * np.square(u)
    else:
        gp = spec.coeff * np.cos(u)
    return g, gp, eval_G(spec, u)


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


def weighted_tail_integral(h: ForcingSpec, sigma: float, t):
    """W_sigma(t) = int_{-inf}^t e^{sigma s} |h(s)|^2 ds, from the exact
    antiderivative of the separable forcing A^2 e^{-2 beta |s|}; finite for
    sigma > 0. For a float t or an array of times: the part up to min(t, 0)
    plus the rest. OverflowError where e^{(sigma - 2 beta) t} overflows."""
    if h.kind == "zero":
        return 0.0
    A2, beta = h.amplitude ** 2, h.rate
    up = sigma + 2.0 * beta
    head = A2 * exp_each(up * np.minimum(t, 0.0)) / up
    after = np.maximum(t, 0.0)
    dn = sigma - 2.0 * beta
    if abs(dn) < 1e-14:
        tail = A2 * after
    else:
        tail = A2 * (exp_each(dn * after) - 1.0) / dn
    return head + tail


def eval_h(spec: ForcingSpec, n_modes: int, t) -> np.ndarray:
    """Modal coefficients of h(., t) on a basis of n_modes; one row per time
    of an array of times."""
    h = np.zeros(getattr(t, "shape", ()) + (n_modes,))
    if spec.kind == "zero":
        return h
    if spec.mode > n_modes:
        raise ValueError(f"forcing mode {spec.mode} outside basis of {n_modes} modes")
    h[..., spec.mode - 1] = forcing_coefficient(spec, t)
    return h


def forcing_coefficient(spec: ForcingSpec, t):
    """The one nonzero modal coefficient of separable forcing, that of
    phi_mode, at t (one per time of an array of times)."""
    return spec.amplitude * exp_each(-spec.rate * abs(t))


@dataclass(frozen=True)
class ModelSpec:
    """Full problem instance; the dimension is the Basis's."""

    delta: float = 0.0
    lam: float = 0.0
    sobolev_p: float = 4.0
    epsilon: EpsilonProfile = field(default_factory=EpsilonProfile)
    g: NonlinearitySpec = field(default_factory=NonlinearitySpec)
    h: ForcingSpec = field(default_factory=ForcingSpec)

    def __post_init__(self):
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
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

    def to_dict(self) -> dict:
        return {"all_passed": self.all_passed,
                "checks": [c.to_dict() for c in self.checks]}


U_MAX = 8.0  # g and G are audited on [-U_MAX, U_MAX]
SAMPLES = 512  # points of the u- and t-grids


def validate_hypotheses(spec: ModelSpec,
                        t_range: tuple[float, float] = (0.0, 50.0)) -> HypothesisReport:
    """Audit the standing assumptions on sampled grids: SAMPLES points over
    [-U_MAX, U_MAX] in u and over t_range in t.

    Margins are 'distance to violation': nonnegative means the check passed
    with that much room. Asymptotic ratio conditions are evaluated at the
    largest sampled |u| against the slack implied by the declared c1..c4 and
    carry ``sampled=True``.
    """
    if not t_range[1] > t_range[0]:
        raise ValueError("empty sampling range")
    checks: list[HypothesisCheck] = []
    tgrid = np.linspace(t_range[0], t_range[1], SAMPLES)
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

    ugrid = np.linspace(-U_MAX, U_MAX, SAMPLES)
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
    edge = np.array([-U_MAX, U_MAX])
    ge, _, Ge = eval_g(spec.g, edge)
    allowance6 = spec.g.c1 + spec.g.c2 / U_MAX ** 2
    ratio6 = float(np.max((edge * ge - spec.g.gamma * Ge) / edge ** 2))
    checks.append(HypothesisCheck("g_dissipative_ratio", ratio6 <= allowance6 + 1e-9,
                                  allowance6 - ratio6,
                                  f"(u g - gamma G)/u^2 at |u| = {U_MAX:g}", sampled=True))
    allowance7 = spec.g.c3 + spec.g.c4 / U_MAX ** 2
    ratio7 = float(np.max(Ge / edge ** 2))
    checks.append(HypothesisCheck("G_ratio", ratio7 <= allowance7 + 1e-9,
                                  allowance7 - ratio7,
                                  f"G/u^2 at |u| = {U_MAX:g}", sampled=True))

    checks.append(_forcing_tail_check(spec.h, t_range[1]))
    return HypothesisReport(tuple(checks))


def _forcing_tail_check(h: ForcingSpec, t_end: float) -> HypothesisCheck:
    """Stabilization of int_{-T0}^{t_end} e^{sigma s} |h|^2 ds as T0 grows,
    each a difference of W_sigma; OverflowError unless W_sigma(t_end) is finite."""
    if h.kind == "zero":
        return HypothesisCheck("forcing_tail", True, math.inf, "h = 0")
    W_end = weighted_tail_integral(h, h.sigma, t_end)
    if not math.isfinite(W_end):
        raise OverflowError("the forcing tail integral overflows")
    vals = [W_end - weighted_tail_integral(h, h.sigma, -T0) for T0 in (20.0, 40.0, 80.0)]
    gap = abs(vals[-1] - vals[-2])
    tol = max(1e-10, 1e-8 * abs(vals[-1]))
    return HypothesisCheck("forcing_tail", gap <= tol, tol - gap,
                           f"tail integral stabilizes at {vals[-1]:.6e}")
