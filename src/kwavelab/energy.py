"""Energy functionals, decay verification, and the (rho, chi) feasibility scan.

The dissipation analysis of the damped Kirchhoff flow rests on a family of
quadratic-plus-potential functionals evaluated along trajectories:

    E  = eps|v + rho u|^2 - rho^2 eps|u|^2 + |grad u|^2 + (delta/2)|grad u|^4
         + rho|grad u|^2 + lam|u|^2 - 2 (G(u), 1) + 2 c0
    I  = (rho/2)|grad u|^2 + 2 delta rho|grad u|^4 - 2 rho (g(u), u)
         + rho (2 eps - rho)|v + rho u|^2 - chi E
    K  = (1/2)|grad v|^2 + rho|grad u|^2 - (8 rho^2 eps / lam1)|v|^2
         - (rho^2 lam1 eps / 2)|u|^2
    L  = eps|(-Lap)^{-1/2} w_t|^2 + 2 rho eps (w_t, w) + |w|^2 + rho|grad w|^2
         + lam|(-Lap)^{-1/2} w|^2,              w = u_t

together with the absorbing radius

    B(t) = ( c14 e^{-sigma1 t} int_{-inf}^t e^{sigma1 s} |h(s)|^2 ds + c14 )^{1/2}.

Feasible multipliers (rho, chi) make E nonnegative and force the decay
inequality dE/dt <= -chi E + |h|^2 / rho + c5. The admissible region is the
intersection of explicit inequalities in (rho, chi) and the model constants;
``solve_feasibility`` scans a grid and reports it. Constraints whose only
role is to give closed-form values to constants that this package fits
empirically (the norm-sandwich and window constants) are evaluated and
reported but do not gate feasibility; the report marks them "advisory".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integrator import Trajectory, reconstruct_accel
from .model import ForcingSpec, ModelSpec, eval_epsilon, exp_each, forcing_norm_sq
from .spectral import (Basis, ModalState, dual_norm_sq, eval_nonlinearity_modal,
                       grad_norm_sq, inner, integral_of_G, norm_sq, xt_norm_sq)


class InfeasibleParamsError(ValueError):
    """Energy multipliers violate a binding feasibility constraint, or the
    scan behind 'fit' finds no feasible multipliers."""


@dataclass(frozen=True)
class EnergyParams:
    """Multipliers and constants of the energy machinery.

    sigma1 = None means chi / 2. c4 must strictly dominate c0, and the scan
    uses max(c4, g.c4) with the structure constants c1..c3 declared on the
    nonlinearity. c5 = None means "fit along the run".
    """

    rho: float
    chi: float
    sigma1: Optional[float] = None
    c0: float = 0.0
    c4: float = 1.0
    c5: Optional[float] = None
    c14: float = 1.0

    def __post_init__(self):
        if self.rho <= 0 or self.chi <= 0:
            raise ValueError("rho and chi must be positive")
        if self.sigma1 is None:
            object.__setattr__(self, "sigma1", self.chi / 2.0)
        if not (0.0 < self.sigma1 < self.chi):
            raise ValueError("need 0 < sigma1 < chi")
        if self.c0 < 0:
            raise ValueError("c0 must be nonnegative")
        if self.c4 <= self.c0:
            raise ValueError("need c0 < c4")
        if self.c14 <= 0:
            raise ValueError("c14 must be positive")


def eval_E(state: ModalState, spec: ModelSpec, basis: Basis, params: EnergyParams):
    eps, _ = eval_epsilon(spec.epsilon, state.t)
    u, v = state.u, state.v
    S = grad_norm_sq(basis, u)
    return (eps * norm_sq(v + params.rho * u) - params.rho ** 2 * eps * norm_sq(u)
            + S + 0.5 * spec.delta * (S * S) + params.rho * S
            + spec.lam * norm_sq(u)
            - 2.0 * integral_of_G(spec.g, basis, u) + 2.0 * params.c0)


def eval_I(state: ModalState, spec: ModelSpec, basis: Basis, params: EnergyParams,
           E=None):
    """Dissipation functional; ``E`` is eval_E of the same state when the
    caller has it already."""
    if E is None:
        E = eval_E(state, spec, basis, params)
    eps, _ = eval_epsilon(spec.epsilon, state.t)
    u, v = state.u, state.v
    S = grad_norm_sq(basis, u)
    gu = inner(eval_nonlinearity_modal(spec.g, basis, u), u)
    rho = params.rho
    return (0.5 * rho * S + 2.0 * spec.delta * rho * (S * S) - 2.0 * rho * gu
            + rho * (2.0 * eps - rho) * norm_sq(v + rho * u)
            - params.chi * E)


def eval_K(state: ModalState, spec: ModelSpec, basis: Basis, params: EnergyParams):
    eps, _ = eval_epsilon(spec.epsilon, state.t)
    u, v = state.u, state.v
    rho = params.rho
    return (0.5 * grad_norm_sq(basis, v) + rho * grad_norm_sq(basis, u)
            - (8.0 * rho ** 2 * eps / basis.lambda1) * norm_sq(v)
            - 0.5 * rho ** 2 * basis.lambda1 * eps * norm_sq(u))


def eval_L(state: ModalState, spec: ModelSpec, basis: Basis, params: EnergyParams):
    """Second energy with w = u_t, for a state that solves the second-order
    problem (its w_t is reconstructed from the equation)."""
    w = state.v
    wt = reconstruct_accel(state, spec, basis)
    eps, _ = eval_epsilon(spec.epsilon, state.t)
    rho = params.rho
    return (eps * dual_norm_sq(basis, wt) + 2.0 * rho * eps * inner(wt, w)
            + norm_sq(w) + rho * grad_norm_sq(basis, w)
            + spec.lam * dual_norm_sq(basis, w))


def weighted_tail_integral(h: ForcingSpec, sigma1: float, t: float) -> float:
    """int_{-inf}^t e^{sigma1 s} |h(s)|^2 ds, from the exact antiderivative of
    the separable forcing A^2 e^{-2 beta |s|}; finite for sigma1 > 0."""
    if h.kind == "zero":
        return 0.0
    A2, beta = h.amplitude ** 2, h.rate
    up = sigma1 + 2.0 * beta
    if t <= 0:
        return float(A2 * math.exp(up * t) / up)
    head = A2 / up
    dn = sigma1 - 2.0 * beta
    if abs(dn) < 1e-14:
        tail = A2 * t
    else:
        tail = A2 * (math.exp(dn * t) - 1.0) / dn
    return float(head + tail)


def eval_B(t: float, spec: ModelSpec, params: EnergyParams) -> float:
    """Absorbing radius at time t."""
    tail = weighted_tail_integral(spec.h, params.sigma1, t)
    return math.sqrt(params.c14 * math.exp(-params.sigma1 * t) * tail + params.c14)


@dataclass(frozen=True)
class EnergyLedger:
    """Per-time series of the functionals along one trajectory."""

    times: np.ndarray
    E: np.ndarray
    I: np.ndarray
    K: np.ndarray
    L: np.ndarray
    xt_norm_sq: np.ndarray
    B: np.ndarray

    COLUMNS = ("t", "E", "I", "K", "L", "xt_norm_sq", "B")

    def columns(self) -> list[np.ndarray]:
        """The series in the order of COLUMNS."""
        return [self.times, self.E, self.I, self.K, self.L, self.xt_norm_sq, self.B]


def build_ledger(traj: Trajectory, spec: ModelSpec, basis: Basis,
                 params: EnergyParams) -> EnergyLedger:
    """Functionals at every record, all records as one batched state. A
    Trajectory solves the second-order problem, so L (which reconstructs
    u_tt from the equation) is defined at every record."""
    records = ModalState(traj.us, traj.vs, traj.times)
    E = eval_E(records, spec, basis, params)
    return EnergyLedger(
        traj.times.copy(), E, eval_I(records, spec, basis, params, E=E),
        eval_K(records, spec, basis, params), eval_L(records, spec, basis, params),
        xt_norm_sq(basis, records, spec.epsilon),
        np.array([eval_B(float(t), spec, params) for t in traj.times]))


SLACK_FACTOR = 10.0  # slack of the discrete decay inequality, per unit of dt |E|


@dataclass(frozen=True)
class DecayReport:
    """``residuals`` is r = (E(t+D) - E(t))/D + chi E(t) - |h(t)|^2 / rho at
    every record but the last, the term that c5 plus slack must bound."""

    c5: float
    fitted_c5: bool
    residuals: np.ndarray
    max_violation: float
    passed: bool
    front_constant: float
    integrated_passed: bool
    energy_nonneg: bool

    def to_dict(self) -> dict:
        return {"c5": self.c5, "fitted_c5": self.fitted_c5,
                "max_residual": float(np.max(self.residuals)),
                "max_violation": self.max_violation, "passed": self.passed,
                "front_constant": self.front_constant,
                "integrated_passed": self.integrated_passed,
                "energy_nonneg": self.energy_nonneg}


def verify_decay_inequality(ledger: EnergyLedger, traj: Trajectory, spec: ModelSpec,
                            basis: Basis, params: EnergyParams,
                            dt: Optional[float] = None) -> DecayReport:
    """Check the discrete decay inequality and the integrated bound.

    Forward differences on the recorded grid:
        (E(t+D) - E(t))/D <= -chi E(t) + |h(t)|^2 / rho + c5 + slack,
    slack = SLACK_FACTOR * dt * max(1, |E(t)|) with dt the integrator step
    (record spacing when not given). c5 is taken from params or fitted as the
    smallest nonnegative constant making the raw inequality hold, then
    frozen. The integrated form fits a single front constant C and asserts
    the exponential envelope with it.
    """
    margins = check_point_margins(spec, basis, params)
    worst = min(margins.values())
    if worst < -1e-9:
        bad = min(margins, key=margins.get)
        raise InfeasibleParamsError(
            f"(rho, chi) violates binding constraint {bad} by {-worst:.3e}")

    t = ledger.times
    if t.size < 2:
        raise ValueError("need at least two recorded states")
    D = float(t[1] - t[0])
    h_sq = forcing_norm_sq(spec.h, t[:-1])
    r = (ledger.E[1:] - ledger.E[:-1]) / D + params.chi * ledger.E[:-1] - h_sq / params.rho
    fitted = params.c5 is None
    c5 = max(0.0, float(np.max(r))) if fitted else params.c5
    slack = SLACK_FACTOR * (D if dt is None else dt) * np.maximum(1.0, np.abs(ledger.E[:-1]))
    violation = r - c5 - slack
    max_violation = float(np.max(violation))

    # integrated envelope with a single fitted front constant
    p = spec.sobolev_p
    S0 = grad_norm_sq(basis, traj.us[0])
    data0 = ledger.xt_norm_sq[0] + S0 ** ((p + 2.0) / 2.0) + spec.delta * S0 ** 2
    tau = float(t[0])
    hw = exp_each(params.sigma1 * t) * forcing_norm_sq(spec.h, t)
    W = np.concatenate([[0.0], np.cumsum(0.5 * (hw[1:] + hw[:-1]) * np.diff(t))])
    denom = (np.exp(-params.sigma1 * (t - tau)) * data0
             + np.exp(-params.sigma1 * t) * W + 1.0)
    C = float(np.max(ledger.xt_norm_sq / denom))
    integrated_ok = bool(np.all(ledger.xt_norm_sq <= C * denom * (1.0 + 1e-9)))
    energy_nonneg = bool(np.min(ledger.E) >= -1e-9)  # holds under feasibility
    return DecayReport(c5, fitted, r, max_violation, max_violation <= 0.0,
                       C, integrated_ok, energy_nonneg)


@dataclass(frozen=True)
class SandwichFit:
    c6: float
    c9: float
    c10: float
    passed: bool


def fit_norm_sandwich(ledger: EnergyLedger, traj: Trajectory, spec: ModelSpec,
                      basis: Basis, params: EnergyParams) -> SandwichFit:
    """Fit c6, c9, c10 once and verify the two-sided norm comparison
    c6^{-1} xt <= E <= c9 (xt + |grad u|^{p+2} + delta |grad u|^4) + 2 c10."""
    p = spec.sobolev_p
    S = grad_norm_sq(basis, traj.us)
    upper_arg = ledger.xt_norm_sq + S ** ((p + 2.0) / 2.0) + spec.delta * S ** 2
    pos = ledger.E > 1e-300
    ratios = np.where(pos, ledger.xt_norm_sq / np.where(pos, ledger.E, 1.0), 0.0)
    c6 = max(float(np.max(ratios)), 1.0)
    c10 = max(params.c0, 1e-12)
    num = ledger.E - 2.0 * c10
    c9 = max(float(np.max(num / np.maximum(upper_arg, 1e-300))), 1e-12)
    lower_ok = bool(np.all(ledger.xt_norm_sq <= c6 * ledger.E * (1.0 + 1e-9) + 1e-12))
    upper_ok = bool(np.all(ledger.E <= c9 * upper_arg + 2.0 * c10 + 1e-12))
    return SandwichFit(c6, c9, c10, lower_ok and upper_ok)


# ---------------------------------------------------------------------------
# feasibility scan

def _binding_margins(rho, chi, *, lam1, L, alpha, lam, delta, gamma, c1, c2, c3):
    """Margins (>= 0 means satisfied) of the binding constraints; rho and chi
    broadcast. eps-dependent rows take the worst case over eps in {alpha, L}."""
    eps_lo, eps_hi = alpha, L
    m = {}
    m["rho_min_zero_order"] = rho - math.sqrt(2.0 * lam)
    m["rho_max_mass_ratio"] = lam1 / (4.0 * L) - rho
    m["rho_max_balance"] = math.sqrt((lam1 + 4.0 * lam) * L) / (2.0 * L) - rho
    m["rho_max_mass_inverse"] = 2.0 / L - rho
    m["rho_max_gradient_split"] = lam1 * math.sqrt(L) / (4.0 * L) - rho
    m["chi_gradient_coeff"] = rho / 2.0 - chi * (1.0 + rho)
    m["chi_kirchhoff_coeff"] = delta * (2.0 * rho - chi / 2.0)
    m["chi_velocity_coeff"] = np.minimum(2.0 * rho * eps_lo - rho ** 2 - chi * eps_lo,
                                         2.0 * rho * eps_hi - rho ** 2 - chi * eps_hi)
    mass = lambda e: chi * (rho ** 2 * e + 2.0 * c3 - lam) - 2.0 * rho * (gamma * c3 + c1)
    m["chi_mass_coeff"] = np.minimum(mass(eps_lo), mass(eps_hi))
    m["zero_order_coercivity"] = 2.0 * lam1 + rho * lam1 - rho ** 2 * L - 2.0 * c3
    m["c3_vs_lambda"] = lam / 2.0 - c3 + 0.0 * rho
    m["rho_window"] = np.minimum(rho - math.sqrt(max(lam - 2.0 * c3, 0.0) * L) / L,
                                 2.0 - rho)
    return m


def _advisory_margins(rho, chi, *, lam1, L, lam, gamma, c0, c1, c2, c3, c4):
    m = {}
    m["constant_term_sign"] = -(2.0 * rho * gamma - 2.0 * chi) * c4 - 2.0 * rho * c2 - 2.0 * chi * c0
    upper = np.minimum.reduce([rho / (2.0 * (1.0 + rho)), 4.0 * rho,
                               rho * gamma, 2.0 * rho - rho ** 2])
    den1 = rho ** 2 - lam + 2.0 * c3
    lo1 = np.where(den1 > 0, (2.0 * rho * gamma * c3 + 2.0 * rho * c1) / np.where(den1 > 0, den1, 1.0),
                   np.inf)
    den2 = 2.0 * c4 - 2.0 * c0
    lo2 = (2.0 * rho * gamma * c4 + 2.0 * rho * c2) / den2 if den2 > 0 else np.inf
    lower = np.maximum(lo1, lo2)
    m["chi_window"] = np.minimum(upper - chi, chi - lower)
    m["sandwich_rho_max"] = math.sqrt(lam * L) / L - rho
    m["sandwich_c3_max"] = (lam - rho ** 2 * L) / 2.0 - c3
    if L >= 64.0 / lam1:
        m["rho_min_heavy_mass"] = rho - (lam1 * L + math.sqrt((lam1 ** 2 * L - 64.0 * lam1) * L)) / (8.0 * L)
    return m


def _constants_for_scan(spec: ModelSpec, basis: Basis, params: EnergyParams) -> dict:
    return dict(lam1=basis.lambda1, L=spec.epsilon.bound, alpha=spec.epsilon.alpha,
                lam=spec.lam, delta=spec.delta, gamma=spec.g.gamma, c0=params.c0,
                c1=spec.g.c1, c2=spec.g.c2, c3=spec.g.c3, c4=max(params.c4, spec.g.c4))


def check_point_margins(spec: ModelSpec, basis: Basis, params: EnergyParams) -> dict[str, float]:
    """Binding-constraint margins at a single (rho, chi)."""
    kw = _constants_for_scan(spec, basis, params)
    kw.pop("c0")
    kw.pop("c4")
    raw = _binding_margins(np.asarray(params.rho), np.asarray(params.chi), **kw)
    return {k: float(v) for k, v in raw.items()}


FEASIBLE_POINTS_MAX = 4096  # feasible points listed in FeasibilityReport.to_dict
# The scanned box (0, RHO_MAX] x (0, CHI_MAX]; the binding rows confine the
# feasible set to rho <= 2 (rho_window) and chi < 1/2 (chi_gradient_coeff).
RHO_MAX, CHI_MAX = 3.0, 1.5


@dataclass(frozen=True)
class FeasibilityReport:
    rho_grid: np.ndarray
    chi_grid: np.ndarray
    binding: dict[str, np.ndarray] = field(repr=False)
    advisory: dict[str, np.ndarray] = field(repr=False)
    inactive: tuple[str, ...]
    feasible_mask: np.ndarray = field(repr=False)
    chosen: Optional[tuple[float, float, float]]
    kill_counts: dict[str, int]
    binding_kill: Optional[str]

    @property
    def is_empty(self) -> bool:
        return self.chosen is None

    @property
    def feasible_points(self) -> np.ndarray:
        ii, jj = np.nonzero(self.feasible_mask)
        return np.column_stack([self.rho_grid[ii], self.chi_grid[jj]])

    def to_dict(self) -> dict:
        """The report, its feasible points cut at FEASIBLE_POINTS_MAX."""
        total = int(self.feasible_mask.size)
        pts = self.feasible_points
        constraints = []
        for name, marg in self.binding.items():
            ok = marg >= -1e-12
            constraints.append({"name": name, "binding": True, "active": True,
                                "pass_fraction": float(np.mean(ok)),
                                "kill_count": int(self.kill_counts[name])})
        for name, marg in self.advisory.items():
            ok = marg >= -1e-12
            constraints.append({"name": name, "binding": False, "active": True,
                                "pass_fraction": float(np.mean(ok)),
                                "kill_count": int(np.sum(~ok))})
        for name in self.inactive:
            constraints.append({"name": name, "binding": False, "active": False,
                                "pass_fraction": None, "kill_count": None})
        return {"grid_points": total,
                "feasible_count": int(pts.shape[0]),
                "empty": self.is_empty,
                "binding_kill": self.binding_kill,
                "chosen": None if self.chosen is None else
                {"rho": self.chosen[0], "chi": self.chosen[1], "sigma1": self.chosen[2]},
                "constraints": constraints,
                "rho_grid": [float(x) for x in self.rho_grid],
                "chi_grid": [float(x) for x in self.chi_grid],
                "feasible_points": [[float(a), float(b)] for a, b in pts[:FEASIBLE_POINTS_MAX]]}


def solve_feasibility(spec: ModelSpec, basis: Basis, params: EnergyParams,
                      grid_n: int = 48) -> FeasibilityReport:
    """Scan (0, RHO_MAX] x (0, CHI_MAX] and classify every grid point.

    The feasible set is the conjunction of the binding constraints; a
    canonical interior point maximises the smallest normalised binding
    margin. Emptiness is a valid outcome and names the constraint that kills
    the most grid points.
    """
    kw = _constants_for_scan(spec, basis, params)
    rho_grid = np.linspace(0.0, RHO_MAX, grid_n + 1)[1:]
    chi_grid = np.linspace(0.0, CHI_MAX, grid_n + 1)[1:]
    R = rho_grid[:, None]
    X = chi_grid[None, :]
    bind_kw = {k: v for k, v in kw.items() if k not in ("c0", "c4")}
    binding = {k: np.broadcast_to(np.asarray(v, dtype=float), (grid_n, grid_n)).copy()
               for k, v in _binding_margins(R, X, **bind_kw).items()}
    adv_kw = {k: v for k, v in kw.items() if k not in ("alpha", "delta")}
    advisory = {k: np.broadcast_to(np.asarray(v, dtype=float), (grid_n, grid_n)).copy()
                for k, v in _advisory_margins(R, X, **adv_kw).items()}
    inactive = () if "rho_min_heavy_mass" in advisory else ("rho_min_heavy_mass",)

    feasible = np.ones((grid_n, grid_n), dtype=bool)
    kill_counts = {}
    for name, marg in binding.items():
        ok = marg >= -1e-12
        kill_counts[name] = int(np.sum(~ok))
        feasible &= ok
    binding_kill = max(kill_counts, key=lambda k: (kill_counts[k], k))
    if all(v == 0 for v in kill_counts.values()):
        binding_kill = None

    chosen = None
    if np.any(feasible):
        score = np.full((grid_n, grid_n), np.inf)
        for marg in binding.values():
            scale = float(np.max(np.abs(marg)))
            if scale <= 1e-12:  # vacuous constraint (e.g. delta = 0)
                continue
            score = np.minimum(score, marg / scale)
        score = np.where(feasible, score, -np.inf)
        i, j = np.unravel_index(int(np.argmax(score)), score.shape)
        rho_star, chi_star = float(rho_grid[i]), float(chi_grid[j])
        chosen = (rho_star, chi_star, chi_star / 2.0)
    return FeasibilityReport(rho_grid, chi_grid, binding, advisory, inactive,
                             feasible, chosen, kill_counts, binding_kill)
