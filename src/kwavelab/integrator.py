"""Time integration of the Galerkin system.

In modal coordinates the problem is, per mode m with eigenvalue mu_m,

    eps(t) a_m'' + (1 + delta S) mu_m a_m + mu_m a_m' + lam a_m = g_m + h_m,
    S = |grad u|^2 = sum_j mu_j a_j^2.

The strong damping term mu_m a' is stiff (rates scale with mu_max), so the
one scheme is a diagonal IMEX method of order two: trapezoidal rule on
the linear terms (mu a', mu a, lam a), two-step Adams-Bashforth on g and on
the whole Kirchhoff product delta S mu_m a_m (one explicit Euler bootstrap
step), eps frozen at the half step, forcing averaged over the step
endpoints. Each step is a closed-form diagonal solve, O(N^d) work.

The explicit Kirchhoff product scales with mu_max like the linear part, so
a large delta |grad u|^2 limits the stable dt; folding (1 + delta S*) mu_m,
S* extrapolated, into the implicit diagonal would lift that limit.

``run`` and ``evolve_ensemble`` drive one loop, ``_march``, which
takes a leading batch axis. Step i runs from origin + (origin_step + i)*dt;
a resumed run reuses the parent origin, so split runs are bitwise identical
to unsplit ones. u is checked after every step (a non-finite v makes u
non-finite in the same step), so a blow-up is reported at its exact step.

``_march`` allocates its work arrays once per call: ping-pong pairs for u, v
and the explicit term (so the AB2 history needs no copy), the step scratch,
and the grid-transform workspace of ``nonlinearity_work``. The steps then
run in place with ``out=`` ufuncs that pair the operands exactly as the
plain expressions would, so they allocate no field-sized array and give the
same bits. The dt-dependent diagonals are formed once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelSpec, eval_epsilon, eval_h
from .spectral import (Basis, ModalState, eval_nonlinearity_modal,
                       grad_norm_sq, nonlinearity_work)


class BlowUpError(RuntimeError):
    """Non-finite coefficients encountered.

    ``t`` is the end of the first step whose state is non-finite, ``member``
    the first failing row of a batched state (None for a single state) and
    ``mode`` the index of that row's first non-finite coefficient.
    """

    def __init__(self, t: float, member: Optional[int] = None,
                 mode: Optional[int] = None):
        self.t, self.member, self.mode = t, member, mode
        where = [f"{name} {i}" for name, i in (("ensemble member", member), ("mode", mode))
                 if i is not None]
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"non-finite state at t = {t:.6g}{suffix}")


@dataclass(frozen=True)
class StepConfig:
    dt: float
    t_start: float
    t_end: float
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must be >= t_start")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t_start
        n = int(round(span / self.dt))
        if abs(n * self.dt - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError("time span must be an integer number of steps")
        return n


@dataclass(frozen=True)
class ResumePoint:
    """Carry-over needed to continue a multistep run without a bootstrap."""

    nl_prev: Optional[np.ndarray]
    origin_t: float
    origin_step: int


@dataclass(frozen=True)
class Trajectory:
    basis: Basis
    times: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    resume: Optional[ResumePoint] = None

    def __post_init__(self):
        if self.times.ndim != 1 or self.us.shape != self.vs.shape:
            raise ValueError("inconsistent trajectory arrays")
        if self.us.shape[0] != self.times.size:
            raise ValueError("record count mismatch")
        if np.any(np.diff(self.times) <= 0) and self.times.size > 1:
            raise ValueError("times must be strictly increasing")

    @property
    def n_records(self) -> int:
        return int(self.times.size)


def _explicit_term(spec: ModelSpec, basis: Basis, u, work, kp, S, out):
    """Explicit (AB2) part of eps*b', g_m(u) - delta * S * mu_m * a_m, written
    into ``out``; the Kirchhoff product is as stiff as the linear part (see
    module docstring). kp (u's shape) and S (u's shape less the last axis)
    are scratch; the products pair their operands as in the plain expression
    delta * S * (mu * u), S = sum(mu * u**2)."""
    g = eval_nonlinearity_modal(spec.g, basis, u, work)
    if spec.delta == 0.0:  # no Kirchhoff product
        np.copyto(out, g)
        return out
    mu = basis.eigenvalues
    np.multiply(u, u, out=kp)
    np.multiply(kp, mu, out=kp)
    np.sum(kp, axis=-1, out=S)
    np.multiply(S, spec.delta, out=S)
    np.multiply(u, mu, out=kp)
    np.multiply(kp, S[..., None], out=kp)
    return np.subtract(g, kp, out=out)


def _march(u, v, spec: ModelSpec, basis: Basis, dt: float,
           origin_t: float, origin_step: int, n: int, nl_prev,
           record_every: int = 1, times=None, us=None, vs=None):
    """Advance the batch (u, v) by n steps of dt; the one stepping loop.

    Step i runs from origin_t + (origin_step + i) * dt. When record arrays
    are given, the state after every record_every-th step goes to the next
    row (row 0 is left to the caller). Returns the final (u, v) and the
    explicit term of the last step, the multistep history of a resumed run.

    Every work array is allocated here, once per call. u, v and the explicit
    term live in ping-pong pairs: step i writes entry i % 2 and reads the
    other (at i = 0 the caller's arrays, which are never written), so the
    returned arrays belong to this call and nothing writes them afterwards.
    """
    mu = basis.eigenvalues
    stiff = mu + spec.lam
    half_stiff, half_mu = (dt / 2.0) * stiff, (dt / 2.0) * mu
    quarter_dt2_stiff = (dt * dt / 4.0) * stiff
    shape = u.shape
    u_pair, v_pair, nl_pair = ((np.empty(shape), np.empty(shape)) for _ in range(3))
    alpha, force, scratch = np.empty(shape), np.empty(shape), np.empty(shape)
    S, denom = np.empty(shape[:-1]), np.empty(shape[-1])
    work = nonlinearity_work(spec.g, basis, shape[:-1])

    h_lo = eval_h(spec.h, basis.n_modes, origin_t + origin_step * dt)
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        for i in range(n):
            t = origin_t + (origin_step + i) * dt
            t_next = origin_t + (origin_step + i + 1) * dt
            u_new, v_new = u_pair[i % 2], v_pair[i % 2]
            nl_cur = _explicit_term(spec, basis, u, work, scratch, S, nl_pair[i % 2])
            h_hi = eval_h(spec.h, basis.n_modes, t_next)
            # force = AB2 extrapolation of nl (Euler at the bootstrap) + mean h
            if nl_prev is None:
                np.copyto(force, nl_cur)
            else:
                np.multiply(nl_cur, 1.5, out=force)
                np.multiply(nl_prev, 0.5, out=scratch)
                np.subtract(force, scratch, out=force)
            np.add(force, 0.5 * (h_lo + h_hi), out=force)
            eps_h, _ = eval_epsilon(spec.epsilon, t + dt / 2.0)
            np.add(eps_h, quarter_dt2_stiff, out=denom)
            np.add(denom, half_mu, out=denom)
            np.multiply(v, dt / 2.0, out=alpha)
            np.add(u, alpha, out=alpha)
            # v_new = (eps_h v - half_stiff (u + alpha) - half_mu v + dt force) / denom
            np.multiply(v, eps_h, out=v_new)
            np.add(u, alpha, out=scratch)
            np.multiply(scratch, half_stiff, out=scratch)
            np.subtract(v_new, scratch, out=v_new)
            np.multiply(v, half_mu, out=scratch)
            np.subtract(v_new, scratch, out=v_new)
            np.multiply(force, dt, out=force)
            np.add(v_new, force, out=v_new)
            np.divide(v_new, denom, out=v_new)
            # u_new = alpha + (dt/2) v_new
            np.multiply(v_new, dt / 2.0, out=u_new)
            np.add(alpha, u_new, out=u_new)
            u, v, nl_prev, h_lo = u_new, v_new, nl_cur, h_hi
            # a finite sum means every entry is finite: one pass and no temporary
            # (an isfinite(u) temporary made 1.8x the page faults at (64, 256))
            if not math.isfinite(u.sum()) and not np.isfinite(u).all():
                first = np.argwhere(~np.isfinite(u))[0]
                raise BlowUpError(float(t_next), member=int(first[0]) if u.ndim > 1 else None,
                                  mode=int(first[-1]))
            if times is not None and (i + 1) % record_every == 0:
                rec = (i + 1) // record_every
                times[rec], us[rec], vs[rec] = t_next, u, v
    return u, v, nl_prev


def run(initial: ModalState, spec: ModelSpec, basis: Basis, cfg: StepConfig,
        resume: Optional[ResumePoint] = None) -> Trajectory:
    """Integrate and record every cfg.record_every-th step.

    Passing the previous run's ``trajectory.resume`` continues the multistep
    history, so a split run reproduces an unsplit one bit for bit.
    """
    if not math.isclose(initial.t, cfg.t_start, rel_tol=0.0, abs_tol=1e-12):
        raise ValueError("initial state time must equal cfg.t_start")
    n = cfg.n_steps
    if n % cfg.record_every != 0:
        raise ValueError("record_every must divide the step count")
    origin_t, origin_step, nl_prev = cfg.t_start, 0, None
    if resume is not None:
        origin_t, origin_step, nl_prev = resume.origin_t, resume.origin_step, resume.nl_prev

    n_rec = n // cfg.record_every + 1
    times = np.empty(n_rec)
    us = np.empty((n_rec, basis.n_modes))
    vs = np.empty((n_rec, basis.n_modes))
    times[0], us[0], vs[0] = cfg.t_start, initial.u, initial.v
    _, _, nl_prev = _march(initial.u, initial.v, spec, basis, cfg.dt,
                           origin_t, origin_step, n, nl_prev,
                           cfg.record_every, times, us, vs)
    return Trajectory(basis, times, us, vs,
                      resume=ResumePoint(nl_prev, origin_t, origin_step + n))


def evolve_ensemble(us: np.ndarray, vs: np.ndarray, spec: ModelSpec, basis: Basis,
                    t_start: float, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint-only integration of many initial states (rows)."""
    n = StepConfig(dt=dt, t_start=t_start, t_end=t_end).n_steps
    u, v, _ = _march(np.asarray(us, dtype=float), np.asarray(vs, dtype=float), spec, basis,
                     dt, t_start, 0, n, None)
    return u, v


def reconstruct_accel(state: ModalState, spec: ModelSpec, basis: Basis) -> np.ndarray:
    """u_tt of a state that solves the second-order problem (one row per time
    of a batched state), solved pointwise from the modal equation."""
    u, v, t = state.u, state.v, state.t
    mu = basis.eigenvalues
    S = np.asarray(grad_norm_sq(basis, u))[..., None]
    gmod = eval_nonlinearity_modal(spec.g, basis, u)
    eps, _ = eval_epsilon(spec.epsilon, t)
    return ((gmod + eval_h(spec.h, basis.n_modes, t) - (1.0 + spec.delta * S) * mu * u
             - mu * v - spec.lam * u) / np.asarray(eps)[..., None])


@dataclass(frozen=True)
class DecompositionPair:
    """Splitting u = u1 + u2 with u1 carrying the initial data through the
    monotone part of the flow and u2 the forced remainder.

    u1 solves the first-order system

        (1 + delta S(t)) mu a1 + mu a1' + lam a1 = f_m,
        f = phi(u) - phi(u - u1),  phi(s) = g(s) - k_eff s,

    with u1(t0) = u(t0); u2 := u - u1 by subtraction, so the sum invariant is
    exact. u1 and u2 are the coefficients at the parent's records, arrays of
    shape (records, modes); neither solves the second-order problem, so
    neither is a Trajectory. split_error is the Richardson estimate of the
    Heun error of u1 in the gradient norm, sup over the records it compares.
    """

    u1: np.ndarray
    u2: np.ndarray
    k_eff: float
    split_error: float


def _phi_modal(spec: ModelSpec, basis: Basis, u: np.ndarray, k_eff: float) -> np.ndarray:
    return eval_nonlinearity_modal(spec.g, basis, u) - k_eff * u


def run_decomposition(parent: Trajectory, spec: ModelSpec) -> DecompositionPair:
    """Integrate the u1 system by Heun steps on the parent's record grid, and
    once more on every other record.

    Heun is second order, so the error of u1 at a shared record is a third of
    its difference from the coarse pass (Richardson); split_error is the
    largest such gradient norm, 0.0 with fewer than three records.

    The parent's terms (S, the implicit diagonal and phi(u)) are evaluated
    once for all records; each Heun stage evaluates only phi(u - a1), as a1
    is sequential."""
    basis = parent.basis
    mu = basis.eigenvalues
    k_eff = max(spec.g.k, 1e-3)  # phi must be strictly decreasing
    ts, us = parent.times, parent.us
    S = grad_norm_sq(basis, us)[:, None]
    diag = (1.0 + spec.delta * S) * mu + spec.lam
    phi_u = _phi_modal(spec, basis, us, k_eff)

    def heun(ts, us, phi_u, diag) -> np.ndarray:
        def rhs(i: int, a1_val: np.ndarray) -> np.ndarray:
            f = phi_u[i] - _phi_modal(spec, basis, us[i] - a1_val, k_eff)
            return (f - diag[i] * a1_val) / mu

        a1 = np.empty_like(us)
        a1[0] = us[0]
        for i in range(ts.size - 1):
            h = float(ts[i + 1] - ts[i])
            k1 = rhs(i, a1[i])
            k2 = rhs(i + 1, a1[i] + h * k1)
            a1[i + 1] = a1[i] + 0.5 * h * (k1 + k2)
        return a1

    a1 = heun(ts, us, phi_u, diag)
    a1c = heun(ts[::2], us[::2], phi_u[::2], diag[::2])
    split_error = float(np.max(np.sqrt(grad_norm_sq(basis, a1[::2] - a1c)))) / 3.0
    return DecompositionPair(a1, us - a1, k_eff, split_error)
