"""Time integration of the Galerkin system.

In modal coordinates the problem is, per mode m with eigenvalue mu_m,

    eps(t) a_m'' + (1 + delta S) mu_m a_m + mu_m a_m' + lam a_m = g_m + h_m,
    S = |grad u|^2 = sum_j mu_j a_j^2.

The strong damping term mu_m a' is stiff (rates scale with mu_max), so the
one scheme is a diagonal IMEX method of order two: trapezoidal rule on
the linear terms (mu a', mu a, lam a), two-step Adams-Bashforth on g and on
the whole Kirchhoff product delta S mu_m a_m (one explicit Euler bootstrap
step), eps frozen at the half step, forcing averaged over the step
endpoints. Each step is a closed-form diagonal solve, O(N^d) work, run in a
folded form that reassociates it: v_new = c_v v + c_u u + a nl - b nl_prev
+ c_f h_mean and u_new = u + (dt/2)(v + v_new), with five diagonal rows c_v,
c_u, c_f and the AB2 weights a = 1.5 c_f and b = 0.5 c_f, nl the explicit
term and h_mean the forcing mean (see ``_march``). It agrees with the
unfolded trapezoid expressions to roundoff and needs about half their array
passes per step.

The explicit Kirchhoff product scales with mu_max like the linear part, so
a large delta |grad u|^2 limits the stable dt, and that limit is open.
Folding an extrapolated (1 + delta S*) mu_m into the implicit diagonal
removes the blow-up but not the error: where dt does not resolve the
Kirchhoff frequency of the underdamped modes it returns bounded wrong
answers (93-112 % of |grad u_ref| at delta = 50, d = 1, N = 64). A fix
needs a step that stays accurate there and a diagnostic that says when dt
is too coarse.

``run`` and ``evolve_ensemble`` drive one loop, ``_march``, which
takes a leading batch axis. Step i runs from origin + (origin_step + i)*dt;
a resumed run reuses the parent origin, so split runs are bitwise identical
to unsplit ones. u is checked once per block of steps, at the block's last
step: u_new = u + (dt/2)(v + v_new) keeps a non-finite entry non-finite
(inf + finite = inf, inf - inf = NaN, and NaN absorbs everything), and a
non-finite v makes u non-finite in the same step, so a blow-up anywhere in
a block leaves the block's end state non-finite. A call whose check fails
is replayed from its own inputs, which it never writes, with a check after
every step; the replay is deterministic, so a blow-up is still reported at
its exact step, and only a failing call pays for it.

``_march`` allocates ping-pong pairs for u and v once per call and takes
its other work arrays from the calling thread's step workspace, allocated
once per thread and (g, basis, batch shape): a ping-pong pair for the
explicit term (so the AB2 history needs no copy), the step scratch, and the
grid-transform plan of ``nonlinearity_work``, which binds every buffer and
view of the transform stages, so a step's transform is its stage products
and g; its stages and g's grid share two grid-sized arenas. These buffers
are above malloc's mmap threshold, so allocating them per call would map
fresh zeroed pages for every pullback leg (see README).
A workspace lasts as long as its thread: the attractor commands run their
legs on the process's long-lived leg pool (attractor._leg_pool), so a
worker binds its workspace once and keeps it from command to command while
the commands ask for the same worker count.
Every field-sized buffer of a step, the u, v and explicit-term pairs, the
scratch and the plan's arenas, starts on a 64-byte boundary (spectral.empty_aligned):
np.empty aligns only to 16 bytes, so each buffer's place in its cache line
was the heap's, and any allocation change moved it; a misaligned pass
splits its vector loads across two cache lines, which cost a 16-step
(64, 256) leg at d = 2 about a fifth of its time (see spectral).
The steps then run in place with ``out=`` ufuncs that pair the operands
exactly as the folded plain expressions would, so they allocate no
field-sized array and give the same bits. The dt-dependent diagonals, and
the five rows when eps is constant, are formed once per call; what depends
on the step time alone, once per block of at most min(_BLOCK_STEPS,
_ROW_BLOCK_VALUES // n_modes) steps, at its first step: the block's step
ends, forcing means and, when eps varies, rows (closed forms on the step
ends, one math.exp per entry, so the bits of a per-step call). So nothing
a call holds grows with its step count. A model with no explicit term
(g = 0 and delta = 0) skips it: no grid transform runs, the AB2 history is
one zero array, and nothing is done for forcing that is zero.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import ModelSpec, eval_epsilon, forcing_coefficient
from .spectral import (Basis, ModalState, empty_aligned, eval_nonlinearity_modal,
                       grad_norm_sq, nonlinearity_work)


_ROW_BLOCK_VALUES = 1 << 13  # values (64 KB) per array of a block of step rows
_BLOCK_STEPS = 1 << 8  # steps of a block at most, however few modes
MAX_RECORD_VALUES = 1 << 27  # floats (1 GiB) that run's record arrays may hold
_workspace = threading.local()  # each thread's step workspace: see _step_work


class BlowUpError(RuntimeError):
    """Non-finite coefficients encountered.

    ``t`` is the end of the first step whose state is non-finite, ``member``
    the first failing row of a batched state and ``dt`` the step of its pass
    (both None for a single state), and ``mode`` that row's first non-finite
    coefficient. They are the args, so pickle and copy round-trip the error.
    """

    def __init__(self, t: float, member: Optional[int] = None,
                 mode: Optional[int] = None, dt: Optional[float] = None):
        super().__init__(t, member, mode, dt)
        self.t, self.member, self.mode, self.dt = t, member, mode, dt

    def __str__(self) -> str:
        where = [f"{name} {i}" for name, i in (("ensemble member", self.member),
                                               ("mode", self.mode)) if i is not None]
        suffix = f" ({', '.join(where)})" if where else ""
        pass_dt = "" if self.dt is None else f" in the pass at dt = {self.dt:g}"
        return f"non-finite state at t = {self.t:.6g}{suffix}{pass_dt}"


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
        if self.n_steps % self.record_every != 0:
            raise ValueError("record_every must divide the step count")
        far = max(abs(self.t_start), abs(self.t_end))  # the run's largest |t|
        if far + self.dt == far:  # not ValueError, so that a caller can name dt's key
            raise FloatingPointError(f"dt = {self.dt:g} does not move the clock at "
                                     f"|t| = {far:g} (t + dt == t)")

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t_start
        if not math.isfinite(span / self.dt):
            raise ValueError("the step count (t_end - t_start) / dt is not finite")
        n = int(round(span / self.dt))
        if abs(n * self.dt - span) > 1e-9 * max(1.0, abs(span)):
            raise ValueError("time span must be an integer number of steps")
        return n

    @property
    def n_records(self) -> int:
        """Records of a run: the start and every record_every-th step."""
        return self.n_steps // self.record_every + 1


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
    module docstring). kp (u's shape) and S (u's shape with a last axis of 1)
    are scratch. The operands pair as in the plain expression g - kp * S,
    kp = u * mu and S = delta * vecdot(kp, u): four passes over u's shape
    (kp, the row sums, kp * S, the difference), as u * mu is both a factor of
    the sum and the product."""
    g = eval_nonlinearity_modal(spec.g, basis, u, work)
    if spec.delta == 0.0:  # no Kirchhoff product
        np.copyto(out, g)
        return out
    np.multiply(u, basis.eigenvalues, out=kp)
    np.vecdot(kp, u, out=S, keepdims=True)
    np.multiply(S, spec.delta, out=S)
    np.multiply(kp, S, out=kp)
    return np.subtract(g, kp, out=out)


def _step_work(spec: ModelSpec, basis: Basis, shape: tuple) -> tuple:
    """The calling thread's step workspace for a batch of ``shape``: the
    ``nonlinearity_work`` plan (two grid-sized arenas), the explicit-term
    pair, the scratch and S of _explicit_term, the pair and the scratch
    64-byte aligned by empty_aligned, as every pass over them is
    elementwise. The thread holds one; a call
    with another (spec.g, basis, shape) replaces it (g's factor is in the
    plan's inverse matrix), dropping the old buffers before the new are
    made. It lasts as long as the thread, and the workers of the leg pool
    (attractor._leg_pool) live until a call asks for another worker count,
    so an idle worker keeps its workspace: 2.0 MiB at (64, 216), d = 3, and
    1.4 MiB at (64, 256), d = 2. Every array is written before it is read in a step,
    so what a call left behind, a blow-up's non-finite values too, never
    reaches the next."""
    key = (spec.g, basis, shape)
    if getattr(_workspace, "key", None) != key:
        _workspace.key = _workspace.work = None
        _workspace.work = (nonlinearity_work(spec.g, basis, shape[:-1]),
                           (empty_aligned(shape), empty_aligned(shape)),
                           empty_aligned(shape), np.empty(shape[:-1] + (1,)))
        _workspace.key = key
    return _workspace.work


def _march(u, v, spec: ModelSpec, basis: Basis, dt: float,
           origin_t: float, origin_step: int, n: int, nl_prev,
           record_every: int = 1, times=None, us=None, vs=None,
           max_block: int = _BLOCK_STEPS):
    """Advance the batch (u, v) by n steps of dt; the one stepping loop.

    Step i runs from origin_t + (origin_step + i) * dt. When record arrays
    are given, the state after every record_every-th step goes to the next
    row (row 0 is left to the caller). Returns the final (u, v) and the
    explicit term of the last step, the multistep history of a resumed run
    (the workspace's array: the thread's next call may write it, so a caller
    that keeps it copies it). BlowUpError at the end of the first step whose
    u is non-finite.

    One step is the trapezoid/AB2 step, reassociated into five rows: with
    eps_h = eps(t + dt/2) and k = (dt/2) mu + (dt^2/4)(mu + lam),

        v_new = c_v v + c_u u + a nl(u) - b nl_prev + c_f h_mean
            (c_f nl(u) in place of the AB2 pair at the Euler bootstrap),
        u_new = u + (dt/2)(v + v_new),

    c_v = (eps_h - k) / (eps_h + k), c_u = -dt (mu + lam) / (eps_h + k),
    c_f = dt / (eps_h + k), a = 1.5 c_f, b = 0.5 c_f and h_mean =
    0.5 (h(t) + h(t + dt)); with the AB2 weights on the rows, the explicit
    terms take four passes. Every ``block``-th step forms (``refill``) the
    step-time terms of the next ``block`` steps, at most max_block: their
    ends, forcing means and, when eps varies, rows, as (block, n_modes)
    arrays of at most _ROW_BLOCK_VALUES values (64 KB, below malloc's mmap
    threshold, so a block reuses heap pages), by a step's own per-entry
    operations, so with its bits whatever the block; a constant eps has one
    set of rows. u is checked at each block's last step, the call's last
    step included (see the module docstring); when the check fails, the
    call is rerun from its inputs with max_block = 1, so with a check after
    every step, and that rerun raises BlowUpError at the exact step. The
    forcing mean has one nonzero entry, the forced mode's, so c_f h_mean is
    added to that entry of v_new alone, last, in every path (adding the zeros
    of the other modes changes at most the sign of a zero).

    The u and v pairs are allocated here, once per call, by empty_aligned
    (see the module docstring); the other field-sized work arrays are the
    thread's step workspace (``_step_work``), allocated once per thread and
    (g, basis, batch shape), and aligned the same way. u, v and the explicit
    term live in ping-pong pairs: step i writes entry i % 2 and reads the
    other (at i = 0 the caller's arrays, which are never written), so the
    returned u and v belong to this call, start on a 64-byte boundary and
    are written by nothing afterwards (for n = 0, plain copies of the
    caller's). A model with g = 0 and delta = 0 has no explicit term: its
    history is one zero array, and a step adds only c_f h_mean to the
    state's terms.
    """
    mu = basis.eigenvalues
    stiff = mu + spec.lam
    half_dt = dt / 2.0
    k = half_dt * mu + (dt * dt / 4.0) * stiff
    neg_dt_stiff = -dt * stiff
    u = np.ascontiguousarray(u)  # the transform plan views its input as is
    u_in, v_in, nl_in = u, v, nl_prev  # never written, so a failing call can be replayed
    if n == 0:  # copies, so that the returned arrays still belong to this call
        return u.copy(), v.copy(), nl_prev
    shape = u.shape
    explicit = spec.g.kind != "zero" or spec.delta != 0.0
    u_pair, v_pair = ((empty_aligned(shape), empty_aligned(shape)) for _ in range(2))
    if explicit:
        work, nl_pair, scratch, S = _step_work(spec, basis, shape)
    else:
        nl_prev, scratch = np.zeros(shape), empty_aligned(shape)
    # one step per array row; a constant eps has one set of rows, which every
    # entry of step_rows names
    varying_eps = spec.epsilon.kind != "constant"
    forced = spec.h.kind != "zero"
    block = max(1, min(n, max_block, _ROW_BLOCK_VALUES // shape[-1]))
    c_v, c_u, c_f, c_a, c_b = (np.empty((block if varying_eps else 1, shape[-1]))
                               for _ in range(5))
    step_rows = list(zip(c_v, c_u, c_f, c_a, c_b)) * (1 if varying_eps else block)
    if forced:
        m = spec.h.mode - 1
        col = m if len(shape) == 1 else (..., m)  # one state's entry: a scalar op

    def rows(eps_h):
        """The rows at the half-step eps of a column eps_h into the leading
        rows of c_v, c_u, c_f, c_a and c_b; c_f holds eps_h + k until it is
        divided."""
        b = eps_h.shape[0]
        denom = np.add(eps_h, k, out=c_f[:b])
        np.subtract(eps_h, k, out=c_v[:b])
        np.divide(c_v[:b], denom, out=c_v[:b])
        np.divide(neg_dt_stiff, denom, out=c_u[:b])
        np.divide(dt, denom, out=denom)
        np.multiply(denom, 1.5, out=c_a[:b])
        np.multiply(denom, 0.5, out=c_b[:b])

    def refill(i):
        """The ends of steps i .. i + min(block, n - i) - 1 (step i + j runs from
        ends[j] to ends[j + 1]) and, by the functions a step would call, the
        forced mode's entry of each forcing mean 0.5 (h(t) + h(t + dt)) (None
        unforced) and, when eps varies, the rows at eps(t + dt/2)."""
        ends = origin_t + (origin_step + i + np.arange(min(block, n - i) + 1)) * dt
        means = None
        if forced:
            h_ends = forcing_coefficient(spec.h, ends)
            means = 0.5 * (h_ends[:-1] + h_ends[1:])
        if varying_eps:
            rows(eval_epsilon(spec.epsilon, ends[:-1] + half_dt)[0][:, None])
        return ends, means

    if not varying_eps:
        rows(np.full((1, 1), eval_epsilon(spec.epsilon, origin_t)[0]))
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up is detected below
        for i in range(n):
            u_new, v_new = u_pair[i % 2], v_pair[i % 2]
            j = i % block
            if j == 0:
                ends, means = refill(i)
                last = ends.size - 2  # the block's last step
            cv, cu, cf, ca, cb = step_rows[j]
            # v_new = c_v v + c_u u + c_a nl - c_b nl_prev + c_f h_mean
            # (c_f nl at the Euler bootstrap)
            np.multiply(v, cv, out=v_new)
            np.multiply(u, cu, out=scratch)
            np.add(v_new, scratch, out=v_new)
            if explicit:
                nl_cur = _explicit_term(spec, basis, u, work, scratch, S, nl_pair[i % 2])
                np.multiply(nl_cur, cf if nl_prev is None else ca, out=scratch)
                np.add(v_new, scratch, out=v_new)
                if nl_prev is not None:
                    np.multiply(nl_prev, cb, out=scratch)
                    np.subtract(v_new, scratch, out=v_new)
                nl_prev = nl_cur
            if forced:
                v_new[col] += cf[m] * means[j]
            # u_new = u + (dt/2)(v + v_new)
            np.add(v, v_new, out=u_new)
            np.multiply(u_new, half_dt, out=u_new)
            np.add(u_new, u, out=u_new)
            u, v = u_new, v_new
            # checked at the block's last step: a non-finite entry stays non-finite.
            # A finite sum means every entry is finite: one pass and no temporary
            # (an isfinite(u) temporary made 1.8x the page faults at (64, 256))
            if (j == last and not math.isfinite(np.add.reduce(u, axis=None))
                    and not np.isfinite(u).all()):
                if block > 1:  # replay in blocks of one step, to name the first failing one
                    return _march(u_in, v_in, spec, basis, dt, origin_t, origin_step, n,
                                  nl_in, record_every, times, us, vs, max_block=1)
                first = np.argwhere(~np.isfinite(u))[0]
                batched = u.ndim > 1
                raise BlowUpError(float(ends[j + 1]), int(first[0]) if batched else None,
                                  int(first[-1]), dt if batched else None)
            if times is not None and (i + 1) % record_every == 0:
                rec = (i + 1) // record_every
                times[rec], us[rec], vs[rec] = ends[j + 1], u, v
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
    origin_t, origin_step, nl_prev = cfg.t_start, 0, None
    if resume is not None:
        origin_t, origin_step, nl_prev = resume.origin_t, resume.origin_step, resume.nl_prev

    n_rec = cfg.n_records
    times = np.empty(n_rec)
    us = np.empty((n_rec, basis.n_modes))
    vs = np.empty((n_rec, basis.n_modes))
    times[0], us[0], vs[0] = cfg.t_start, initial.u, initial.v
    _, _, nl_prev = _march(initial.u, initial.v, spec, basis, cfg.dt,
                           origin_t, origin_step, n, nl_prev,
                           cfg.record_every, times, us, vs)
    if nl_prev is not None:  # the thread's step workspace, which its next call writes
        nl_prev = nl_prev.copy()
    return Trajectory(basis, times, us, vs,
                      resume=ResumePoint(nl_prev, origin_t, origin_step + n))


def evolve_ensemble(us: np.ndarray, vs: np.ndarray, spec: ModelSpec, basis: Basis,
                    t_start: float, t_end: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint-only integration of many initial states (rows)."""
    n = StepConfig(dt=dt, t_start=t_start, t_end=t_end).n_steps
    u, v, _ = _march(np.asarray(us, dtype=float), np.asarray(vs, dtype=float), spec, basis,
                     dt, t_start, 0, n, None)
    return u, v


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


def _phi_modal(spec: ModelSpec, basis: Basis, u: np.ndarray, k_eff: float,
               work=None) -> np.ndarray:
    return eval_nonlinearity_modal(spec.g, basis, u, work) - k_eff * u


def run_decomposition(parent: Trajectory, spec: ModelSpec) -> DecompositionPair:
    """Integrate the u1 system by Heun steps on the parent's record grid, and
    once more on every other record.

    Heun is second order, so the error of u1 at a shared record is a third of
    its difference from the coarse pass (Richardson); split_error is the
    largest such gradient norm, 0.0 with fewer than three records.

    The parent's terms (S, the implicit diagonal and phi(u)) are evaluated
    once for all records; each Heun stage evaluates only phi(u - a1), as a1
    is sequential, through one transform plan for a single row."""
    basis = parent.basis
    mu = basis.eigenvalues
    k_eff = max(spec.g.k, 1e-3)  # phi must be strictly decreasing
    ts, us = parent.times, parent.us
    S = grad_norm_sq(basis, us)[:, None]
    diag = (1.0 + spec.delta * S) * mu + spec.lam
    phi_u = _phi_modal(spec, basis, us, k_eff)
    work = nonlinearity_work(spec.g, basis, ())

    def heun(ts, us, phi_u, diag) -> np.ndarray:
        def rhs(i: int, a1_val: np.ndarray) -> np.ndarray:
            f = phi_u[i] - _phi_modal(spec, basis, us[i] - a1_val, k_eff, work)
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
