"""Test oracles that no command runs: the IMEX step in plain expressions
(folded, as the integrator runs it, and unfolded), to_grid's map in its
first-to-last axis order, the cubic's Galerkin projection by a midpoint rule,
u_tt from the modal equation, the delta-difference run and its energy, the
per-cell CSV writer, plus one-line constructors of the states the tests start
from."""

import dataclasses
import math

import numpy as np

from kwavelab.integrator import run
from kwavelab.model import eval_epsilon, eval_h
from kwavelab.spectral import (ModalState, _dst_matrix, eval_nonlinearity_modal,
                               grad_norm_sq, inner, norm_sq)


def zero_state(basis, t=0.0):
    return ModalState(np.zeros(basis.n_modes), np.zeros(basis.n_modes), t)


def record(traj, i):
    """Record i of a trajectory as a single state (i = -1: the last)."""
    return ModalState(traj.us[i], traj.vs[i], float(traj.times[i]))


def midpoint_projection(basis, f, cells):
    """Galerkin projection of the soft cubic g(u) = -u^3 and (G(u), 1) by the
    midpoint rule on `cells` cells per dimension, for one field or a batch of
    rows. Each integrand is a cosine polynomial of wavenumber <= 4N per
    dimension, which the rule integrates exactly once cells > 2N."""
    x = (np.arange(cells) + 0.5) / cells
    k = np.arange(1, basis.modes_per_dim + 1)
    S = math.sqrt(2.0) * np.sin(np.pi * np.outer(k, x))  # modes x nodes
    phi = S
    for _ in range(basis.dim - 1):
        phi = np.einsum("ai,bj->abij", phi, S).reshape(phi.shape[0] * S.shape[0], -1)
    u = f @ phi
    weight = 1.0 / cells ** basis.dim
    return weight * ((-u ** 3) @ phi.T), weight * np.sum(-0.25 * u ** 4, axis=-1)


def accel(state, spec, basis):
    """u_tt of a state that solves the second-order problem (one row per time
    of a batched state): the modal equation
        eps u_tt = g_m + h_m - (1 + delta |grad u|^2) mu_m u_m - mu_m v_m - lam u_m
    solved for it in plain expressions, every term its own: eps and h in
    closed form by np.exp, |grad u|^2 = sum_m mu_m u_m^2, and g_m of a cubic
    by midpoint_projection."""
    u, v = state.u, state.v
    t = np.asarray(state.t, dtype=float)[..., None]
    mu = basis.eigenvalues
    eps = spec.epsilon.alpha + (0.0 if spec.epsilon.kind == "constant"
                                else spec.epsilon.amplitude * np.exp(-t))
    h = np.zeros(u.shape)
    if spec.h.kind == "separable":
        h[..., spec.h.mode - 1] = spec.h.amplitude * np.exp(-spec.h.rate * np.abs(t[..., 0]))
    if spec.g.kind not in ("zero", "cubic_soft"):
        raise ValueError(f"no plain projection of g kind {spec.g.kind!r}")
    g = (0.0 if spec.g.kind == "zero" else
         spec.g.coeff * midpoint_projection(basis, u, 4 * basis.modes_per_dim)[0])
    S = np.sum(mu * u * u, axis=-1, keepdims=True)
    return (g + h - (1.0 + spec.delta * S) * mu * u - mu * v - spec.lam * u) / eps


def imex2_plain(u, v, spec, basis, t_start, dt, n):
    """(u, v) after n IMEX steps from t_start, in the allocating expressions
    that the integrator._march docstring names, with h and eps evaluated at
    every step: an explicit Euler bootstrap step, then AB2 on the rows
    a = 1.5 c_f and b = 0.5 c_f, and c_f times the forcing mean added last.
    u and v are one state or a batch of rows."""
    mu = basis.eigenvalues
    stiff = mu + spec.lam
    k = (dt / 2.0) * mu + (dt * dt / 4.0) * stiff
    nl_prev = None
    for i in range(n):
        t, t_next = t_start + i * dt, t_start + (i + 1) * dt
        nl = eval_nonlinearity_modal(spec.g, basis, u)
        if spec.delta != 0.0:
            kp = u * mu
            S = spec.delta * np.vecdot(kp, u)
            nl = nl - kp * S[..., None]
        h_mean = 0.5 * (eval_h(spec.h, basis.n_modes, t) + eval_h(spec.h, basis.n_modes, t_next))
        eps_h, _ = eval_epsilon(spec.epsilon, t + dt / 2.0)
        denom = eps_h + k
        c_v, c_u, c_f = (eps_h - k) / denom, -dt * stiff / denom, dt / denom
        a, b = 1.5 * c_f, 0.5 * c_f
        if nl_prev is None:
            v_new = c_v * v + c_u * u + c_f * nl
        else:
            v_new = c_v * v + c_u * u + a * nl - b * nl_prev
        v_new = v_new + c_f * h_mean
        u = u + (dt / 2.0) * (v + v_new)
        v = v_new
        nl_prev = nl
    return u, v


def imex2_unfolded(u, v, spec, basis, t_start, dt, n):
    """imex2_plain's step before its reassociation into diagonal rows, in the
    allocating expressions of the trapezoid rule: alpha = u + (dt/2) v,
    v_new = (eps_h v - (dt/2)(mu + lam)(u + alpha) - (dt/2) mu v + dt F) / denom,
    u_new = alpha + (dt/2) v_new. It equals imex2_plain up to roundoff."""
    mu = basis.eigenvalues
    stiff = mu + spec.lam
    half_stiff, half_mu = (dt / 2.0) * stiff, (dt / 2.0) * mu
    quarter_dt2_stiff = (dt * dt / 4.0) * stiff
    nl_prev = None
    for i in range(n):
        t, t_next = t_start + i * dt, t_start + (i + 1) * dt
        nl = eval_nonlinearity_modal(spec.g, basis, u)
        if spec.delta != 0.0:
            S = spec.delta * np.sum(u * u * mu, axis=-1)
            nl = nl - u * mu * S[..., None]
        h_mean = 0.5 * (eval_h(spec.h, basis.n_modes, t) + eval_h(spec.h, basis.n_modes, t_next))
        explicit = nl if nl_prev is None else 1.5 * nl - 0.5 * nl_prev
        force = explicit + h_mean
        eps_h, _ = eval_epsilon(spec.epsilon, t + dt / 2.0)
        denom = eps_h + quarter_dt2_stiff + half_mu
        alpha = u + (dt / 2.0) * v
        v = (eps_h * v - half_stiff * (u + alpha) - half_mu * v + dt * force) / denom
        u = alpha + (dt / 2.0) * v
        nl_prev = nl
    return u, v


def to_grid_first_to_last(basis, f, grid_pts):
    """to_grid's map with the field axes taken from the first to the last:
    a broadcast matmul from the left on every axis but the last, whose
    (-1, N) view then gets one GEMM from the right. It equals to_grid up to
    roundoff."""
    n, m, dim = basis.modes_per_dim, grid_pts - 1, basis.dim
    T = _dst_matrix(n, grid_pts)
    lead = f.shape[:-1]
    x = np.ascontiguousarray(f, dtype=float).reshape(math.prod(lead), n, n ** (dim - 1))
    for a in range(dim - 1):
        x = np.ascontiguousarray(T.T) @ x.reshape(-1, n, n ** (dim - 1 - a))
    return (x.reshape(-1, n) @ T).reshape(lead + (m,) * dim)


def run_difference(spec_a, spec_b, x_a, x_b, basis, cfg):
    """Run two problems that differ only in delta; z = u_a - u_b at every
    record as a batched state: u = z, v = z_t = v_a - v_b, t = the times."""
    if dataclasses.replace(spec_a, delta=0.0) != dataclasses.replace(spec_b, delta=0.0):
        raise ValueError("specs must agree except for delta")
    if x_a.u.shape != x_b.u.shape or x_a.u.shape[-1] != basis.n_modes:
        raise ValueError("initial states must live on the shared basis")
    ta = run(x_a, spec_a, basis, cfg)
    tb = run(x_b, spec_b, basis, cfg)
    return ModalState(ta.us - tb.us, ta.vs - tb.vs, ta.times)


def eval_Etilde(z_state, spec, basis, xi):
    """Difference energy eps|z_t|^2 + 2 xi eps (z_t, z) + (1 + xi)|grad z|^2
    + lam|z|^2 of a z from run_difference (one value per row of a batch)."""
    eps, _ = eval_epsilon(spec.epsilon, z_state.t)
    z, zt = z_state.u, z_state.v
    return (eps * norm_sq(zt) + 2.0 * xi * eps * inner(zt, z)
            + (1.0 + xi) * grad_norm_sq(basis, z) + spec.lam * norm_sq(z))


def write_csv_plain(path, header, rows):
    """The CSV writer as one '%.17g' per cell, the reference whose bytes
    kwavelab.cli._write_csv reproduces."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)
