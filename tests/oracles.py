"""Test oracles that no command runs: the delta-difference run and its
energy, plus one-line constructors of the states the tests start from."""

import dataclasses

import numpy as np

from kwavelab.integrator import run
from kwavelab.model import eval_epsilon
from kwavelab.spectral import ModalState, grad_norm_sq, inner, norm_sq


def zero_state(basis, t=0.0):
    return ModalState(np.zeros(basis.n_modes), np.zeros(basis.n_modes), t)


def record(traj, i):
    """Record i of a trajectory as a single state (i = -1: the last)."""
    return ModalState(traj.us[i], traj.vs[i], float(traj.times[i]))


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
