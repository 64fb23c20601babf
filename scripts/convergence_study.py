"""Step-size refinement table for the single-mode strongly damped oscillator.

Prints the error of imex2 at t = 1 against the closed-form solution for a
range of dt, plus the observed order between consecutive rows. Expected:
clean second order.

Usage: python scripts/convergence_study.py
"""

import numpy as np

import kwavelab as kw


def closed_form(mu, lam, u0, v0, t):
    r1, r2 = np.roots([1.0, mu, mu + lam])
    A = np.linalg.solve(np.array([[1.0, 1.0], [r1, r2]]), np.array([u0, v0]))
    return float((A[0] * np.exp(r1 * t) + A[1] * np.exp(r2 * t)).real)


if __name__ == "__main__":
    spec = kw.ModelSpec()
    basis = kw.Basis(1, 1)
    mu = basis.eigenvalues[0]
    exact = closed_form(mu, 0.0, 1.0, 0.0, 1.0)

    print(f"scheme = imex2, exact a(1) = {exact:.12e}")
    print(f"{'dt':>10} {'error':>14} {'order':>8}")
    prev = None
    for dt in (4e-3, 2e-3, 1e-3, 5e-4, 2.5e-4):
        ic = kw.ModalState(np.array([1.0]), np.array([0.0]), 0.0)
        cfg = kw.StepConfig(dt=dt, t_start=0.0, t_end=1.0,
                            record_every=int(round(1.0 / dt)))
        traj = kw.run(ic, spec, basis, cfg)
        err = abs(traj.us[-1, 0] - exact)
        order = "" if prev is None else f"{np.log2(prev / err):8.3f}"
        print(f"{dt:>10.2e} {err:>14.6e} {order:>8}")
        prev = err
