"""kwavelab: spectral laboratory for damped Kirchhoff waves.

Discretizes

    eps(t) u_tt - (1 + delta |grad u|^2) Lap u - Lap u_t + lam u = g(u) + h(x, t)

with a sine-Galerkin basis on the unit box, evaluates the energy functionals
governing its long-time behaviour, and approximates pullback attractor
clouds together with their limit as delta -> 0+.
"""

from .model import (EpsilonProfile, ForcingSpec, HypothesisReport, ModelSpec,
                    NonlinearitySpec, eval_epsilon, eval_g, eval_h,
                    validate_hypotheses)
from .spectral import (Basis, ModalState, eval_nonlinearity_modal, from_grid,
                       grad_norm_sq, norm_sq, to_grid, xt_norm_sq, zero_state)
from .integrator import (BlowUpError, DecompositionPair, StepConfig,
                         Trajectory, evolve_ensemble, reconstruct_accel, run,
                         run_decomposition, run_difference)
from .energy import (EnergyLedger, EnergyParams, FeasibilityReport,
                     build_ledger, eval_B, eval_E, eval_Etilde, eval_I,
                     eval_K, eval_L, fit_norm_sandwich, solve_feasibility,
                     verify_decay_inequality)
from .attractor import (AttractorCloud, EnsembleSpec, hausdorff_semidist,
                        pullback_cloud, semicontinuity_sweep, verify_absorbing)

__version__ = "0.1.0"
