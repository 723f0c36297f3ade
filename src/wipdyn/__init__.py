"""wipdyn: wheeled inverted pendulum dynamics.

Three equivalent formulations of the same mechanism -- the full constrained
model, the symmetry-reduced momentum/shape model, and a Lagrange-multiplier
oracle built from the unconstrained Lagrangian alone -- plus fixed-step
simulation, cross-validation and a scenario CLI.
"""

from .model import (Controls, FullState, Params, ReducedState, f_of_alpha,
                    f_prime, h_const, i_theta, i_theta_prime,
                    lagrangian_case2, lagrangian_full,
                    reduced_constrained_lagrangian, reduced_energy,
                    shape_mass, total_energy)
from .connection import (curvature_at, curvature_fd, ehresmann_at,
                         nonholo_connection)
from .dynamics_full import (FullRhs, accelerations_q6, full_rhs, mass_matrix,
                            momenta_from_full)
from .dynamics_reduced import (ReducedRhs, full_to_reduced, reduced_rhs,
                               reduced_to_full)
from .oracle import (ConstraintViolationError, constraint_matrix,
                     lagrange_dalembert_full, lagrange_dalembert_rhs)
from .sim import (SimulationError, TorqueProfile, Trajectory, rk4_step,
                  simulate, tau_from_u, u_from_tau)
from .validation import (compare_trajectories, constraint_residuals,
                         energy_drift, equivariance_error, holonomic_residual,
                         momentum_pairing, momentum_rate_error,
                         power_balance_error, run_structural_checks)

__version__ = "0.1.0"
