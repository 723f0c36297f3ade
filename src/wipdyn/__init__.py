"""wipdyn: wheeled inverted pendulum dynamics.

Three equivalent formulations of the same mechanism -- the full constrained
model, the symmetry-reduced momentum/shape model, and a Lagrange-multiplier
oracle built from the unconstrained Lagrangian alone -- plus fixed-step
simulation, cross-validation and a scenario CLI.
"""

from .model import (Controls, FullState, Params, ReducedState, f_of_alpha,
                    h_const, i_theta, lagrangian_full, reduced_energy,
                    shape_mass, total_energy)
from .connection import (curvature_at, curvature_fd, ehresmann_at,
                         nonholo_connection)
from .dynamics_full import accelerations_q6
from .dynamics_reduced import full_to_reduced, reduced_to_full
from .oracle import (ConstraintViolationError, constraint_matrix,
                     lagrange_dalembert_full, lagrange_dalembert_rhs)
from .sim import (SimulationError, TorqueProfile, Trajectory, rk4_step,
                  simulate, u_from_tau)
from .validation import (compare_trajectories, energy_drift,
                         equivariance_error, holonomic_residual,
                         momentum_pairing, momentum_rate_error,
                         power_balance_error, run_structural_checks)

__version__ = "0.1.0"
