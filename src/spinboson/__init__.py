"""Non-Markovian open-system dynamics for the spin-boson model.

A second-order time-local master equation with pluggable system operators
and bath correlations, instantiated in closed form for a two-level system
coupled to discrete bosonic modes at arbitrary temperature, together with
an exact truncated-Fock-space reference solver for validation.
"""

__version__ = "0.1.0"

from .master_eq import (BathStatistics, InteractionDecomposition,
                        StepDoublingError, TraceDriftError, Trajectory,
                        propagate, propagate_scaled, rhs)
from .oracle import (BathDimensionError, TruncatedBath, dyson_terms,
                     exact_reduced_dynamics, exact_scaled_dynamics, full_hamiltonian,
                     map_inversion_residual, reduced_map_deviation,
                     thermal_bath_state)
from .spin_boson import (RateChannel, RateFunctions, SpectralDiscretization,
                         SpinBosonModel, bath_statistics, coherence_solution,
                         element_ode_matrix, flat_density,
                         interaction_decomposition, markov_rates,
                         ohmic_density, population_solution, rate_functions,
                         second_order_hamiltonian, thermal_occupation,
                         vacuum_rates, vacuum_rhs)

__all__ = [
    "__version__",
    # master equation engine
    "InteractionDecomposition", "BathStatistics", "Trajectory",
    "TraceDriftError", "StepDoublingError", "rhs", "propagate", "propagate_scaled",
    # spin-boson model
    "SpinBosonModel", "SpectralDiscretization", "RateChannel", "RateFunctions",
    "thermal_occupation", "rate_functions", "second_order_hamiltonian",
    "element_ode_matrix", "coherence_solution", "population_solution",
    "vacuum_rates", "vacuum_rhs", "markov_rates", "ohmic_density",
    "flat_density", "interaction_decomposition", "bath_statistics",
    # exact reference
    "TruncatedBath", "BathDimensionError", "full_hamiltonian",
    "thermal_bath_state", "exact_reduced_dynamics", "exact_scaled_dynamics", "dyson_terms",
    "reduced_map_deviation", "map_inversion_residual",
]
