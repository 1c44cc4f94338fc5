"""Exact simulation and certificates for a reset-and-increment spiking network.

The model: N neurons, each carrying a nonnegative membrane potential. Neuron
i fires at rate delta + slope * x_i; firing resets it to zero and adds the
synaptic weight W[i][j] to every other neuron j. The package simulates this
jump process exactly, enumerates its reachable states inside a coordinate
box, solves for the stationary law, and evaluates explicit drift,
variance-to-energy, and exponential-tail certificates against exact and
Monte Carlo ground truth.
"""

__version__ = "0.1.0"

from .model import (
    IntensityFunction,
    JumpWindow,
    LyapunovCertificate,
    PotentialState,
    SynapticNetwork,
    apply_generator,
    carre_du_champ,
    check_lyapunov_pointwise,
    intensity_at,
    jump_map,
    jump_window_probabilities,
    lyapunov_constants,
    network_from_json,
    network_to_json,
    total_intensity,
)
from .simulate import (
    EstimatorResult,
    Trajectory,
    TrajectoryEvent,
    TrajectoryEvents,
    empirical_tail,
    ergodic_average,
    estimate_ensemble,
    estimate_semigroup,
    estimate_weight_F,
    next_event,
    simulate_path,
)
from .statespace import (
    EnumeratedSpace,
    SparseGenerator,
    StateSpaceCapExceeded,
    assemble_generator,
    enumerate_states,
    export_matrix_market,
    export_state_table,
    saturate,
)
from .spectral import (
    DegenerateModelError,
    GapResult,
    StationaryDistribution,
    gamma_vector,
    poincare_constant,
    propagate_function,
    semigroup_variance_profile,
    stationary,
    transient_distribution,
    variance_and_energy,
    weighted_F_exact,
    weighted_F_vector,
)
from .certificates import (
    C3GeneralReport,
    C3SumReport,
    ConcentrationCertificate,
    PathMethodReport,
    SemigroupReport,
    TalagrandReport,
    TalagrandRow,
    admissible_lambda,
    compute_C3_general,
    compute_C3_sum_function,
    lambda0_product,
    make_function_suite,
    max_peak_time,
    measure_lyapunov_tail_constant,
    path_method_C0,
    semigroup_poincare_report,
    solve_admissible_lambda,
    talagrand_verdict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
