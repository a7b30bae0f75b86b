"""Open-system simulation of optomechanical STIRAP between two mechanical
modes coupled through one optical cavity mode."""

__version__ = "0.1.0"

from .hilbert import (
    DensityMatrix,
    Generator,
    HilbertSpace,
    StateVector,
    coherent_state,
    destroy,
    embed,
    expectation,
    fock_state,
    ladder,
    number_operator,
    product_density,
    thermal_state,
)
from .model import (
    DriveCoefficients,
    DriveSchedule,
    SystemParams,
    bose_occupancy,
    chain_hamiltonian,
    collective_operators,
    dark_state,
    envelope,
    hamiltonian_generator,
    mixing_angle,
)
from .dynamics import (
    IntegratorConfig,
    IntegratorStats,
    LindbladModel,
    Trajectory,
    evolve,
    lindblad_rhs,
    propagator_oracle,
    thermal_collapse_terms,
)
from .analysis import (
    fidelity,
    negativity,
    partial_trace,
    trace_fidelity,
    wigner_single_mode,
)
from .protocols import (
    InitialStateSpec,
    PlannerInputs,
    Scenario,
    TargetSpec,
    analytic_final_state,
    cooling_steady_state,
    detection_budget,
    heralded_initial_state,
    run_interferometry,
    run_scenario,
    run_scenarios,
    visibility_model,
)
from .adiabatic import (
    AdiabaticityReport,
    adiabaticity_bounds,
    dark_gap_spectrum,
    lambert_w0,
    optomechanical_damping,
    resonance_check,
    transfer_time_window,
    walk_growth_slope,
)
from .sweep import SweepAxis, SweepResult, extract_contours, run_sweep
