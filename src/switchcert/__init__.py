"""Safety-certified switching among learned motion primitives.

Discrete-time primitive libraries with quadratic Lyapunov certificates,
average-dwell-time switching budgets, certificate synthesis, Monte Carlo
falsification, and a planar leader-following walker scenario built on
stride-to-stride reduced dynamics.
"""

__version__ = "0.1.0"

from .primitives import (
    BasinReport,
    ContractionReport,
    Primitive,
    PrimitiveLibrary,
    PrimitiveMap,
    QuadraticLyapunov,
    certify_basin,
    sample_in_sublevel_set,
    verify_contraction,
)
from .library_io import (
    library_fingerprint,
    library_from_dict,
    library_to_dict,
    load_library,
    save_library,
)
from .switching import (
    DwellTimeBudget,
    DwellTimeReport,
    Supervisor,
    SwitchingSignal,
    count_switches,
    heading_policy,
    supervise_batch,
    validate_dwell_time,
)
from .simulation import (
    CampaignReport,
    DisturbanceSequence,
    Trace,
    budget_from_certificate,
    derive_rng,
    monte_carlo,
    run,
)
from .certificates import (
    Certificate,
    ContainmentReport,
    KappaDiagnostic,
    MarginEstimate,
    SynthesisResult,
    default_epsilon,
    default_kappa_grid,
    dwell_time_bound,
    estimate_disturbance_margin,
    feasibility_check,
    mu_analytic,
    mu_grid,
    omega_analytic,
    omega_grid,
    synthesize_certificate,
)
from .walker import (
    LeaderModel,
    Pose,
    ScenarioTrace,
    StridePrimitive,
    WalkerScenario,
    force_bearing,
    integrate_stride_force,
    load_scenario,
    run_scenario,
    shipped_certificate,
    shipped_stride_primitives,
    shipped_walker_library,
    stride_update,
    wrap_angle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
