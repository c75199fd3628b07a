"""Safety-certified switching among learned motion primitives.

Discrete-time primitive libraries with quadratic Lyapunov certificates,
average-dwell-time switching budgets, certificate synthesis, Monte Carlo
falsification, and a planar leader-following walker scenario built on
stride-to-stride reduced dynamics.
"""

__version__ = "0.1.0"

from .primitives import Primitive, PrimitiveLibrary, PrimitiveMap, QuadraticLyapunov
from .library_io import load_library, save_library
from .switching import DwellTimeBudget, SwitchingSignal, count_switches, validate_dwell_time
from .simulation import estimate_disturbance_margin, monte_carlo, run
from .certificates import (Certificate, mu_analytic, mu_grid, omega_analytic, omega_grid,
                           synthesize_certificate)
from .walker import load_scenario, run_scenario, shipped_certificate, shipped_walker_library

# What the acceptance gate, the README's Python API and CI's scripts use, and
# each input kind's loader; every other name is imported from its module.
__all__ = [
    "Certificate", "DwellTimeBudget", "Primitive", "PrimitiveLibrary", "PrimitiveMap",
    "QuadraticLyapunov", "SwitchingSignal",
    "count_switches", "estimate_disturbance_margin", "load_library", "load_scenario",
    "monte_carlo",
    "mu_analytic", "mu_grid", "omega_analytic", "omega_grid",
    "run", "run_scenario", "save_library", "shipped_certificate", "shipped_walker_library",
    "synthesize_certificate", "validate_dwell_time",
]
