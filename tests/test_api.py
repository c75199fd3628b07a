"""The package's public surface."""

import switchcert

# What the acceptance gate, the README's Python API block and CI's scripts
# import from the package, plus each input kind's loader.
PUBLIC_NAMES = [
    "Certificate", "DwellTimeBudget", "Primitive", "PrimitiveLibrary", "PrimitiveMap",
    "QuadraticLyapunov", "SwitchingSignal",
    "count_switches", "estimate_disturbance_margin", "load_library", "load_scenario",
    "monte_carlo",
    "mu_analytic", "mu_grid", "omega_analytic", "omega_grid",
    "run", "run_scenario", "save_library", "shipped_certificate", "shipped_walker_library",
    "synthesize_certificate", "validate_dwell_time",
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert sorted(switchcert.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 23
    for name in PUBLIC_NAMES:
        assert getattr(switchcert, name) is not None, name
