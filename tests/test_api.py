"""The package's public surface, and the order its modules import one another."""

import ast
import inspect
from pathlib import Path

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

# The modules compose bottom-up: each imports only from earlier layers.  The
# proven set constants (certificates) and the rollout estimates (simulation)
# share a layer, so neither imports the other.  The package itself imports
# every module but cli, which reads its ``__version__``.
LAYERS = [
    {"primitives"},
    {"library_io"},
    {"switching"},
    {"certificates", "simulation"},
    {"walker"},
    {"__init__"},
    {"cli"},
]


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert sorted(switchcert.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 23
    for name in PUBLIC_NAMES:
        assert getattr(switchcert, name) is not None, name


def package_imports(path: Path, modules: set[str]) -> set[str]:
    """The package modules that the source file ``path`` imports.  The
    package imports itself only relatively, and a name ``from . import``-ed
    that is not a module comes from ``__init__``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "switchcert" for a in node.names), path.name
        elif isinstance(node, ast.ImportFrom) and not node.level:
            assert (node.module or "").split(".")[0] != "switchcert", path.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name if a.name in modules else "__init__" for a in node.names)
    return found


def test_modules_import_only_earlier_layers():
    package = Path(switchcert.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    assert modules == set().union(*LAYERS)
    for rank, layer in enumerate(LAYERS):
        below = set().union(*LAYERS[:rank])
        for module in layer:
            imported = package_imports(package / f"{module}.py", modules)
            assert imported <= below, (module, sorted(imported - below))
    for module, other in (("certificates", "simulation"), ("simulation", "certificates")):
        assert other not in package_imports(package / f"{module}.py", modules)


def bare_signature(fn) -> str:
    """``fn``'s signature as names, kinds and defaults, without annotations."""
    signature = inspect.signature(fn)
    return str(signature.replace(
        parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
        return_annotation=signature.empty))


def test_synthesis_and_the_margin_take_only_the_options_they_set():
    # synthesis writes exact constants only, and the margin's search is the
    # fixed one of simulation's MARGIN_* constants
    assert bare_signature(switchcert.synthesize_certificate) == "(library, *, epsilon=None)"
    assert (bare_signature(switchcert.estimate_disturbance_margin)
            == "(library, certificate, trial_budget, seed)")
