"""Command-line driver.

Subcommands: ``certify`` (synthesize and write a safety certificate),
``validate`` (check a switching signal against a dwell-time budget),
``simulate`` (Monte Carlo campaign under a certificate), ``scenario``
(closed-loop leader-following walker run).

Every output directory receives exactly one ``run_manifest.json`` recording
the tool version, input hashes, seed, and resolved parameters; reruns with
the same inputs and seed reproduce all other output bytes exactly.

Environment variables prefixed ``SWITCHCERT_`` provide defaults for the
global options ``--seed`` and ``--out-dir`` (``SWITCHCERT_SEED``,
``SWITCHCERT_OUT_DIR``) and for ``scenario --config``
(``SWITCHCERT_CONFIG``); explicit flags win.

Paths given as flags resolve against the working directory; a path inside
a scenario config resolves against the config file's directory.

Exit codes: 0 success (certify: feasible), 1 input error, 2 infeasible,
3 invalid signal.
"""

from __future__ import annotations

import argparse
import hashlib
import locale  # noqa: F401  argparse's gettext would import it inside build_parser
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

# Libraries are parsed by library_io.library_from_dict, looked up at call
# time: perfbench's tracer wraps it on its module.
from . import __version__, library_io
from .certificates import DEFAULT_N0_CANDIDATES, Certificate, synthesize_certificate
from .library_io import SHIPPED_CERTIFICATE, SHIPPED_LIBRARY, read_document, write_document
from .simulation import estimate_disturbance_margin, monte_carlo
from .switching import DwellTimeBudget, SwitchingSignal, validate_dwell_time
from .walker import load_scenario, run_scenario, scenario_certificate_source

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID_SIGNAL = 3

_ENV_PREFIX = "SWITCHCERT_"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; 2 means infeasible here, so remap.
    def error(self, message):
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _env_default(name: str, fallback=None):
    return os.environ.get(_ENV_PREFIX + name, fallback)


def _seed(text: str) -> int:
    """A root seed: an integer in 0..2**128 - 1, the key of every Philox
    stream derived from it."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    if int(text) >= 1 << 128:
        raise argparse.ArgumentTypeError(f"seed must be below 2**128, got {text!r}")
    return int(text)


def _write_manifest(out_dir: Path, subcommand: str, seed: int,
                    inputs: dict[str, tuple[str, bytes]], resolved: dict,
                    started: float) -> None:
    manifest = {
        "format": "switchcert-run-manifest",
        "version": 1,
        "tool_version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "inputs": {
            role: {"path": str(path), "sha256": hashlib.sha256(raw).hexdigest()}
            for role, (path, raw) in sorted(inputs.items())
        },
        "resolved": resolved,
        "duration_seconds": time.time() - started,
    }
    write_document(out_dir / "run_manifest.json", manifest)


def _out_dir(args) -> Path:
    if args.out_dir is None:
        raise ValueError("--out-dir is required for this subcommand")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_certify(args) -> int:
    started = time.time()
    library, raw = read_document(args.library, library_io.library_from_dict)
    if args.margin_trials < 0:
        raise ValueError("--margin-trials must be nonnegative")
    out = _out_dir(args)
    result = synthesize_certificate(library, epsilon=args.epsilon)
    lines = [
        f"library: {args.library}  members: {len(library)}  "
        f"contraction rate: {library.contraction_rate!r}",
        "method: exact",
        "",
        f"{'kappa':>14} {'omega':>14} {'mu':>12} {'na_bar':>10}  feasible_n0",
    ]
    for diag in result.diagnostics:
        n0s = ",".join(str(n) for n in diag.feasible_n0) or "-"
        lines.append(
            f"{diag.kappa:>14.6e} {diag.omega:>14.6e} {diag.mu:>12.6f} "
            f"{diag.na_bar:>10.4f}  {n0s}")
    lines.append("")
    resolved = {
        "method": "exact",
        "n0_candidates": list(DEFAULT_N0_CANDIDATES),
        "margin_trials": args.margin_trials,
    }
    if result.feasible:
        certificate = result.certificate
        if args.margin_trials:
            estimate = estimate_disturbance_margin(
                library, certificate, trial_budget=args.margin_trials, seed=args.seed)
            certificate = replace(certificate, delta_hat=estimate.delta_hat)
            lines.append(f"disturbance margin estimate: {estimate.delta_hat!r} "
                         f"(upper {estimate.upper!r}, {args.margin_trials} episodes "
                         f"shared by every amplitude)")
        lines.append(
            "FEASIBLE: "
            f"kappa={certificate.kappa!r} n0_bar={certificate.n0_bar} "
            f"na_bar={certificate.na_bar!r} mu={certificate.mu!r} "
            f"omega={certificate.omega!r}")
        lines.append("bound kinds: omega exact, mu exact"
                     + (", delta_hat sampled" if args.margin_trials else ""))
        if certificate.na_bar <= 1.0:
            lines.append("na_bar <= 1: the budget admits a switch at every step")
        certificate.save(out / "certificate.json")
        code = EXIT_OK
    else:
        lines.append(f"INFEASIBLE: {result.reason}")
        code = EXIT_INFEASIBLE
    report = "\n".join(lines) + "\n"
    (out / "certify_report.txt").write_text(report)
    sys.stdout.write(report)
    _write_manifest(out, "certify", args.seed, {"library": (args.library, raw)},
                    resolved, started)
    return code


def cmd_validate(args) -> int:
    started = time.time()
    raw = Path(args.signal).read_bytes()
    signal = SwitchingSignal.from_csv(args.signal, raw)
    budget = DwellTimeBudget(n0=args.n0, na=args.na)
    report = validate_dwell_time(signal, budget)
    verdict = "VALID" if report.valid else "INVALID"
    text = (
        f"signal: {args.signal}  steps: {len(signal)}  "
        f"switches: {report.switch_count}\n"
        f"budget: n0={budget.n0!r} na={budget.na!r}\n"
        f"worst interval: {list(report.worst_interval)}  "
        f"slack: {report.worst_slack!r}\n"
        f"{verdict}\n"
    )
    sys.stdout.write(text)
    if args.out_dir is not None:
        out = _out_dir(args)
        (out / "validation_report.txt").write_text(text)
        write_document(out / "validation_report.json", {
            "valid": report.valid,
            "switch_count": report.switch_count,
            "worst_interval": list(report.worst_interval),
            "worst_slack": report.worst_slack,
            "n0": budget.n0,
            "na": budget.na,
        })
        _write_manifest(out, "validate", args.seed, {"signal": (args.signal, raw)},
                        {"n0": budget.n0, "na": budget.na}, started)
    return EXIT_OK if report.valid else EXIT_INVALID_SIGNAL


def cmd_simulate(args) -> int:
    started = time.time()
    library, lraw = read_document(args.library, library_io.library_from_dict)
    certificate, craw = read_document(args.certificate, Certificate.from_dict)
    out = _out_dir(args)
    report, traces = monte_carlo(
        library, certificate,
        episode_count=args.episodes,
        horizon=args.horizon,
        disturbance_amplitude=args.amplitude,
        seed=args.seed,
        keep_traces=args.keep_traces,
    )
    write_document(out / "campaign_summary.json", report.to_dict())
    for index, trace in enumerate(traces):
        trace.to_csv(out / f"trace_{index:04d}.csv")
    resolved = {
        "episodes": args.episodes,
        "horizon": args.horizon,
        "amplitude": args.amplitude,
        "keep_traces": args.keep_traces,
    }
    _write_manifest(
        out, "simulate", args.seed,
        {"library": (args.library, lraw), "certificate": (args.certificate, craw)},
        resolved, started)
    sys.stdout.write(
        f"episodes: {report.episodes}  violations: {report.violation_count} "
        f"(rate {report.violation_rate!r})\n"
        f"trapping level: {report.trapping_level!r}\n")
    return EXIT_OK


def cmd_scenario(args) -> int:
    started = time.time()
    if args.config is None:
        raise ValueError("--config is required for scenario")
    base_dir = Path(args.config).parent

    def build(config):
        source = args.certificate
        if source is None:
            source = scenario_certificate_source(config, base_dir)
        certificate, raw = read_document(source, Certificate.from_dict)
        return load_scenario(config, base_dir, args.mode, certificate), (source, raw)

    (scenario, certificate_input), raw = read_document(args.config, build)
    out = _out_dir(args)
    trace = run_scenario(scenario)
    trace.write_outputs(out)
    trace.write_ellipses(out, scenario.reduced_library, scenario.certificate)
    summary = trace.summary()
    write_document(out / "summary.json", summary)
    inputs = {"config": (args.config, raw), "certificate": certificate_input}
    resolved = {
        "mode": trace.mode,
        "strides": trace.stride_count,
        "dead_zone": scenario.dead_zone,
        "initial_primitive": scenario.initial_primitive,
    }
    _write_manifest(out, "scenario", args.seed, inputs, resolved, started)
    sys.stdout.write(
        f"mode: {summary['mode']}  strides: {summary['strides']}  "
        f"switches: {summary['switch_count']}\n"
        f"max lateral deviation: {summary['max_lateral_deviation']!r}\n"
        f"final lateral deviation: {summary['final_lateral_deviation']!r}\n"
        f"reduced trace in all basins: {summary['reduced_in_all_basins']}\n")
    return EXIT_OK


def _certify_options(p) -> None:
    p.add_argument("--library", required=True,
                   help=f"library JSON path, or '{SHIPPED_LIBRARY}'")
    p.add_argument("--epsilon", type=float, default=None,
                   help="decay target in (rate, 1); default rate + 0.9*(1 - rate)")
    p.add_argument("--margin-trials", type=int, default=0,
                   help="episodes for the disturbance margin estimate, drawn "
                        "once and shared by every amplitude (0 skips it)")


def _validate_options(p) -> None:
    p.add_argument("--signal", required=True, help="signal CSV path")
    p.add_argument("--n0", type=float, required=True, help="burst allowance")
    p.add_argument("--na", type=float, required=True, help="average dwell time")


def _simulate_options(p) -> None:
    p.add_argument("--library", required=True,
                   help=f"library JSON path, or '{SHIPPED_LIBRARY}'")
    p.add_argument("--certificate", required=True,
                   help=f"certificate JSON path, or '{SHIPPED_CERTIFICATE}'")
    p.add_argument("--episodes", type=int, default=100)
    p.add_argument("--horizon", type=int, default=200)
    p.add_argument("--amplitude", type=float, default=0.0,
                   help="disturbance sup-norm bound (default 0)")
    p.add_argument("--keep-traces", type=int, default=0,
                   help="write the first N episode traces as CSV")


def _scenario_options(p) -> None:
    p.add_argument("--config", default=_env_default("CONFIG"), help="scenario config JSON")
    p.add_argument("--mode", default=None,
                   help="override the config mode: adaptive or fixed:<id>")
    p.add_argument("--certificate", default=None,
                   help=f"certificate JSON path, or '{SHIPPED_CERTIFICATE}'; "
                        "overrides the config's certificate")


# name: (summary for --help, command, adder of the subcommand's own options)
_SUBCOMMANDS = {
    "certify": ("synthesize a certificate for a primitive library", cmd_certify, _certify_options),
    "validate": ("validate a switching signal against a budget", cmd_validate, _validate_options),
    "simulate": ("Monte Carlo campaign under a certificate", cmd_simulate, _simulate_options),
    "scenario": ("closed-loop leader-following walker run", cmd_scenario, _scenario_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or one holding only the subcommand ``command`` names."""
    parser = _Parser(prog="switchcert", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _SUBCOMMANDS else _SUBCOMMANDS:
        summary, func, add_options = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        # argparse passes a string default through ``type`` too
        p.add_argument("--seed", type=_seed, default=_env_default("SEED", "0"),
                       help="root seed for all randomness, an integer in 0..2**128 - 1 "
                            "(default 0)")
        p.add_argument("--out-dir", default=_env_default("OUT_DIR"),
                       help="directory for outputs and the run manifest")
        add_options(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits directly for --help (0) and usage errors (remapped
        # to the input-error code by _Parser); surface that as a return value
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
