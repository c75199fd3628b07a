"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line with
the measured quantities once its assertions hold; the pytest verdict for
each test is the pass/fail line for that criterion.

1. The shipped walker library certifies with a burst allowance of 2 and an
   average dwell time at most 1, in under 30 seconds.
2. Analytic set-constant bounds dominate the 201-per-axis grid oracle on at
   least 200 random 2-D libraries, zero violations, in under 5 minutes.
3. 10,000 undisturbed episodes at horizon 200 stay safe, and the observed
   trapping level respects the certified bound.
4. The estimated disturbance margin is positive; 10,000 episodes at 0.9 of
   it stay safe while ten times it produces violations.
5. Every undisturbed step contracts the active Lyapunov value by at least
   the library rate (within 1e-9).
6. Switch counting is subadditive and the dwell-time validator agrees with
   a brute-force interval enumerator on 1,000 random signals.
7. On a straight leader, the fixed-turn ablation drifts at least 4 times as
   far as the adaptive run ever does, and the adaptive reduced trace stays
   inside every basin.
8. Rotating a curved-leader scenario by 90 degrees rotates the walker path
   exactly (within 1e-9 per coordinate).
9. Every CLI subcommand is byte-deterministic across repeated runs.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from switchcert import (
    DwellTimeBudget,
    SwitchingSignal,
    count_switches,
    estimate_disturbance_margin,
    load_scenario,
    monte_carlo,
    mu_analytic,
    mu_grid,
    omega_analytic,
    omega_grid,
    run_scenario,
    save_library,
    synthesize_certificate,
    validate_dwell_time,
)
from switchcert.cli import main as cli_main

from conftest import make_primitive
from switchcert import PrimitiveLibrary
from test_certificates import random_library

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"


def report(number, detail):
    print(f"criterion {number}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def shipped_synthesis(walker_library):
    started = time.time()
    result = synthesize_certificate(walker_library)
    return result, time.time() - started


@pytest.fixture(scope="module")
def undisturbed_campaign(walker_library, walker_certificate):
    report_, _ = monte_carlo(walker_library, walker_certificate, 10_000, 200, 0.0, 20260822)
    return report_


def test_criterion_1_certificate_synthesis(shipped_synthesis):
    result, elapsed = shipped_synthesis
    assert result.feasible
    certificate = result.certificate
    assert certificate.n0_bar == 2
    assert certificate.na_bar <= 1.0
    assert elapsed < 30.0
    report(1, f"n0_bar=2, na_bar={certificate.na_bar:.4f}, {elapsed:.1f}s")


def test_criterion_2_bound_dominance():
    started = time.time()
    rng = np.random.default_rng(20260822)
    cases = 200
    violations = 0
    for _ in range(cases):
        library = random_library(rng, int(rng.integers(2, 5)))
        kappa = float(rng.uniform(0.05, 0.5)) * library.min_basin_level
        if omega_grid(library, kappa, 201) > omega_analytic(library, kappa) * (1 + 1e-12):
            violations += 1
        if mu_grid(library, kappa, 201) > mu_analytic(library, kappa) * (1 + 1e-12):
            violations += 1
    elapsed = time.time() - started
    assert violations == 0
    assert elapsed < 300.0
    report(2, f"{cases} libraries, 0 violations, {elapsed:.1f}s")


def test_criterion_3_undisturbed_soundness(undisturbed_campaign, walker_certificate):
    campaign = undisturbed_campaign
    assert campaign.episodes == 10_000
    assert campaign.violation_count == 0
    bound = walker_certificate.mu ** walker_certificate.n0_bar * walker_certificate.omega
    assert campaign.trapping_level <= bound + 1e-9
    report(
        3,
        f"0/{campaign.episodes} violations, trapping {campaign.trapping_level:.3e} "
        f"<= bound {bound:.3e}",
    )


def test_criterion_4_disturbance_margin(walker_library, walker_certificate):
    estimate = estimate_disturbance_margin(
        walker_library, walker_certificate, trial_budget=200, seed=20260822
    )
    delta = estimate.delta_hat
    assert delta > 0.0
    below, _ = monte_carlo(walker_library, walker_certificate, 10_000, 200, 0.9 * delta, 11)
    assert below.violation_count == 0
    above, _ = monte_carlo(walker_library, walker_certificate, 10_000, 200, 10.0 * delta, 12)
    assert above.violation_rate > 0.0
    report(
        4,
        f"margin {delta:.4f}; 0/10000 at 0.9x; rate {above.violation_rate:.3f} at 10x",
    )


def test_criterion_5_lyapunov_decrease(undisturbed_campaign, walker_library):
    rate = walker_library.contraction_rate
    assert undisturbed_campaign.max_step_ratio <= rate + 1e-9
    report(
        5,
        f"worst per-step ratio {undisturbed_campaign.max_step_ratio:.4f} <= {rate}",
    )


def test_criterion_6_dwell_time_algebra():
    rng = np.random.default_rng(20260822)
    cases = 1000
    for case in range(cases):
        length = int(rng.integers(1, 201))
        ids = rng.integers(0, 4, size=length)
        signal = SwitchingSignal(tuple(int(v) for v in ids))
        n0 = float(rng.uniform(1.0, 3.0))
        na = float(rng.uniform(0.3, 5.0))

        # independent enumerator: switch indicators, prefix sums, and the
        # slack of every interval via broadcasting
        flags = np.zeros(length, dtype=np.int64)
        flags[np.flatnonzero(ids[1:] != ids[:-1]) + 1] = 1
        prefix = np.zeros(length + 1, dtype=np.int64)
        prefix[1:] = np.cumsum(flags)
        a = np.arange(length + 1)[:, None]
        b = np.arange(length + 1)[None, :]
        counts = prefix[None, :] - prefix[a]
        slack = n0 + (b - a) / na - counts
        slack = np.where(b >= a, slack, np.inf)
        expected_worst = float(np.min(slack))

        verdict = validate_dwell_time(signal, DwellTimeBudget(n0=n0, na=na))
        assert abs(verdict.worst_slack - expected_worst) <= 1e-9, case
        assert verdict.valid == (expected_worst >= 0.0), case

        # subadditivity at random split points
        lower = int(rng.integers(0, length + 1))
        upper = int(rng.integers(lower, length + 1))
        mid = int(rng.integers(lower, upper + 1))
        assert count_switches(signal, lower, upper) == count_switches(
            signal, lower, mid
        ) + count_switches(signal, mid, upper)
    report(6, f"{cases} signals, 0 discrepancies")


def test_criterion_7_leader_following(walker_certificate):
    config = json.loads((EXAMPLES / "straight_leader.json").read_text())
    adaptive = run_scenario(load_scenario(config))
    ablation = run_scenario(load_scenario(config, mode_override="fixed:0"))
    assert adaptive.in_all_basins.all()
    ratio = ablation.final_lateral_deviation / adaptive.max_lateral_deviation
    assert ratio >= 4.0
    assert validate_dwell_time(
        adaptive.signal,
        DwellTimeBudget(n0=walker_certificate.n0_bar, na=walker_certificate.na_bar),
    ).valid
    report(
        7,
        f"ablation drift {ablation.final_lateral_deviation:.3f} = "
        f"{ratio:.1f}x adaptive max {adaptive.max_lateral_deviation:.3f}",
    )


def test_criterion_8_rotation_equivariance():
    config = json.loads((EXAMPLES / "curved_leader.json").read_text())
    baseline = run_scenario(load_scenario(config))

    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    turned = json.loads((EXAMPLES / "curved_leader.json").read_text())
    turned["leader"]["waypoints"] = [
        (quarter @ np.array(w)).tolist() for w in config["leader"]["waypoints"]
    ]
    turned["initial_pose"]["position"] = (
        quarter @ np.array(config["initial_pose"]["position"])
    ).tolist()
    turned["initial_pose"]["heading"] = config["initial_pose"]["heading"] + np.pi / 2
    rotated = run_scenario(load_scenario(turned))

    expected = baseline.positions @ quarter.T
    worst = float(np.max(np.abs(rotated.positions - expected)))
    assert worst <= 1e-9
    assert np.array_equal(baseline.signal.assignments, rotated.signal.assignments)
    report(8, f"90-degree rotation error {worst:.2e} <= 1e-9")


def test_criterion_9_cli_determinism(tmp_path):
    single = tmp_path / "single_library.json"
    save_library(PrimitiveLibrary((make_primitive(0, basin_level=2.0),)), single)
    signal_path = tmp_path / "signal.csv"
    SwitchingSignal((0, 1, 1, 0, 2, 2, 2, 1)).to_csv(signal_path)

    def masked(out_dir):
        result = {}
        for path in sorted(Path(out_dir).iterdir()):
            data = path.read_bytes()
            if path.name == "run_manifest.json":
                doc = json.loads(data)
                doc.pop("duration_seconds", None)
                data = json.dumps(doc, sort_keys=True).encode()
            result[path.name] = data
        return result

    commands = {
        "certify": lambda out: [
            "certify", "--library", "shipped-walker", "--out-dir", str(out),
        ],
        "certify-file": lambda out: [
            "certify", "--library", str(single), "--out-dir", str(out),
        ],
        "validate": lambda out: [
            "validate", "--signal", str(signal_path),
            "--n0", "2", "--na", "1.5", "--out-dir", str(out),
        ],
        "simulate": lambda out: [
            "simulate", "--library", "shipped-walker", "--certificate", "shipped",
            "--episodes", "25", "--horizon", "60", "--amplitude", "0.1",
            "--seed", "5", "--keep-traces", "2", "--out-dir", str(out),
        ],
        "scenario": lambda out: [
            "scenario", "--config", str(EXAMPLES / "curved_leader.json"),
            "--out-dir", str(out),
        ],
    }
    for name, argv in commands.items():
        first = tmp_path / f"{name}-first"
        second = tmp_path / f"{name}-second"
        code_first = cli_main(argv(first))
        code_second = cli_main(argv(second))
        assert code_first == code_second, name
        left, right = masked(first), masked(second)
        assert left.keys() == right.keys(), name
        for file_name in left:
            assert left[file_name] == right[file_name], (name, file_name)
    report(9, f"{len(commands)} subcommand invocations byte-identical on rerun")
