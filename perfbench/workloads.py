"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload stresses different switchcert layers, so that a change to one
layer moves one workload and leaves the others as they were:

* ``campaign``: a Monte Carlo campaign under the shipped certificate; the
  input draws, the supervisor and the batched stepping do nearly all the
  work, while synthesis and the dwell-time validator do none.
* ``certify_margin``: synthesis plus margin bisection; the same simulation
  layer, used as many small batches redrawn for every bisection amplitude.
* ``validate_long``: the dwell-time validator and the CSV signal reader on a
  long signal at the edge of its budget; no simulation runs.
* ``scenario_long``: the closed-loop walker over thousands of strides (force
  quadrature, stride update, CSV output), with one validation at the end.

Inputs come only from the workload seed.  Every check is computed from the
inputs by the benchmark itself, never by calling switchcert.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

SIZES = ("full", "smoke")

# Shipped inputs the checks compare against, relative to the checkout root.
SHIPPED_LIBRARY = Path("src/switchcert/data/walker_library.json")

CAMPAIGN_EPISODES = {"full": 1000, "smoke": 20}
CAMPAIGN_HORIZON = {"full": 200, "smoke": 50}
CAMPAIGN_AMPLITUDE = 0.1  # below the shipped margin estimate of about 0.40
CAMPAIGN_KEPT_TRACES = 2
MARGIN_TRIALS = {"full": 100, "smoke": 5}
SIGNAL_STEPS = {"full": 10_000, "smoke": 300}
SIGNAL_N0 = 2
SIGNAL_NA = Fraction(3, 2)
SIGNAL_IDS = (0, 1, 2)
SIGNAL_SWITCH_PROBABILITY = 0.9
SCENARIO_STRIDES = {"full": 4000, "smoke": 40}
# A walker that zig-zags between its 30-degree turn strides covers less
# ground per stride than its straight stride; a leader at the walker's own
# nominal 0.65 m/s would pull away over thousands of strides.
LEADER_SPEED = 0.55
LEADER_SPACING = 1.0
STRIDE_SECONDS = 0.5
SLACK_TOLERANCE = 1e-9
TRAPPING_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Prepared:
    """A workload's CLI arguments (minus ``--out-dir``) and what to check."""

    argv: list[str]
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[np.random.Generator, Path, str, Path], Prepared]
    check: Callable[[Path, dict], list[str]]


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# --- campaign ---------------------------------------------------------------

def _prepare_campaign(rng, work, size, root) -> Prepared:
    library = _read_json(root / SHIPPED_LIBRARY)["primitives"]
    episodes = CAMPAIGN_EPISODES[size]
    argv = ["simulate", "--library", "shipped-walker", "--certificate", "shipped",
            "--episodes", str(episodes), "--horizon", str(CAMPAIGN_HORIZON[size]),
            "--amplitude", repr(CAMPAIGN_AMPLITUDE),
            "--keep-traces", str(CAMPAIGN_KEPT_TRACES), "--seed", str(_cli_seed(rng))]
    members = [{"id": p["id"], "center": p["fixed_point"], "weight": p["lyapunov_weight"],
                "level": p["basin_level"]} for p in library]
    return Prepared(argv, {"episodes": episodes, "members": members})


def _check_campaign(out: Path, expect: dict) -> list[str]:
    """Disturbed episodes carry no trapping-level guarantee (mu^n0 * omega
    bounds undisturbed switching only), so the checks are basin membership
    and, on the kept traces, Lyapunov values recomputed from the library."""
    summary = _read_json(out / "campaign_summary.json")
    members = expect["members"]
    errors = []
    if summary["episodes"] != expect["episodes"]:
        errors.append(f"episodes {summary['episodes']} != {expect['episodes']}")
    if summary["violation_count"] != 0:
        errors.append(f"violation_count {summary['violation_count']} != 0")
    smallest_basin = min(m["level"] for m in members)
    if not 0.0 < summary["trapping_level"] < smallest_basin:
        errors.append(f"trapping_level {summary['trapping_level']!r} outside "
                      f"(0, smallest basin level {smallest_basin!r})")
    for index in range(CAMPAIGN_KEPT_TRACES):
        with open(out / f"trace_{index:04d}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        states = np.array([[float(row[f"x{i}"]) for i in range(len(members[0]["center"]))]
                           for row in rows])
        values = np.array([[float(row[f"V_{m['id']}"]) for m in members] for row in rows])
        for column, m in enumerate(members):
            diff = states - np.array(m["center"])
            want = np.einsum("ki,ij,kj->k", diff, np.array(m["weight"]), diff)
            if not np.allclose(values[:, column], want, rtol=1e-9, atol=1e-15):
                errors.append(f"trace {index}: V_{m['id']} does not match the library")
        inside = np.all(values <= np.array([m["level"] for m in members]), axis=1)
        if not all(row["in_all_basins"] == "1" for row in rows) or not np.all(inside):
            errors.append(f"trace {index}: a state is outside a basin")
        if np.max(np.min(values, axis=1)) > summary["trapping_level"] + TRAPPING_TOLERANCE:
            errors.append(f"trace {index} rises above the reported trapping_level")
    return errors


# --- certify_margin -----------------------------------------------------------

def _prepare_certify(rng, work, size, root) -> Prepared:
    argv = ["certify", "--library", "shipped-walker",
            "--margin-trials", str(MARGIN_TRIALS[size]), "--seed", str(_cli_seed(rng))]
    return Prepared(argv, {})


def _check_certify(out: Path, expect: dict) -> list[str]:
    cert = _read_json(out / "certificate.json")
    errors = []
    if cert["n0_bar"] != 2:
        errors.append(f"n0_bar {cert['n0_bar']} != 2")
    if not cert["na_bar"] <= 1.0:
        errors.append(f"na_bar {cert['na_bar']!r} > 1")
    if not (cert["delta_hat"] is not None and cert["delta_hat"] > 0.0):
        errors.append(f"delta_hat {cert['delta_hat']!r} is not positive")
    return errors


# --- validate_long ------------------------------------------------------------

def edge_signal(rng: np.random.Generator, steps: int) -> list[int]:
    """A signal that meets the (SIGNAL_N0, SIGNAL_NA) budget exactly at its
    edge: switches are proposed at most steps and taken whenever the running
    deficit, kept in exact rational arithmetic, stays within N0."""
    decay = 1 / SIGNAL_NA
    ids = [int(rng.choice(SIGNAL_IDS))]
    deficit = Fraction(0)
    proposals = rng.random(steps) < SIGNAL_SWITCH_PROBABILITY
    picks = rng.integers(0, len(SIGNAL_IDS) - 1, size=steps)
    for step in range(1, steps):
        candidate = max(Fraction(0), deficit + 1 - decay)
        if proposals[step] and candidate <= SIGNAL_N0:
            others = [i for i in SIGNAL_IDS if i != ids[-1]]
            ids.append(others[picks[step]])
            deficit = candidate
        else:
            ids.append(ids[-1])
            deficit = max(Fraction(0), deficit - decay)
    return ids


def worst_slack(ids, n0: float, na: float) -> float:
    """min over 0 <= a <= b <= K of n0 + (b - a)/na - switches in [a, b), in O(K).

    With g(j) = j/na - P[j], where P counts the switches before step j, the
    slack of [a, b) is n0 + g(b) - g(a); the minimum over b >= a is a suffix
    minimum of g.
    """
    changes = np.diff(np.asarray(ids)) != 0
    prefix = np.concatenate(([0, 0], np.cumsum(changes)))
    g = np.arange(len(ids) + 1) / na - prefix
    suffix_min = np.minimum.accumulate(g[::-1])[::-1]
    return float(n0 + np.min(suffix_min - g))


def _prepare_validate(rng, work, size, root) -> Prepared:
    ids = edge_signal(rng, SIGNAL_STEPS[size])
    path = work / "signal.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "id"])
        writer.writerows(enumerate(ids))
    na = float(SIGNAL_NA)
    slack = worst_slack(ids, SIGNAL_N0, na)
    if slack < -SLACK_TOLERANCE:
        raise RuntimeError(f"generated signal breaks its budget (slack {slack!r})")
    argv = ["validate", "--signal", path.name, "--n0", str(SIGNAL_N0), "--na", repr(na),
            "--seed", str(_cli_seed(rng))]
    switches = sum(a != b for a, b in zip(ids, ids[1:]))
    return Prepared(argv, {"switch_count": switches, "worst_slack": slack})


def _check_validate(out: Path, expect: dict) -> list[str]:
    report = _read_json(out / "validation_report.json")
    errors = []
    if report["valid"] is not True:
        errors.append("signal reported INVALID")
    if report["switch_count"] != expect["switch_count"]:
        errors.append(f"switch_count {report['switch_count']} != {expect['switch_count']}")
    if not abs(report["worst_slack"] - expect["worst_slack"]) <= SLACK_TOLERANCE:
        errors.append(f"worst_slack {report['worst_slack']!r} != {expect['worst_slack']!r}")
    if "VALID" not in (out / "validation_report.txt").read_text().split():
        errors.append("text report lacks the VALID verdict")
    return errors


# --- scenario_long ------------------------------------------------------------

def leader_waypoints(rng: np.random.Generator, length: float) -> np.ndarray:
    """Straight runs joined by circular arcs that turn left and right in
    turn, sampled about every LEADER_SPACING meters, until ``length``."""
    points = [np.zeros(2)]
    position = np.zeros(2)
    heading = 0.0
    sign = 1.0 if rng.random() < 0.5 else -1.0
    travelled = 0.0
    while travelled < length:
        straight = rng.uniform(5.0, 20.0)
        pieces = max(1, round(straight / LEADER_SPACING))
        for _ in range(pieces):
            position = position + (straight / pieces) * np.array([math.cos(heading), math.sin(heading)])
            points.append(position)
        radius = rng.uniform(8.0, 20.0)
        turn = math.radians(rng.uniform(20.0, 90.0))
        pieces = max(2, round(radius * turn / LEADER_SPACING))
        chord = 2.0 * radius * math.sin(turn / pieces / 2.0)
        for _ in range(pieces):
            mid = heading + sign * turn / pieces / 2.0
            position = position + chord * np.array([math.cos(mid), math.sin(mid)])
            points.append(position)
            heading += sign * turn / pieces
        travelled += straight + radius * turn
        sign = -sign
    return np.array(points)


def _prepare_scenario(rng, work, size, root) -> Prepared:
    strides = SCENARIO_STRIDES[size]
    duration = strides * STRIDE_SECONDS
    waypoints = leader_waypoints(rng, 1.05 * LEADER_SPEED * duration + 5.0)
    chords = np.linalg.norm(np.diff(waypoints, axis=0), axis=1)
    times = np.concatenate(([0.0], np.cumsum(chords))) / LEADER_SPEED
    config = {
        "leader": {"waypoints": waypoints.tolist(), "timestamps": times.tolist(),
                   "stiffness": [[10.0, 0.0], [0.0, 10.0]],
                   "damping": [[2.0, 0.0], [0.0, 2.0]]},
        "initial_pose": {"position": [-0.5, 0.0], "heading": 0.0},
        "mode": "adaptive",
        "strides": strides,
        "initial_primitive": 1,
        "dead_zone": 0.1,
        "certificate": "shipped",
    }
    path = work / "leader.json"
    path.write_text(json.dumps(config))
    argv = ["scenario", "--config", path.name, "--seed", str(_cli_seed(rng))]
    return Prepared(argv, {"strides": strides, "span": [float(times[0]), float(times[-1])]})


def _scalar(text: str) -> float:
    # The scenario CSVs write numpy scalars with repr(), which numpy >= 2
    # renders as "np.float64(0.5)"; read the number inside either form.
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def _check_scenario(out: Path, expect: dict) -> list[str]:
    summary = _read_json(out / "summary.json")
    errors = []
    if summary["strides"] != expect["strides"]:
        errors.append(f"strides {summary['strides']} != {expect['strides']}")
    if summary["reduced_in_all_basins"] is not True:
        errors.append("reduced trace left a basin")
    with open(out / "poses.csv", newline="") as fh:
        times = [_scalar(row["t"]) for row in csv.DictReader(fh)]
    t0, t1 = expect["span"]
    if len(times) != expect["strides"] + 1:
        errors.append(f"poses.csv has {len(times)} rows, want {expect['strides'] + 1}")
    elif not (t0 - SLACK_TOLERANCE <= min(times) and max(times) <= t1 + SLACK_TOLERANCE):
        errors.append(f"strides span [{min(times)}, {max(times)}], outside the leader's [{t0}, {t1}]")
    return errors


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign", "Monte Carlo campaign: input draws, supervisor and batched "
                 "stepping do the work; synthesis and the validator do none",
                 _prepare_campaign, _check_campaign),
        Workload("certify_margin", "synthesis plus margin bisection: many small "
                 "campaigns redrawn per amplitude; the only synthesis workload",
                 _prepare_certify, _check_certify),
        Workload("validate_long", "10k-step signal at the budget edge: the O(K^2) "
                 "validator and CSV reader dominate; no simulation",
                 _prepare_validate, _check_validate),
        Workload("scenario_long", "4000-stride walker run: force quadrature, stride "
                 "update and CSV output; one validation at the end",
                 _prepare_scenario, _check_scenario),
    )
}


def prepare(name: str, seed: int, work: Path, size: str, root: Path) -> Prepared:
    """Generate the inputs of workload ``name`` for ``seed`` into ``work``."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([int(seed), index])
    return WORKLOADS[name].prepare(rng, work, size, root)
