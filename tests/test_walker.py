"""Leader-following scenario: impedance forces, stride-force integration,
pose composition, and the closed switching loop."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import switchcert
from switchcert import load_scenario, run_scenario, validate_dwell_time
from switchcert.simulation import Trace, budget_from_certificate
from switchcert.switching import Supervisor
from switchcert.walker import (
    _FORCE_SNAP,
    _PATH_BLOCK,
    _SPAN_SLACK,
    LeaderModel,
    Pose,
    force_bearing,
    integrate_stride_force,
    stride_update,
    wrap_angle,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

# Frozen endpoint of a perturbed straight stride from pose ((0.3, -0.2), 0.4)
# with the reduced state offset (0.01, -0.02) and no force.
PERTURBED_NEW_Z = (0.003945, -0.00508)
PERTURBED_POSITION = (0.599684761946319, -0.07373654516963099)
PERTURBED_HEADING = 0.398984


def turn(heading):
    """The rotation (cos, sin) of a heading, as the stride kernels take it."""
    return math.cos(heading), math.sin(heading)


def rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def offsets(bound):
    """2-vectors with coordinates in [-bound, bound]."""
    return st.tuples(st.floats(-bound, bound), st.floats(-bound, bound))


def straight_config():
    return json.loads((EXAMPLES / "straight_leader.json").read_text())


def curved_config():
    return json.loads((EXAMPLES / "curved_leader.json").read_text())


class TestWrapAngle:
    def test_principal_range(self):
        for angle in (-10.0, -np.pi, 0.0, 1.0, np.pi, 10.0, 4 * np.pi + 0.1):
            wrapped = wrap_angle(angle)
            assert -np.pi < wrapped <= np.pi
            assert abs(np.angle(np.exp(1j * (wrapped - angle)))) <= 1e-12

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi


def impedance_force(leader, p_e, v_e, t):
    """World-frame spring-damper force K (p_l - p_e) + D (v_l - v_e) at the
    time or times t: the integrand of ``integrate_stride_force``."""
    return ((leader.position(t) - p_e) @ leader.stiffness.T
            + (leader.velocity(t) - v_e) @ leader.damping.T)


class TestImpedanceForce:
    def test_perfect_tracking_gives_zero(self):
        leader = LeaderModel.from_waypoints(
            np.array([[0.0, 0.0], [2.0, 0.0]]), speed=0.65,
            stiffness=10.0 * np.eye(2), damping=2.0 * np.eye(2),
        )
        t = 1.0
        force = impedance_force(leader, leader.position(t), leader.velocity(t), t)
        assert np.max(np.abs(force)) <= 1e-12

    def test_unit_stiffness_offset(self):
        leader = LeaderModel(
            times=np.array([0.0, 1.0]),
            waypoints=np.array([[1.0, 0.0], [1.0, 0.0]]),
            stiffness=np.eye(2),
            damping=np.zeros((2, 2)),
        )
        force = impedance_force(leader, np.zeros(2), np.zeros(2), 0.5)
        assert np.max(np.abs(force - np.array([1.0, 0.0]))) <= 1e-12

    def test_hand_evaluated_spring_damper(self):
        # stationary target expression: K (pL - pE) + N (vL - vE) with
        # pL = (1, 1), vL = (0.65, 0), pE = 0, vE = (0.6, 0)
        stiffness = np.diag([10.0, 10.0])
        damping = np.diag([2.0, 2.0])
        p_l = np.array([1.0, 1.0])
        v_l = np.array([0.65, 0.0])
        p_e = np.zeros(2)
        v_e = np.array([0.6, 0.0])
        expected = stiffness @ (p_l - p_e) + damping @ (v_l - v_e)
        assert np.allclose(expected, [10.1, 10.0], atol=1e-12)
        # and the leader model reproduces it when its path passes through
        # (1, 1) at speed (0.65, 0)
        leader = LeaderModel(
            times=np.array([0.0, 2.0]),
            waypoints=np.array([[0.35, 1.0], [1.65, 1.0]]),
            stiffness=stiffness,
            damping=damping,
        )
        t = 1.0
        assert np.max(np.abs(leader.position(t) - p_l)) <= 1e-12
        assert np.max(np.abs(leader.velocity(t) - v_l)) <= 1e-12
        force = impedance_force(leader, p_e, v_e, t)
        assert np.max(np.abs(force - np.array([10.1, 10.0]))) <= 1e-12

    def test_time_outside_span_rejected(self):
        leader = LeaderModel.from_waypoints(
            np.array([[0.0, 0.0], [1.0, 0.0]]), speed=1.0,
            stiffness=np.eye(2), damping=np.eye(2),
        )
        with pytest.raises(ValueError):
            impedance_force(leader, np.zeros(2), np.zeros(2), 5.0)

    def test_indefinite_gains_rejected(self):
        with pytest.raises(ValueError):
            LeaderModel(
                times=np.array([0.0, 1.0]),
                waypoints=np.array([[0.0, 0.0], [1.0, 0.0]]),
                stiffness=np.diag([1.0, -1.0]),
                damping=np.zeros((2, 2)),
            )


class TestLeaderSpline:
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_matches_scipy_natural_cubic_spline(self, knots, seed):
        from scipy.interpolate import CubicSpline

        rng = np.random.default_rng(seed)
        gaps = np.exp(rng.uniform(np.log(0.01), np.log(10.0), knots - 1))
        times = rng.uniform(-5.0, 5.0) + np.concatenate(([0.0], np.cumsum(gaps)))
        points = rng.normal(size=(knots, 2)) * np.exp(rng.uniform(-3.0, 3.0))
        leader = LeaderModel(times=times, waypoints=points,
                             stiffness=np.eye(2), damping=np.eye(2))
        t0, t1 = leader.span
        inside = times[:-1] + rng.uniform(0.0, 1.0, knots - 1) * gaps
        ends = [t0 - _SPAN_SLACK, t0 - 0.5 * _SPAN_SLACK, t0 + _SPAN_SLACK,
                t1 - _SPAN_SLACK, t1 + 0.5 * _SPAN_SLACK, t1 + _SPAN_SLACK]
        t = np.concatenate((times, inside, ends))
        reference = CubicSpline(times, points, axis=0, bc_type="natural")
        for method, order in ((leader.position, 0), (leader.velocity, 1)):
            expected = reference(t, order)
            tolerance = 1e-13 * np.max(np.abs(expected))
            values = method(t)
            assert values.shape == t.shape + (2,)
            assert np.max(np.abs(values - expected)) <= tolerance
            for tk, row in zip(t, expected):
                value = method(float(tk))
                assert value.shape == (2,)
                assert np.max(np.abs(value - row)) <= tolerance

    def test_dense_path_is_evaluated_in_bounded_blocks(self):
        rng = np.random.default_rng(8)
        leader = LeaderModel.from_waypoints(np.cumsum(rng.uniform(0.2, 1.0, (400, 2)), axis=0))
        t = np.linspace(*leader.span, 20 * _PATH_BLOCK + 3)
        tracemalloc.start()
        try:
            position, velocity = leader._path(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (N, 4) result plus one block's temporaries; gathering every
        # time's (4, 4) coefficients at once would take 128 bytes a time
        assert peak <= 32 * t.size + 512 * _PATH_BLOCK, peak
        # where a block starts moves no value
        for start in (0, 1, _PATH_BLOCK - 1, 7 * _PATH_BLOCK + 5):
            part = leader._path(t[start:start + 3 * _PATH_BLOCK // 2])
            assert np.array_equal(part[0], position[start:start + 3 * _PATH_BLOCK // 2])
            assert np.array_equal(part[1], velocity[start:start + 3 * _PATH_BLOCK // 2])

    def test_cli_import_does_not_load_scipy(self):
        package_root = str(Path(switchcert.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, switchcert.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == "[]"


class TestStrideForceIntegration:
    def test_zero_force_stride(self):
        leader = LeaderModel.from_waypoints(
            np.array([[0.0, 0.0], [2.0, 0.0]]), speed=1.0,
            stiffness=np.zeros((2, 2)), damping=np.zeros((2, 2)),
        )
        fx, fy = integrate_stride_force(leader, 0.0, 0.0, *turn(0.0), 0.5, 0.0, 0.0, 0.5)
        assert fx == 0.0 and fy == 0.0
        assert force_bearing(fx, fy) == 0.0

    def test_constant_force_integrates_exactly(self):
        # a stationary leader a fixed offset ahead of a stationary walker
        # yields a constant force, so the integral is force times duration
        leader = LeaderModel(
            times=np.array([0.0, 4.0]),
            waypoints=np.array([[2.0, 1.0], [2.0, 1.0]]),
            stiffness=np.diag([3.0, 3.0]),
            damping=np.zeros((2, 2)),
        )
        duration = 0.5
        fx, fy = integrate_stride_force(leader, 1.0, 1.0, *turn(0.0), 1.0, 1.0, 1.0, 1.0 + duration)
        assert abs(fx - 3.0 * 1.0 * duration) <= 1e-12
        assert abs(fy) <= 1e-12

    def test_linear_integrand_matches_closed_form(self):
        # walker moving straight toward a stationary leader: the spring term
        # is linear in t, so the exact integral is available in closed form
        stiffness = np.diag([2.0, 2.0])
        leader = LeaderModel(
            times=np.array([0.0, 2.0]),
            waypoints=np.array([[3.0, 0.5], [3.0, 0.5]]),
            stiffness=stiffness,
            damping=np.zeros((2, 2)),
        )
        start = np.array([0.0, 0.0])
        end = np.array([0.6, 0.0])
        t0, t1 = 0.5, 1.0
        fx, fy = integrate_stride_force(leader, *start, *turn(0.0), *end, t0, t1)
        # position(t) = start + (t - t0)/(t1 - t0) * (end - start)
        # integral of K (pL - p(t)) dt over [t0, t1]
        duration = t1 - t0
        mean_position = 0.5 * (start + end)
        expected = stiffness @ (np.array([3.0, 0.5]) - mean_position) * duration
        assert abs(fx - expected[0]) <= 1e-12
        assert abs(fy - expected[1]) <= 1e-12
        assert abs(force_bearing(fx, fy)) < 0.2

    def test_body_frame_rotation(self):
        # same geometry rotated by 90 degrees gives the same body-frame force
        leader = LeaderModel(
            times=np.array([0.0, 2.0]),
            waypoints=np.array([[2.0, 0.0], [2.0, 0.0]]),
            stiffness=np.eye(2),
            damping=np.zeros((2, 2)),
        )
        straight = integrate_stride_force(leader, 0.0, 0.0, *turn(0.0), 0.4, 0.0, 0.0, 0.5)
        turned_leader = LeaderModel(
            times=np.array([0.0, 2.0]),
            waypoints=np.array([[0.0, 2.0], [0.0, 2.0]]),
            stiffness=np.eye(2),
            damping=np.zeros((2, 2)),
        )
        turned = integrate_stride_force(turned_leader, 0.0, 0.0, *turn(np.pi / 2), 0.0, 0.4, 0.0, 0.5)
        assert abs(straight[0] - turned[0]) <= 1e-9
        assert abs(straight[1] - turned[1]) <= 1e-9

    def test_degenerate_interval_rejected(self):
        leader = LeaderModel.from_waypoints(
            np.array([[0.0, 0.0], [1.0, 0.0]]), speed=1.0,
            stiffness=np.eye(2), damping=np.eye(2),
        )
        with pytest.raises(ValueError):
            integrate_stride_force(leader, 0.0, 0.0, *turn(0.0), 0.0, 0.0, 0.5, 0.5)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                integrate_stride_force(leader, 0.0, 0.0, *turn(0.0), bad, 0.0, 0.25, 0.5)
            with pytest.raises(ValueError, match="must be finite"):
                integrate_stride_force(leader, 0.0, 0.0, bad, 0.0, 0.0, 0.0, 0.25, 0.5)


def simpson_stride_force(leader, start, end, t_start, t_end, panels=8192):
    """Composite Simpson oracle for the body-frame stride force integral."""
    nodes = t_start + (t_end - t_start) * np.arange(panels + 1) / panels
    nodes[-1] = t_end
    frac = (nodes - t_start) / (t_end - t_start)
    p_e = start.position + frac[:, None] * (end - start.position)
    v_e = (end - start.position) / (t_end - t_start)
    force = impedance_force(leader, p_e, v_e, nodes)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return rotation(-start.heading) @ (weights @ force) * ((t_end - t_start) / panels / 3.0)


def random_gain(rng):
    factor = rng.normal(size=(2, 2))
    return factor @ factor.T * np.exp(rng.uniform(-2.0, 2.5))


def random_stride(rng, times, kind):
    """A stride inside one piece (0), across one knot (1), across two to
    four knots (2), from a knot (3), or from and to the span ends widened
    by the slack (4, 5); kinds 1 and 2 fall back to 0 on too few knots."""
    pieces = times.size - 1
    inside = lambda i: times[i] + rng.uniform(0.05, 0.95) * (times[i + 1] - times[i])
    piece = rng.integers(pieces)
    if kind == 1 and pieces >= 2:
        knot = rng.integers(1, pieces)
        return inside(knot - 1), inside(knot)
    if kind == 2 and pieces >= 3:
        first = rng.integers(pieces - 2)
        return inside(first), inside(rng.integers(first + 2, min(first + 5, pieces)))
    if kind == 3:
        return times[piece], inside(rng.integers(piece, min(piece + 2, pieces)))
    if kind == 4:
        return times[0] - _SPAN_SLACK, inside(rng.integers(min(2, pieces)))
    if kind == 5:
        return inside(rng.integers(max(0, pieces - 2), pieces)), times[-1] + _SPAN_SLACK
    return tuple(sorted((inside(piece), inside(piece))))


class TestExactStrideForce:
    # The exact integral matches the 8192-panel oracle within RTOL times the
    # largest gain, position and duration; on about half of these strides a
    # 64-panel Simpson rule misses by more.
    RTOL = 2e-13

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.integers(2, 40), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_matches_dense_simpson_oracle(self, knots, kind, seed):
        # A leader wandering at up to 2 m/s, up to 1 km from the origin.
        rng = np.random.default_rng(seed)
        gaps = np.exp(rng.uniform(np.log(0.1), np.log(3.0), knots - 1))
        times = rng.uniform(-5.0, 5.0) + np.concatenate(([0.0], np.cumsum(gaps)))
        turns = rng.uniform(-np.pi, np.pi) + np.cumsum(0.3 * rng.normal(size=knots - 1))
        steps = np.column_stack((np.cos(turns), np.sin(turns))) * gaps[:, None]
        steps *= np.exp(rng.uniform(np.log(0.2), np.log(2.0)))
        points = rng.uniform(-1e3, 1e3, 2) + np.concatenate(([[0.0, 0.0]], np.cumsum(steps, axis=0)))
        leader = LeaderModel(times=times, waypoints=points,
                             stiffness=random_gain(rng), damping=random_gain(rng))
        t_start, t_end = random_stride(rng, times, kind)
        offset = rng.normal(size=2) * np.exp(rng.uniform(-3.0, 1.0))
        start = Pose(position=leader.position(t_start) + offset,
                     heading=rng.uniform(-np.pi, np.pi))
        end = leader.position(t_end) + rng.normal(size=2) * np.exp(rng.uniform(-3.0, 1.0))
        force = integrate_stride_force(
            leader, *start.position.tolist(), *turn(start.heading), *end.tolist(), t_start, t_end)
        expected = simpson_stride_force(leader, start, end, t_start, t_end)
        gain = np.max(np.abs(leader.stiffness)) + np.max(np.abs(leader.damping))
        tolerance = self.RTOL * gain * np.max(np.abs(points)) * max(1.0, t_end - t_start)
        if force == (0.0, 0.0):
            assert np.max(np.abs(expected)) <= _FORCE_SNAP + tolerance
        else:
            assert np.max(np.abs(np.array(force) - expected)) <= tolerance


class TestHeadingEstimate:
    def test_quadrants(self):
        assert force_bearing(1.0, 0.0) == 0.0
        assert abs(force_bearing(1.0, 1.0) - np.pi / 4) <= 1e-15
        assert force_bearing(-1.0, 0.0) == np.pi

    def test_zero_force_maps_to_straight(self):
        assert force_bearing(0.0, 0.0) == 0.0


class TestStrideUpdate:
    def test_on_cycle_straight_stride(self, stride_primitives):
        prim = stride_primitives[1]
        z_star = prim.reduced.map.fixed_point
        x, y, heading, z0, z1 = stride_update(prim, 1.0, 2.0, 0.3, *turn(0.3), *z_star.tolist(), 0.0, 0.0)
        assert heading == 0.3
        assert np.max(np.abs(np.array([z0, z1]) - z_star)) == 0.0
        expected = np.array([1.0, 2.0]) + rotation(0.3) @ prim.nominal_displacement
        assert np.max(np.abs(np.array([x, y]) - expected)) <= 1e-15

    def test_on_cycle_turn_is_exactly_thirty_degrees(self, stride_primitives):
        left = stride_primitives[2]
        z_star = left.reduced.map.fixed_point.tolist()
        _, _, heading, _, _ = stride_update(left, 0.0, 0.0, 0.0, *turn(0.0), *z_star, 0.0, 0.0)
        assert heading == np.pi / 6
        right = stride_primitives[0]
        z_star = right.reduced.map.fixed_point.tolist()
        _, _, heading, _, _ = stride_update(right, 0.0, 0.0, 0.0, *turn(0.0), *z_star, 0.0, 0.0)
        assert heading == -np.pi / 6

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from([0, 1, 2]), st.booleans(), offsets(0.1), offsets(60.0),
           offsets(1.0), st.floats(-np.pi, np.pi))
    @example(1, True, (0.01, -0.02), (0.0, 0.0), (0.3, -0.2), 0.4)  # the frozen stride
    def test_perturbed_stride_matches_reference_reimplementation(
        self, stride_primitives, pid, quadratic, offset, force, position, heading
    ):
        prim = stride_primitives[pid]
        if not quadratic:
            reduced = replace(prim.reduced, map=replace(prim.reduced.map, quadratic=None))
            prim = replace(prim, reduced=reduced)
        z_star = prim.reduced.map.fixed_point
        z = z_star + np.array(offset)
        pose = Pose(position=np.array(position), heading=heading)
        x, y, new_heading, z0, z1 = stride_update(
            prim, *pose.position.tolist(), pose.heading, *turn(pose.heading), *z.tolist(), *force)
        new_z = np.array([z0, z1])

        # independent evaluation of the documented composition
        reduced = prim.reduced.map
        dev = z - z_star
        expected_z = z_star + reduced.linear @ dev
        if quadratic:
            for i, block in enumerate(reduced.quadratic):
                expected_z[i] += dev @ block @ dev
        expected_z += reduced.disturbance_gain @ (prim.force_coupling @ np.array(force))
        dev_after = expected_z - z_star
        expected_heading = wrap_angle(
            pose.heading + prim.nominal_heading_change + prim.heading_gain @ dev_after
        )
        body_delta = prim.nominal_displacement + prim.displacement_gain @ dev_after
        expected_position = pose.position + rotation(pose.heading) @ body_delta

        assert np.max(np.abs(new_z - expected_z)) <= 1e-15
        assert abs(wrap_angle(new_heading - expected_heading)) <= 1e-15
        assert np.max(np.abs(np.array([x, y]) - expected_position)) <= 1e-15
        # the walker's stride step is the 2-D form of the batch kernel
        batch = reduced.apply_batch(z[None], (prim.force_coupling @ np.array(force))[None])[0]
        assert np.max(np.abs(new_z - batch)) <= 1e-15

    def test_perturbed_stride_frozen_values(self, stride_primitives):
        prim = stride_primitives[1]
        z = prim.reduced.map.fixed_point + np.array([0.01, -0.02])
        x, y, heading, z0, z1 = stride_update(prim, 0.3, -0.2, 0.4, *turn(0.4), *z.tolist(), 0.0, 0.0)
        assert (z0, z1) == PERTURBED_NEW_Z
        assert heading == PERTURBED_HEADING
        assert (x, y) == PERTURBED_POSITION

    def test_force_enters_through_the_coupling_matrix(self, stride_primitives):
        prim = stride_primitives[1]
        z_star = prim.reduced.map.fixed_point
        *_, z0, z1 = stride_update(prim, 0.0, 0.0, 0.0, *turn(0.0), *z_star.tolist(), 0.5, -0.2)
        expected = z_star + prim.reduced.map.disturbance_gain @ (
            prim.force_coupling @ np.array([0.5, -0.2])
        )
        assert np.max(np.abs(np.array([z0, z1]) - expected)) <= 1e-15


class TestScenarios:
    def test_zero_force_loop_walks_straight(self):
        config = straight_config()
        config["leader"]["stiffness"] = [[0.0, 0.0], [0.0, 0.0]]
        config["leader"]["damping"] = [[0.0, 0.0], [0.0, 0.0]]
        config["strides"] = 10
        trace = run_scenario(load_scenario(config))
        assert np.all(trace.headings == 0.0)
        assert np.all(trace.forces == 0.0)
        assert np.all(trace.positions[:, 1] == trace.positions[0, 1])
        assert np.array_equal(trace.signal.assignments, np.ones(10, dtype=np.int64))

    def test_straight_ablation_drifts_monotonically(self):
        config = straight_config()
        config["strides"] = 6
        trace = run_scenario(load_scenario(config, mode_override="fixed:0"))
        deviations = np.abs(trace.lateral)
        assert np.all(np.diff(deviations) > 0.0)
        assert trace.final_lateral_deviation > 1.0

    def test_adaptive_run_stays_close_and_certified(self, walker_certificate):
        adaptive = run_scenario(load_scenario(straight_config()))
        ablation = run_scenario(load_scenario(straight_config(), mode_override="fixed:0"))
        assert adaptive.in_all_basins.all()
        assert ablation.final_lateral_deviation >= 4.0 * adaptive.max_lateral_deviation
        budget = budget_from_certificate(walker_certificate)
        assert validate_dwell_time(adaptive.signal, budget).valid

    def test_curved_leader_switches_and_stays_in_every_basin(self, walker_certificate):
        trace = run_scenario(load_scenario(curved_config()))
        assert trace.in_all_basins.all()
        counts = trace.usage_counts
        assert counts[0] > 0 and counts[2] > 0
        assert validate_dwell_time(
            trace.signal, budget_from_certificate(walker_certificate)
        ).valid

    @pytest.mark.parametrize("config", [straight_config, curved_config])
    def test_a_run_is_the_trace_of_the_reduced_library(self, config):
        scenario = load_scenario(config())
        library = scenario.reduced_library
        trace = run_scenario(scenario)
        assert isinstance(trace, Trace)
        assert trace.member_ids == library.ids and trace.horizon == trace.stride_count
        summary = trace.summary()
        assert summary["max_reduced_level"] == trace.max_min_level
        assert summary["reduced_in_all_basins"] == (trace.first_violation is None)
        expected = library.values(trace.states)
        assert np.array_equal(trace.lyapunov.view(np.uint64), expected.view(np.uint64))

    def test_equivariance_under_rotation(self):
        angle = 0.7
        rot = rotation(angle)
        config = curved_config()
        config["strides"] = 12
        base = run_scenario(load_scenario(config))

        turned = curved_config()
        turned["strides"] = 12
        turned["leader"]["waypoints"] = [
            (rot @ np.array(w)).tolist() for w in config["leader"]["waypoints"]
        ]
        turned["initial_pose"]["position"] = (
            rot @ np.array(config["initial_pose"]["position"])
        ).tolist()
        turned["initial_pose"]["heading"] = config["initial_pose"]["heading"] + angle
        rotated = run_scenario(load_scenario(turned))

        assert np.array_equal(base.signal.assignments, rotated.signal.assignments)
        expected = base.positions @ rot.T
        assert np.max(np.abs(rotated.positions - expected)) <= 1e-9
        heading_gap = np.array(
            [wrap_angle(h) for h in (rotated.headings - base.headings - angle)]
        )
        assert np.max(np.abs(heading_gap)) <= 1e-9

    def test_mirror_symmetry_swaps_turn_usage(self):
        config = curved_config()
        base = run_scenario(load_scenario(config))

        mirrored = curved_config()
        mirrored["leader"]["waypoints"] = [[w[0], -w[1]] for w in config["leader"]["waypoints"]]
        pose = config["initial_pose"]
        mirrored["initial_pose"] = {
            "position": [pose["position"][0], -pose["position"][1]],
            "heading": -pose["heading"],
        }
        flipped = run_scenario(load_scenario(mirrored))

        base_counts = base.usage_counts
        flipped_counts = flipped.usage_counts
        assert flipped_counts[0] == base_counts[2]
        assert flipped_counts[2] == base_counts[0]
        assert flipped_counts[1] == base_counts[1]
        assert np.max(np.abs(flipped.positions[:, 0] - base.positions[:, 0])) <= 1e-9
        assert np.max(np.abs(flipped.positions[:, 1] + base.positions[:, 1])) <= 1e-9

    def test_loop_calls_its_traced_boundaries_once_per_stride(self, monkeypatch):
        # the benchmark's tracer times these three by patching them by name
        calls = {"integrate_stride_force": 0, "stride_update": 0, "request": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("integrate_stride_force", "stride_update"):
            monkeypatch.setattr(switchcert.walker, name, counting(name, getattr(switchcert.walker, name)))
        monkeypatch.setattr(Supervisor, "request", counting("request", Supervisor.request))
        config = curved_config()
        config["strides"] = 25
        trace = run_scenario(load_scenario(config))
        assert trace.stride_count == 25
        assert calls == {"integrate_stride_force": 25, "stride_update": 25, "request": 24}

    def test_fixed_mode_string_is_validated(self):
        config = straight_config()
        with pytest.raises(ValueError):
            load_scenario(config, mode_override="fixed:9")
        with pytest.raises(ValueError):
            load_scenario(config, mode_override="sideways")

    def test_config_and_initial_pose_must_be_objects(self):
        with pytest.raises(ValueError, match="JSON object"):
            load_scenario([1, 2])
        config = straight_config()
        config["initial_pose"] = [0, 0]
        with pytest.raises(ValueError, match="initial_pose"):
            load_scenario(config)

    def test_a_bool_initial_primitive_is_rejected(self):
        # True is not primitive 1
        scenario = load_scenario(straight_config())
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="initial_primitive must be an integer id"):
                replace(scenario, initial_primitive=flag)

    def test_leader_span_must_cover_the_run(self):
        config = straight_config()
        config["strides"] = 100  # needs 50 s of path, the leader has 20 s
        with pytest.raises(ValueError):
            load_scenario(config)

    def test_scenario_outputs_written(self, tmp_path, walker_library, walker_certificate):
        config = straight_config()
        config["strides"] = 8
        scenario = load_scenario(config)
        trace = run_scenario(scenario)
        trace.write_outputs(tmp_path)
        trace.write_ellipses(tmp_path, walker_library, walker_certificate)
        for name in (
            "poses.csv",
            "forces.csv",
            "sigma.csv",
            "reduced.csv",
            "plot_walker_path.csv",
            "plot_leader_path.csv",
            "plot_basin_ellipses.csv",
        ):
            assert (tmp_path / name).exists(), name
            with open(tmp_path / name, newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert rows, name
            for row in rows:
                assert len(row) == len(header), name
                for column, cell in zip(header, row):
                    # a numpy scalar repr such as "np.float64(0.5)" raises here
                    parse = int if column in ("k", "id", "in_all_basins") else float
                    parse(cell)

    def test_writing_a_long_bundle_holds_one_block_of_cells(self, tmp_path):
        # The shared k, t, x and y columns are formatted one block of rows at
        # a time, so the traced peak of writing 4000 strides is that of 600
        # (601 rows, more than two blocks) plus the longer k array (27 KiB).
        # Holding those four columns' formatted cells whole would add about
        # 1 MiB.
        config = straight_config()
        config["leader"]["waypoints"] = [[0.0, 0.0], [0.65 * 0.5 * 4000 + 10.0, 0.0]]
        peaks = {}
        for strides in (600, 4000):
            config["strides"] = strides
            trace = run_scenario(load_scenario(config))
            assert trace.in_all_basins.all()
            tracemalloc.start()
            try:
                trace.write_outputs(tmp_path / str(strides))
                peaks[strides] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4000] - peaks[600] <= 128 * 1024, peaks

    def test_leader_plot_path_is_the_leader_at_stride_boundaries(self, tmp_path):
        scenario = load_scenario(curved_config())
        trace = run_scenario(scenario)
        trace.write_outputs(tmp_path)

        def columns(name):
            with open(tmp_path / name, newline="") as fh:
                return list(csv.DictReader(fh))

        leader, poses = columns("plot_leader_path.csv"), columns("poses.csv")
        assert len(leader) == scenario.stride_count + 1
        assert [row["t"] for row in leader] == [row["t"] for row in poses]
        want = scenario.leader.position(trace.times)
        assert np.array_equal([[float(row["x"]), float(row["y"])] for row in leader], want)

    def test_loop_error_names_the_stride(self, monkeypatch):
        calls = []

        def failing_update(*args):
            calls.append(None)
            if len(calls) == 4:
                raise ValueError("boom")
            return stride_update(*args)

        monkeypatch.setattr(switchcert.walker, "stride_update", failing_update)
        with pytest.raises(ValueError, match=r"^stride 3: boom; the reduced state never "
                                             r"left the basin intersection$"):
            run_scenario(load_scenario(straight_config()))
