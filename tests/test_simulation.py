"""Switched-system execution, diagnostics, safety monitoring, and Monte
Carlo campaigns."""

import itertools
import math
import time
import tracemalloc
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchcert import (
    SwitchingSignal,
    estimate_disturbance_margin,
    monte_carlo,
    run,
    synthesize_certificate,
    validate_dwell_time,
)

from conftest import make_pair_library, make_primitive, sublevel_samples
from test_switching import replay_supervisor
from switchcert import Primitive, PrimitiveLibrary, PrimitiveMap, QuadraticLyapunov
from switchcert import simulation
from switchcert.library_io import library_fingerprint
from switchcert.primitives import _level_min
from switchcert.simulation import (
    _DRAW_BLOCK,
    _ROUND_DEPTH,
    _X0_BATCH,
    MarginEstimate,
    _batch_stats,
    _draw_campaign_inputs,
    _escapes,
    budget_from_certificate,
    derive_rng,
)
from switchcert.switching import Supervisor

# Regression values for the shipped library captured from a seeded run:
# episode 0 of a one-episode campaign draw on seed 424242, stream 7.
SHIPPED_RUN_STATE_5 = (1.183170411174743e-05, 0.00027181411672755947)
SHIPPED_RUN_STATE_200 = (5.773642615272501e-05, -0.0003263796441449413)
SHIPPED_RUN_MAX_MIN_LEVEL = 2.7687815238859592e-05
SHIPPED_RUN_MAX_STEP_RATIO = 0.2011568298863982
# 300 episodes, horizon 200, amplitude ten times the shipped margin, seed 777
SHIPPED_TENFOLD_VIOLATION_RATE = 1.0


class TestDerivedRng:
    def test_same_path_same_stream(self):
        a = derive_rng(42, 1, 2).random(8)
        b = derive_rng(42, 1, 2).random(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(42, 1, 2).random(8)
        b = derive_rng(42, 1, 3).random(8)
        c = derive_rng(43, 1, 2).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_the_path_is_the_philox_counter_and_the_seed_its_key(self):
        for seed, path in ((0, ()), (2**128 - 1, (2**64 - 1, 2**32 + 5, 3)), (7, (1, 2))):
            state = derive_rng(seed, *path).bit_generator.state["state"]
            assert state["key"].tolist() == [seed % 2**64, seed >> 64]
            assert state["counter"].tolist() == [0, *path, *[0] * (3 - len(path))]

    def test_seeds_from_2_128_and_long_paths_are_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            derive_rng(2**128, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            derive_rng(-1, 0, 0)
        for path in ((-1,), (0, 2**64), (1, 2, 3, 4)):
            with pytest.raises(ValueError, match="path"):
                derive_rng(5, *path)
        # episode indices from 2**32 are ordinary counter words
        assert derive_rng(5, 0, 2**32 + 5).random() != derive_rng(5, 0, 5).random()
        library = make_pair_library()
        with pytest.raises(ValueError, match="seed"):
            _draw_campaign_inputs(library, pair_certificate(), 2, 3, 0.0, 2**128, 0)
        draw = _draw_campaign_inputs(library, pair_certificate(), 2, 3, 0.1, 2**128 - 1, 0)
        assert_draws_equal(draw, draw_campaign_oracle(library, pair_certificate(), 2, 3, 0.1,
                                                      2**128 - 1, 0), library.ids)

    @pytest.mark.parametrize("seed", [0, 11, 2**32 + 5, 2**70 + 7])
    def test_calls_in_blocks_draw_as_one_call(self, seed):
        # The campaign draw reads each quantity's stream one block of
        # episodes per call, so calls split anywhere must read what one call
        # reads.  integers(3) takes half of a 64-bit output and the
        # generator buffers the other half for its next call, for 32- and
        # 64-bit results alike; an 8-bit draw drops its leftover bits at
        # the end of each call, so the campaign draw never uses one.
        for draw in (lambda g, k: g.random(k), lambda g, k: g.standard_normal((k, 2)),
                     lambda g, k: g.integers(3, size=k, dtype=np.int32),
                     lambda g, k: g.integers(7, size=k)):
            whole = draw(derive_rng(seed, 2, 1), 30)
            for cuts in ((1, 29), (7, 8, 15), (3,) * 10):
                gen = derive_rng(seed, 2, 1)
                assert np.array_equal(np.concatenate([draw(gen, k) for k in cuts]), whole)
        gen = derive_rng(seed, 2, 1)
        split = np.concatenate([gen.integers(3, size=k, dtype=np.int8) for k in (1, 29)])
        assert not np.array_equal(split, derive_rng(seed, 2, 1).integers(3, size=30, dtype=np.int8))


class TestRun:
    def test_constant_signal_at_fixed_point_stays_there(self):
        library = make_pair_library()
        prim = library.primitives[1]
        signal = SwitchingSignal((1,) * 21)
        trace = run(library, signal, prim.map.fixed_point, None, 20)
        assert np.max(np.abs(trace.states - prim.map.fixed_point)) == 0.0
        assert trace.in_all_basins.all()

    def test_rate_bound_holds_inside_the_basin(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=4.0),))
        signal = SwitchingSignal((0,) * 31)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0, _ = start_oracle(library, 4.0, rng_batches(itertools.repeat(rng), 2))
            trace = run(library, signal, x0, None, 30)
            values = trace.lyapunov[:, 0]
            for k in range(30):
                if values[k] == 0.0:
                    continue
                assert values[k + 1] <= 0.25 * values[k] + 1e-15

    def test_deterministic_replay(self):
        library = make_pair_library()
        certificate = SimpleNamespace(omega=0.5, n0_bar=2.0, na_bar=2.0)
        x0s, cols, dists, *_ = _draw_campaign_inputs(library, certificate, 1, 40, 0.05, 9, 0)
        signal = SwitchingSignal(np.asarray(library.ids)[cols[0]])
        x0, d = x0s[0], dists[0]
        a = run(library, signal, x0, d, 40)
        b = run(library, signal, x0, d, 40)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.lyapunov, b.lyapunov)

    def test_disturbance_enters_through_the_gain(self):
        library = PrimitiveLibrary((make_primitive(0),))
        signal = SwitchingSignal((0, 0))
        d = np.array([[0.1, 0.2]])
        trace = run(library, signal, np.array([1.0, 0.0]), d, 1)
        assert np.allclose(trace.states[1], [0.6, 0.2], atol=0.0)

    def test_length_validation(self):
        library = make_pair_library()
        signal = SwitchingSignal((0, 0))
        with pytest.raises(ValueError):
            run(library, signal, np.zeros(2), None, 5)
        long_signal = SwitchingSignal((0,) * 6)
        with pytest.raises(ValueError, match="cover 2 steps"):
            run(library, long_signal, np.zeros(2), np.zeros((2, 2)), 5)
        with pytest.raises(ValueError, match="dimension"):
            run(library, long_signal, np.zeros(2), np.zeros((5, 3)), 5)
        with pytest.raises(ValueError, match="shape"):
            run(library, long_signal, np.zeros(2), np.zeros(10), 5)

    def test_unknown_signal_id_rejected(self):
        library = make_pair_library()
        signal = SwitchingSignal((0, 7))
        with pytest.raises(ValueError):
            run(library, signal, np.zeros(2), None, 2)

    def test_shipped_per_stride_switching_regression(self, walker_library, walker_certificate):
        budget = budget_from_certificate(walker_certificate)
        initial, requests, _ = rest_oracle(walker_library, walker_certificate, 1, 200, 0.0,
                                           424242, 7)
        signal = SwitchingSignal(replay_supervisor(walker_library.ids, initial[0], requests[0],
                                                   budget)[0])
        x0, _ = start_oracle(walker_library, walker_certificate.omega,
                             proposal_batches(424242, 7, 1, walker_library.state_dim)[0])
        trace = run(walker_library, signal, x0, None, 200)
        assert validate_dwell_time(signal, budget).valid
        assert trace.in_all_basins.all()
        assert np.array_equal(trace.states[5], np.array(SHIPPED_RUN_STATE_5))
        assert np.array_equal(trace.states[200], np.array(SHIPPED_RUN_STATE_200))
        assert trace.max_min_level == SHIPPED_RUN_MAX_MIN_LEVEL
        assert trace.max_active_step_ratio == SHIPPED_RUN_MAX_STEP_RATIO
        assert trace.max_active_step_ratio <= walker_library.contraction_rate

    def test_trace_csv_export(self, tmp_path):
        library = make_pair_library()
        signal = SwitchingSignal((0, 1, 1))
        trace = run(library, signal, np.array([0.2, 0.1]), None, 2)
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["k", "sigma", "x0"]
        assert len(lines) == 4  # header plus three recorded steps
        assert "in_all_basins" in lines[0]


class TestSafetyMonitor:
    def test_fixed_point_trace_is_safe(self):
        library = PrimitiveLibrary(
            (make_primitive(0, basin_level=1.0), make_primitive(1, basin_level=1.0))
        )
        signal = SwitchingSignal((0,) * 11)
        trace = run(library, signal, np.zeros(2), None, 10)
        assert trace.in_all_basins.all()
        assert trace.first_violation is None
        assert not library.fixed_point_violations()

    def test_escaping_state_is_flagged_with_location(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        signal = SwitchingSignal((0,) * 3)
        trace = run(library, signal, np.array([5.0, 0.0]), None, 2)
        assert trace.first_violation == 0
        for k in np.flatnonzero(~trace.in_all_basins):
            value = library.by_id(0).lyapunov.value(trace.states[k])
            assert value > library.by_id(0).basin_level


class TestTrappingLevel:
    def test_resting_trace_gives_zero(self):
        library = PrimitiveLibrary(
            (make_primitive(0, basin_level=1.0), make_primitive(1, basin_level=1.0))
        )
        signal = SwitchingSignal((0,) * 6)
        trace = run(library, signal, np.zeros(2), None, 5)
        assert trace.max_min_level == 0.0

    def test_level_is_the_max_over_steps_of_the_min_member_value(self):
        library = make_pair_library()
        signal = SwitchingSignal((0,) * 4)
        trace = run(library, signal, np.array([0.8, 0.2]), None, 3)
        manual = 0.0
        for state in trace.states:
            manual = max(
                manual, min(p.lyapunov.value(state) for p in library)
            )
        assert abs(trace.max_min_level - manual) <= 1e-12


def pair_certificate(na=0.5, n0=2.0):
    """A certificate stand-in at ω = 0.5 for the small 2-D test libraries."""
    return SimpleNamespace(omega=0.5, n0_bar=n0, na_bar=na)


def pair_library_with_dist_dim(dist_dim):
    """``make_pair_library`` with a disturbance of ``dist_dim`` components."""
    gain = np.eye(2, dist_dim)
    return PrimitiveLibrary((make_primitive(0, gain=gain),
                             make_primitive(1, center=(1.0, 0.0), gain=gain)))


def assert_episodes_follow_their_stream_slices(library, certificate, draw, seed, stream):
    """Each episode keeps its initial member from its slice of the
    initial-member stream throughout, with no switch request, and its
    disturbances point along its slice of the direction stream."""
    x0s, cols, dists, deferred, _ = draw
    assert deferred == 0
    initial = derive_rng(seed, stream, INITIAL).integers(len(library), size=len(dists))
    every_direction = derive_rng(seed, stream, DIRECTIONS).standard_normal(dists.shape)
    batches = proposal_batches(seed, stream, len(dists), library.state_dim)
    for e, (values, directions) in enumerate(zip(dists, every_direction)):
        start = start_oracle(library, certificate.omega, batches[e])
        assert np.array_equal(start[0], x0s[e])
        assert np.all(cols[e] == initial[e])
        np.testing.assert_allclose(
            values / np.linalg.norm(values, axis=1, keepdims=True),
            directions / np.linalg.norm(directions, axis=1, keepdims=True), rtol=0.0, atol=1e-12)


class TestSamplers:
    """The start states, signals and disturbances of the campaign draw."""

    def test_initial_states_land_in_every_member_core(self):
        library = make_pair_library()
        x0s = _draw_campaign_inputs(library, pair_certificate(), 50, 1, 0.0, 1, 1)[0]
        for x0 in x0s:
            for member in library:
                assert member.lyapunov.value(x0) <= 0.5 + 1e-12

    def test_admissible_signal_validates_at_its_budget(self):
        library = make_pair_library()
        rng = np.random.default_rng(2)
        for case in range(30):
            certificate = pair_certificate(n0=float(rng.uniform(1.0, 2.5)),
                                           na=float(rng.uniform(0.4, 3.0)))
            budget = budget_from_certificate(certificate)
            _, cols, *_ = _draw_campaign_inputs(library, certificate, 4, 80, 0.0, case, 0)
            for row in cols:
                signal = SwitchingSignal(np.asarray(library.ids)[row])
                assert len(signal) == 80
                assert validate_dwell_time(signal, budget).valid, case

    def test_disturbances_respect_the_amplitude(self):
        dists = _draw_campaign_inputs(make_pair_library(), pair_certificate(), 5, 100, 0.25,
                                      3, 0)[2]
        assert np.max(np.linalg.norm(dists, axis=-1)) <= 0.25 + 1e-12

    def test_exact_sup_hits_the_amplitude(self):
        dists = _draw_campaign_inputs(make_pair_library(), pair_certificate(), 5, 100, 0.25,
                                      3, 1, exact_sup=True)[2]
        peaks = np.max(np.linalg.norm(dists, axis=-1), axis=1)
        assert np.all(np.abs(peaks - 0.25) <= 1e-12)

    def test_zero_amplitude_is_all_zeros(self):
        dists = _draw_campaign_inputs(make_pair_library(), pair_certificate(), 3, 10, 0.0, 4, 0)[2]
        assert dists.shape == (3, 10, 2)
        assert np.all(dists == 0.0)

    @pytest.mark.parametrize("dist_dim", [1, 2, 3])
    @pytest.mark.parametrize("amplitude", [1e-3, 0.39, 7.5])
    def test_unit_draws_scale_to_any_amplitude(self, dist_dim, amplitude):
        # The margin draws its disturbances once at amplitude 1 and scales
        # them; that must match drawing at the amplitude from the same streams.
        library = pair_library_with_dist_dim(dist_dim)
        args = (library, pair_certificate(), 3, 200)
        unit = _draw_campaign_inputs(*args, 1.0, 8, dist_dim, exact_sup=True)[2]
        direct = _draw_campaign_inputs(*args, amplitude, 8, dist_dim, exact_sup=True)[2]
        peaks = np.max(np.linalg.norm(unit, axis=-1), axis=1)
        assert peaks == pytest.approx(np.ones(3), rel=1e-15, abs=0.0)
        np.testing.assert_allclose(amplitude * unit, direct, rtol=0.0, atol=1e-15 * amplitude)

    @pytest.mark.parametrize("dist_dim", [1, 2, 3])
    def test_disturbances_are_uniform_in_the_ball(self, dist_dim):
        amplitude = 0.3
        args = (pair_library_with_dist_dim(dist_dim), pair_certificate(), 50, 200, amplitude,
                5, dist_dim)
        norms = np.linalg.norm(_draw_campaign_inputs(*args)[2], axis=-1)
        assert np.all(norms <= amplitude)
        # half the volume of the ball lies within radius amplitude * 2^(-1/m)
        inner = np.mean(norms < amplitude * 2.0 ** (-1.0 / dist_dim))
        assert abs(inner - 0.5) <= 0.03
        scaled = _draw_campaign_inputs(*args, exact_sup=True)[2]
        peaks = np.max(np.linalg.norm(scaled, axis=-1), axis=1)
        assert np.all(np.abs(peaks - amplitude) <= 1e-12)

    def test_one_member_library_draws_no_switch_requests(self):
        library = PrimitiveLibrary((make_primitive(5),))
        draw = _draw_campaign_inputs(library, pair_certificate(), 3, 30, 0.1, 6, 0)
        assert np.asarray(library.ids)[draw[1]].tolist() == [[5] * 30] * 3
        assert_episodes_follow_their_stream_slices(library, pair_certificate(), draw, 6, 0)

    def test_horizon_one_draws_no_switch_requests(self):
        library = make_pair_library()
        draw = _draw_campaign_inputs(library, pair_certificate(), 5, 1, 0.1, 6, 1)
        assert draw[1].shape == (5, 1)
        assert_episodes_follow_their_stream_slices(library, pair_certificate(), draw, 6, 1)


# The campaign draw's quantity addresses derive_rng(seed, stream, q), and
# derive_rng(seed, stream, RETRY, e) for episode e's later start batches.
INITIAL, PROPOSALS, PICKS, DIRECTIONS, RADII, START_DIRECTIONS, START_RADII, RETRY = range(8)


def start_oracle(library, level, batches):
    """A start state: batches of 8 proposals uniform in the ``level``
    ellipsoid of the member with the largest weight determinant, batch b
    the b-th pair of 8 Gaussian directions and 8 uniform radii in
    ``batches``, up to the first proposal inside every member's ``level``
    sublevel set.  Returns the point and the number of proposals drawn up
    to and including it."""
    smallest = max(library, key=lambda p: np.linalg.slogdet(p.lyapunov.weight)[1]).lyapunov
    evals, evecs = np.linalg.eigh(smallest.weight)
    scale = evecs * np.sqrt(level / evals)
    n = library.state_dim
    for batch, (directions, radii) in enumerate(batches):
        lengths = radii ** (1.0 / n) / np.linalg.norm(directions, axis=1)
        points = smallest.center + (directions * lengths[:, None]) @ scale.T
        ok = np.ones(8, dtype=bool)
        for p in library:
            ok &= p.lyapunov.values(points) <= level
        hits = np.flatnonzero(ok)
        if hits.size:
            return points[hits[0]], 8 * batch + int(hits[0]) + 1


def rng_batches(rngs, n):
    """Start proposal batches, batch b from the b-th generator of ``rngs``:
    its 8 Gaussian directions, then its 8 uniform radii."""
    for rng in rngs:
        yield rng.standard_normal((8, n)), rng.random(8)


def proposal_batches(seed, stream, episode_count, n):
    """Each episode's start proposal batches: batch 0 is its slice of the
    whole campaign's start directions and radii, each one draw from its
    stream, and batches 1, 2, ... read its own retry stream
    ``derive_rng(seed, stream, RETRY, e)`` in order."""
    directions = derive_rng(seed, stream, START_DIRECTIONS).standard_normal((episode_count, 8, n))
    radii = derive_rng(seed, stream, START_RADII).random((episode_count, 8))
    return [itertools.chain([(directions[e], radii[e])],
                            rng_batches(itertools.repeat(derive_rng(seed, stream, RETRY, e)), n))
            for e in range(episode_count)]


def rest_oracle(library, certificate, episode_count, horizon, amplitude, seed, stream,
                exact_sup=False):
    """A campaign's inputs after its start states, each quantity one draw
    for the whole campaign from its stream ``derive_rng(seed, stream, q)``,
    episode e's values its e-th slice: the initial members, the Bernoulli
    proposals at rate min(1, 1/na) (not drawn at rate 1, where every step
    proposes), the picks among the other members (episode e's the e-th run
    of as many values as it has proposals), and the disturbance directions
    and radii (not drawn at amplitude 0).  Returns per episode the initial
    id, the requests (r >= 0 asks for the member r + 1 places after the
    current one, cyclically; -1 holds) and the disturbances."""
    rate = min(1.0, 1.0 / budget_from_certificate(certificate).na)
    ids = library.ids
    initial = np.asarray(ids)[derive_rng(seed, stream, INITIAL).integers(len(ids),
                                                                         size=episode_count)]
    requests = np.full((episode_count, horizon - 1), -1, dtype=np.int64)
    if len(ids) > 1 and horizon > 1:
        proposals = np.ones(requests.shape, dtype=bool)
        if rate < 1.0:
            proposals = derive_rng(seed, stream, PROPOSALS).random(requests.shape) < rate
        # a boolean assignment fills row by row: each episode's run in turn
        requests[proposals] = derive_rng(seed, stream, PICKS).integers(
            len(ids) - 1, size=int(np.count_nonzero(proposals)))
    values = np.zeros((episode_count, horizon, library.dist_dim))
    if amplitude != 0.0:
        directions = derive_rng(seed, stream, DIRECTIONS).standard_normal(values.shape)
        radii = derive_rng(seed, stream, RADII).random(values.shape[:2]) ** (1.0 / library.dist_dim)
        norms = np.linalg.norm(directions, axis=2)
        norms[norms == 0.0] = np.inf
        values = directions * (amplitude * radii / norms)[..., None]
        if exact_sup:
            peaks = np.max(np.linalg.norm(values, axis=2), axis=1)
            values[peaks > 0.0] *= (amplitude / peaks[peaks > 0.0])[:, None, None]
    return initial, requests, values


def run_episode(library, certificate, horizon, amplitude, seed, episode):
    """Reference for episode ``episode`` of a campaign, drawn as the last
    episode of a campaign of ``episode + 1``: the start state and the rest
    of its inputs, supervised and rolled out."""
    count = episode + 1
    x0, _ = start_oracle(library, certificate.omega,
                         proposal_batches(seed, 0, count, library.state_dim)[episode])
    initial, requests, dists = rest_oracle(library, certificate, count, horizon, amplitude,
                                           seed, 0)
    sigma, _ = replay_supervisor(library.ids, initial[episode], requests[episode],
                                 budget_from_certificate(certificate))
    return run(library, SwitchingSignal(sigma), x0, dists[episode], horizon)


def draw_campaign_oracle(library, certificate, episode_count, horizon, amplitude, seed, stream,
                         exact_sup=False):
    """Reference for ``_draw_campaign_inputs``: each quantity drawn for the
    whole campaign at once and sliced per episode (``proposal_batches`` and
    ``rest_oracle``), and each episode's start searched and its requests
    supervised on their own.  Returns the draw's ``(x0s, sigmas, dists,
    deferred)`` and each episode's number of start proposals drawn up to
    and including its start."""
    budget = budget_from_certificate(certificate)
    initial, requests, dists = rest_oracle(library, certificate, episode_count, horizon,
                                           amplitude, seed, stream, exact_sup)
    x0s, drawn, sigmas, deferred = [], [], [], 0
    for episode, batches in enumerate(proposal_batches(seed, stream, episode_count,
                                                       library.state_dim)):
        x0, count = start_oracle(library, certificate.omega, batches)
        sigma, admitted = replay_supervisor(library.ids, initial[episode], requests[episode],
                                            budget)
        x0s.append(x0)
        drawn.append(count)
        sigmas.append(sigma)
        deferred += admitted.count(False)
    return np.array(x0s), np.array(sigmas), dists, deferred, drawn


def crossed_library(aspect=100.0):
    """Two 2-D members whose unit sublevel sets are thin ellipses along the
    two diagonals: their intersection fills about 13% of either ellipse, so
    about one start in three needs a second batch of proposals."""
    turn = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    members = []
    for pid, axes in enumerate(((1.0, aspect), (aspect, 1.0))):
        weight = turn @ np.diag(axes) @ turn.T
        members.append(make_primitive(pid, weight=0.5 * (weight + weight.T), basin_level=2.0))
    return PrimitiveLibrary(tuple(members))


def parallel_thin_library(offset):
    """Two 2-D members whose unit sublevel sets are parallel ellipses of
    half-axes 1 and 0.1 along the diagonal, the second centred ``offset``
    down and ``offset`` right of the first, across the thin axes."""
    turn = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    weight = turn @ np.diag([1.0, 100.0]) @ turn.T
    weight = 0.5 * (weight + weight.T)
    return PrimitiveLibrary((make_primitive(0, weight=weight),
                             make_primitive(1, center=(offset, -offset), weight=weight)))


def twelve_dimensional_library():
    """Two 12-D members with identity weights whose centres lie 0.01 apart
    in every coordinate, so each ω-ball pokes out of the other."""
    eye = np.eye(12)
    return PrimitiveLibrary(tuple(
        Primitive(id=i, map=PrimitiveMap(linear=0.5 * eye, fixed_point=c, disturbance_gain=eye),
                  lyapunov=QuadraticLyapunov(weight=eye, center=c), basin_level=2.0,
                  contraction_rate=0.25)
        for i, c in enumerate((np.zeros(12), np.full(12, 0.01)))))


def s_lemma_peak(first, second):
    """max over τ in [0, 1] of F(τ) = min_x τ V_p(x) + (1 - τ) V_q(x), which
    by the S-lemma is min_x max(V_p, V_q): the two ω-sets are disjoint
    exactly when it exceeds ω.  In coordinates that make W_q the identity
    and W_p diag(λ), with e the centre difference there, F(τ) =
    Σ e_i² λ_i τ (1 - τ) / (1 - τ + λ_i τ), and τ is bisected on the sign
    of F'(τ) = Σ e_i² λ_i ((1 - τ)² - λ_i τ²) / (1 - τ + λ_i τ)²."""
    p, q = first.lyapunov, second.lyapunov
    chol = np.linalg.cholesky(q.weight)   # W_q = L Lᵀ; the coordinates are turnᵀ Lᵀ x
    unwhiten = np.linalg.inv(chol)
    lam, turn = np.linalg.eigh(unwhiten @ p.weight @ unwhiten.T)
    gains = lam * (turn.T @ chol.T @ (p.center - q.center)) ** 2
    lo, hi = 0.0, 1.0
    for _ in range(32):   # τ to within 2⁻³² of the maximiser
        tau = 0.5 * (lo + hi)
        den = 1.0 - tau + lam * tau
        if np.sum(gains * ((1.0 - tau) ** 2 - lam * tau ** 2) / den ** 2) > 0.0:
            lo = tau
        else:
            hi = tau
    return float(np.sum(gains * tau * (1.0 - tau) / den))


def assert_draws_equal(draw, oracle, ids):
    x0s, cols, dists, deferred, x0_proposals = draw
    assert np.array_equal(x0s, oracle[0])
    assert np.array_equal(np.asarray(ids)[cols], oracle[1])
    assert np.array_equal(dists, oracle[2])
    assert deferred == oracle[3]
    assert x0_proposals == sum(oracle[4])


class TestMonteCarlo:
    def test_zero_amplitude_campaign_is_clean(self, walker_library, walker_certificate):
        report, traces = monte_carlo(walker_library, walker_certificate, 300, 200, 0.0, 2024)
        assert report.violation_count == 0
        assert report.violation_rate == 0.0
        assert traces == []
        bound = walker_certificate.mu ** walker_certificate.n0_bar * walker_certificate.omega
        assert report.trapping_level <= bound + 1e-9
        assert report.max_step_ratio <= walker_library.contraction_rate + 1e-9

    def test_tenfold_margin_amplitude_breaks_episodes(self, walker_library, walker_certificate):
        amplitude = 10.0 * walker_certificate.delta_hat
        report, _ = monte_carlo(walker_library, walker_certificate, 300, 200, amplitude, 777)
        assert report.violation_rate == SHIPPED_TENFOLD_VIOLATION_RATE
        assert report.violation_rate > 0.0

    def test_campaign_peak_memory_stays_near_its_disturbances(
        self, walker_library, walker_certificate
    ):
        # The (episodes, horizon, m) float64 disturbances are the one array
        # a campaign cannot shrink; everything else the campaign holds at
        # once (requests, member columns, the member order, the draw's
        # blocks) must stay within half of it.
        episodes, horizon = 1000, 200
        monte_carlo(walker_library, walker_certificate, 3, 3, 0.1, 1, keep_traces=1)
        tracemalloc.start()
        try:
            monte_carlo(walker_library, walker_certificate, episodes, horizon, 0.1, 20261019,
                        keep_traces=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        disturbance_bytes = episodes * horizon * walker_library.dist_dim * 8
        assert peak <= 1.5 * disturbance_bytes
        # and within 1.5% of the 3.79 MiB the draw and the stepping reached
        # before their per-step and short-axis passes were taken out
        assert peak <= 3.85 * 2**20

    def test_fingerprint_mismatch_rejected(self, walker_certificate):
        library = make_pair_library()
        with pytest.raises(ValueError):
            monte_carlo(library, walker_certificate, 5, 10, 0.0, 1)

    def test_twelve_dimensional_starts_need_few_proposals(self):
        # Box rejection drew thousands of points per start here; proposals
        # from one member's ω-ball land in the other's about one time in five.
        library = twelve_dimensional_library()
        result = synthesize_certificate(library)
        assert result.feasible
        report, _ = monte_carlo(library, result.certificate, 1000, 50, 0.0, 0)
        assert report.violation_count == 0
        assert report.x0_proposals / report.episodes < 10

    def test_campaign_matches_sequential_episode_replay(self, walker_library, walker_certificate):
        episodes = 40
        report, traces = monte_carlo(
            walker_library, walker_certificate, episodes, 120, 0.02, 99, keep_traces=episodes
        )
        assert len(traces) == episodes
        assert report.trapping_level == max(trace.max_min_level for trace in traces)
        violations = sum(1 for t in traces if not t.in_all_basins.all())
        assert violations == report.violation_count
        replayed = [
            run_episode(walker_library, walker_certificate, 120, 0.02, 99, e)
            for e in range(episodes)
        ]
        for kept, again in zip(traces, replayed):
            assert np.array_equal(kept.states, again.states)
            assert np.array_equal(kept.signal.assignments, again.signal.assignments)
            assert np.array_equal(kept.disturbances, again.disturbances)

    def test_deferred_requests_match_a_scalar_supervisor_replay(
        self, walker_library, walker_certificate
    ):
        # At na = 3 proposals arrive at rate 1/3 and some are deferred.
        certificate = replace(walker_certificate, na_bar=3.0)
        budget = budget_from_certificate(certificate)
        episodes, horizon, ids = 30, 60, list(walker_library.ids)
        report, traces = monte_carlo(
            walker_library, certificate, episodes, horizon, 0.0, 5, keep_traces=episodes
        )
        deferred = 0
        # the start states, then each quantity drawn for the whole campaign
        # and read in episode order: initial members, proposals, picks
        batches = proposal_batches(5, 0, episodes, walker_library.state_dim)
        initial = derive_rng(5, 0, INITIAL).integers(len(ids), size=episodes)
        every_proposal = derive_rng(5, 0, PROPOSALS).random((episodes, horizon - 1)) < 1.0 / 3.0
        picks = iter(derive_rng(5, 0, PICKS).integers(
            len(ids) - 1, size=int(np.count_nonzero(every_proposal))))
        for e, trace in enumerate(traces):
            start = start_oracle(walker_library, certificate.omega, batches[e])
            assert np.array_equal(trace.states[0], start[0])
            supervisor = Supervisor(ids[initial[e]], budget, known_ids=ids)
            for proposed in every_proposal[e]:
                wanted = supervisor.current
                if proposed:
                    wanted = ids[(ids.index(wanted) + 1 + next(picks)) % len(ids)]
                deferred += not supervisor.request(wanted)
            assert np.array_equal(trace.signal.assignments, supervisor.signal.assignments)
        assert deferred > 0
        assert report.deferred_requests == deferred

    def test_report_is_reproducible_from_the_seed(self, walker_library, walker_certificate):
        a, _ = monte_carlo(walker_library, walker_certificate, 60, 80, 0.05, 31)
        b, _ = monte_carlo(walker_library, walker_certificate, 60, 80, 0.05, 31)
        assert a == b


kernel_settings = settings(max_examples=60, derandomize=True, deadline=None, database=None)
# (state_dim, dist_dim, which members carry a quadratic term, numpy seed)
library_specs = st.tuples(
    st.integers(2, 4), st.integers(1, 3), st.lists(st.booleans(), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)


def random_library(state_dim, dist_dim, quadratic_flags, rng):
    """Members around nearby fixed points with linear parts of operator norm
    0.6 and quadratic parts of norm 0.3, so rollouts from the unit box stay
    bounded; ids descend so library order differs from id order."""
    members = []
    for index, has_quadratic in enumerate(quadratic_flags):
        center = rng.uniform(-0.1, 0.1, state_dim)
        linear = rng.normal(size=(state_dim, state_dim))
        linear *= 0.6 / np.linalg.norm(linear, 2)
        quadratic = None
        if has_quadratic:
            raw = rng.normal(size=(state_dim,) * 3)
            raw = raw + raw.transpose(0, 2, 1)
            quadratic = raw * (0.3 / np.sqrt(sum(np.linalg.norm(b, 2) ** 2 for b in raw)))
        basis, _ = np.linalg.qr(rng.normal(size=(state_dim, state_dim)))
        weight = (basis * rng.uniform(0.5, 2.0, state_dim)) @ basis.T
        members.append(Primitive(
            id=9 - 2 * index,
            map=PrimitiveMap(linear, center, rng.normal(size=(state_dim, dist_dim)), quadratic),
            lyapunov=QuadraticLyapunov(weight=0.5 * (weight + weight.T), center=center),
            basin_level=float(rng.uniform(0.01, 0.2)),
            contraction_rate=0.5,
        ))
    return PrimitiveLibrary(tuple(members))


# The row-major kernels of earlier releases: the column-major stacks must
# reproduce them bit for bit.
def row_major_apply_batch(map_, points, disturbances):
    y = np.asarray(points, dtype=float) - map_.fixed_point
    out = map_.fixed_point + y @ map_.linear.T
    if map_.quadratic is not None:
        out = out + np.einsum("ni,kij,nj->nk", y, map_.quadratic, y)
    if disturbances is not None:
        out = out + np.asarray(disturbances, dtype=float) @ map_.disturbance_gain.T
    return out


def row_major_values(lyapunov, points):
    y = np.asarray(points, dtype=float) - lyapunov.center
    return np.einsum("ni,ij,nj->n", y, lyapunov.weight, y)


def member_values_oracle(library, states):
    return np.column_stack([row_major_values(p.lyapunov, states) for p in library])


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(np.ascontiguousarray(actual).view(np.uint64),
                          np.ascontiguousarray(expected).view(np.uint64))


class TestSharedKernel:
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.tuples(st.integers(1, 12), st.integers(1, 3),
                     st.lists(st.booleans(), min_size=1, max_size=3),
                     st.integers(0, 2**32 - 1)),
           st.sampled_from([1, 2, 3]), st.booleans())
    # numpy's matmul takes another route for a lone row, and its einsum sums
    # one or two 2-D rows in another order than a longer batch
    @example((2, 2, [True, False, True], 1), 1, True)
    @example((2, 2, [False, True, False], 2), 2, False)
    def test_a_rows_bits_do_not_depend_on_its_batch(self, spec, rows, disturbed):
        state_dim, dist_dim, flags, seed = spec
        rng = np.random.default_rng(seed)
        library = random_library(state_dim, dist_dim, flags, rng)
        for size in (64, 333):
            states = rng.normal(size=(size, state_dim))
            dists = rng.normal(size=(size, dist_dim)) if disturbed else None
            start = int(rng.integers(size - rows + 1))
            part = slice(start, start + rows)
            small = None if dists is None else dists[part]
            for member in library:
                assert_same_bits(member.map.apply_batch(states[part], small),
                                 member.map.apply_batch(states, dists)[part])
                assert_same_bits(member.lyapunov.values(states[part]),
                                 member.lyapunov.values(states)[part])
            assert_same_bits(library.values(states[part]), library.values(states)[part])
            assert_same_bits(library.values(states),
                             np.column_stack([m.lyapunov.values(states) for m in library]))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.tuples(st.integers(1, 8), st.integers(1, 3),
                     st.lists(st.booleans(), min_size=1, max_size=5),
                     st.integers(0, 2**32 - 1)),
           st.sampled_from([3, 7, 64, 333]), st.booleans())
    def test_kernels_match_the_row_major_oracles(self, spec, rows, disturbed):
        state_dim, dist_dim, flags, seed = spec
        rng = np.random.default_rng(seed)
        library = random_library(state_dim, dist_dim, flags, rng)
        states = rng.normal(size=(rows, state_dim))
        dists = rng.normal(size=(rows, dist_dim)) if disturbed else None
        for member in library:
            assert_same_bits(member.map.apply_batch(states, dists),
                             row_major_apply_batch(member.map, states, dists))
            assert_same_bits(member.lyapunov.values(states),
                             row_major_values(member.lyapunov, states))
        assert_same_bits(library.values(states),
                         member_values_oracle(library, states))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(st.tuples(st.integers(1, 8), st.integers(1, 3),
                     st.lists(st.booleans(), min_size=1, max_size=5),
                     st.integers(0, 2**32 - 1)),
           st.lists(st.sampled_from([0, 1, 2, 3, 40]), min_size=5, max_size=5),
           st.integers(1, 4), st.sampled_from([1.0, 1e150, 1e200]), st.booleans(), st.booleans())
    @example((3, 2, [True, False, True], 7), [0, 1, 2, 0, 0], 1, 1e200, True, True)
    @example((2, 2, [False, True], 3), [2, 0, 0, 0, 0], 2, 1.0, False, True)
    def test_stacked_kernel_matches_the_row_major_oracle_member_by_member(
        self, spec, sizes, blocks, scale, overflowed, disturbed
    ):
        # One _step_stack call steps every member's rows, 0, 1, 2 or more of
        # them, each in `blocks` blocks; each member's rows must be the
        # row-major update by that member alone, in a batch of three or more.
        # At 1e150 and 1e200 the quadratic term overflows; an infinite
        # coordinate must stay out of the members without one.
        state_dim, dist_dim, flags, seed = spec
        rng = np.random.default_rng(seed)
        library = random_library(state_dim, dist_dim, flags, rng)
        members = np.repeat(np.arange(len(library)), sizes[:len(library)])
        if not members.size:
            members = np.zeros(1, dtype=np.int64)
        members = rng.permutation(members)
        points = scale * rng.normal(size=(members.size, blocks, state_dim))
        if overflowed:
            points[rng.random(members.size) < 0.5, :, 0] = np.inf
        dists = rng.normal(size=(members.size, blocks, dist_dim)) if disturbed else None
        gather, back = simulation._member_slots(members[None].astype(np.uint8), len(library),
                                                blocks)
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = simulation._step_stack(library.maps, points, dists, gather[0], back[0])
            assert stepped.shape == points.shape
            for p, member in enumerate(library):
                rows = np.flatnonzero(members == p)
                ours = points[rows].reshape(-1, state_dim)
                pad = max(3 - len(ours), 0)
                expected = row_major_apply_batch(
                    member.map, np.concatenate((ours, np.zeros((pad, state_dim)))),
                    None if dists is None else np.concatenate(
                        (dists[rows].reshape(-1, dist_dim), np.zeros((pad, dist_dim)))))
                assert_same_bits(stepped[rows].reshape(-1, state_dim), expected[:len(ours)])
                if member.map.quadratic is None:
                    # one infinite coordinate makes infinite updates, never NaN
                    assert not np.any(np.isnan(stepped[rows]))

    @kernel_settings
    @given(library_specs, st.integers(1, 8), st.integers(1, 20))
    def test_batch_statistics_match_per_episode_runs(self, spec, count, horizon):
        state_dim, dist_dim, flags, seed = spec
        rng = np.random.default_rng(seed)
        library = random_library(state_dim, dist_dim, flags, rng)
        x0s = rng.uniform(-0.3, 0.3, (count, state_dim))
        cols = rng.integers(len(library), size=(count, horizon))
        dists = rng.uniform(-0.05, 0.05, (count, horizon, dist_dim))
        kept = np.empty((count, horizon + 1, state_dim))
        first, max_min, max_ratio = _batch_stats(library, x0s, cols, dists, kept)
        traces = [
            run(library, SwitchingSignal(np.asarray(library.ids)[cols[e]]), x0s[e], dists[e],
                horizon)
            for e in range(count)
        ]
        violating = {e for e, trace in enumerate(traces) if trace.first_violation is not None}
        assert set(np.flatnonzero(first >= 0).tolist()) == violating
        for e, trace in enumerate(traces):
            assert first[e] == (-1 if trace.first_violation is None else trace.first_violation)
            assert max_min[e] == trace.max_min_level
            assert max_ratio[e] == trace.max_active_step_ratio
            assert np.array_equal(kept[e], trace.states)

    @kernel_settings
    @given(library_specs, st.integers(1, 8), st.integers(1, 20))
    def test_early_stop_verdict_matches_batch_statistics(self, spec, count, horizon):
        # 1e200 overflows the state to inf and then NaN, which must count as
        # an escape on both paths.
        state_dim, dist_dim, flags, seed = spec
        rng = np.random.default_rng(seed)
        library = random_library(state_dim, dist_dim, flags, rng)
        x0s = rng.uniform(-0.1, 0.1, (count, state_dim))
        cols = rng.integers(len(library), size=(count, horizon))
        unit = rng.uniform(-1.0, 1.0, (count, horizon, dist_dim))
        scales = [0.0, 1e-3, 0.05, 1.0, 30.0, 1e200]
        verdicts = _escapes(library, x0s, cols, unit, scales)
        for scale, verdict in zip(scales, verdicts):
            first, _, _ = _batch_stats(library, x0s, cols, scale * unit,
                                       np.empty((0, horizon + 1, state_dim)))
            assert verdict == bool(np.any(first >= 0)), scale

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, 1e200])
    def test_non_finite_states_are_escapes(self, bad_value):
        library = make_pair_library()
        x0s = np.array([[0.1, 0.0], [bad_value, 0.0]])
        sigmas = np.zeros((2, 5), dtype=np.int64)
        dists = np.zeros((2, 5, 2))
        first, max_min, max_ratio = _batch_stats(library, x0s, sigmas, dists,
                                                 np.empty((0, 6, 2)))
        assert first.tolist() == [-1, 0]
        for e in range(2):
            trace = run(library, SwitchingSignal(np.asarray(library.ids)[sigmas[e]]), x0s[e],
                        dists[e], 5)
            assert max_min[e] == trace.max_min_level
            with np.errstate(invalid="ignore"):  # inf / inf
                ratio = trace.max_active_step_ratio
            assert np.array_equal(max_ratio[e], ratio, equal_nan=True)
        assert max_min[1] == np.inf
        assert _escapes(library, x0s, sigmas, dists, [1.0]).tolist() == [True]
        assert _escapes(library, x0s[:1], sigmas[:1], dists[:1], [1.0]).tolist() == [False]

    def test_an_overflowed_negative_lyapunov_value_counts_as_inf(self):
        # A nearly singular 3-D weight: at x = (c, c, c) the i-major sum of
        # V's terms passes -1.97 c^2, which overflows to -inf although V is
        # 1.02 c^2 and every diagonal term is finite.
        weight = np.array([[1.0, -0.99, -0.99], [-0.99, 1.0, 0.99], [-0.99, 0.99, 1.0]])
        eye = np.eye(3)
        library = PrimitiveLibrary((make_primitive(0, center=np.zeros(3), linear=0.5 * eye,
                                                   weight=weight, gain=eye),))
        x0s = np.array([[0.1, 0.0, 0.0], [np.sqrt(1.5e308)] * 3, [0.0, 0.2, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert library.values(x0s)[1, 0] == np.inf
            sigmas = np.zeros((3, 4), dtype=np.int64)
            dists = np.zeros((3, 4, 3))
            first, max_min, _ = _batch_stats(library, x0s, sigmas, dists, np.empty((0, 5, 3)))
            traces = [run(library, SwitchingSignal(np.zeros(4, dtype=np.int64)), x0, dists[0], 4)
                      for x0 in x0s]
            # horizon 0: only the start states are judged
            escaped = _escapes(library, x0s, sigmas[:, :0], dists[:, :0], [1.0])
        assert max_min.tolist() == [trace.max_min_level for trace in traces]
        assert max_min[1] == np.inf
        # the start is far outside the basin, although the state at step 1 is
        # the first whose value is finite
        assert first.tolist() == [-1, 0, -1]
        assert [trace.first_violation for trace in traces] == [None, 0, None]
        assert escaped.tolist() == [True]

    @pytest.mark.parametrize("escape_step", [0, 3, 8, 9, 40, 57])
    def test_early_stop_steps_no_further_than_the_first_escape(self, monkeypatch, escape_step):
        # The first episode rests at the fixed point.  The second starts at
        # |x| = 3 (V = 9 > 4) or is kicked there by the disturbance driving
        # step escape_step - 1, so it first leaves the basin at escape_step.
        # Chunks of 8 steps: the start alone, then states 1-8, 9-16, ...; the
        # rollout stops at the end of the chunk that holds the escape.
        library = PrimitiveLibrary((make_primitive(0, basin_level=4.0),))
        horizon = 60
        x0s = np.zeros((2, 2))
        sigmas = np.zeros((2, horizon), dtype=np.int64)
        dists = np.zeros((2, horizon, 2))
        if escape_step == 0:
            x0s[1, 0] = 3.0
        else:
            dists[1, escape_step - 1, 0] = 3.0
        monkeypatch.setattr(simulation, "_CHUNK_STATES", 16)
        stepped, observed = [], []
        step_stack = simulation._step_stack
        monkeypatch.setattr(simulation, "_step_stack",
                            lambda *a, **k: stepped.append(1) or step_stack(*a, **k))
        member_values = PrimitiveLibrary.values
        monkeypatch.setattr(PrimitiveLibrary, "values",
                            lambda lib, x: observed.append(len(x)) or member_values(lib, x))
        assert _escapes(library, x0s, sigmas, dists, [1.0]).tolist() == [True]
        chunk_end = min(-(-escape_step // 8) * 8, horizon)
        assert len(stepped) == chunk_end
        # one evaluation per chunk, of every state in it
        tail = [2 * (chunk_end % 8)] if chunk_end % 8 else []
        assert observed == [2] + [16] * (chunk_end // 8) + tail
        first, _, _ = _batch_stats(library, x0s, sigmas, dists,
                                   np.empty((0, horizon + 1, 2)))
        assert first.tolist() == [-1, escape_step]


class TestCampaignDraw:
    @kernel_settings
    @given(library_specs,
           st.sampled_from([1, 2, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1,
                            2 * _DRAW_BLOCK + 5]),
           st.sampled_from([1, 2, 9]), st.sampled_from([0.0, 0.05, 2.0]), st.booleans(),
           st.sampled_from([0.5, 1.0, 3.0]))
    @example((2, 2, [False], 5), _DRAW_BLOCK + 1, 1, 0.05, True, 1.0)  # one member
    @example((3, 1, [True, False, True], 9), 1, 9, 0.0, False, 3.0)
    def test_block_draw_matches_the_per_episode_oracle(
        self, spec, episodes, horizon, amplitude, exact_sup, na
    ):
        state_dim, dist_dim, flags, seed = spec
        library = random_library(state_dim, dist_dim, flags, np.random.default_rng(seed))
        # a level holding every fixed point, so the ω-intersection is not empty
        level = 1.5 * max(float(p.lyapunov.value(q.lyapunov.center))
                          for p in library for q in library) + 0.02
        certificate = SimpleNamespace(omega=level, n0_bar=1.0, na_bar=na)
        args = (library, certificate, episodes, horizon, amplitude, seed % 1000, 1, exact_sup)
        assert_draws_equal(_draw_campaign_inputs(*args), draw_campaign_oracle(*args), library.ids)

    @kernel_settings
    @given(st.integers(1, 4), st.sampled_from([1, 2, 9, 40]), st.sampled_from([3, 70]),
           st.sampled_from([0.5, 1.0, 3.0]), st.integers(0, 2**32 - 1))
    @example(1, 1, 3, 1.0, 0)
    @example(4, 1, 70, 3.0, 1)
    def test_columns_map_to_the_oracle_signals_for_ids_far_from_them(
        self, members, horizon, episodes, na, seed
    ):
        # ids far from 0..P-1, so a column used as an id, or an id as a
        # column, shows
        rng = np.random.default_rng(seed)
        library = random_library(2, 2, [k % 2 == 0 for k in range(members)], rng)
        library = PrimitiveLibrary(tuple(replace(p, id=10**12 + 7 * k)
                                         for k, p in enumerate(library)))
        level = 1.5 * max(float(p.lyapunov.value(q.lyapunov.center))
                          for p in library for q in library) + 0.02
        certificate = SimpleNamespace(omega=level, n0_bar=1.0, na_bar=na)
        args = (library, certificate, episodes, horizon, 0.05, seed % 1000, 0)
        draw = _draw_campaign_inputs(*args)
        cols = draw[1]
        assert cols.shape == (episodes, horizon)
        assert cols.dtype == np.min_scalar_type(members)
        assert_draws_equal(draw, draw_campaign_oracle(*args), library.ids)

    def test_starts_rejected_by_a_whole_batch_are_redrawn_exactly(self, monkeypatch):
        library = crossed_library()
        certificate = SimpleNamespace(omega=1.0, n0_bar=1.0, na_bar=2.0)
        args = (library, certificate, 2 * _DRAW_BLOCK + 22, 30, 0.2, 4, 0, True)
        oracle = draw_campaign_oracle(*args)
        slow = [e for e, drawn in enumerate(oracle[4]) if drawn > _X0_BATCH]
        assert len(slow) >= 3 and max(oracle[4]) > 2 * _X0_BATCH
        assert any(e < _DRAW_BLOCK for e in slow) and any(e >= _DRAW_BLOCK for e in slow)
        derived = []
        derive = simulation.derive_rng
        monkeypatch.setattr(simulation, "derive_rng",
                            lambda *path: derived.append(path) or derive(*path))
        assert_draws_equal(_draw_campaign_inputs(*args), oracle, library.ids)
        # each quantity's stream is keyed once, and only the episodes whose
        # first batch missed read a retry address, each once
        assert derived == [(4, 0, q) for q in range(RETRY)] + [(4, 0, RETRY, e) for e in slow]

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("make_library, level", [
        (crossed_library, 1.0), (twelve_dimensional_library, 0.0024)])
    def test_rows_depend_on_neither_the_block_nor_the_episode_count(
        self, monkeypatch, block, make_library, level
    ):
        library = make_library()
        certificate = SimpleNamespace(omega=level, n0_bar=1.0, na_bar=2.0)
        args = (library, certificate, 150, 20, 0.2, 12, 0)
        whole = _draw_campaign_inputs(*args)
        monkeypatch.setattr(simulation, "_DRAW_BLOCK", block)
        assert_same_draw(_draw_campaign_inputs(*args), whole)
        # the first 41 episodes of a 150-episode draw are a 41-episode draw
        prefix = _draw_campaign_inputs(library, certificate, 41, *args[3:])
        for part, full in zip(prefix[:3], whole[:3]):
            assert np.array_equal(part, full[:41])

    def test_disjoint_omega_sets_fail_before_drawing(self):
        # unit weights, centres (0, 0) and (1, 0): the ω = 0.1 discs are
        # 0.63 across and 1 apart; in 12-D, the ω = 2e-4 balls have radius
        # 0.014 and their centres are 0.035 apart
        for library, omega in ((make_pair_library(), 0.1), (twelve_dimensional_library(), 2e-4)):
            certificate = SimpleNamespace(omega=omega, n0_bar=1.0, na_bar=2.0)
            started = time.process_time()
            with pytest.raises(ValueError, match="members 0 and 1 are disjoint"):
                _draw_campaign_inputs(library, certificate, 5, 10, 0.1, 1, 0)
            assert time.process_time() - started < 0.5

    def test_parallel_thin_omega_sets_fail_before_drawing(self):
        # two thin parallel ellipses 0.42 apart across their 0.1 half-widths:
        # their boxes overlap, the sets do not, which the pair minimum decides
        library = parallel_thin_library(0.3)
        certificate = SimpleNamespace(omega=1.0, n0_bar=1.0, na_bar=2.0)
        started = time.process_time()
        with pytest.raises(ValueError, match="members 0 and 1 are disjoint"):
            _draw_campaign_inputs(library, certificate, 5, 10, 0.1, 1, 0)
        assert time.process_time() - started < 0.5
        # 0.198 apart, they overlap by 0.002 and pass
        simulation._check_pairs_meet(parallel_thin_library(0.14), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8))
    def test_pair_minimum_matches_the_s_lemma_bisection(self, seed, dim):
        rng = np.random.default_rng(seed)
        eye = np.eye(dim)
        members = []
        for pid in range(2):
            turn = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
            weight = turn @ np.diag(rng.uniform(0.2, 5.0, dim)) @ turn.T
            members.append(make_primitive(pid, center=rng.uniform(-1.0, 1.0, dim), linear=0.5 * eye,
                                          weight=0.5 * (weight + weight.T), gain=eye))
        library = PrimitiveLibrary(tuple(members))
        peak = s_lemma_peak(*members)
        simulation._check_pairs_meet(library, peak * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="members 0 and 1 are disjoint"):
            simulation._check_pairs_meet(library, peak * (1.0 - 1e-6))
        p, q = (member.lyapunov for member in members)
        for level in (peak * (1.0 - 1e-6), peak * (1.0 + 1e-6), peak * rng.uniform(0.1, 10.0)):
            lowest = _level_min(p, q, level)
            samples = sublevel_samples(q, level, 2000, rng)
            assert lowest <= p.values(samples).min() * (1.0 + 1e-9), level

    def test_an_exhausted_start_search_is_a_value_error(self, monkeypatch):
        # three unit-weight discs of radius 0.548 on a triangle of side 1:
        # each pair meets, but the circumradius 0.577 exceeds the radius, so
        # no point lies in all three
        library = PrimitiveLibrary(tuple(
            make_primitive(pid, center=center)
            for pid, center in enumerate(((0.0, 0.0), (1.0, 0.0), (0.5, 0.5 * np.sqrt(3.0))))))
        certificate = SimpleNamespace(omega=0.3, n0_bar=1.0, na_bar=2.0)
        monkeypatch.setattr(simulation, "_MAX_X0_BATCHES", 3)
        with pytest.raises(ValueError, match="no start in the omega-intersection after 3 batches"):
            _draw_campaign_inputs(library, certificate, 2, 10, 0.1, 1, 0)

    def test_unused_quantities_are_not_drawn_and_move_no_other(
        self, walker_library, walker_certificate
    ):
        # disturbances are drawn only off amplitude 0, and proposals only
        # below rate 1; each quantity reads its own stream, so the others
        # keep their values
        args = (walker_library, walker_certificate, _DRAW_BLOCK + 9, 50)
        still = _draw_campaign_inputs(*args, 0.0, 3, 0)
        moved = _draw_campaign_inputs(*args, 0.1, 3, 0)
        assert np.array_equal(still[0], moved[0]) and np.array_equal(still[1], moved[1])
        assert still[3:] == moved[3:]
        assert not np.any(still[2]) and np.all(np.any(moved[2], axis=2))
        deferring = replace(walker_certificate, na_bar=3.0)
        slow = _draw_campaign_inputs(walker_library, deferring, *args[2:], 0.1, 3, 0)
        assert np.array_equal(slow[0], moved[0]) and np.array_equal(slow[2], moved[2])
        assert slow[4] == moved[4] and not np.array_equal(slow[1], moved[1])

    def test_every_na_bar_up_to_one_draws_the_same_campaign(self, walker_library,
                                                            walker_certificate):
        # any na_bar <= 1 admits a switch at every step, so the budget reads
        # it as 1: a subnormal na_bar, whose reciprocal overflows, draws and
        # supervises as the shipped one does
        args = (_DRAW_BLOCK + 9, 50, 0.1, 3, 0)
        shipped = _draw_campaign_inputs(walker_library, walker_certificate, *args)
        for na_bar in (0.0, 1e-320, 0.438, 1.0):
            certificate = replace(walker_certificate, na_bar=na_bar)
            assert budget_from_certificate(certificate).na == 1.0
            assert_same_draw(_draw_campaign_inputs(walker_library, certificate, *args), shipped)
        assert shipped[3] == 0

    def test_shipped_campaign_draw_matches_the_oracle(self, walker_library, walker_certificate):
        for seed, amplitude, exact_sup in ((11, 0.1, False), (11, 1.0, True), (11, 0.0, False),
                                           (2**32 + 3, 0.1, False), (2**128 - 1, 1.0, True)):
            args = (walker_library, walker_certificate, _DRAW_BLOCK + 9, 200, amplitude, seed, 0,
                    exact_sup)
            assert_draws_equal(_draw_campaign_inputs(*args), draw_campaign_oracle(*args),
                               walker_library.ids)


def assert_same_draw(draw, other):
    assert all(np.array_equal(a, b) for a, b in zip(draw[:3], other[:3]))
    assert draw[3:] == other[3:]


# The stepping kernel and the margin bisection of earlier releases: one
# amplitude per rollout, one amplitude after another.
def grouped_rollout_oracle(library, x0s, cols, dists, observe):
    """Step the episodes jointly, passing ``observe(k, x_k)`` the (episodes,
    n) states for k = 0..horizon, and stop once it returns a truthy value;
    at step k every member updates the rows it drives with ``apply_batch``."""
    members = list(library)
    x = np.array(x0s, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if observe(0, x):
            return
        for k in range(cols.shape[1]):
            col = cols[:, k]
            x_next = np.empty_like(x)
            for j, p in enumerate(members):
                rows = np.flatnonzero(col == j)
                if rows.size:
                    x_next[rows] = p.map.apply_batch(x[rows], dists[rows, k])
            x = x_next
            if observe(k + 1, x):
                return


def sequential_escapes_oracle(library, x0s, cols, dists):
    levels = np.array([p.basin_level for p in library])
    escaped = False

    def observe(k, x):
        nonlocal escaped
        escaped = not np.all(library.values(x) <= levels[None, :])
        return escaped

    grouped_rollout_oracle(library, x0s, cols, dists, observe)
    return escaped


def sequential_margin_oracle(library, certificate, trial_budget, seed, horizon=200, upper=1.0,
                             iterations=20, rel_tol=1e-3):
    x0s, cols, unit, *_ = _draw_campaign_inputs(
        library, certificate, trial_budget, horizon, 1.0, seed, 1, exact_sup=True)
    evaluations = []

    def violated(amplitude):
        bad = sequential_escapes_oracle(library, x0s, cols, amplitude * unit)
        evaluations.append((amplitude, bad))
        return bad

    if not violated(upper):
        return MarginEstimate(upper, upper, trial_budget, horizon, int(seed), tuple(evaluations))
    lo, hi = 0.0, upper
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if violated(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= rel_tol * hi:
            break
    return MarginEstimate(lo, upper, trial_budget, horizon, int(seed), tuple(evaluations))


def margin_library(spec):
    """A random library with basins three times a start level that holds
    every fixed point, and a certificate stand-in at that level."""
    state_dim, dist_dim, flags, seed = spec
    library = random_library(state_dim, dist_dim, flags, np.random.default_rng(seed))
    level = 1.5 * max(float(p.lyapunov.value(q.lyapunov.center))
                      for p in library for q in library) + 0.02
    library = PrimitiveLibrary(tuple(replace(p, basin_level=3.0 * level) for p in library))
    certificate = SimpleNamespace(omega=level, n0_bar=1.0, na_bar=1.5,
                                  library_fingerprint=library_fingerprint(library))
    return library, certificate


class TestStackedRollout:
    @kernel_settings
    @given(library_specs, st.sampled_from([1, 2, 3, 5, 7, 64]), st.sampled_from([1, 2, 40]),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 64, 4096]))
    @example((2, 2, [True, True, True], 4), 3, 40, 8, 4096)  # each member may drive one episode
    def test_stacked_states_match_per_amplitude_rollouts(self, spec, episodes, horizon, seed,
                                                         chunk_states):
        state_dim, dist_dim, flags, library_seed = spec
        library = random_library(state_dim, dist_dim, flags, np.random.default_rng(library_seed))
        rng = np.random.default_rng(seed)
        x0s = rng.uniform(-0.3, 0.3, (episodes, state_dim))
        cols = rng.integers(len(library), size=(episodes, horizon))
        unit = rng.uniform(-1.0, 1.0, (episodes, horizon, dist_dim))
        scales = rng.choice([0.0, 0.01, 0.3, 1.0, 3.0, 1e200], size=rng.integers(1, 9))
        # block b asks to be dropped at state stops[b]; horizon + 1 keeps it
        # to the end.  The drop takes effect at the end of that chunk.
        stops = rng.integers(0, horizon + 2, size=scales.size)
        recorded = [[] for _ in scales]
        live = np.arange(scales.size)

        def observe(k, xs):
            nonlocal live
            assert xs.shape[1:] == (episodes, live.size, state_dim)
            last = k + len(xs) - 1
            assert len(xs) == (1 if k == 0 else
                               min(max(chunk_states // (episodes * live.size), 1), horizon - k + 1))
            for i, b in enumerate(live):
                recorded[b].extend(xs[:, :, i].copy())
            keep = stops[live] > last
            live = live[keep]
            return keep

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_CHUNK_STATES", chunk_states)
            simulation._rollout(library, x0s, cols, unit, scales, observe)
        for b, scale in enumerate(scales):
            expected = []
            grouped_rollout_oracle(library, x0s, cols, scale * unit,
                                   lambda k, x: expected.append(x.copy()))
            assert min(stops[b], horizon) + 1 <= len(recorded[b]) <= len(expected)
            assert_same_bits(np.array(recorded[b]), np.array(expected[:len(recorded[b])]))

    def test_escape_verdicts_do_not_depend_on_the_stack(self):
        # einsum sums one or two 2-D rows in another order than three or
        # more: at a basin level between the two sums, the stacked verdicts
        # of one or two episodes must be those of a rollout of each amplitude.
        rng = np.random.default_rng(3)
        weight = rng.normal(size=(2, 2))
        weight = weight @ weight.T + np.eye(2)
        lyapunov = QuadraticLyapunov(weight=weight, center=np.zeros(2))
        points = rng.normal(size=(128, 2))
        stacked = lyapunov.values(points)
        alone = np.array([row_major_values(lyapunov, points[i:i + 1])[0]
                          for i in range(len(points))])
        differ = np.flatnonzero(stacked != alone)
        if not differ.size:
            pytest.skip("this numpy sums a lone point as it sums a batch")
        for i in differ[:4]:
            level = min(stacked[i], alone[i])
            library = PrimitiveLibrary((make_primitive(0, weight=weight, basin_level=level),))
            for count in (1, 2):
                x0s = np.repeat(points[i:i + 1], count, axis=0)
                cols = np.zeros((count, 0), dtype=np.int64)
                unit = np.zeros((count, 0, 2))
                expected = sequential_escapes_oracle(library, x0s, cols, unit)
                verdicts = _escapes(library, x0s, cols, unit, [0.0, 1.0, 2.0])
                assert verdicts.tolist() == [expected] * 3

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(library_specs, st.sampled_from([64, 7, 5, 3, 2, 1]), st.sampled_from([40, 2, 1]),
           st.sampled_from([1.0, 4.0, 0.3, 50.0]), st.sampled_from([1e-3, 0.0, 0.3]),
           st.sampled_from([20, 7, 4, 3, 2, 0]))
    @example((2, 2, [True, False], 6), 7, 40, 1e-9, 1e-3, 20)  # upper holds: one rollout
    def test_stacked_rounds_match_the_sequential_bisection(
        self, spec, trials, horizon, upper, rel_tol, iterations
    ):
        library, certificate = margin_library(spec)
        seed = spec[3] % 1000
        calls = []
        escapes = simulation._escapes
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulation, "_escapes",
                          lambda *a: calls.append(list(a[4])) or escapes(*a))
            for name, value in (("MARGIN_HORIZON", horizon), ("MARGIN_UPPER", upper),
                                ("MARGIN_ITERATIONS", iterations), ("MARGIN_REL_TOL", rel_tol)):
                patch.setattr(simulation, name, value)
            estimate = estimate_disturbance_margin(library, certificate, trials, seed)
        oracle = sequential_margin_oracle(library, certificate, trials, seed, horizon, upper,
                                          iterations, rel_tol)
        for field in fields(MarginEstimate):
            assert getattr(estimate, field.name) == getattr(oracle, field.name), field.name
        # upper alone, then one stacked rollout per round of the walked path,
        # each holding every midpoint its round could test
        tested = [amplitude for amplitude, _ in estimate.evaluations]
        assert calls[0] == [upper]
        assert len(calls) == 1 + math.ceil((len(tested) - 1) / _ROUND_DEPTH)
        for i, call in enumerate(calls[1:]):
            depth = min(_ROUND_DEPTH, iterations - i * _ROUND_DEPTH)
            assert len(call) == 2 ** depth - 1
            walked = tested[1 + i * _ROUND_DEPTH:1 + (i + 1) * _ROUND_DEPTH]
            assert call[0] == walked[0] and set(walked) <= set(call)
