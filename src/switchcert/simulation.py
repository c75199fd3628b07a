"""Closed-loop rollouts, Monte Carlo campaigns and the sampled disturbance margin.

Every rollout-based estimate lives here, and none is a proof:
``monte_carlo`` draws its episodes on stream ``_EPISODE_STREAM``, and
``estimate_disturbance_margin`` bisects the amplitude over one sample drawn
on ``_MARGIN_STREAM`` in a fixed search (``MARGIN_*``).  The proven
constants are in ``certificates``, which imports nothing from this module.

Runs and campaigns never abort on a safety violation; they record per-step
Lyapunov values and basin membership so that the first escape can be
located.  Only ``_escapes``, the margin's yes/no question, stops stepping
each amplitude at its first escape.  Every one of these checks reads the
library's own ``levels`` and ``values``: a state is safe when each member's
Lyapunov value is at most that member's basin level.

All campaign randomness derives from one root seed through a counter-based
generator, Philox (Salmon, Moraes, Dror & Shaw, SC 2011): the seed is its
key and a path of up to three words its counter words 1-3.  A campaign on
``stream`` reads each input quantity q, for every episode in episode order,
from its own address ``derive_rng(seed, stream, q)``, and episode e's start
proposals after its first batch from ``derive_rng(seed, stream, _RETRY,
e)``; ``_draw_campaign_inputs`` lays the quantities out.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import numpy.random  # numpy 2 loads it lazily, on the first default_rng

from .library_io import library_fingerprint, write_table
from .primitives import (_MIN_BATCH, PrimitiveLibrary, _ball_points, _ellipsoid_frame,
                         _ellipsoid_points, _level_min, _step_stack, _sum_of_squares)
from .switching import DwellTimeBudget, SwitchingSignal, _supervise_columns

# Start proposals per batch; an episode whose first batch holds no start
# reads further batches from its own retry address, up to _MAX_X0_BATCHES.
_X0_BATCH = 8
_MAX_X0_BATCHES = 200_000
# The campaign draw's addresses derive_rng(seed, stream, q), one per input
# quantity, and derive_rng(seed, stream, _RETRY, e) for episode e's retries.
(_INITIAL, _PROPOSALS, _PICKS, _DIRECTIONS, _RADII, _START_DIRECTIONS, _START_RADII,
 _RETRY) = range(8)


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """The Philox generator keyed by ``seed`` (0..2**128 - 1) whose counter
    words 1-3 hold ``path``, up to three words in 0..2**64 - 1.  Word 0
    counts blocks of four 64-bit outputs, so each path owns 2**66 draws,
    read in order: a campaign reads each quantity's address as one stream,
    so its first episodes are a prefix of it."""
    seed, path = int(seed), [int(p) for p in path]
    if not 0 <= seed < 1 << 128:
        raise ValueError("seed must lie in 0..2**128 - 1")
    if len(path) > 3 or not all(0 <= p < 1 << 64 for p in path):
        raise ValueError("a stream path is at most three words in 0..2**64 - 1")
    counter = sum(p << 64 * (i + 1) for i, p in enumerate(path))
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@dataclass(frozen=True)
class Trace:
    """One rollout: states x_0..x_K, the driving signal and disturbances, and
    per-step Lyapunov values for every library member.

    ``Trace.of`` builds one from a library and its rollout's states, so the
    Lyapunov and basin columns of ``run``, of kept campaign traces and of a
    walker scenario's reduced states come from the one evaluation,
    ``PrimitiveLibrary.values`` against ``PrimitiveLibrary.levels``.
    """

    states: np.ndarray            # (K+1, n)
    signal: SwitchingSignal       # first K entries drive the steps
    disturbances: np.ndarray      # (K, m)
    lyapunov: np.ndarray          # (K+1, P), columns ordered as library ids
    member_ids: tuple[int, ...]
    in_all_basins: np.ndarray     # (K+1,) bool

    @classmethod
    def of(cls, library: PrimitiveLibrary, states: np.ndarray, signal: SwitchingSignal,
           disturbances: np.ndarray, **extra):
        """The trace of ``library``'s rollout ``states``, with its Lyapunov and
        basin columns; ``extra`` holds a subclass's own fields."""
        with np.errstate(over="ignore", invalid="ignore"):
            lyapunov = library.values(states)
            in_all = np.all(lyapunov <= library.levels, axis=1)  # NaN compares false
        return cls(states=states, signal=signal, disturbances=disturbances, lyapunov=lyapunov,
                   member_ids=library.ids, in_all_basins=in_all, **extra)

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1

    @property
    def first_violation(self) -> int | None:
        bad = np.flatnonzero(~self.in_all_basins)
        return int(bad[0]) if bad.size else None

    @property
    def max_min_level(self) -> float:
        """Largest over time of the smallest Lyapunov value over members.

        States with non-finite coordinates count as +inf.
        """
        per_step = np.min(self.lyapunov, axis=1)
        per_step = np.where(np.isfinite(per_step), per_step, np.inf)
        return float(np.max(per_step))

    @property
    def max_active_step_ratio(self) -> float:
        """Max over steps of V_active(x_{k+1}) / V_active(x_k).

        The active member is the one whose map produced the step.  Steps that
        start exactly at the active fixed point (zero denominator) are
        skipped; 0.0 if no step has a positive denominator.
        """
        horizon = self.horizon
        if horizon == 0:
            return 0.0
        cols = _member_columns(self.member_ids, self.signal.assignments[:horizon])
        rows = np.arange(horizon)
        den = self.lyapunov[rows, cols]
        num = self.lyapunov[rows + 1, cols]
        ok = den > 0.0
        if not np.any(ok):
            return 0.0
        return float(np.max(num[ok] / den[ok]))

    def to_csv(self, path: str | Path) -> None:
        """Write the rollout as ``k, sigma, x*, V_*, in_all_basins`` rows; the
        last state repeats the signal's last entry."""
        steps = np.arange(self.states.shape[0])
        sigma = self.signal.assignments
        header = ["k", "sigma"] + [f"x{i}" for i in range(self.states.shape[1])]
        header += [f"V_{pid}" for pid in self.member_ids] + ["in_all_basins"]
        write_table(path, header, [steps, sigma[np.minimum(steps, sigma.size - 1)],
                                   *self.states.T, *self.lyapunov.T, self.in_all_basins])


def _member_columns(ids, assignments: np.ndarray) -> np.ndarray:
    """Index in ``ids`` of each assigned id."""
    match = assignments[..., None] == np.asarray(ids)
    known = np.any(match, axis=-1)
    if not np.all(known):
        missing = sorted(set(assignments[~known].tolist()))
        raise ValueError(f"signal uses ids {missing} not present in the library")
    return np.argmax(match, axis=-1)


# States per chunk of steps: a rollout sorts the member columns of, and
# hands its observers the states of, as many steps at a time as keep a chunk
# within this many states (at least one step).  Observing a chunk takes
# about 90 bytes per state on the shipped library; at 4096 states a
# 1000-episode campaign's traced peak stays at that of observing one step
# at a time (4.17 MB), and 6000 to 12000 stepped the margin no faster.
_CHUNK_STATES = 4096


def _member_slots(chunk: np.ndarray, members: int, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``gather`` and ``back`` arguments of ``_step_stack`` for each step
    of a chunk, from its (steps, episodes) narrow member columns ``chunk``,
    every episode a row of ``blocks`` states.

    Episode e takes slot i of its member's stack, i counting the episodes
    before e that the member drives at that step.  ``gather`` (steps, P, M)
    holds each slot's episode, episode 0 for a padding slot, and ``back``
    (steps, episodes) each episode's slot p · M + i.  M is the most
    episodes a member drives at any step of the chunk, and at least
    ``_MIN_BATCH / blocks``.
    """
    steps, count = chunk.shape
    # (step, member) keys of 8 or 16 bits sort by radix
    keys = (chunk + np.arange(0, steps * members, members,
                              dtype=np.min_scalar_type(steps * members))[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    sizes = np.bincount(keys, minlength=steps * members)
    width = max(int(sizes.max()), -(-_MIN_BATCH // blocks))
    keys = keys[order].astype(np.intp)
    ranks = np.arange(keys.size) - (np.cumsum(sizes) - sizes)[keys]
    # each key's step, its member and its episode (order = step · count +
    # episode) by one division: numpy divides by a scalar far faster than
    # it takes a remainder
    step = keys // members
    # int32 indices: a chunk's (P, M) stacks stay far below 2**31 slots
    gather = np.zeros((steps, members, width), dtype=np.int32)
    gather.reshape(-1)[keys * width + ranks] = order - step * count
    back = np.empty((steps, count), dtype=np.int32)
    back.reshape(-1)[order] = (keys - step * members) * width + ranks
    return gather, back


def _rollout(library: PrimitiveLibrary, x0s: np.ndarray, cols: np.ndarray, unit: np.ndarray,
             scales, observe: Callable[[int, np.ndarray], np.ndarray | None]) -> None:
    """Step a batch of episodes jointly under blocks of scaled disturbances.

    Every block starts at ``x0s``.  At step k, member ``cols[e, k]`` (a
    library index) drives episode e in every block, block b under
    disturbance ``scales[b] * unit[e, k]``.  ``observe(k, xs)`` sees the
    states k .. k + len(xs) - 1 as ``xs`` (steps, episodes, blocks, n): the
    start states alone, then the states of each chunk of steps once the
    chunk is stepped, as many steps as fit ``_CHUNK_STATES``.  It returns
    None to keep every block, or a mask of the blocks to keep, which takes
    effect at the next chunk; stepping stops once none is left.  Overflow
    and NaN propagate silently, so escapes are recorded rather than raised.

    ``cols`` may have any integer dtype and layout; campaigns pass the
    draw's narrow step-major columns.  Each chunk's member columns are
    sorted once (``_member_slots``), and each step is one ``_step_stack``
    call that updates every member, the kernel behind
    ``PrimitiveMap.apply_batch``, whose rows go straight into the chunk the
    observers read.  So ``run``, campaigns and the margin step through one
    kernel.
    """
    maps = library.maps
    members = len(library)
    count, horizon = cols.shape
    narrow = np.min_scalar_type(members)
    scales = np.asarray(scales, dtype=float)
    n = x0s.shape[1]
    x = np.repeat(np.asarray(x0s, dtype=float)[:, None], scales.size, axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        keep = observe(0, x[None])
        start = 0
        while start < horizon:
            if keep is not None and not np.all(keep):
                if not np.any(keep):
                    return
                x, scales = x[:, keep], scales[keep]
            steps = min(max(_CHUNK_STATES // max(count * scales.size, 1), 1), horizon - start)
            chunk = cols[:, start:start + steps].T.astype(narrow, copy=False)
            gather, back = _member_slots(chunk, members, scales.size)
            states = np.empty((steps, count, scales.size, n))
            dists = unit[:, start:start + steps].transpose(1, 0, 2)[:, :, None] * scales[:, None]
            for t in range(steps):
                x = _step_stack(maps, x, dists[t], gather[t], back[t], out=states[t])
            keep = observe(start + 1, states)
            start += steps


def run(
    library: PrimitiveLibrary,
    signal: SwitchingSignal,
    x0: np.ndarray,
    disturbances: np.ndarray | None,
    horizon: int,
) -> Trace:
    """Roll the switched system forward for ``horizon`` steps.

    ``disturbances`` is a (steps, m) array with steps >= ``horizon``, or
    None for none.  The rollout continues through basin escapes and
    non-finite states; the trace flags them instead of raising.
    """
    horizon = int(horizon)
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if len(signal) < horizon:
        raise ValueError(f"signal covers {len(signal)} steps, horizon is {horizon}")
    if disturbances is None:
        disturbances = np.zeros((horizon, library.dist_dim))
    dvals = np.asarray(disturbances, dtype=float)
    if dvals.ndim != 2:
        raise ValueError("disturbances must have shape (steps, dist_dim)")
    if dvals.shape[0] < horizon:
        raise ValueError(f"disturbances cover {dvals.shape[0]} steps, horizon is {horizon}")
    if dvals.shape[1] != library.dist_dim:
        raise ValueError("disturbance dimension does not match the library")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (library.state_dim,):
        raise ValueError(f"x0 must have shape ({library.state_dim},)")
    cols = _member_columns(library.ids, signal.assignments[None, :horizon])
    states = np.empty((horizon + 1, library.state_dim))

    def record(k: int, xs: np.ndarray) -> None:
        states[k:k + len(xs)] = xs[:, 0, 0]

    _rollout(library, x0[None], cols, dvals[None, :horizon], (1.0,), record)
    return Trace.of(library, states, signal, dvals[:horizon].copy())


def _shape_disturbances(values: np.ndarray, radii: np.ndarray, amplitude: float,
                        exact_sup: bool) -> None:
    """Turn Gaussian directions ``values`` (..., steps, dist_dim) in place
    into vectors uniform in the amplitude ball, with lengths amplitude ·
    radii^(1/dist_dim) for uniforms ``radii`` (..., steps); with
    ``exact_sup`` each sequence is rescaled so its largest norm equals the
    amplitude.  Every sequence is shaped as it would be on its own."""
    _ball_points(values, radii, amplitude)
    if exact_sup:
        # sqrt is monotone, so the largest norm is the root of the largest square
        peaks = np.sqrt(np.max(_sum_of_squares(np.moveaxis(values, -1, 0)), axis=-1,
                               keepdims=True))
        values *= np.divide(amplitude, peaks, out=np.ones_like(peaks),
                            where=peaks > 0.0)[..., None]


def budget_from_certificate(certificate) -> DwellTimeBudget:
    """Supervisor budget at the certificate's dwell-time limit.

    Any na <= 1 admits arbitrary switching, as at most one switch falls on
    a step, so the budget clamps such an na, zero included, up to 1.
    """
    return DwellTimeBudget(n0=float(certificate.n0_bar), na=max(float(certificate.na_bar), 1.0))


@dataclass(frozen=True)
class CampaignReport:
    """Statistics of a Monte Carlo campaign.

    ``max_step_ratio`` is the largest V_active(x_{k+1}) / V_active(x_k) over
    all episodes and steps.  Only at amplitude 0 does it compare to the
    contraction rate: under disturbance it is dominated by steps that start
    near the active fixed point, where V_active is tiny and the disturbance
    alone sets the next value (1000 episodes x 200 steps at amplitude 0.1
    report values of order 1e5).  ``deferred_requests`` counts the switch
    proposals the supervisor deferred, summed over episodes.
    ``x0_proposals`` counts the ellipsoid proposals the start-state sampler
    drew, up to and including each episode's accepted start, summed over
    episodes: ``episodes / x0_proposals`` is the sampler's acceptance rate.
    """

    episodes: int
    horizon: int
    amplitude: float
    seed: int
    violation_count: int
    violation_rate: float
    trapping_level: float
    max_step_ratio: float
    deferred_requests: int
    x0_proposals: int
    first_violations: tuple[tuple[int, int], ...]  # (episode, step), capped

    def to_dict(self) -> dict:
        return asdict(self)


# The campaign draw's streams: monte_carlo's episodes and the margin's sample.
_EPISODE_STREAM = 0
_MARGIN_STREAM = 1
_MAX_RECORDED_VIOLATIONS = 64


# Episodes per block of the campaign draw: 256-episode blocks were no
# faster and raised a 1000-episode draw's traced peak from 3.97 to 6.1 MiB.
_DRAW_BLOCK = 64
# A pair's ω-sets count as disjoint when the pair minimum exceeds ω by this
# fraction, far above its rounding and far below any set a start search
# could hit.
_MEET_RTOL = 1e-9


def _check_pairs_meet(library: PrimitiveLibrary, level: float) -> None:
    """Raise ``ValueError`` naming two members whose sublevel sets at
    ``level`` are disjoint, so that no start could ever be accepted.

    The sets of members p and q meet exactly when the minimum of V_p over
    {V_q <= level}, ``primitives._level_min``, is at most ``level``."""
    for p, q in itertools.combinations(library, 2):
        if _level_min(p.lyapunov, q.lyapunov, level) > level * (1.0 + _MEET_RTOL):
            raise ValueError(f"the omega-sets of members {p.id} and {q.id} are disjoint, "
                             f"so no start lies in every member's omega-set")


def _draw_campaign_inputs(
    library: PrimitiveLibrary,
    certificate,
    episode_count: int,
    horizon: int,
    amplitude: float,
    seed: int,
    stream: int,
    exact_sup: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Per-episode start states, member columns and disturbances, plus the
    number of switch requests the supervisor deferred and the number of
    start proposals drawn (``CampaignReport.x0_proposals``).

    Each quantity q is one stream ``derive_rng(seed, stream, q)`` read in
    episode order, one generator call per block of ``_DRAW_BLOCK`` episodes,
    and episode e's values are its e-th slice: one initial member index;
    horizon - 1 proposal uniforms (a switch is proposed where one is below
    min(1, 1/na)) and a run of as many picks among the other members as it
    has proposals; (horizon, dist_dim) disturbance directions and horizon
    radii; ``_X0_BATCH`` start directions and radii.  So rows depend on
    neither the block size nor the episode count.  Integers are drawn 32
    bits wide, since numpy drops an 8- or 16-bit draw's leftover bits at
    the end of each call.  A quantity no episode uses (proposals when
    1/na >= 1, disturbances at amplitude 0) is not drawn, and no other
    quantity moves.

    Start proposals are uniform in the ω-ellipsoid of the member of
    smallest volume (largest weight determinant); the start is the first
    inside every member's ω sublevel set.  An episode whose first batch
    holds none reads its later batches in order, directions then radii,
    from ``derive_rng(seed, stream, _RETRY, e)``.

    Signals stay library indices, each in the narrowest integer type that
    holds it, and one ``_supervise_columns`` call supervises every
    episode's requests; its (episodes, horizon) columns, in
    ``np.min_scalar_type(P)``, are returned as they are, so ``ids[cols]``
    are the supervised assignments.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not (amplitude >= 0.0 and np.isfinite(amplitude)):
        raise ValueError("amplitude must be nonnegative and finite")
    budget = budget_from_certificate(certificate)
    rate = min(1.0, 1.0 / budget.na)
    level = certificate.omega
    gens = [derive_rng(seed, stream, q) for q in range(_RETRY)]
    _check_pairs_meet(library, level)
    smallest = max(library, key=lambda p: np.linalg.slogdet(p.lyapunov.weight)[1]).lyapunov
    frame = _ellipsoid_frame(smallest, level)
    size, n = len(library), library.state_dim
    x0s = np.empty((episode_count, n))
    initial = np.empty(episode_count, dtype=np.min_scalar_type(size))
    # requests -1..size - 2, in the narrowest signed type holding them
    requests = np.full((episode_count, horizon - 1), -1, np.min_scalar_type(min(1 - size, -1)))
    dists = np.zeros((episode_count, horizon, library.dist_dim))
    directions = np.empty((min(_DRAW_BLOCK, episode_count), _X0_BATCH, n))
    lengths = np.empty(directions.shape[:2])
    radii = np.empty((len(directions), horizon))
    x0_proposals = 0
    for start in range(0, episode_count, _DRAW_BLOCK):
        count = min(_DRAW_BLOCK, episode_count - start)
        block = slice(start, start + count)
        initial[block] = gens[_INITIAL].integers(size, size=count, dtype=np.int32)
        if size > 1 and horizon > 1:
            asked = (gens[_PROPOSALS].random((count, horizon - 1)) < rate if rate < 1.0
                     else np.ones((count, horizon - 1), dtype=bool))
            requests[block][asked] = gens[_PICKS].integers(
                size - 1, size=int(np.count_nonzero(asked)), dtype=np.int32)
        if amplitude:
            gens[_DIRECTIONS].standard_normal(out=dists[block])
            gens[_RADII].random(out=radii[:count])
            _shape_disturbances(dists[block], radii[:count], amplitude, exact_sup)
        gens[_START_DIRECTIONS].standard_normal(out=directions[:count])
        gens[_START_RADII].random(out=lengths[:count])
        pending = np.arange(start, start + count)
        for batch in range(_MAX_X0_BATCHES):
            points = _ellipsoid_points(smallest, level, directions[:pending.size],
                                       lengths[:pending.size], frame)
            ok = np.all(library.values(points.reshape(-1, n)) <= level, 1).reshape(-1, _X0_BATCH)
            hit = np.any(ok, axis=1)
            first = np.argmax(ok[hit], axis=1)
            x0s[pending[hit]] = points[hit, first]
            x0_proposals += first.size * batch * _X0_BATCH + int(np.sum(first + 1))
            pending = pending[~hit]
            if not pending.size:
                break
            retries = ([derive_rng(seed, stream, _RETRY, e) for e in pending.tolist()]
                       if batch == 0 else [g for g, h in zip(retries, hit) if not h])
            for i, gen in enumerate(retries):
                gen.standard_normal(out=directions[i])
                gen.random(out=lengths[i])
        else:
            raise ValueError(f"no start in the omega-intersection after {_MAX_X0_BATCHES} "
                             f"batches of {_X0_BATCH} proposals")
    cols, deferred = _supervise_columns(size, initial, requests, budget)
    return x0s, cols, dists, deferred, x0_proposals


def _batch_stats(
    library: PrimitiveLibrary,
    x0s: np.ndarray,
    cols: np.ndarray,
    dists: np.ndarray,
    kept_states: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step every episode jointly and stream per-episode statistics.

    ``cols[e, k]`` is the library index of the member that drives episode e
    at step k.  Returns ``(first_violation, max_min_level,
    max_active_step_ratio)`` as ``Trace`` defines them, with
    first_violation = -1 for clean episodes.  ``kept_states``, shape
    (keep, horizon + 1, n) with keep possibly 0, receives the states of the
    first keep episodes.
    """
    count, members = x0s.shape[0], len(library)
    first = np.full(count, -1, dtype=np.int64)
    max_min = np.full(count, -np.inf)
    max_ratio = np.zeros(count)
    episodes = np.arange(count)
    previous = np.empty((members, count))  # every member's value at the last state observed

    def observe(k: int, xs: np.ndarray) -> None:
        steps = len(xs)
        kept_states[:, k:k + steps] = xs[:, :len(kept_states), 0].transpose(1, 0, 2)
        values = library.values(xs.reshape(-1, xs.shape[-1])).reshape(steps, count, -1)
        if k:
            # the active member's value before and after each step of the
            # chunk, read by flat index from the values of each member in
            # turn (``PrimitiveLibrary.values`` is member-major, so ``flat``
            # is a view): state t of member p at p · size + t · count + e
            size = steps * count
            flat = values.transpose(2, 0, 1).reshape(-1)
            active = np.multiply(cols[:, k - 1:k - 1 + steps].T, size, dtype=np.intp)
            active += np.arange(size).reshape(steps, count)
            after = flat.take(active)
            before = np.empty_like(after)
            before[0] = previous[cols[:, k - 1], episodes]
            active -= count
            # every index is in range; "clip" only spares take a buffer
            flat.take(active[1:], out=before[1:], mode="clip")
            skip = ~(before > 0.0)
            before[skip] = 1.0
            after /= before
            after[skip] = 0.0
            np.maximum(max_ratio, np.max(after, axis=0), out=max_ratio)
        escaped = ~np.all(values <= library.levels, axis=2)
        late = (first < 0) & np.any(escaped, axis=0)
        first[late] = k + np.argmax(escaped[:, late], axis=0)
        # np.max and np.maximum keep a NaN, made +inf after the rollout
        np.maximum(max_min, np.max(values.min(axis=2), axis=0), out=max_min)
        previous[:] = values[-1].T

    _rollout(library, x0s, cols, dists, (1.0,), observe)
    max_min[np.isnan(max_min)] = np.inf
    return first, max_min, max_ratio


def _escapes(
    library: PrimitiveLibrary,
    x0s: np.ndarray,
    cols: np.ndarray,
    unit: np.ndarray,
    amplitudes,
) -> np.ndarray:
    """Whether any episode, driven by the member columns ``cols``, leaves
    the basin intersection, for each of the ``amplitudes`` scaling the
    disturbances ``unit``, by the predicate of ``_batch_stats`` (a NaN or
    overflowed state counts as an escape).

    Each amplitude is one block of ``_rollout``.  A block stops stepping at
    the end of the chunk of steps in which any of its episodes first
    escaped: its verdict is already known, so the rest of the chunk does not
    change it.
    """
    escaped = np.zeros(len(amplitudes), dtype=bool)
    live = np.arange(len(amplitudes))

    def observe(k: int, xs: np.ndarray) -> np.ndarray | None:
        nonlocal live
        steps, count, blocks, n = xs.shape
        values = library.values(xs.reshape(-1, n))
        if np.all(values <= library.levels):  # a NaN compares false
            return None
        # each block's largest value per member over the chunk; np.max keeps
        # a NaN, which then fails the comparison
        peaks = np.max(values.reshape(steps * count, blocks, -1), axis=0)
        inside = np.all(peaks <= library.levels, axis=1)
        escaped[live[~inside]] = True
        live = live[inside]
        return inside

    _rollout(library, x0s, cols, unit, amplitudes, observe)
    return escaped


def monte_carlo(
    library: PrimitiveLibrary,
    certificate,
    episode_count: int,
    horizon: int,
    disturbance_amplitude: float,
    seed: int,
    keep_traces: int = 0,
) -> tuple[CampaignReport, list[Trace]]:
    """Monte Carlo safety campaign under a certificate.

    Episodes are independent and reproducible: episode e reads its slice of
    each input quantity's stream ``derive_rng(seed, 0, q)``, as
    ``_draw_campaign_inputs`` lays out, so the first episodes of a campaign
    are a shorter campaign.  The certificate must fingerprint-match the
    library it was synthesized for.  Episodes are stepped jointly for speed;
    the kept traces are the first ``keep_traces`` episodes of that rollout.
    """
    if episode_count < 1:
        raise ValueError("episode_count must be positive")
    if keep_traces < 0:
        raise ValueError("keep_traces must be nonnegative")
    if certificate.library_fingerprint != library_fingerprint(library):
        raise ValueError("certificate fingerprint does not match this library")
    x0s, cols, dists, deferred, x0_proposals = _draw_campaign_inputs(
        library, certificate, episode_count, horizon, disturbance_amplitude, seed, _EPISODE_STREAM)
    kept_states = np.empty((min(keep_traces, episode_count), horizon + 1, library.state_dim))
    first, max_min, max_ratio = _batch_stats(library, x0s, cols, dists, kept_states)
    ids = np.asarray(library.ids)
    bad_episodes = np.flatnonzero(first >= 0)
    recorded = tuple((int(e), int(first[e])) for e in bad_episodes[:_MAX_RECORDED_VIOLATIONS])
    kept = [Trace.of(library, states, SwitchingSignal(ids[cols[e]]), dists[e].copy())
            for e, states in enumerate(kept_states)]
    report = CampaignReport(
        episodes=episode_count,
        horizon=horizon,
        amplitude=float(disturbance_amplitude),
        seed=int(seed),
        violation_count=int(bad_episodes.size),
        violation_rate=float(bad_episodes.size) / episode_count,
        trapping_level=float(np.max(max_min)),
        max_step_ratio=float(np.max(max_ratio)),
        deferred_requests=deferred,
        x0_proposals=x0_proposals,
        first_violations=recorded,
    )
    return report, kept


@dataclass(frozen=True)
class MarginEstimate:
    """Empirical disturbance amplitude margin from bisection.

    ``delta_hat`` is the largest tested amplitude at which none of the
    ``trial_budget`` episodes escaped.  One sample of episodes is shared by
    every tested amplitude, only its disturbances scaled, so a larger
    amplitude is tested on the same starts and signals as a smaller one.
    Purely falsification-based: larger budgets tighten it, and it is not a
    proof of robustness.
    """

    delta_hat: float
    upper: float
    trial_budget: int
    horizon: int
    seed: int
    evaluations: tuple[tuple[float, bool], ...]  # (amplitude, violated)


# Levels of the bisection's decision tree that one stacked rollout decides.
# On the shipped walker library (mean over four seeds, best of seven
# rounds, one BLAS thread, 2 shared cores), depths 2, 3, 4 and 5 took 51,
# 47, 61 and 102 ms at 100 trials and 76, 75, 98 and 188 ms at 200: depth 3
# (seven amplitudes per round) is the fastest, and deeper rounds step more
# speculative amplitudes than the rounds they save cost.
_ROUND_DEPTH = 3


# The margin's fixed search, read at each call of estimate_disturbance_margin.
MARGIN_HORIZON = 200
MARGIN_UPPER = 1.0
MARGIN_ITERATIONS = 20
MARGIN_REL_TOL = 1e-3


def estimate_disturbance_margin(
    library: PrimitiveLibrary,
    certificate,
    trial_budget: int,
    seed: int,
) -> MarginEstimate:
    """Bisect the disturbance amplitude for the largest zero-violation level.

    The ``trial_budget`` episodes of ``MARGIN_HORIZON`` steps (random
    admissible signal at the dwell-time limit, random start in the
    omega-intersection, random disturbances) are drawn once, each input
    quantity q from its stream ``derive_rng(seed, 1, q)``, with
    disturbances whose sup norm is exactly 1.  Every candidate amplitude
    reuses that one sample with the disturbances scaled to it, and counts a
    violation as soon as any episode leaves the basin intersection; its
    rollout stops there.  With zero disturbance gains everywhere no
    amplitude can violate, so the estimate is ``MARGIN_UPPER``.

    ``MARGIN_UPPER`` is tested alone.  After that, each round steps every
    midpoint the next ``_ROUND_DEPTH`` bisection steps could test under
    the current bracket, the whole subtree of the decision tree, in one
    stacked rollout, then walks the tree with those verdicts.  The
    midpoints are computed as the bisection computes them and only the
    walked ones are recorded in ``evaluations``, so the result is the
    sequential bisection's, of at most ``MARGIN_ITERATIONS`` steps down to
    a bracket within ``MARGIN_REL_TOL`` of its upper end.
    """
    horizon, upper, rel_tol = MARGIN_HORIZON, MARGIN_UPPER, MARGIN_REL_TOL
    if trial_budget < 1:
        raise ValueError("trial_budget must be positive")
    if certificate.library_fingerprint != library_fingerprint(library):
        raise ValueError("certificate fingerprint does not match this library")
    x0s, cols, unit, *_ = _draw_campaign_inputs(library, certificate, trial_budget, horizon, 1.0,
                                                seed, stream=_MARGIN_STREAM, exact_sup=True)
    evaluations = [(upper, bool(_escapes(library, x0s, cols, unit, [upper])[0]))]
    if not evaluations[0][1]:
        return MarginEstimate(upper, upper, trial_budget, horizon, int(seed), tuple(evaluations))
    lo, hi = 0.0, upper
    remaining, converged = MARGIN_ITERATIONS, False
    while remaining and not converged:
        depth = min(_ROUND_DEPTH, remaining)
        # node i brackets (a, b) and tests their midpoint; its children, 2i + 1
        # after a violation and 2i + 2 after none, bracket the two halves
        brackets, mids = [(lo, hi)], []
        for i in range(2 ** depth - 1):
            a, b = brackets[i]
            mid = 0.5 * (a + b)
            mids.append(mid)
            brackets += [(a, mid), (mid, b)]
        verdicts = _escapes(library, x0s, cols, unit, mids)
        node = 0
        for _ in range(depth):
            violated = bool(verdicts[node])
            evaluations.append((mids[node], violated))
            remaining -= 1
            if violated:
                hi = mids[node]
            else:
                lo = mids[node]
            converged = hi - lo <= rel_tol * hi
            if converged:
                break
            node = 2 * node + 1 + (not violated)
    return MarginEstimate(lo, upper, trial_budget, horizon, int(seed), tuple(evaluations))
