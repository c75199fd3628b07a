"""Reduced leader-following walker scenario.

A planar walker advances stride by stride.  Each stride applies one of three
stride primitives (turn right, straight, turn left); the stride-to-stride
gait dynamics live in a 2-D reduced state driven by the integrated
leader-interaction force, and the world pose composes on top of the reduced
step because the stride dynamics do not depend on heading.  A supervisor
admits primitive switches against a certificate's dwell-time budget, closing
the loop: integrate force, estimate the leader's bearing, pick the next
primitive, step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .certificates import Certificate
from .library_io import (
    SHIPPED_CERTIFICATE,
    SHIPPED_LIBRARY,
    SHIPPED_STRIDES,
    library_fingerprint,
    library_from_dict,
    read_document,
    write_table,
    write_tables,
)
from .primitives import Primitive, PrimitiveLibrary, _frozen_array
from .simulation import Trace, budget_from_certificate
from .switching import Supervisor, SwitchingSignal, heading_policy, validate_dwell_time

STRIDE_IDS = (0, 1, 2)
DEFAULT_SPEED = 0.65
# The leader's default impedance gains.
DEFAULT_STIFFNESS = ((10.0, 0.0), (0.0, 10.0))
DEFAULT_DAMPING = ((2.0, 0.0), (0.0, 2.0))
_SPAN_SLACK = 1e-9
# Integrals this small are roundoff; snapping them to the exact zero vector
# keeps the zero-force bearing convention meaningful.
_FORCE_SNAP = 1e-9
# Exponents of d in the leader spline's power basis.
_POWERS = np.arange(4.0)
# Times per block of LeaderModel._path.
_PATH_BLOCK = 2048


def wrap_angle(angle: float) -> float:
    """Normalize an angle to (-pi, pi]; exact identity inside that range."""
    angle = float(angle)
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = angle % math.tau
    if wrapped > math.pi:
        wrapped -= math.tau
    return wrapped


@dataclass(frozen=True)
class Pose:
    """World-frame planar pose: position in meters, heading in radians.

    The heading is normalized to (-pi, pi] at construction.
    """

    position: np.ndarray
    heading: float

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen_array(self.position, "position", (2,)))
        if not math.isfinite(self.heading):
            raise ValueError("heading must be finite")
        object.__setattr__(self, "heading", wrap_angle(float(self.heading)))


def force_bearing(fx: float, fy: float) -> float:
    """Bearing of the stride force integrals (radians, body frame).

    The two-argument arctangent reads a force pointing backwards as pi
    rather than 0; the zero force maps to 0 (straight ahead).
    """
    if fx == 0.0 and fy == 0.0:
        return 0.0
    return math.atan2(fy, fx)


@dataclass(frozen=True)
class StridePrimitive:
    """One stride behavior: reduced gait dynamics plus pose composition data.

    ``force_coupling`` maps the body-frame stride force integrals into the
    reduced map's disturbance channel.  ``heading_gain`` and
    ``displacement_gain`` are the affine sensitivities of the pose deltas to
    the post-stride deviation of the reduced state from its fixed point.
    """

    reduced: Primitive
    nominal_heading_change: float
    nominal_displacement: np.ndarray
    stride_duration: float
    force_coupling: np.ndarray
    heading_gain: np.ndarray
    displacement_gain: np.ndarray

    def __post_init__(self):
        if self.reduced.id not in STRIDE_IDS:
            raise ValueError(f"stride primitive id must be one of {STRIDE_IDS}")
        if not (np.isfinite(self.stride_duration) and self.stride_duration > 0.0):
            raise ValueError("stride_duration must be positive")
        if not np.isfinite(self.nominal_heading_change):
            raise ValueError("nominal_heading_change must be finite")
        object.__setattr__(
            self, "nominal_displacement",
            _frozen_array(self.nominal_displacement, "nominal_displacement", (2,)))
        object.__setattr__(
            self, "force_coupling", _frozen_array(self.force_coupling, "force_coupling", (2, 2)))
        object.__setattr__(
            self, "heading_gain", _frozen_array(self.heading_gain, "heading_gain", (2,)))
        object.__setattr__(
            self, "displacement_gain",
            _frozen_array(self.displacement_gain, "displacement_gain", (2, 2)))
        reduced = self.reduced.map
        if reduced.state_dim != 2 or reduced.dist_dim != 2:
            raise ValueError("reduced map must have a 2-D state and a 2-D disturbance")
        # Python floats for stride_update: coupling, fixed point, linear part,
        # quadratic slices (or None), disturbance gain, heading gain, nominal
        # heading change, nominal displacement, displacement gain, duration;
        # matrices row by row.
        object.__setattr__(self, "_coefs", (
            tuple(self.force_coupling.ravel().tolist()),
            tuple(reduced.fixed_point.tolist()),
            tuple(reduced.linear.ravel().tolist()),
            None if reduced.quadratic is None else tuple(reduced.quadratic.ravel().tolist()),
            tuple(reduced.disturbance_gain.ravel().tolist()),
            tuple(self.heading_gain.tolist()),
            float(self.nominal_heading_change),
            tuple(self.nominal_displacement.tolist()),
            tuple(self.displacement_gain.ravel().tolist()),
            float(self.stride_duration),
        ))

    @property
    def id(self) -> int:
        return self.reduced.id


@dataclass(frozen=True)
class LeaderModel:
    """The leader's intended trajectory and the interaction impedance.

    The path is a natural cubic spline through timestamped waypoints; the
    interaction force is spring-damper: stiffness times position error plus
    damping times velocity error.
    """

    times: np.ndarray
    waypoints: np.ndarray
    stiffness: np.ndarray
    damping: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        points = np.array(self.waypoints, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("need at least two timestamps")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("timestamps must be strictly increasing")
        if points.shape != (times.size, 2):
            raise ValueError("waypoints must be (len(times), 2)")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(points))):
            raise ValueError("times and waypoints must be finite")
        stiffness = _frozen_array(self.stiffness, "stiffness", (2, 2))
        damping = _frozen_array(self.damping, "damping", (2, 2))
        for name, mat in (("stiffness", stiffness), ("damping", damping)):
            if not np.allclose(mat, mat.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")
            if np.min(np.linalg.eigvalsh(0.5 * (mat + mat.T))) < -1e-10:
                raise ValueError(f"{name} must be positive semidefinite")
        times.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "waypoints", points)
        object.__setattr__(self, "stiffness", stiffness)
        object.__setattr__(self, "damping", damping)
        coef = _natural_spline(times, points)
        object.__setattr__(self, "_coef", coef)
        # Python floats for integrate_stride_force: the knots, each piece's
        # (c0x, c0y, ..., c3x, c3y) and the gains row by row, K then D.
        object.__setattr__(self, "_knots", times.tolist())
        object.__setattr__(self, "_pieces", coef[:, :, :2].reshape(-1, 8).tolist())
        object.__setattr__(self, "_gains", stiffness.ravel().tolist() + damping.ravel().tolist())

    @classmethod
    def from_waypoints(
        cls,
        waypoints,
        speed: float = DEFAULT_SPEED,
        stiffness=DEFAULT_STIFFNESS,
        damping=DEFAULT_DAMPING,
    ) -> "LeaderModel":
        """Timestamp waypoints by cumulative chord length at constant speed."""
        points = np.array(waypoints, dtype=float)
        if points.ndim != 2 or points.shape[0] < 2 or points.shape[1] != 2:
            raise ValueError("waypoints must be (T, 2) with T >= 2")
        if not (np.isfinite(speed) and speed > 0.0):
            raise ValueError("speed must be positive")
        chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
        if np.any(chords <= 0.0):
            raise ValueError("consecutive waypoints must be distinct")
        times = np.concatenate(([0.0], np.cumsum(chords))) / speed
        return cls(times=times, waypoints=points, stiffness=stiffness, damping=damping)

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])

    def _path(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Path position and velocity at ``t``, each shaped ``t.shape + (2,)``.

        Times may leave the span by ``_SPAN_SLACK``; the end intervals'
        cubics extend over that slack.  The times are evaluated in blocks of
        ``_PATH_BLOCK``, so the gathered coefficients stay small however
        many times are asked for; each time's result is the same in any
        block.
        """
        t = np.asarray(t, dtype=float)
        t0, t1 = self.span
        tmin = float(t.min())
        tmax = float(t.max())
        if tmin < t0 - _SPAN_SLACK or tmax > t1 + _SPAN_SLACK:
            raise ValueError(
                f"time {tmin if tmin < t0 else tmax} outside the leader span [{t0}, {t1}]")
        out = np.empty(t.shape + (4,))
        flat, rows = t.reshape(-1), out.reshape(-1, 4)
        for start in range(0, flat.size, _PATH_BLOCK):
            block = flat[start:start + _PATH_BLOCK]
            interval = self.times[1:-1].searchsorted(block, "right")
            powers = (block - self.times[interval])[:, None] ** _POWERS
            rows[start:start + _PATH_BLOCK] = np.einsum(
                "nj,njc->nc", powers, self._coef.take(interval, axis=0))
        return out[..., :2], out[..., 2:]

    def position(self, t):
        return self._path(t)[0]

    def velocity(self, t):
        return self._path(t)[1]


def _natural_spline(times: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Power-form coefficients of the natural cubic spline through the knots.

    Entry [i, j] holds the coefficients of d^j, d = t - times[i], on
    [times[i], times[i+1]], for position x, y and then velocity x, y.  The
    second derivatives M vanish at both end knots and solve the tridiagonal
    system h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1]
    = 6 (s[i] - s[i-1]) at the interior ones, with h the interval lengths
    and s the chord slopes.  One Thomas sweep solves it on Python floats,
    which beats numpy's per-element overhead here.
    """
    h = np.diff(times)[:, None]
    slope = np.diff(points, axis=0) / h
    hs = h[:, 0].tolist()
    rhs = (6.0 * np.diff(slope, axis=0)).tolist()
    n = len(hs) + 1
    upper = [0.0] * n
    mx = [0.0] * n
    my = [0.0] * n
    for i in range(1, n - 1):
        prev = hs[i - 1]
        pivot = 2.0 * (prev + hs[i]) - prev * upper[i - 1]
        upper[i] = hs[i] / pivot
        mx[i] = (rhs[i - 1][0] - prev * mx[i - 1]) / pivot
        my[i] = (rhs[i - 1][1] - prev * my[i - 1]) / pivot
    for i in range(n - 2, 0, -1):
        mx[i] -= upper[i] * mx[i + 1]
        my[i] -= upper[i] * my[i + 1]
    m = np.array([mx, my]).T
    position = np.stack((
        points[:-1],
        slope - h * (2.0 * m[:-1] + m[1:]) / 6.0,
        0.5 * m[:-1],
        (m[1:] - m[:-1]) / (6.0 * h),
    ), axis=1)
    coef = np.concatenate((position, np.zeros_like(position)), axis=2)
    coef[:, :3, 2:] = position[:, 1:] * np.array([[1.0], [2.0], [3.0]])
    coef.flags.writeable = False
    return coef


def integrate_stride_force(
    leader: LeaderModel,
    x0: float,
    y0: float,
    cos_h: float,
    sin_h: float,
    x1: float,
    y1: float,
    t_start: float,
    t_end: float,
) -> tuple[float, float]:
    """Integrals (fx, fy) of the interaction force over one stride, in the
    body frame of the stride-start pose ((x0, y0), heading), whose (cos,
    sin) is (cos_h, sin_h).

    The application point moves in a straight line from the stride-start
    position p0 = (x0, y0) to e = (x1, y1) at constant speed, so the world
    force K (p_l - p_e) + D (v_l - v_e) integrates over [t_start, t_end] to
    K times the integral of p_l - m, with m = (p0 + e)/2 the walker's mean
    position, plus D (p_l(t_end) - p_l(t_start) - (e - p0)).  The stride is
    split at the spline knots it crosses; on a piece p_l = c0 + c1 d +
    c2 d^2 + c3 d^3, d = t - t_i, over d in [a, b], with s = a + b,
    q = a^2 + b^2 and w = q + a b (the factored differences b^k - a^k),

        integral of (p_l - m) = (b - a) ((c0 - m) + c1 s/2 + c2 w/3 + c3 s q/4)
        p_l(b) - p_l(a)       = (b - a) (c1 + c2 s + c3 w).

    Recentring c0 on m keeps every term the size of the stride's own force.
    A global antiderivative of p_l would not: on a 2000 s path it reaches
    about 1e6, and its difference at the stride ends loses about 1e-9 to
    cancellation.  The pose comes in and the force goes out as Python
    floats, and the sums run over coefficient rows the leader prepares
    once, since numpy's per-call overhead would cost more than the
    arithmetic.  The result is rotated into the stride-start body frame; a
    result within ``_FORCE_SNAP`` of zero is the exact (0.0, 0.0).
    """
    if not t_end > t_start:
        raise ValueError("stride interval must have positive length")
    knots = leader._knots
    last = len(knots) - 2
    if t_start < knots[0] - _SPAN_SLACK or t_end > knots[-1] + _SPAN_SLACK:
        raise ValueError(
            f"stride [{t_start}, {t_end}] outside the leader span [{knots[0]}, {knots[-1]}]")
    if not (math.isfinite(x0) and math.isfinite(y0) and math.isfinite(cos_h)
            and math.isfinite(sin_h) and math.isfinite(x1) and math.isfinite(y1)):
        raise ValueError("stride start pose and end position must be finite")
    mx, my = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    ix, iy, vx, vy = 0.0, 0.0, x0 - x1, y0 - y1
    a = t_start
    for i in range(bisect_right(knots, t_start, 1, last + 1) - 1, last + 1):
        b = t_end if i == last else min(t_end, knots[i + 1])
        c0x, c0y, c1x, c1y, c2x, c2y, c3x, c3y = leader._pieces[i]
        da, db, h = a - knots[i], b - knots[i], b - a
        s, q = da + db, da * da + db * db
        w = q + da * db
        ix += h * ((c0x - mx) + 0.5 * c1x * s + c2x * w / 3.0 + 0.25 * c3x * s * q)
        iy += h * ((c0y - my) + 0.5 * c1y * s + c2y * w / 3.0 + 0.25 * c3y * s * q)
        vx += h * (c1x + c2x * s + c3x * w)
        vy += h * (c1y + c2y * s + c3y * w)
        if b == t_end:
            break
        a = b
    kxx, kxy, kyx, kyy, dxx, dxy, dyx, dyy = leader._gains
    wx = kxx * ix + kxy * iy + dxx * vx + dxy * vy
    wy = kyx * ix + kyy * iy + dyx * vx + dyy * vy
    fx, fy = cos_h * wx + sin_h * wy, cos_h * wy - sin_h * wx
    if max(abs(fx), abs(fy)) <= _FORCE_SNAP:
        return 0.0, 0.0
    return fx, fy


def stride_update(
    prim: StridePrimitive,
    x: float,
    y: float,
    heading: float,
    cos_h: float,
    sin_h: float,
    z0: float,
    z1: float,
    fx: float,
    fy: float,
) -> tuple[float, float, float, float, float]:
    """Advance the reduced state (z0, z1) one stride under the body-frame
    force integrals (fx, fy) and compose the pose ((x, y), heading), whose
    (cos, sin) is (cos_h, sin_h); returns the new ``(x, y, heading, z0, z1)``.

    The force integrals enter the reduced map through the primitive's
    coupling matrix.  The pose deltas are the primitive's nominals plus
    affine corrections in the post-stride deviation of the reduced state
    from its fixed point; the displacement is executed in the stride-start
    body frame, and the new heading is wrapped to (-pi, pi].  A new
    position or heading that is not finite, as any non-finite input or an
    overflow gives, raises ``ValueError``.

    The walker is planar, so this is the 2-D form of
    ``PrimitiveMap.apply_batch``, unrolled on Python floats in and out and
    on the coefficients the primitive prepares once: numpy's per-call
    overhead on 2-vectors would cost more than the arithmetic.  The
    quadratic term sums its products in ``apply_batch``'s order, so it
    alone matches that kernel bit for bit; the matrix products round as
    plain float arithmetic does.
    """
    (c00, c01, c10, c11), (p0, p1), (a00, a01, a10, a11), quad, (b00, b01, b10, b11), \
        (h0, h1), turn, (n0, n1), (g00, g01, g10, g11), _ = prim._coefs
    d0, d1 = c00 * fx + c01 * fy, c10 * fx + c11 * fy
    y0, y1 = z0 - p0, z1 - p1
    z0 = p0 + (y0 * a00 + y1 * a01)
    z1 = p1 + (y0 * a10 + y1 * a11)
    if quad is not None:
        q000, q001, q010, q011, q100, q101, q110, q111 = quad
        z0 += y0 * q000 * y0 + y0 * q001 * y1 + y1 * q010 * y0 + y1 * q011 * y1
        z1 += y0 * q100 * y0 + y0 * q101 * y1 + y1 * q110 * y0 + y1 * q111 * y1
    z0 += d0 * b00 + d1 * b01
    z1 += d0 * b10 + d1 * b11
    e0, e1 = z0 - p0, z1 - p1
    u0, u1 = n0 + (g00 * e0 + g01 * e1), n1 + (g10 * e0 + g11 * e1)
    x, y = x + (cos_h * u0 - sin_h * u1), y + (sin_h * u0 + cos_h * u1)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError("position must be finite")
    heading = wrap_angle(heading + turn + (h0 * e0 + h1 * e1))
    if not math.isfinite(heading):
        raise ValueError("heading must be finite")
    return x, y, heading, z0, z1


@dataclass(frozen=True)
class WalkerScenario:
    """Closed-loop scenario configuration.

    ``mode`` is "adaptive" (policy plus supervisor) or "fixed:<id>"
    (ablation with a constant primitive).  The certificate must have been
    synthesized for exactly the reduced library of ``strides``.
    """

    strides: tuple[StridePrimitive, ...]
    certificate: Certificate
    leader: LeaderModel
    initial_pose: Pose
    stride_count: int
    mode: str = "adaptive"
    initial_primitive: int = 1
    dead_zone: float = 0.0
    start_time: float = 0.0

    def __post_init__(self):
        ids = tuple(sorted(p.id for p in self.strides))
        if ids != STRIDE_IDS:
            raise ValueError(f"scenario needs stride primitives with ids {STRIDE_IDS}")
        if self.stride_count < 1:
            raise ValueError("stride_count must be positive")
        if isinstance(self.initial_primitive, (bool, np.bool_)) or self.initial_primitive not in ids:
            raise ValueError(f"initial_primitive must be an integer id in {ids}, "
                             f"got {self.initial_primitive!r}")
        if not (self.dead_zone >= 0.0 and math.isfinite(self.dead_zone)):
            raise ValueError("dead_zone must be nonnegative and finite")
        if not math.isfinite(self.start_time):
            raise ValueError(f"start_time must be finite, got {self.start_time!r}")
        self.fixed_id  # validates the mode string
        fp = library_fingerprint(self.reduced_library)
        if self.certificate.library_fingerprint != fp:
            raise ValueError("certificate was not synthesized for this stride library")
        t0, t1 = self.leader.span
        duration = max(p.stride_duration for p in self.strides) * self.stride_count
        if self.start_time < t0 - _SPAN_SLACK or self.start_time + duration > t1 + _SPAN_SLACK:
            raise ValueError(
                "leader trajectory does not cover the scenario duration "
                f"[{self.start_time}, {self.start_time + duration}]")

    @property
    def reduced_library(self) -> PrimitiveLibrary:
        members = sorted(self.strides, key=lambda p: p.id)
        return PrimitiveLibrary(tuple(p.reduced for p in members))

    @property
    def fixed_id(self) -> int | None:
        if self.mode == "adaptive":
            return None
        if self.mode.startswith("fixed:"):
            try:
                fid = int(self.mode.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad mode {self.mode!r}") from None
            if fid not in STRIDE_IDS:
                raise ValueError(f"fixed primitive id {fid} unknown")
            return fid
        raise ValueError(f"mode must be 'adaptive' or 'fixed:<id>', got {self.mode!r}")


@dataclass(frozen=True)
class ScenarioTrace(Trace):
    """Everything one scenario run produced, at stride resolution.

    It is the ``Trace`` of the reduced library: ``states`` are the reduced
    states (K+1, 2) at the stride boundaries, ``signal`` holds stride k's
    primitive, ``disturbances`` (K, 2) are force_coupling · (fx, fy), the
    reduced map's input, and the Lyapunov and basin columns are the
    library's own.  The fields below are the walker's record.
    """

    times: np.ndarray             # (K+1,)
    positions: np.ndarray         # (K+1, 2)
    headings: np.ndarray          # (K+1,)
    forces: np.ndarray            # (K, 2) body frame integrals
    phis: np.ndarray              # (K,)
    lateral: np.ndarray           # (K+1,) signed cross-track offset from the leader
    leader_positions: np.ndarray  # (K+1, 2) leader at stride boundaries
    mode: str
    deferred_requests: int        # supervisor requests that returned False

    @property
    def stride_count(self) -> int:
        return self.forces.shape[0]

    @property
    def max_lateral_deviation(self) -> float:
        return float(np.max(np.abs(self.lateral)))

    @property
    def final_lateral_deviation(self) -> float:
        return float(abs(self.lateral[-1]))

    @property
    def max_disturbance(self) -> float:
        """Largest Euclidean norm of the reduced map's per-stride disturbance."""
        return float(np.max(np.hypot(*self.disturbances.T)))

    @property
    def usage_counts(self) -> dict[int, int]:
        arr = self.signal.assignments
        return {pid: int(np.sum(arr == pid)) for pid in self.member_ids}

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "strides": self.stride_count,
            "switch_count": len(self.signal.switch_steps),
            "deferred_requests": self.deferred_requests,
            "usage_counts": {str(k): v for k, v in sorted(self.usage_counts.items())},
            "final_lateral_deviation": self.final_lateral_deviation,
            "max_lateral_deviation": self.max_lateral_deviation,
            "reduced_in_all_basins": self.first_violation is None,
            "max_reduced_level": self.max_min_level,
            "max_disturbance": self.max_disturbance,
            "final_position": [float(v) for v in self.positions[-1]],
            "final_heading": float(self.headings[-1]),
        }

    def write_outputs(self, out_dir: str | Path) -> None:
        """Write the CSV bundle.

        One row per stride boundary: ``poses.csv``, ``reduced.csv`` (member
        Lyapunov values and basin membership), and the plot paths
        ``plot_walker_path.csv`` and ``plot_leader_path.csv``, whose rows
        align.  These four go out together through ``write_tables``, so the
        columns they share (``k``, ``t``, ``x``, ``y``) are formatted once.
        One row per stride: ``forces.csv`` and ``sigma.csv``.
        """
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        k = np.arange(self.times.size)
        x, y = self.positions.T
        write_tables([
            (out / "poses.csv", ["k", "t", "x", "y", "heading", "lateral_deviation"],
             [k, self.times, x, y, self.headings, self.lateral]),
            (out / "reduced.csv",
             ["k", "z0", "z1"] + [f"V_{pid}" for pid in self.member_ids] + ["in_all_basins"],
             [k, *self.states.T, *self.lyapunov.T, self.in_all_basins]),
            (out / "plot_walker_path.csv", ["t", "x", "y"], [self.times, x, y]),
            (out / "plot_leader_path.csv", ["t", "x", "y"],
             [self.times, *self.leader_positions.T]),
        ])
        write_table(out / "forces.csv", ["k", "fx", "fy", "phi"],
                    [k[:-1], *self.forces.T, self.phis])
        self.signal.to_csv(out / "sigma.csv")

    def write_ellipses(self, out_dir: str | Path, library: PrimitiveLibrary,
                       certificate: Certificate) -> None:
        """Basin/core/trapping ellipse parameters for external plotting."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        trap = certificate.mu ** certificate.n0_bar * certificate.omega
        weights = library.weights
        write_table(
            out / "plot_basin_ellipses.csv",
            ["id", "center_x", "center_y", "w_xx", "w_xy", "w_yy",
             "basin_level", "core_level", "trapping_level"],
            [library.ids, *library.centers.T, weights[:, 0, 0], weights[:, 0, 1],
             weights[:, 1, 1], library.levels,
             [float(certificate.kappa)] * len(library), [float(trap)] * len(library)],
        )


def run_scenario(scenario: WalkerScenario) -> ScenarioTrace:
    """Run the closed loop for the configured number of strides.

    Per stride: integrate the interaction force along the nominal stride
    path, estimate the leader bearing from the integrals, ask the policy for
    the next primitive (one-stride delay), pass the request through the
    dwell-time supervisor, and apply the stride update.  The ablation mode
    keeps the primitive constant and skips the policy.  The run is recorded
    as the reduced library's ``Trace`` of the reduced states (``Trace.of``),
    so its Lyapunov and basin columns are the library's own evaluation.

    A ``ValueError`` inside the loop, such as a diverging ablation whose
    position overflows, is raised again naming the stride it came from and
    the first stride boundary at which the reduced state lay outside the
    basin intersection.
    """
    strides = {p.id: p for p in scenario.strides}
    library = scenario.reduced_library
    fixed = scenario.fixed_id
    count = scenario.stride_count
    active = fixed if fixed is not None else scenario.initial_primitive
    supervisor = None
    deferred = 0
    if fixed is None:
        supervisor = Supervisor(
            active, budget_from_certificate(scenario.certificate), known_ids=STRIDE_IDS)

    times = np.empty(count + 1)
    positions = np.empty((count + 1, 2))
    headings = np.empty(count + 1)
    reduced = np.empty((count + 1, 2))
    forces = np.empty((count, 2))
    phis = np.empty(count)
    sigma = np.empty(count, dtype=np.int64)

    leader = scenario.leader
    x, y = scenario.initial_pose.position.tolist()
    heading = scenario.initial_pose.heading
    z0, z1 = strides[active].reduced.map.fixed_point.tolist()
    t = scenario.start_time
    times[0], positions[0], headings[0], reduced[0] = t, (x, y), heading, (z0, z1)

    try:
        for k in range(count):
            prim = strides[active]
            sigma[k] = active
            *_, (nx, ny), _, duration = prim._coefs
            c, s = math.cos(heading), math.sin(heading)
            fx, fy = integrate_stride_force(
                leader, x, y, c, s, x + (c * nx - s * ny), y + (s * nx + c * ny), t, t + duration)
            forces[k, 0], forces[k, 1] = fx, fy
            phis[k] = phi = force_bearing(fx, fy)
            x, y, heading, z0, z1 = stride_update(prim, x, y, heading, c, s, z0, z1, fx, fy)
            t += duration
            times[k + 1] = t
            positions[k + 1, 0], positions[k + 1, 1] = x, y
            headings[k + 1] = heading
            reduced[k + 1, 0], reduced[k + 1, 1] = z0, z1
            if k + 1 < count:
                if fixed is None:
                    wanted = heading_policy(phi, scenario.dead_zone)
                    deferred += not supervisor.request(wanted)
                    active = supervisor.current
                # ablation keeps the primitive constant
    except ValueError as exc:
        inside = np.all(library.values(reduced[:k + 1]) <= library.levels, axis=1)
        basin = ("never left the basin intersection" if inside.all()
                 else f"left the basin intersection at stride {int(np.argmin(inside))}")
        raise ValueError(f"stride {k}: {exc}; the reduced state {basin}") from exc

    signal = SwitchingSignal(sigma)
    if fixed is None:
        report = validate_dwell_time(signal, budget_from_certificate(scenario.certificate))
        if not report.valid:
            raise RuntimeError("supervisor produced a budget-violating signal")

    leader_pts, leader_vel = scenario.leader._path(times)
    speed = np.linalg.norm(leader_vel, axis=1)
    if np.any(speed <= 0.0):
        raise ValueError("leader velocity vanishes at a stride boundary")
    tangent = leader_vel / speed[:, None]
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    lateral = np.sum((positions - leader_pts) * normal, axis=1)
    # The products stride_update forms, so each row is the disturbance the
    # reduced map received.
    coupling = np.array([strides[pid].force_coupling for pid in STRIDE_IDS])[sigma]
    disturbances = coupling[:, :, 0] * forces[:, :1] + coupling[:, :, 1] * forces[:, 1:]

    return ScenarioTrace.of(
        library, reduced, signal, disturbances,
        times=times,
        positions=positions,
        headings=headings,
        forces=forces,
        phis=phis,
        lateral=lateral,
        leader_positions=leader_pts,
        mode=scenario.mode,
        deferred_requests=deferred,
    )


# ---------------------------------------------------------------------------
# shipped data and scenario configs

def shipped_walker_library() -> PrimitiveLibrary:
    """The packaged 3-member reduced stride library."""
    return read_document(SHIPPED_LIBRARY, library_from_dict)[0]


def shipped_certificate() -> Certificate:
    """The packaged certificate for the shipped stride library."""
    return Certificate.load(SHIPPED_CERTIFICATE)


def shipped_stride_primitives() -> tuple[StridePrimitive, ...]:
    """The packaged stride primitives (reduced dynamics plus pose data)."""
    library = shipped_walker_library()
    meta = read_document(SHIPPED_STRIDES, dict)[0]
    by_id = {entry["id"]: entry for entry in meta["primitives"]}
    out = []
    for member in library:
        entry = by_id[member.id]
        out.append(StridePrimitive(
            reduced=member,
            nominal_heading_change=float(entry["heading_change"]),
            nominal_displacement=np.array(entry["displacement"], dtype=float),
            stride_duration=float(meta["stride_duration"]),
            force_coupling=np.array(entry["force_coupling"], dtype=float),
            heading_gain=np.array(entry["heading_gain"], dtype=float),
            displacement_gain=np.array(entry["displacement_gain"], dtype=float),
        ))
    return tuple(out)


def scenario_certificate_source(config: dict, base_dir: str | Path) -> str:
    """The certificate a scenario config names: "shipped" (the default) or
    the configured path, resolved against ``base_dir`` when relative."""
    if not isinstance(config, dict):
        raise ValueError("a scenario config must be a JSON object")
    ref = str(config.get("certificate", SHIPPED_CERTIFICATE))
    return ref if ref == SHIPPED_CERTIFICATE else str(Path(base_dir) / ref)


def _config_integer(config: dict, name: str, default: int) -> int:
    """The integer field ``name`` of a scenario config, or ``default``.  A
    bool, a fractional or non-finite number or a non-number is a
    ``ValueError`` naming the field, never truncated; an integral float
    such as 20.0 reads as its integer."""
    value = config.get(name, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def load_scenario(
    config: dict | str | Path,
    base_dir: str | Path | None = None,
    mode_override: str | None = None,
    certificate: Certificate | None = None,
) -> WalkerScenario:
    """Build a scenario from a JSON config (path or already-parsed dict).

    ``certificate`` is an already-loaded certificate.  Without one, the
    certificate the config names is loaded (see
    ``scenario_certificate_source``): a relative path resolves against
    ``base_dir``, which defaults to the config file's directory, or to the
    working directory for a dict.  The stride library is always the shipped
    one.
    """
    if isinstance(config, (str, Path)):
        path = Path(config)
        base = path.parent if base_dir is None else base_dir
        return read_document(
            path, lambda data: load_scenario(data, base, mode_override, certificate))[0]
    if not isinstance(config, dict):
        raise ValueError("a scenario config must be a JSON object")

    leader_cfg = config.get("leader")
    if not isinstance(leader_cfg, dict) or "waypoints" not in leader_cfg:
        raise ValueError("config needs leader.waypoints")
    waypoints = np.array(leader_cfg["waypoints"], dtype=float)
    stiffness = leader_cfg.get("stiffness", DEFAULT_STIFFNESS)
    damping = leader_cfg.get("damping", DEFAULT_DAMPING)
    if "timestamps" in leader_cfg:
        leader = LeaderModel(
            times=np.array(leader_cfg["timestamps"], dtype=float),
            waypoints=waypoints, stiffness=stiffness, damping=damping)
    else:
        leader = LeaderModel.from_waypoints(
            waypoints, speed=float(leader_cfg.get("speed", DEFAULT_SPEED)),
            stiffness=stiffness, damping=damping)

    if certificate is None:
        certificate = Certificate.load(
            scenario_certificate_source(config, "." if base_dir is None else base_dir))

    pose_cfg = config.get("initial_pose", {})
    if not isinstance(pose_cfg, dict):
        raise ValueError("initial_pose must be an object")
    pose = Pose(
        position=np.array(pose_cfg.get("position", [0.0, 0.0]), dtype=float),
        heading=float(pose_cfg.get("heading", 0.0)))

    return WalkerScenario(
        strides=shipped_stride_primitives(),
        certificate=certificate,
        leader=leader,
        initial_pose=pose,
        stride_count=_config_integer(config, "strides", 20),
        mode=str(mode_override if mode_override is not None else config.get("mode", "adaptive")),
        initial_primitive=_config_integer(config, "initial_primitive", 1),
        dead_zone=float(config.get("dead_zone", 0.0)),
        start_time=float(config.get("start_time", 0.0)),
    )
