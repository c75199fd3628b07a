"""Movement primitives as contracting discrete-time maps.

A primitive is a map with a unique fixed point, paired with a quadratic
Lyapunov function whose sublevel set at a declared level is its
basin-of-attraction estimate.  Libraries collect several primitives over a
shared state space so that a supervisor can switch among them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

FIXED_POINT_TOL = 1e-12
SYMMETRY_TOL = 1e-10


# numpy rounds a state differently in smaller batches: matmul sends a lone
# state down another BLAS route, and einsum sums one or two 2-D states in
# another order.  ``_step_stack`` stacks at least _MIN_BATCH states per
# member (``apply_batch`` pads a smaller batch with zero rows, a rollout
# with repeats of a row) and ``_quadratic_forms`` pads smaller batches with
# zero rows, so a state's bits never depend on the batch it is in.
_MIN_BATCH = 3


def _padded(points) -> np.ndarray:
    """``points`` (N, ...) as floats, with zero rows appended up to ``_MIN_BATCH``."""
    points = np.asarray(points, dtype=float)
    if len(points) >= _MIN_BATCH:
        return points
    return np.concatenate((points, np.zeros((_MIN_BATCH - len(points), *points.shape[1:]))))


def _quadratic_forms(points, centers: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(x - c)^T W (x - c) at each of the points x (N, n) for each of the
    stacked centres c (P, n) and weights W (P, n, n), shape (N, P).

    The offsets are stacked column-major, so einsum loops along the N points
    innermost and adds each value's n² terms i-major and j-minor, as over a
    row-major stack of one member.  Simulation observers pass every state of
    a chunk of steps at once, flattened to (steps · episodes · blocks, n).
    """
    count = len(points)
    y = np.subtract(_padded(points)[:, None, :], centers, order="F")
    return np.einsum("npi,pij,npj->np", y, weights, y)[:count]


def _frozen_array(value, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PrimitiveMap:
    """Discrete-time update  x -> x* + A (x - x*) + q(x - x*) + B d.

    ``linear`` is A, ``fixed_point`` is x*, ``disturbance_gain`` is B and
    ``quadratic`` optionally stacks one symmetric coefficient matrix per
    output coordinate, q_i(y) = y^T Q[i] y.  The spectral radius of A must
    be below one so the undisturbed fixed point is locally attracting.
    """

    linear: np.ndarray
    fixed_point: np.ndarray
    disturbance_gain: np.ndarray
    quadratic: np.ndarray | None = None

    def __post_init__(self):
        fp = _frozen_array(self.fixed_point, "fixed_point")
        if fp.ndim != 1 or fp.size == 0:
            raise ValueError("fixed_point must be a nonempty vector")
        n = fp.size
        lin = _frozen_array(self.linear, "linear", (n, n))
        gain = np.array(self.disturbance_gain, dtype=float)
        if gain.ndim != 2 or gain.shape[0] != n:
            raise ValueError(f"disturbance_gain must be ({n}, m), got {gain.shape}")
        gain = _frozen_array(gain, "disturbance_gain")
        radius = float(np.max(np.abs(np.linalg.eigvals(lin))))
        if radius >= 1.0:
            raise ValueError(f"spectral radius of linear part is {radius:.6g}, must be < 1")
        quad = self.quadratic
        if quad is not None:
            quad = _frozen_array(quad, "quadratic", (n, n, n))
            skew = np.max(np.abs(quad - np.transpose(quad, (0, 2, 1))))
            if skew > SYMMETRY_TOL:
                raise ValueError(f"quadratic coefficient slices must be symmetric, asymmetry {skew:.3g}")
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "fixed_point", fp)
        object.__setattr__(self, "disturbance_gain", gain)
        object.__setattr__(self, "quadratic", quad)

    @property
    def state_dim(self) -> int:
        return self.fixed_point.size

    @property
    def dist_dim(self) -> int:
        return self.disturbance_gain.shape[1]

    def apply_batch(self, points: np.ndarray, disturbances: np.ndarray | None = None) -> np.ndarray:
        """Update of a stack of states (N, n) under disturbances (N, m), or none.

        The one-member case of ``_step_stack``, the kernel simulation steps
        every member with: a batch of fewer than ``_MIN_BATCH`` states is
        padded with zero rows, so each row's update is bit for bit the same
        at any N.
        """
        count, points = len(points), _padded(points)[:, None]
        if disturbances is not None:
            disturbances = _padded(disturbances)[:, None]
        rows = np.arange(len(points))
        return _step_stack(_MapStack.of([self]), points, disturbances, rows[None],
                           rows[:count])[:, 0]


@dataclass(frozen=True)
class _MapStack:
    """P maps stacked for ``_step_stack``: transposed linear parts (P, n, n),
    fixed points (P, n, 1), transposed disturbance gains (P, m, n), and the
    quadratic coefficients (Q, n, n, n) of the Q ``curved`` members that
    have one, in member order."""

    linear_t: np.ndarray
    fixed_points: np.ndarray
    gains_t: np.ndarray
    curved: np.ndarray
    quadratic: np.ndarray

    @classmethod
    def of(cls, maps) -> "_MapStack":
        curved = [i for i, m in enumerate(maps) if m.quadratic is not None]
        n = maps[0].state_dim
        return cls(np.array([m.linear.T for m in maps]),
                   np.array([m.fixed_point for m in maps])[:, :, None],
                   np.array([m.disturbance_gain.T for m in maps]),
                   np.array(curved, dtype=np.intp),
                   np.array([maps[i].quadratic for i in curved]).reshape(-1, n, n, n))


def _step_stack(maps: _MapStack, points: np.ndarray, disturbances: np.ndarray | None,
                gather: np.ndarray, back: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every stacked map's update of the states it drives, in one call per
    stage.  ``points`` (rows, blocks, n) holds rows of states, each row
    driven by one member in every block, under ``disturbances`` (rows,
    blocks, m), or none.  Member p updates the rows ``gather[p]``, M of
    them, so that M · blocks is at least ``_MIN_BATCH``; a padding slot may
    repeat any row, and its update is dropped.  ``back`` holds the slot of
    each row to return, p · M + its index in ``gather[p]``.  Returns the
    updated rows (len(back), blocks, n), into ``out`` if given.

    The offsets from the fixed points are stacked coordinate-major, (P, n,
    M · blocks), so the elementwise stages and the quadratic term's einsum
    (over the curved members only) loop along the states innermost.  Both
    BLAS products, one per member, take the states as rows, as a row-major
    update does.  So each state's update sums the same products in the same
    order as a row-major update by its member alone, in any dimension, and
    depends on no other state.  A member without a quadratic term gets
    none, so an infinite offset never meets a zero coefficient.
    """
    members, width = gather.shape
    _, blocks, n = points.shape
    rows = points.take(gather, axis=0).reshape(members, -1, n)
    offsets = np.subtract(rows.transpose(0, 2, 1), maps.fixed_points, order="C")
    linear = np.matmul(offsets.transpose(0, 2, 1), maps.linear_t)
    update = np.add(linear.transpose(0, 2, 1), maps.fixed_points, order="C")
    if len(maps.curved) == members:
        update += np.einsum("pin,pkij,pjn->pkn", offsets, maps.quadratic, offsets)
    elif len(maps.curved):
        curved = offsets[maps.curved]
        update[maps.curved] += np.einsum("pin,pkij,pjn->pkn", curved, maps.quadratic, curved)
    update = update.transpose(0, 2, 1)
    if disturbances is not None:
        kicks = disturbances.take(gather, axis=0).reshape(members, -1, disturbances.shape[2])
        update = np.add(update, np.matmul(kicks, maps.gains_t), order="C")
    return np.take(update.reshape(members * width, blocks, n), back, axis=0, out=out)


@dataclass(frozen=True)
class QuadraticLyapunov:
    """V(x) = (x - center)^T weight (x - center) with symmetric positive definite weight."""

    weight: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        center = _frozen_array(self.center, "center")
        if center.ndim != 1 or center.size == 0:
            raise ValueError("center must be a nonempty vector")
        n = center.size
        weight = np.array(self.weight, dtype=float)
        if weight.shape != (n, n):
            raise ValueError(f"weight must have shape ({n}, {n}), got {weight.shape}")
        if np.max(np.abs(weight - weight.T)) > SYMMETRY_TOL:
            raise ValueError("weight must be symmetric")
        eigs = np.linalg.eigvalsh(weight)
        if eigs[0] <= 0.0:
            raise ValueError(f"weight must be positive definite, smallest eigenvalue {eigs[0]:.6g}")
        weight = _frozen_array(weight, "weight")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "center", center)

    @property
    def state_dim(self) -> int:
        return self.center.size

    def value(self, x: np.ndarray) -> float:
        return float(self.values(np.asarray(x)[None])[0])

    def values(self, points: np.ndarray) -> np.ndarray:
        """V at each of a stack of states (N, n), each bit for bit the same at any N."""
        return _quadratic_forms(points, self.center[None], self.weight[None])[:, 0]

    def eig_bounds(self) -> tuple[float, float]:
        eigs = np.linalg.eigvalsh(self.weight)
        return float(eigs[0]), float(eigs[-1])


def _pairwise_sum(terms: list):
    """The sum of ``terms``, floats or same-shape arrays that it may
    overwrite, in the order numpy's ``add.reduce`` adds a contiguous axis of
    their length: in turn below 8 terms, into eight running sums up to 128,
    and above that as two halves, the first a multiple of eight long."""
    count = len(terms)
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    if count < 8:
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total
    sums = terms[:8]
    for i in range(8, count - count % 8):
        sums[i % 8] += terms[i]
    total = ((sums[0] + sums[1]) + (sums[2] + sums[3])) + ((sums[4] + sums[5]) + (sums[6] + sums[7]))
    for term in terms[count - count % 8:]:
        total += term
    return total


def _sum_of_squares(columns):
    """Σ c² over ``columns``, a list of floats or an (n, ...) array of
    columns, bit for bit ``np.sum`` of the squares or ``np.linalg.norm``
    squared along the axis of length n, but in n whole-array passes where
    numpy reduces a short last axis one row at a time.  numpy's sum starts
    from 0.0, which changes no square."""
    return _pairwise_sum([c * c for c in columns])


def _sphere_max(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Maximiser of u^T m u + 2 g^T u over the unit sphere |u| = 1, the one
    solver behind every question about two members' sublevel sets.

    The trust-region subproblem, solved exactly (Moré & Sorensen 1983).  In
    m's eigenbasis (eigenvalues lam, b = V^T g) the maximiser is
    u = b / (t - lam) for the t >= lam_max with |u| = 1.  |u| falls in t
    and is at most 1 at t = lam_max + |b|, so bisection on that bracket
    finds t.  In the hard case b vanishes on the top eigenspace and |u| < 1
    already at t = lam_max; a top eigenvector then fills the remaining
    length.  Filling whatever length the bisection leaves covers that case,
    repeated eigenvalues and a t within rounding of lam_max alike.
    """
    lam, vecs = np.linalg.eigh(m)
    b = vecs.T @ g
    # the bisection runs on Python floats, and sums |u|² in numpy's order
    lams, bs = lam.tolist(), b.tolist()
    lo = lams[-1]
    hi = lo + float(np.linalg.norm(b))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _sum_of_squares([bi / (mid - li) for bi, li in zip(bs, lams)]) > 1.0:
            lo = mid
        else:
            hi = mid
    gap = hi - lam
    u = np.divide(b, gap, out=np.zeros_like(b), where=gap > 0.0)
    u[-1] = math.copysign(math.sqrt(max(0.0, 1.0 - float(u[:-1] @ u[:-1]))), b[-1])
    return vecs @ u


def _level_point(outer: QuadraticLyapunov, inner: QuadraticLyapunov, level: float,
                 sign: float) -> np.ndarray:
    """The point of the level set {V_inner = level} where sign · V_outer is
    largest, exact up to rounding.  With W_inner = L L^T, x = c_inner +
    sqrt(level) L^-T u maps the unit sphere onto the level set, on which
    V_outer is level · (u^T M u + 2 g^T u) + const with M = L^-1 W_outer L^-T
    and g = L^-1 W_outer (c_inner - c_outer) / sqrt(level)."""
    chol = np.linalg.cholesky(inner.weight)
    whitened = np.linalg.solve(chol, outer.weight)
    root = math.sqrt(level)
    u = _sphere_max(sign * np.linalg.solve(chol, whitened.T),
                    sign * (whitened @ (inner.center - outer.center) / root))
    return inner.center + np.linalg.solve(chol.T, root * u)


def _level_max(outer: QuadraticLyapunov, inner: QuadraticLyapunov, level: float) -> float:
    """Maximum of V_outer over {V_inner <= level}, exact up to rounding:
    V_outer is convex, so the maximum lies on the level set."""
    return outer.value(_level_point(outer, inner, level, 1.0))


def _level_min(outer: QuadraticLyapunov, inner: QuadraticLyapunov, level: float) -> float:
    """Minimum of V_outer over {V_inner <= level}, exact up to rounding: 0
    when c_outer lies in the set, and otherwise on the level set, where the
    convex V_outer has no stationary point."""
    if inner.value(outer.center) <= level:
        return 0.0
    return outer.value(_level_point(outer, inner, level, -1.0))


@dataclass(frozen=True)
class Primitive:
    """A certified primitive: map, Lyapunov function, basin level and contraction rate.

    ``basin_level`` is the sublevel value of the Lyapunov function whose set
    is the basin-of-attraction estimate; ``contraction_rate`` is the factor
    by which the Lyapunov value shrinks per undisturbed step inside that set.
    """

    id: int
    map: PrimitiveMap
    lyapunov: QuadraticLyapunov
    basin_level: float
    contraction_rate: float

    def __post_init__(self):
        for name in ("id", "basin_level", "contraction_rate"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a boolean")
        if int(self.id) != self.id or self.id < 0:
            raise ValueError("id must be a nonnegative integer")
        object.__setattr__(self, "id", int(self.id))
        if self.map.state_dim != self.lyapunov.state_dim:
            raise ValueError("map and lyapunov dimensions differ")
        gap = float(np.max(np.abs(self.map.fixed_point - self.lyapunov.center)))
        if gap > FIXED_POINT_TOL:
            raise ValueError(f"map fixed point and lyapunov center differ by {gap:.3g}")
        level = float(self.basin_level)
        if not (level > 0.0 and np.isfinite(level)):
            raise ValueError("basin_level must be positive and finite")
        rate = float(self.contraction_rate)
        if not (0.0 < rate < 1.0):
            raise ValueError("contraction_rate must lie in (0, 1)")
        object.__setattr__(self, "basin_level", level)
        object.__setattr__(self, "contraction_rate", rate)

    @property
    def state_dim(self) -> int:
        return self.map.state_dim

    @property
    def dist_dim(self) -> int:
        return self.map.dist_dim


@dataclass(frozen=True)
class PrimitiveLibrary:
    """A family of primitives over one shared state and disturbance space.

    The library-level contraction rate is the worst (largest) rate of its
    members.  Safe switching additionally needs every fixed point to lie in
    every member's basin; that condition is reported by
    ``fixed_point_violations`` rather than enforced at construction so that
    a failing library can still be loaded and diagnosed.

    The library owns the basin facts every safety check reads: the members'
    stacked centres, weights and basin ``levels``, and ``values``, the one
    Lyapunov evaluation of a batch of states against all of them.
    """

    primitives: tuple[Primitive, ...]
    centers: np.ndarray = field(init=False, repr=False, compare=False)   # (P, n)
    weights: np.ndarray = field(init=False, repr=False, compare=False)   # (P, n, n)
    levels: np.ndarray = field(init=False, repr=False, compare=False)    # (P,) basin levels
    maps: "_MapStack" = field(init=False, repr=False, compare=False)     # P members

    def __post_init__(self):
        prims = tuple(self.primitives)
        if not prims:
            raise ValueError("library must contain at least one primitive")
        ids = [p.id for p in prims]
        if len(set(ids)) != len(ids):
            raise ValueError("primitive ids must be distinct")
        n = prims[0].state_dim
        m = prims[0].dist_dim
        for p in prims:
            if p.state_dim != n or p.dist_dim != m:
                raise ValueError("all primitives must share state and disturbance dimensions")
        object.__setattr__(self, "primitives", prims)
        object.__setattr__(self, "centers", _frozen_array([p.lyapunov.center for p in prims], "centers"))
        object.__setattr__(self, "weights", _frozen_array([p.lyapunov.weight for p in prims], "weights"))
        object.__setattr__(self, "levels", _frozen_array([p.basin_level for p in prims], "levels"))
        object.__setattr__(self, "maps", _MapStack.of([p.map for p in prims]))

    def __len__(self) -> int:
        return len(self.primitives)

    def __iter__(self):
        return iter(self.primitives)

    @property
    def ids(self) -> tuple[int, ...]:
        return tuple(p.id for p in self.primitives)

    @property
    def state_dim(self) -> int:
        return self.primitives[0].state_dim

    @property
    def dist_dim(self) -> int:
        return self.primitives[0].dist_dim

    @property
    def contraction_rate(self) -> float:
        return max(p.contraction_rate for p in self.primitives)

    @property
    def min_basin_level(self) -> float:
        return float(self.levels.min())

    def values(self, states: np.ndarray) -> np.ndarray:
        """Every member's Lyapunov value at each state, shape (N, P), bit
        for bit each member's ``QuadraticLyapunov.values``, from one
        evaluation on the stacked centres and weights.  A value of -inf,
        which an overflowed partial sum of cross terms can give, is made
        +inf, so a state is inside every basin exactly when its row is at
        most ``levels`` (a NaN compares false).
        """
        values = _quadratic_forms(states, self.centers, self.weights)
        values[values == -np.inf] = np.inf
        return values

    def by_id(self, id: int) -> Primitive:
        for p in self.primitives:
            if p.id == id:
                return p
        raise KeyError(f"no primitive with id {id}")

    def fixed_point_violations(self) -> list[tuple[int, int, float]]:
        """Pairs (q, p, value) where fixed point of q falls outside the basin of p."""
        ids = self.ids
        values = self.values(np.array([q.map.fixed_point for q in self.primitives]))
        return [(ids[i], ids[j], float(values[i, j]))
                for i, j in np.argwhere(values > self.levels).tolist()]


def _ball_points(directions: np.ndarray, radii: np.ndarray, radius: float = 1.0) -> np.ndarray:
    """Turn Gaussian ``directions`` (..., n) in place into points uniform in
    the ball of ``radius``, with lengths radius · radii^(1/n) for uniforms
    ``radii`` (...), and return them.  Each row is shaped as it would be on
    its own; a zero direction becomes the zero vector."""
    norms = np.sqrt(_sum_of_squares(np.moveaxis(directions, -1, 0)))
    norms[norms == 0.0] = np.inf
    directions *= (radius * radii ** (1.0 / directions.shape[-1]) / norms)[..., None]
    return directions


def _ellipsoid_frame(lyapunov: QuadraticLyapunov, level: float) -> np.ndarray:
    """The linear map, applied to row vectors, of the unit ball onto {x :
    V(x) <= level} less its centre, through the eigenbasis of the weight."""
    if not (level > 0.0 and np.isfinite(level)):
        raise ValueError("level must be positive and finite")
    evals, evecs = np.linalg.eigh(lyapunov.weight)
    return (evecs * np.sqrt(level / evals)).T


def _ellipsoid_points(lyapunov: QuadraticLyapunov, level: float, directions: np.ndarray,
                      radii: np.ndarray, frame: np.ndarray | None = None) -> np.ndarray:
    """Points uniform in {x : V(x) <= level}: ``_ball_points`` of the
    Gaussian ``directions`` (..., n) and uniforms ``radii`` (...), mapped
    from the unit ball onto the ellipsoid by ``_ellipsoid_frame``, or by
    ``frame`` if a caller computed it once already.  ``directions`` is
    overwritten."""
    if frame is None:
        frame = _ellipsoid_frame(lyapunov, level)
    return lyapunov.center + _ball_points(directions, radii) @ frame
