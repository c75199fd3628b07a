"""Switching certificates: set constants, dwell-time bounds and synthesis.

For a library with basin estimates B_p (Lyapunov sublevel sets at level
kappa_bar_p) and a core level kappa, two constants govern safe switching:

* omega(kappa): the largest Lyapunov value any member assigns to a point of
  the union of the kappa-sublevel sets, and
* mu(kappa): the largest ratio V_q/V_p over any basin point outside the
  open kappa-core of member p.

Switching slower than the average dwell time ln(mu)/ln(epsilon/lambda)
keeps trajectories started in the intersection of the omega-sublevel sets
inside every basin, provided the mu^n0 * omega sublevel sets still sit
strictly inside every basin.  Synthesis computes both constants, and the
containment of those sets, exactly in any dimension from one table of
pair maxima: each member's largest V over each member's sublevel set, a
trust-region subproblem on a sphere (``primitives._level_max``).
omega(kappa) is the table's maximum at kappa, mu(kappa) is
omega(kappa) / kappa, and containment reads the table at mu^n0 * omega.
Synthesis writes only these.  A closed-form ellipsoid bound (analytic)
and a grid maximization (grid) stay as test oracles, with
grid <= exact <= analytic.

Nothing here rolls out or draws at random.  The disturbance margin a
certificate may carry as ``delta_hat`` is sampled by
``simulation.estimate_disturbance_margin``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .library_io import library_fingerprint, read_document, write_document
from .primitives import PrimitiveLibrary, QuadraticLyapunov, _level_max

GRID_REFUSAL_DIM = 4
_DEFAULT_RESOLUTION = {1: 4001, 2: 201, 3: 41, 4: 17}
KAPPA_GRID_SIZE = 32
KAPPA_GRID_SPAN = (1e-4, 0.9)
DEFAULT_N0_CANDIDATES = (1, 2)


def default_kappa_grid(library: PrimitiveLibrary) -> np.ndarray:
    """Log-spaced candidate core levels below the smallest basin level."""
    floor = library.min_basin_level
    return np.geomspace(KAPPA_GRID_SPAN[0] * floor, KAPPA_GRID_SPAN[1] * floor, KAPPA_GRID_SIZE)


def _check_kappa_for_omega(library: PrimitiveLibrary, kappa: float) -> None:
    if not (kappa > 0.0 and np.isfinite(kappa)):
        raise ValueError("kappa must be positive and finite")
    if kappa > library.min_basin_level:
        raise ValueError(
            f"kappa={kappa:.6g} exceeds the smallest basin level {library.min_basin_level:.6g}"
        )


def omega_analytic(library: PrimitiveLibrary, kappa: float) -> float:
    """Closed-form upper bound on omega(kappa) from ellipsoid radii.

    A point of the kappa-set of member q sits within sqrt(kappa/lam_min_q)
    of q's center, so member p values it at most
    lam_max_p * (offset_pq + sqrt(kappa/lam_min_q))^2.
    """
    _check_kappa_for_omega(library, kappa)
    bounds = [p.lyapunov.eig_bounds() for p in library]
    best = 0.0
    for ip, p in enumerate(library):
        lam_max_p = bounds[ip][1]
        for iq, q in enumerate(library):
            offset = float(np.linalg.norm(q.lyapunov.center - p.lyapunov.center))
            reach = offset + math.sqrt(kappa / bounds[iq][0])
            best = max(best, lam_max_p * reach * reach)
    return best


def _resolve_resolution(state_dim: int, resolution: int | None) -> int:
    if state_dim > GRID_REFUSAL_DIM:
        raise ValueError(
            f"grid evaluation refuses state_dim={state_dim} (> {GRID_REFUSAL_DIM}); use the analytic bounds"
        )
    if resolution is None:
        resolution = _DEFAULT_RESOLUTION[state_dim]
    if resolution < 2:
        raise ValueError("resolution must be at least 2 points per axis")
    return int(resolution)


def _box_of(lyapunov: QuadraticLyapunov, level: float) -> tuple[np.ndarray, np.ndarray]:
    half = np.sqrt(level * np.diag(np.linalg.inv(lyapunov.weight)))
    return lyapunov.center - half, lyapunov.center + half


def _grid_points(lo: np.ndarray, hi: np.ndarray, resolution: int) -> np.ndarray:
    axes = [np.linspace(lo[i], hi[i], resolution) for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def omega_grid(library: PrimitiveLibrary, kappa: float, resolution: int | None = None) -> float:
    """Grid maximization of omega(kappa) over the union of kappa-sets.

    Maximizes every member's Lyapunov value over a uniform grid restricted
    to the union (member centers are always included so the result is
    defined at any resolution).  Underestimates the true value and never
    exceeds the analytic bound; it is clamped from below by kappa, which
    the true value always attains on the core boundary.
    """
    _check_kappa_for_omega(library, kappa)
    resolution = _resolve_resolution(library.state_dim, resolution)
    boxes = [_box_of(p.lyapunov, kappa) for p in library]
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    pts = _grid_points(lo, hi, resolution)
    inside = np.zeros(pts.shape[0], dtype=bool)
    for p in library:
        inside |= p.lyapunov.values(pts) <= kappa
    pts = np.concatenate([pts[inside], [p.lyapunov.center for p in library]], axis=0)
    return max(float(kappa), float(max(np.max(p.lyapunov.values(pts)) for p in library)))


def _check_kappa_for_mu(library: PrimitiveLibrary, kappa: float) -> None:
    if not (kappa > 0.0 and np.isfinite(kappa)):
        raise ValueError("kappa must be positive and finite")
    if kappa >= library.min_basin_level:
        raise ValueError(
            f"kappa={kappa:.6g} must stay below the smallest basin level "
            f"{library.min_basin_level:.6g}"
        )


def mu_analytic(library: PrimitiveLibrary, kappa: float) -> float:
    """Closed-form upper bound on mu(kappa), clamped to at least 1.

    On the annulus of member p the denominator is at least kappa while any
    member q values the point at most
    lam_max_q * (sqrt(kappa_bar_p/lam_min_p) + offset_pq)^2.
    """
    _check_kappa_for_mu(library, kappa)
    bounds = [p.lyapunov.eig_bounds() for p in library]
    best = 1.0
    for ip, p in enumerate(library):
        reach_p = math.sqrt(p.basin_level / bounds[ip][0])
        for iq, q in enumerate(library):
            offset = float(np.linalg.norm(q.lyapunov.center - p.lyapunov.center))
            numerator = bounds[iq][1] * (reach_p + offset) ** 2
            best = max(best, numerator / kappa)
    return best


def _annulus_seeds(lyapunov: QuadraticLyapunov, inner: float, outer: float) -> np.ndarray:
    """Axis points of the inner and outer level sets; used when a grid
    misses a thin annulus entirely."""
    evals, evecs = np.linalg.eigh(lyapunov.weight)
    seeds = []
    for level in (inner, outer):
        radii = np.sqrt(level / evals)
        for i in range(evals.size):
            step = radii[i] * evecs[:, i]
            seeds.append(lyapunov.center + step)
            seeds.append(lyapunov.center - step)
    return np.array(seeds)


def mu_grid(library: PrimitiveLibrary, kappa: float, resolution: int | None = None) -> float:
    """Grid maximization of mu(kappa) over each member's basin annulus.

    For each member p the grid covers its basin box and keeps points with
    kappa <= V_p <= kappa_bar_p; ratios V_q/V_p are maximized over all
    ordered pairs.  The result is at least 1 (the (p, p) ratio) and never
    exceeds the analytic bound.
    """
    _check_kappa_for_mu(library, kappa)
    resolution = _resolve_resolution(library.state_dim, resolution)
    best = 1.0
    for p in library:
        lo, hi = _box_of(p.lyapunov, p.basin_level)
        pts = _grid_points(lo, hi, resolution)
        vp = p.lyapunov.values(pts)
        mask = (vp >= kappa) & (vp <= p.basin_level)
        if not np.any(mask):
            pts = _annulus_seeds(p.lyapunov, kappa, p.basin_level)
            vp = p.lyapunov.values(pts)
            mask = vp > 0.0
        pts, vp = pts[mask], vp[mask]
        for q in library:
            if q.id == p.id:
                continue
            best = max(best, float(np.max(q.lyapunov.values(pts) / vp)))
    return best


def _pair_maxima(library: PrimitiveLibrary, level: float) -> np.ndarray:
    """The (P, P) table whose entry [i, j] is the maximum of member i's V
    over member j's {V <= level}: ``level`` on the diagonal, ``_level_max``
    off it."""
    table = np.full((len(library), len(library)), float(level))
    for (i, p), (j, q) in itertools.permutations(enumerate(library), 2):
        table[i, j] = _level_max(p.lyapunov, q.lyapunov, level)
    return table


def _omega_exact(library: PrimitiveLibrary, kappa: float) -> float:
    """omega(kappa): every member's largest value on another's kappa-set,
    and at least kappa, which each member attains on its own."""
    _check_kappa_for_omega(library, kappa)
    return float(np.max(_pair_maxima(library, kappa)))


def dwell_time_bound(mu: float, contraction_rate: float, epsilon: float) -> float:
    """Average dwell time keeping the switched decrease rate at epsilon.

    ln(mu) / ln(epsilon / contraction_rate); zero when mu == 1 because any
    switching is then admissible.
    """
    if not (mu >= 1.0 and np.isfinite(mu)):
        raise ValueError("mu must be at least 1")
    if not (0.0 < contraction_rate < 1.0):
        raise ValueError("contraction_rate must lie in (0, 1)")
    if not (contraction_rate < epsilon < 1.0):
        raise ValueError("epsilon must lie strictly between the contraction rate and 1")
    return math.log(mu) / math.log(epsilon / contraction_rate)


@dataclass(frozen=True)
class PairContainment:
    inner_id: int
    outer_id: int
    # "nested" for a member inside its own basin, "exact" for a cross pair;
    # older documents also carry "ball" and "grid"
    mode: str
    slack: float
    passed: bool


@dataclass(frozen=True)
class ContainmentReport:
    level: float
    pairs: tuple[PairContainment, ...]
    passed: bool


def feasibility_check(
    library: PrimitiveLibrary,
    n0_bar: int,
    omega: float,
    mu: float,
) -> ContainmentReport:
    """Check that the mu^n0 * omega sublevel sets sit strictly inside every basin.

    Slacks are kappa_bar_p minus the ``_pair_maxima`` entry of (p, q) at
    that level: the level itself for the nested same-member pairs, an exact
    maximum for cross pairs, so every slack is in Lyapunov units.
    """
    if n0_bar < 1 or int(n0_bar) != n0_bar:
        raise ValueError("n0_bar must be an integer >= 1")
    if not (omega > 0.0 and mu >= 1.0):
        raise ValueError("need omega > 0 and mu >= 1")
    level = (mu ** int(n0_bar)) * omega
    maxima = _pair_maxima(library, level)
    pairs = []
    for j, q in enumerate(library):
        for i, p in enumerate(library):
            slack = float(p.basin_level - maxima[i, j])
            pairs.append(PairContainment(q.id, p.id, "nested" if i == j else "exact",
                                         slack, slack > 0.0))
    return ContainmentReport(level=float(level), pairs=tuple(pairs), passed=all(c.passed for c in pairs))


@dataclass(frozen=True)
class Certificate:
    """A feasible switching certificate for one specific library.

    ``n0_bar`` switches may arrive in a burst; on average one switch per
    ``na_bar`` steps is admissible.  ``delta_hat`` is the empirically
    estimated disturbance amplitude margin (None until estimated).
    """

    kappa: float
    omega: float
    mu: float
    epsilon: float
    contraction_rate: float
    n0_bar: int
    na_bar: float
    # "exact" from synthesis; older documents also carry "analytic" and "grid"
    method: str
    containment: ContainmentReport
    library_fingerprint: str
    delta_hat: float | None = None

    def __post_init__(self):
        if self.method not in ("analytic", "exact", "grid"):
            raise ValueError("method must be 'analytic', 'exact' or 'grid'")
        optional = () if self.delta_hat is None else ("delta_hat",)
        for name in ("kappa", "omega", "mu", "epsilon", "contraction_rate", "na_bar") + optional:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.mu < 1.0:
            raise ValueError("mu must be at least 1")
        if not (self.contraction_rate < self.epsilon < 1.0):
            raise ValueError("epsilon must lie strictly between the contraction rate and 1")
        if self.omega < self.kappa * (1.0 - 1e-12):
            raise ValueError("omega must be at least kappa")
        if self.na_bar < 0.0:
            raise ValueError("na_bar must be nonnegative")
        n0 = self.n0_bar
        if isinstance(n0, bool) or not (isinstance(n0, (int, np.integer)) and n0 >= 1):
            raise ValueError("n0_bar must be an integer >= 1")

    def to_dict(self) -> dict:
        """The document's fields, the containment report nested as it is;
        ``write_document`` sorts the keys and writes tuples as lists."""
        return {"format": "switchcert-certificate", "version": 1, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        if not isinstance(data, dict) or data.get("format") != "switchcert-certificate":
            raise ValueError("not a certificate document")
        report = data["containment"]
        containment = ContainmentReport(report["level"], tuple(
            PairContainment(c["inner_id"], c["outer_id"], c["mode"], c["slack"], c["passed"])
            for c in report["pairs"]), report["passed"])
        scalars = {f.name: data[f.name] for f in fields(cls)
                   if f.name not in ("containment", "delta_hat")}
        return cls(**scalars, containment=containment, delta_hat=data.get("delta_hat"))

    def save(self, path: str | Path) -> None:
        write_document(path, self.to_dict())

    @classmethod
    def load(cls, source: str | Path) -> "Certificate":
        """Load a certificate from a path, or the packaged one as ``"shipped"``."""
        return read_document(source, cls.from_dict)[0]


@dataclass(frozen=True)
class KappaDiagnostic:
    kappa: float
    omega: float
    mu: float
    na_bar: float
    feasible_n0: tuple[int, ...]


@dataclass(frozen=True)
class SynthesisResult:
    feasible: bool
    certificate: Certificate | None
    diagnostics: tuple[KappaDiagnostic, ...]
    reason: str = ""


def synthesize_certificate(
    library: PrimitiveLibrary,
    *,
    epsilon: float | None = None,
) -> SynthesisResult:
    """Sweep ``default_kappa_grid`` (ascending) and return the first feasible certificate.

    At the first feasible kappa the largest feasible burst allowance among
    ``DEFAULT_N0_CANDIDATES`` wins (ties broken by the smaller dwell-time
    bound, which cannot differ at fixed kappa).  An infeasible sweep
    returns per-kappa diagnostics instead of a certificate.  omega, mu =
    omega / kappa and containment are all exact, and the certificate's
    ``method`` is ``"exact"``.
    """
    rate = library.contraction_rate
    if epsilon is None:
        epsilon = rate + 0.9 * (1.0 - rate)  # 90% of the way from the rate up to 1
    if not (rate < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in ({rate:.6g}, 1)")
    violations = library.fixed_point_violations()
    if violations:
        worst = max(violations, key=lambda v: v[2])
        return SynthesisResult(
            feasible=False,
            certificate=None,
            diagnostics=(),
            reason=(
                "fixed points are not contained in every basin "
                f"(worst: member {worst[0]} in basin {worst[1]}, value {worst[2]:.6g})"
            ),
        )
    diagnostics = []
    # the grid lies inside (0, min basin level), where both constants are defined
    for kappa in default_kappa_grid(library).tolist():
        omega = _omega_exact(library, kappa)
        # mu is the largest V_q/V_p on p's basin outside its kappa-core.  At
        # x = c_p + s L_p^-T d (|d| = 1, s^2 = V_p(x)) the ratio is
        # A_d + 2 B_d / s + C / s^2 with A_-d = A_d, B_-d = -B_d and
        # C = V_q(c_p) >= 0, so the larger of d and -d falls in s and the
        # maximum lies on V_p = kappa, at omega's V_q / kappa.  Dividing by
        # kappa > 0 keeps the order of rounded values, so mu is omega / kappa
        # bit for bit.
        mu = omega / kappa
        na = dwell_time_bound(mu, rate, epsilon)
        reports = {n0: feasibility_check(library, n0, omega, mu) for n0 in DEFAULT_N0_CANDIDATES}
        feasible_n0 = tuple(n0 for n0, report in reports.items() if report.passed)
        diagnostics.append(KappaDiagnostic(kappa, omega, mu, na, feasible_n0))
        if feasible_n0:
            n0 = max(feasible_n0)
            certificate = Certificate(
                kappa=kappa,
                omega=omega,
                mu=mu,
                epsilon=float(epsilon),
                contraction_rate=rate,
                n0_bar=n0,
                na_bar=na,
                method="exact",
                containment=reports[n0],
                library_fingerprint=library_fingerprint(library),
            )
            return SynthesisResult(True, certificate, tuple(diagnostics))
    return SynthesisResult(
        feasible=False,
        certificate=None,
        diagnostics=tuple(diagnostics),
        reason="no kappa in the grid yielded contained trapping sets",
    )
