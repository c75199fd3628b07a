"""Set constants, the dwell-time bound, containment feasibility, certificate
synthesis, and the empirical disturbance margin."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchcert import (
    Certificate,
    PrimitiveLibrary,
    estimate_disturbance_margin,
    mu_analytic,
    mu_grid,
    omega_analytic,
    omega_grid,
    synthesize_certificate,
)
from switchcert.certificates import default_kappa_grid, dwell_time_bound, feasibility_check
from switchcert.library_io import library_fingerprint
from switchcert.primitives import _level_max, _sphere_max

from conftest import make_pair_library, make_primitive, sublevel_samples
from switchcert import certificates, simulation
from switchcert.certificates import _omega_exact
from switchcert.simulation import _batch_stats, _draw_campaign_inputs

# Grid-oracle values computed once at the default 2-D resolution (201 per
# axis) and frozen; the analytic bounds are exact closed forms.
PAIR_OMEGA_ANALYTIC = 2.25
PAIR_OMEGA_GRID = 2.25
PAIR_MU_ANALYTIC = 11.65685424949238
PAIR_MU_GRID = 5.828427124746189


def random_library(rng, member_count, dim=2):
    """A random library with nearby centers and shared-scale basins.

    Each member's rotation is a product of plane rotations, one random
    angle per coordinate plane; in 2-D that is a single rotation.
    """
    primitives = []
    for pid in range(member_count):
        center = rng.uniform(-0.3, 0.3, size=dim)
        scale = rng.uniform(0.3, 0.8)
        rot = np.eye(dim)
        for i, j in itertools.combinations(range(dim), 2):
            angle = rng.uniform(0.0, np.pi)
            plane = np.eye(dim)
            plane[[i, i, j, j], [i, j, i, j]] = (
                np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle))
            rot = rot @ plane
        weight = rot @ np.diag(rng.uniform(0.5, 3.0, size=dim)) @ rot.T
        weight = 0.5 * (weight + weight.T)
        primitives.append(
            make_primitive(
                pid,
                center=center,
                linear=scale * rot,
                weight=weight,
                gain=np.eye(dim),
                basin_level=float(rng.uniform(3.0, 6.0)),
                contraction_rate=min(0.95, scale**2 * np.linalg.cond(weight) + 0.01),
            )
        )
    return PrimitiveLibrary(tuple(primitives))


class TestOmega:
    def test_single_primitive_identity_weight(self):
        library = PrimitiveLibrary((make_primitive(0),))
        assert abs(omega_analytic(library, 1.0) - 1.0) <= 1e-12
        assert abs(omega_grid(library, 1.0) - 1.0) <= 1e-12

    def test_offset_pair_closed_form(self):
        library = make_pair_library()
        assert abs(omega_analytic(library, 0.25) - PAIR_OMEGA_ANALYTIC) <= 1e-12
        value = omega_grid(library, 0.25)
        assert abs(value - PAIR_OMEGA_GRID) <= 1e-12
        assert value <= omega_analytic(library, 0.25) + 1e-12
        assert value >= 0.25

    def test_identical_members_reduce_to_weight_conditioning(self):
        weight = np.diag([2.0, 1.0])
        library = PrimitiveLibrary(
            (
                make_primitive(0, weight=weight, basin_level=1.0),
                make_primitive(1, weight=weight, basin_level=1.0),
            )
        )
        assert abs(omega_analytic(library, 0.3) - 0.3 * 2.0) <= 1e-12

    def test_identical_identity_members_grid_equals_kappa(self):
        library = PrimitiveLibrary(
            (make_primitive(0, basin_level=1.0), make_primitive(1, basin_level=1.0))
        )
        value = omega_grid(library, 0.4)
        assert 0.4 - 0.01 <= value <= 0.4 + 1e-12

    def test_kappa_beyond_basins_rejected(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        with pytest.raises(ValueError):
            omega_analytic(library, 1.5)
        with pytest.raises(ValueError):
            omega_grid(library, 1.5)

    def test_grid_refuses_high_dimensional_state(self):
        eye = np.eye(5)
        from switchcert import Primitive, PrimitiveMap, QuadraticLyapunov

        prim = Primitive(
            id=0,
            map=PrimitiveMap(linear=0.5 * eye, fixed_point=np.zeros(5), disturbance_gain=eye),
            lyapunov=QuadraticLyapunov(weight=eye, center=np.zeros(5)),
            basin_level=2.0,
            contraction_rate=0.3,
        )
        library = PrimitiveLibrary((prim,))
        with pytest.raises(ValueError):
            omega_grid(library, 0.5)
        # the analytic bound still works in any dimension
        assert abs(omega_analytic(library, 0.5) - 0.5) <= 1e-12

    def test_grid_monotone_in_kappa(self):
        library = make_pair_library()
        values = [omega_grid(library, kappa, 101) for kappa in (0.1, 0.2, 0.4, 0.8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestMu:
    def test_result_never_below_one(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            library = random_library(rng, int(rng.integers(1, 4)))
            kappa = 0.25 * library.min_basin_level
            assert mu_analytic(library, kappa) >= 1.0
            assert mu_grid(library, kappa, 41) >= 1.0

    def test_identical_pair_closed_form(self):
        library = PrimitiveLibrary(
            (make_primitive(0, basin_level=1.0), make_primitive(1, basin_level=1.0))
        )
        assert abs(mu_analytic(library, 0.5) - 2.0) <= 1e-12
        assert mu_grid(library, 0.5) == 1.0

    def test_single_member_values(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=2.0),))
        assert abs(mu_analytic(library, 0.5) - 4.0) <= 1e-12
        assert mu_grid(library, 0.5) == 1.0

    def test_offset_pair_sandwich(self):
        library = make_pair_library()
        grid = mu_grid(library, 0.5)
        assert abs(grid - PAIR_MU_GRID) <= 1e-12
        assert abs(mu_analytic(library, 0.5) - PAIR_MU_ANALYTIC) <= 1e-12
        assert 1.0 <= grid <= mu_analytic(library, 0.5) + 1e-12

    def test_kappa_reaching_basin_rejected(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        with pytest.raises(ValueError):
            mu_analytic(library, 1.0)
        with pytest.raises(ValueError):
            mu_grid(library, 1.0)

    def test_grid_nonincreasing_in_kappa(self):
        library = make_pair_library()
        values = [mu_grid(library, kappa, 101) for kappa in (0.2, 0.4, 0.8, 1.2)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def sphere_value(m, g, u):
    return float(u @ m @ u + 2.0 * g @ u)


def numpy_sphere_max(m, g):
    """``_sphere_max`` with its bisection on numpy arrays, summing |u|² by
    ``np.sum``, as it was first written."""
    lam, vecs = np.linalg.eigh(m)
    b = vecs.T @ g
    lo, hi = lam[-1], lam[-1] + float(np.linalg.norm(b))
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if np.sum((b / (mid - lam)) ** 2) > 1.0:
            lo = mid
        else:
            hi = mid
    gap = hi - lam
    u = np.divide(b, gap, out=np.zeros_like(b), where=gap > 0.0)
    u[-1] = math.copysign(math.sqrt(max(0.0, 1.0 - float(u[:-1] @ u[:-1]))), b[-1])
    return vecs @ u


def random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


class TestSphereMax:
    """The trust-region kernel against closed forms and a dense scan."""

    def test_zero_linear_term_gives_the_top_eigenvalue(self):
        rng = np.random.default_rng(3)
        for dim in (1, 2, 5):
            rot = random_rotation(rng, dim)
            lam = rng.uniform(-2.0, 3.0, size=dim)
            m = rot @ np.diag(lam) @ rot.T
            u = _sphere_max(m, np.zeros(dim))
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
            assert abs(sphere_value(m, np.zeros(dim), u) - lam.max()) <= 1e-12

    def test_multiple_of_identity_gives_c_plus_twice_the_norm(self):
        rng = np.random.default_rng(4)
        for dim in (1, 2, 3, 7):
            c = float(rng.uniform(0.5, 2.0))
            g = rng.standard_normal(dim)
            u = _sphere_max(c * np.eye(dim), g)
            expected = c + 2.0 * np.linalg.norm(g)
            assert abs(sphere_value(c * np.eye(dim), g, u) - expected) <= 1e-12 * expected
            assert np.allclose(u, g / np.linalg.norm(g), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("top_multiplicity", [1, 2])
    def test_hard_case_fills_with_a_top_eigenvector(self, top_multiplicity):
        lam = np.array([0.2, 0.5, 1.0, 1.5])
        lam[-top_multiplicity:] = 2.0
        b = np.array([0.3, -0.2, 0.25, 0.0])
        b[-top_multiplicity:] = 0.0
        rot = random_rotation(np.random.default_rng(5), lam.size)
        m, g = rot @ np.diag(lam) @ rot.T, rot @ b
        rest = lam < 2.0
        assert np.sum((b[rest] / (2.0 - lam[rest])) ** 2) < 1.0
        expected = 2.0 + np.sum(b[rest] ** 2 / (2.0 - lam[rest]))
        u = _sphere_max(m, g)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        assert abs(sphere_value(m, g, u) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_matches_the_numpy_bisection_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (0.0, 1e-9, 1.0, 100.0):
            for _ in range(10):
                a = rng.standard_normal((dim, dim))
                m, g = a + a.T, scale * rng.standard_normal(dim)
                assert np.array_equal(_sphere_max(m, g), numpy_sphere_max(m, g))

    def test_two_dimensional_problems_match_a_dense_circle_scan(self):
        rng = np.random.default_rng(20260822)
        angles = np.linspace(0.0, 2.0 * np.pi, 200_001)
        circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        for _ in range(50):
            a = rng.standard_normal((2, 2))
            m, g = 0.5 * (a + a.T), rng.standard_normal(2) * rng.choice([1e-3, 1.0, 10.0])
            scan = np.max(np.einsum("ni,ij,nj->n", circle, m, circle) + 2.0 * circle @ g)
            value = sphere_value(m, g, _sphere_max(m, g))
            scale = np.abs(m).max() + np.linalg.norm(g)
            assert scan - 1e-12 * scale <= value <= scan + 1e-8 * scale


def boundary_points(lyapunov, level, count, rng):
    """Uniform directions, mapped onto the level set {V = level}."""
    u = rng.standard_normal((count, lyapunov.center.size))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    chol = np.linalg.cholesky(lyapunov.weight)
    return lyapunov.center + np.sqrt(level) * np.linalg.solve(chol.T, u.T).T


class TestExactConstants:
    def test_sandwich_on_random_libraries_of_two_to_eight_dimensions(self):
        rng = np.random.default_rng(20260822)
        samples = np.random.default_rng(7)
        for dim in range(2, 9):
            for case in range(3):
                library = random_library(rng, int(rng.integers(2, 5)), dim=dim)
                kappa = float(rng.uniform(0.05, 0.5)) * library.min_basin_level
                omega = _omega_exact(library, kappa)
                mu = omega / kappa
                assert omega <= omega_analytic(library, kappa) * (1.0 + 1e-12), (dim, case)
                assert mu <= mu_analytic(library, kappa) * (1.0 + 1e-12), (dim, case)
                if dim <= 4:
                    # 61^4 grid points would need about 1.5 GB; 4-D runs
                    # the oracle's default 17 per axis
                    resolution = 61 if dim <= 3 else None
                    assert omega_grid(library, kappa, resolution) <= omega * (1.0 + 1e-12)
                    assert mu_grid(library, kappa, resolution) <= mu * (1.0 + 1e-12)
                per_set = 20_000 // (2 * len(library))
                sampled_omega, sampled_mu = kappa, 1.0
                for p in library:
                    for level in (kappa, p.basin_level):
                        pts = boundary_points(p.lyapunov, level, per_set, samples)
                        vp = p.lyapunov.values(pts)
                        for q in library:
                            if level == kappa:
                                sampled_omega = max(sampled_omega, q.lyapunov.values(pts).max())
                            sampled_mu = max(sampled_mu, np.max(q.lyapunov.values(pts) / vp))
                assert sampled_omega <= omega * (1.0 + 1e-12), (dim, case)
                assert sampled_mu <= mu * (1.0 + 1e-12), (dim, case)
                # mu is taken on the inner level set alone; the outer one
                # never exceeds it
                for p, q in itertools.permutations(library, 2):
                    outer = _level_max(q.lyapunov, p.lyapunov, p.basin_level) / p.basin_level
                    assert outer <= mu * (1.0 + 1e-12), (dim, case)

    def test_level_max_matches_the_offset_ball_closed_form(self):
        # identity weights: the farthest point of the inner ball sits on the
        # line through both centers
        library = make_pair_library()
        outer, inner = (member.lyapunov for member in library)
        for level in (0.01, 0.25, 4.0):
            expected = (1.0 + np.sqrt(level)) ** 2
            assert abs(_level_max(outer, inner, level) - expected) <= 1e-12 * expected

    def test_shipped_values_and_the_grid_defect(self, walker_library, walker_certificate):
        kappa = walker_certificate.kappa
        assert _omega_exact(walker_library, kappa) == 3.0994584329022534e-05
        exact_mu = _omega_exact(walker_library, kappa) / kappa
        assert abs(exact_mu - 1.6126214531229204) <= 1e-12
        # the grid oracle misses the maximum: the shipped certificate used to
        # carry this value
        assert mu_grid(walker_library, kappa) == 1.583064446160993 < exact_mu
        assert walker_certificate.mu == exact_mu

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), members=st.integers(1, 4))
    def test_mu_is_omega_over_kappa_bit_for_bit(self, seed, dim, members):
        library = random_library(np.random.default_rng(seed), members, dim=dim)
        for kappa in default_kappa_grid(library).tolist():
            # mu as a maximum of its own ratios, one per ordered pair
            per_pair = max([1.0] + [_level_max(q.lyapunov, p.lyapunov, kappa) / kappa
                                    for p, q in itertools.permutations(library, 2)])
            omega = _omega_exact(library, kappa)
            assert per_pair == omega / kappa, kappa

    def test_single_member_library_has_no_cross_pairs(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=2.0),))
        assert _omega_exact(library, 0.5) == 0.5
        assert _omega_exact(library, 0.5) / 0.5 == 1.0

    def test_kappa_out_of_range_rejected(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        with pytest.raises(ValueError):
            _omega_exact(library, 1.5)


class TestDwellTimeBound:
    def test_unit_jump_needs_no_dwell(self):
        for rate, eps in ((0.5, 0.9), (0.3, 0.35), (0.9, 0.95)):
            assert dwell_time_bound(1.0, rate, eps) == 0.0

    def test_worked_value(self):
        value = dwell_time_bound(2.0, 0.5, 0.9)
        assert abs(value - np.log(2.0) / np.log(1.8)) <= 1e-15
        assert abs(value - 1.179249584839376) <= 1e-12

    def test_monotone_in_epsilon_and_mu(self):
        values = [dwell_time_bound(2.0, 0.5, eps) for eps in (0.6, 0.7, 0.8, 0.9, 0.99)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        values = [dwell_time_bound(mu, 0.5, 0.9) for mu in (1.0, 1.5, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            dwell_time_bound(2.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            dwell_time_bound(2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            dwell_time_bound(0.9, 0.5, 0.9)


class TestFeasibility:
    def test_single_member_nested_level_passes(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        report = feasibility_check(library, 1, omega=0.2, mu=2.0)
        assert report.passed
        assert report.level == 0.4

    def test_single_member_oversized_level_fails(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        report = feasibility_check(library, 1, omega=0.6, mu=2.0)
        assert not report.passed

    def test_same_pair_boundary_is_exclusive(self):
        # the inflated set must sit strictly inside the basin interior
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        exact = feasibility_check(library, 1, omega=0.5, mu=2.0)
        assert not exact.passed

    def test_cross_pair_slack_is_exact_in_lyapunov_units(self):
        library = make_pair_library()
        report = feasibility_check(library, 1, omega=0.04, mu=1.0)
        assert report.passed
        cross = [c for c in report.pairs if c.inner_id != c.outer_id]
        assert [c.mode for c in cross] == ["exact", "exact"]
        for c in cross:
            assert abs(c.slack - (2.0 - 1.2**2)) <= 1e-12
        report = feasibility_check(library, 1, omega=0.25, mu=1.0)
        assert not report.passed
        assert all(c.passed for c in report.pairs if c.mode == "nested")

    def test_report_lists_every_ordered_pair(self, walker_library, walker_certificate):
        cert = walker_certificate
        report = feasibility_check(
            walker_library, cert.n0_bar, omega=cert.omega, mu=cert.mu
        )
        assert report.passed
        assert len(report.pairs) == len(walker_library) ** 2


class TestSynthesis:
    def test_single_member_library_is_feasible(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=2.0),))
        result = synthesize_certificate(library)
        assert result.feasible
        cert = result.certificate
        assert cert.mu >= 1.0
        assert cert.omega >= cert.kappa
        expected = dwell_time_bound(cert.mu, library.contraction_rate, cert.epsilon)
        assert abs(cert.na_bar - expected) <= 1e-12
        assert cert.library_fingerprint == library_fingerprint(library)

    def test_disjoint_basin_library_is_infeasible(self):
        library = PrimitiveLibrary(
            (
                make_primitive(0, basin_level=0.5),
                make_primitive(1, center=(10.0, 0.0), basin_level=0.5),
            )
        )
        result = synthesize_certificate(library)
        assert not result.feasible
        assert result.certificate is None
        assert result.reason

    def test_diagnostics_cover_the_searched_grid(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=2.0),))
        result = synthesize_certificate(library)
        assert result.feasible
        assert len(result.diagnostics) >= 1
        first = result.diagnostics[0]
        assert first.kappa == default_kappa_grid(library)[0]
        assert first.mu >= 1.0

    def test_epsilon_outside_range_rejected(self):
        library = PrimitiveLibrary((make_primitive(0),))
        with pytest.raises(ValueError):
            synthesize_certificate(library, epsilon=0.1)
        with pytest.raises(ValueError):
            synthesize_certificate(library, epsilon=1.0)

    def test_shipped_walker_synthesis_reproduces_certificate(
        self, walker_library, walker_certificate
    ):
        result = synthesize_certificate(walker_library)
        assert result.feasible
        cert = result.certificate
        ship = walker_certificate
        assert cert.n0_bar == ship.n0_bar == 2
        assert cert.na_bar < 1.0
        assert cert.kappa == ship.kappa
        assert cert.omega == ship.omega
        assert cert.mu == ship.mu
        assert cert.epsilon == ship.epsilon
        assert cert.na_bar == ship.na_bar
        assert cert.method == "exact"
        assert cert.containment == ship.containment
        assert cert.library_fingerprint == ship.library_fingerprint

    def test_synthesis_makes_eighteen_exact_maxima_per_kappa(self, walker_library, monkeypatch):
        calls = []
        level_max = certificates._level_max
        monkeypatch.setattr(certificates, "_level_max",
                            lambda *args: calls.append(args) or level_max(*args))
        result = synthesize_certificate(walker_library)
        # the shipped library certifies at the grid's first kappa: its six
        # ordered pairs once for omega (mu is omega / kappa) and once for
        # each of the two burst allowances' containment
        assert len(result.diagnostics) == 1
        assert len(calls) == 18


class TestCertificateDocument:
    def test_round_trip(self, tmp_path, walker_certificate):
        path = tmp_path / "certificate.json"
        walker_certificate.save(path)
        again = Certificate.load(path)
        assert again == walker_certificate

    def test_shipped_name_loads_the_packaged_certificate(self, walker_certificate):
        assert Certificate.load("shipped") == walker_certificate

    def test_missing_field_is_a_value_error_naming_the_file(self, tmp_path):
        path = tmp_path / "certificate.json"
        path.write_text('{"format": "switchcert-certificate"}')
        with pytest.raises(ValueError, match="certificate.json: missing field 'containment'"):
            Certificate.load(path)

    def test_validation_rejects_bad_fields(self, walker_certificate):
        data = walker_certificate.to_dict()
        bad = dict(data)
        bad["mu"] = 0.5
        with pytest.raises(ValueError):
            Certificate.from_dict(bad)
        bad = dict(data)
        bad["epsilon"] = 2.0
        with pytest.raises(ValueError):
            Certificate.from_dict(bad)

    @pytest.mark.parametrize("method, mode", [("analytic", "ball"), ("grid", "grid"),
                                              ("grid", "ball"), ("exact", "exact")])
    def test_documents_of_every_method_and_pair_mode_load(self, tmp_path, walker_certificate,
                                                          method, mode):
        data = walker_certificate.to_dict()
        data["method"] = method
        for pair in data["containment"]["pairs"]:
            if pair["mode"] != "nested":
                pair["mode"] = mode
        cert = Certificate.from_dict(data)
        assert cert.method == method
        assert {c.mode for c in cert.containment.pairs} == {"nested", mode}
        path = tmp_path / "certificate.json"
        cert.save(path)
        assert Certificate.load(path) == cert

    def test_na_bar_consistent_with_formula(self, walker_certificate):
        cert = walker_certificate
        expected = dwell_time_bound(cert.mu, cert.contraction_rate, cert.epsilon)
        assert abs(cert.na_bar - expected) <= 1e-12


class TestDominanceProperties:
    def test_bounds_dominate_grid_on_random_libraries(self):
        rng = np.random.default_rng(20260822)
        for case in range(40):
            library = random_library(rng, int(rng.integers(2, 5)))
            kappa = float(rng.uniform(0.05, 0.5)) * library.min_basin_level
            omega_bound = omega_analytic(library, kappa)
            omega_value = omega_grid(library, kappa, 61)
            assert omega_value <= omega_bound * (1.0 + 1e-12), case
            assert omega_value >= kappa - 1e-12
            mu_bound = mu_analytic(library, kappa)
            mu_value = mu_grid(library, kappa, 61)
            assert mu_value <= mu_bound * (1.0 + 1e-12), case
            assert mu_value >= 1.0

    def test_kappa_core_contained_in_omega_sets(self):
        # omega_grid underestimates omega, so samples of a kappa-set can lie
        # above it; the exact omega holds every sample, and the grid is below it
        rng = np.random.default_rng(4)
        for _ in range(10):
            library = random_library(rng, 3)
            kappa = 0.2 * library.min_basin_level
            omega = _omega_exact(library, kappa)
            assert omega_grid(library, kappa, 41) <= omega * (1.0 + 1e-12)
            for member in library:
                for other in library:
                    block = sublevel_samples(other.lyapunov, kappa, 100, np.random.default_rng(1))
                    for x in block:
                        assert member.lyapunov.value(x) <= omega + 1e-9


class TestDisturbanceMargin:
    def test_zero_gain_library_returns_upper_limit(self):
        library = PrimitiveLibrary(
            (make_primitive(0, gain=np.zeros((2, 2)), basin_level=2.0),)
        )
        result = synthesize_certificate(library)
        assert result.feasible
        estimate = estimate_disturbance_margin(library, result.certificate, 20, seed=5)
        assert estimate.delta_hat == 1.0

    def test_shipped_margin_is_positive_and_reproducible(
        self, walker_library, walker_certificate
    ):
        estimate = estimate_disturbance_margin(
            walker_library, walker_certificate, trial_budget=200, seed=20260822
        )
        assert estimate.delta_hat > 0.0
        assert estimate.delta_hat == walker_certificate.delta_hat

    def test_fingerprint_mismatch_rejected(self, walker_certificate):
        library = make_pair_library()
        with pytest.raises(ValueError):
            estimate_disturbance_margin(library, walker_certificate, 10, seed=1)

    def test_verdicts_match_full_rollouts_of_the_shared_episodes(
        self, walker_library, walker_certificate
    ):
        # Replays the shipped bisection: every early-stopped verdict must be
        # what full rollouts of the same episodes say at that amplitude.
        estimate = estimate_disturbance_margin(
            walker_library, walker_certificate, trial_budget=200, seed=20260822
        )
        x0s, cols, unit, *_ = _draw_campaign_inputs(
            walker_library, walker_certificate, 200, 200, 1.0, 20260822, 1, exact_sup=True)
        verdicts = set()
        for amplitude, violated in estimate.evaluations:
            first, _, _ = _batch_stats(walker_library, x0s, cols, amplitude * unit,
                                       np.empty((0, 201, 2)))
            assert violated == bool(np.any(first >= 0)), amplitude
            verdicts.add(violated)
        assert verdicts == {True, False}

    def test_episodes_are_drawn_once(self, monkeypatch, walker_library, walker_certificate):
        # one draw of the trial episodes, at amplitude 1 on stream 1, serves
        # every tested amplitude
        draws = []
        draw = simulation._draw_campaign_inputs
        monkeypatch.setattr(simulation, "_draw_campaign_inputs",
                            lambda *a, **kw: draws.append((a[2:], kw)) or draw(*a, **kw))
        estimate = estimate_disturbance_margin(
            walker_library, walker_certificate, trial_budget=7, seed=3)
        assert len(estimate.evaluations) > 2
        assert draws == [((7, 200, 1.0, 3), {"stream": 1, "exact_sup": True})]
