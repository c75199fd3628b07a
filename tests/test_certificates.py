"""Set constants, the dwell-time bound, containment feasibility, certificate
synthesis, and the empirical disturbance margin."""

import numpy as np
import pytest

from switchcert import (
    Certificate,
    PrimitiveLibrary,
    dwell_time_bound,
    estimate_disturbance_margin,
    feasibility_check,
    library_fingerprint,
    mu_analytic,
    mu_grid,
    omega_analytic,
    omega_grid,
    sample_in_sublevel_set,
    synthesize_certificate,
)

from conftest import make_pair_library, make_primitive
from switchcert import simulation
from switchcert.simulation import _batch_stats, _draw_campaign_inputs

# Grid-oracle values computed once at the default 2-D resolution (201 per
# axis) and frozen; the analytic bounds are exact closed forms.
PAIR_OMEGA_ANALYTIC = 2.25
PAIR_OMEGA_GRID = 2.25
PAIR_MU_ANALYTIC = 11.65685424949238
PAIR_MU_GRID = 5.828427124746189


def random_library(rng, member_count):
    """A random 2-D library with nearby centers and shared-scale basins."""
    primitives = []
    for pid in range(member_count):
        center = rng.uniform(-0.3, 0.3, size=2)
        scale = rng.uniform(0.3, 0.8)
        angle = rng.uniform(0.0, np.pi)
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        weight = rot @ np.diag(rng.uniform(0.5, 3.0, size=2)) @ rot.T
        weight = 0.5 * (weight + weight.T)
        primitives.append(
            make_primitive(
                pid,
                center=center,
                linear=scale * rot,
                weight=weight,
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
        report = feasibility_check(library, 0.1, 1, omega=0.2, mu=2.0)
        assert report.passed
        assert report.level == 0.4

    def test_single_member_oversized_level_fails(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        report = feasibility_check(library, 0.1, 1, omega=0.6, mu=2.0)
        assert not report.passed

    def test_same_pair_boundary_is_exclusive(self):
        # the inflated set must sit strictly inside the basin interior
        library = PrimitiveLibrary((make_primitive(0, basin_level=1.0),))
        exact = feasibility_check(library, 0.1, 1, omega=0.5, mu=2.0)
        assert not exact.passed

    def test_report_lists_every_ordered_pair(self, walker_library, walker_certificate):
        cert = walker_certificate
        report = feasibility_check(
            walker_library, cert.kappa, cert.n0_bar, omega=cert.omega, mu=cert.mu
        )
        assert report.passed
        assert len(report.pairs) == len(walker_library) ** 2


class TestSynthesis:
    def test_single_member_library_is_feasible(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=2.0),))
        result = synthesize_certificate(library, method="grid")
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
        result = synthesize_certificate(library, method="analytic")
        assert not result.feasible
        assert result.certificate is None
        assert result.reason

    def test_diagnostics_cover_the_searched_grid(self):
        library = PrimitiveLibrary((make_primitive(0, basin_level=2.0),))
        result = synthesize_certificate(library, kappa_grid=np.array([0.01, 0.1, 0.5]))
        assert result.feasible
        assert len(result.diagnostics) >= 1
        first = result.diagnostics[0]
        assert first.kappa == 0.01
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
        result = synthesize_certificate(walker_library, method="grid")
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
        assert cert.method == "grid"
        assert cert.library_fingerprint == ship.library_fingerprint

    def test_analytic_bounds_cannot_certify_the_walker_library(self, walker_library):
        # mu_analytic >= basin/kappa makes the inflated set at least basin
        # sized, so the analytic route reports infeasible here and the grid
        # route is the shipped default.
        result = synthesize_certificate(walker_library, method="analytic")
        assert not result.feasible


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
        rng = np.random.default_rng(4)
        for _ in range(10):
            library = random_library(rng, 3)
            kappa = 0.2 * library.min_basin_level
            omega = omega_grid(library, kappa, 41)
            for member in library:
                for other in library:
                    block = sample_in_sublevel_set(
                        other.lyapunov, kappa, 100, np.random.default_rng(1)
                    )
                    for x in block:
                        assert member.lyapunov.value(x) <= omega + 1e-9


class TestDisturbanceMargin:
    def test_zero_gain_library_returns_upper_limit(self):
        library = PrimitiveLibrary(
            (make_primitive(0, gain=np.zeros((2, 2)), basin_level=2.0),)
        )
        result = synthesize_certificate(library, method="grid")
        assert result.feasible
        estimate = estimate_disturbance_margin(library, result.certificate, 20, seed=5, upper=1.0)
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
        x0s, sigmas, unit, *_ = _draw_campaign_inputs(
            walker_library, walker_certificate, 200, 200, 1.0, 20260822, 1, exact_sup=True)
        verdicts = set()
        for amplitude, violated in estimate.evaluations:
            first, _, _ = _batch_stats(walker_library, x0s, sigmas, amplitude * unit)
            assert violated == bool(np.any(first >= 0)), amplitude
            verdicts.add(violated)
        assert verdicts == {True, False}

    def test_episodes_are_drawn_once(self, monkeypatch, walker_library, walker_certificate):
        streams = []
        derive_rng = simulation.derive_rng
        monkeypatch.setattr(simulation, "derive_rng",
                            lambda *path: streams.append(path) or derive_rng(*path))
        estimate = estimate_disturbance_margin(
            walker_library, walker_certificate, trial_budget=7, seed=3, horizon=40)
        assert len(estimate.evaluations) > 2
        assert streams == [(3, 1, e) for e in range(7)]
