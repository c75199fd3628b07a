"""Primitive maps, quadratic Lyapunov values, the sublevel-set sampler, and
sampled checks of declared contraction rates and basin levels."""

import numpy as np
import pytest

from switchcert import (
    Primitive,
    PrimitiveLibrary,
    PrimitiveMap,
    QuadraticLyapunov,
)
from switchcert.primitives import _ellipsoid_points, _sum_of_squares

from conftest import EYE2, make_primitive, sublevel_samples


def reference_eval(linear, fixed_point, gain, quadratic, x, d):
    """Independent evaluation of x* + A (x - x*) + q(x - x*) + B d."""
    dev = np.asarray(x, float) - np.asarray(fixed_point, float)
    out = np.asarray(fixed_point, float) + np.asarray(linear, float) @ dev
    if quadratic is not None:
        for i, block in enumerate(np.asarray(quadratic, float)):
            out[i] += dev @ block @ dev
    if d is not None:
        out = out + np.asarray(gain, float) @ np.asarray(d, float)
    return out


class TestEvalMap:
    def test_fixed_point_identity(self):
        prim = make_primitive(center=(0.3, -0.7))
        image = prim.map.apply_batch(prim.map.fixed_point[None], np.zeros((1, 2)))[0]
        assert np.max(np.abs(image - prim.map.fixed_point)) <= 1e-12

    def test_linear_contraction(self):
        prim = make_primitive()
        image = prim.map.apply_batch(np.array([[1.0, 0.0]]))[0]
        assert np.allclose(image, [0.5, 0.0], atol=0.0)

    def test_affine_with_disturbance(self):
        prim = make_primitive()
        image = prim.map.apply_batch(np.array([[1.0, 0.0]]), np.array([[0.1, 0.2]]))[0]
        assert np.allclose(image, [0.6, 0.2], atol=0.0)

    def test_matches_reference_reimplementation(self):
        rng = np.random.default_rng(20260822)
        for _ in range(50):
            center = rng.normal(size=2)
            linear = 0.4 * rng.normal(size=(2, 2))
            linear = linear / max(1.0, np.max(np.abs(np.linalg.eigvals(linear))) / 0.8)
            quad = rng.normal(size=(2, 2, 2))
            quad = 0.5 * (quad + np.transpose(quad, (0, 2, 1)))
            gain = rng.normal(size=(2, 2))
            prim = make_primitive(center=center, linear=linear, gain=gain, quadratic=quad)
            x = rng.normal(size=2)
            d = rng.normal(size=2)
            expected = reference_eval(linear, center, gain, quad, x, d)
            assert np.max(np.abs(prim.map.apply_batch(x[None], d[None])[0] - expected)) <= 1e-12

    def test_unstable_linear_part_rejected(self):
        with pytest.raises(ValueError):
            PrimitiveMap(
                linear=1.01 * EYE2,
                fixed_point=np.zeros(2),
                disturbance_gain=EYE2,
            )


class TestLyapunovValue:
    def test_zero_at_center(self):
        fn = QuadraticLyapunov(weight=EYE2, center=np.array([0.4, 0.4]))
        assert fn.value(np.array([0.4, 0.4])) == 0.0

    def test_identity_weight_is_squared_norm(self):
        fn = QuadraticLyapunov(weight=EYE2, center=np.zeros(2))
        assert fn.value(np.array([3.0, 4.0])) == 25.0

    def test_diagonal_weight_off_center(self):
        fn = QuadraticLyapunov(weight=np.diag([2.0, 1.0]), center=np.array([1.0, 0.0]))
        assert fn.value(np.array([2.0, 2.0])) == 6.0

    def test_positive_away_from_center(self):
        rng = np.random.default_rng(7)
        fn = QuadraticLyapunov(weight=np.array([[2.0, 0.5], [0.5, 1.0]]), center=rng.normal(size=2))
        for _ in range(100):
            x = fn.center + rng.normal(size=2)
            if np.max(np.abs(x - fn.center)) == 0.0:
                continue
            assert fn.value(x) > 0.0

    def test_orthogonal_change_of_coordinates(self):
        rng = np.random.default_rng(11)
        weight = np.array([[3.0, 1.0], [1.0, 2.0]])
        center = np.array([0.5, -0.25])
        fn = QuadraticLyapunov(weight=weight, center=center)
        for _ in range(25):
            angle = rng.uniform(-np.pi, np.pi)
            rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
            rotated = QuadraticLyapunov(weight=rot @ weight @ rot.T, center=rot @ center)
            x = rng.normal(size=2)
            assert abs(rotated.value(rot @ x) - fn.value(x)) <= 1e-10

    def test_asymmetric_weight_rejected(self):
        with pytest.raises(ValueError):
            QuadraticLyapunov(weight=np.array([[1.0, 0.2], [0.0, 1.0]]), center=np.zeros(2))

    def test_indefinite_weight_rejected(self):
        with pytest.raises(ValueError):
            QuadraticLyapunov(weight=np.diag([1.0, -0.5]), center=np.zeros(2))


class TestSampling:
    def test_samples_fill_the_sublevel_set(self):
        fn = QuadraticLyapunov(weight=np.array([[2.0, 0.7], [0.7, 1.0]]), center=np.array([1.0, -1.0]))
        rng = np.random.default_rng(99)
        points = _ellipsoid_points(fn, 0.8, rng.standard_normal((500, 2)), rng.random(500))
        assert points.shape == (500, 2)
        values = np.array([fn.value(p) for p in points])
        assert np.max(values) <= 0.8 + 1e-12
        # the boundary region is reached, not just the center
        assert np.max(values) >= 0.5

    def test_deterministic_for_fixed_seed(self):
        fn = QuadraticLyapunov(weight=EYE2, center=np.zeros(2))
        a, b = (_ellipsoid_points(fn, 1.0, rng.standard_normal((64, 2)), rng.random(64))
                for rng in (np.random.default_rng(5), np.random.default_rng(5)))
        assert np.array_equal(a, b)


class TestSumOfSquares:
    """``_sum_of_squares`` adds in numpy's own order, so it replaces
    ``np.linalg.norm`` along a last axis and ``np.sum`` of squares bit for
    bit."""

    @pytest.mark.parametrize("n", [*range(1, 41), 127, 128, 129, 300])
    def test_matches_numpy_norm_and_sum(self, n):
        rng = np.random.default_rng(n)
        # magnitudes across sixty binades, so any other order of the adds
        # shows in the last bits
        x = rng.standard_normal((64, 5, n)) * np.exp2(rng.integers(-30, 30, (64, 5, n)))
        norms = np.sqrt(_sum_of_squares(np.moveaxis(x, -1, 0)))
        assert np.array_equal(norms, np.linalg.norm(x, axis=-1))
        for row in x[0]:
            assert _sum_of_squares(row.tolist()) == np.sum(row ** 2)


def sampled_decrease(prim, level, count, seed):
    """Samples of {V <= level}, with V(f(x)) / V(x) and V(f(x)) at each: a
    sampled check of the declared rate and of forward invariance, which is
    evidence, not proof."""
    points = sublevel_samples(prim.lyapunov, level, count, np.random.default_rng(seed))
    images = prim.lyapunov.values(prim.map.apply_batch(points))
    return points, images / prim.lyapunov.values(points), images


class TestVerifyContraction:
    """The Lyapunov decrease per undisturbed step, sampled on the basin."""

    def test_matched_linear_rate_passes_exactly(self):
        prim = make_primitive(contraction_rate=0.25)
        _, ratios, _ = sampled_decrease(prim, prim.basin_level, 400, 1)
        assert abs(ratios.max() - 0.25) <= 1e-12

    def test_understated_rate_fails_with_witness(self):
        prim = make_primitive(contraction_rate=0.2)
        points, ratios, _ = sampled_decrease(prim, prim.basin_level, 400, 1)
        worst = int(np.argmax(ratios))
        assert ratios[worst] > prim.contraction_rate
        assert abs(ratios[worst] - 0.25) <= 1e-9
        # the witness reproduces on its own
        witness = points[worst]
        image = prim.map.apply_batch(witness[None])[0]
        ratio = prim.lyapunov.value(image) / prim.lyapunov.value(witness)
        assert abs(ratio - ratios[worst]) <= 1e-12

    def test_discrete_lyapunov_pair_passes_for_any_seed(self):
        # For diagonal A and identity weight the decrease factor is
        # max(|a|, |b|)^2 exactly, so that rate passes at every sample size.
        for a, b in ((0.6, 0.3), (0.2, 0.7), (0.5, 0.5)):
            rate = max(abs(a), abs(b)) ** 2
            prim = make_primitive(linear=np.diag([a, b]), contraction_rate=rate + 1e-12)
            for sample_count, seed in ((10, 0), (200, 3), (1000, 8)):
                _, ratios, _ = sampled_decrease(prim, prim.basin_level, sample_count, seed)
                assert ratios.max() <= prim.contraction_rate

    def test_scaled_rotation_contracts_at_square_of_scale(self):
        angle = 0.9
        scale = 0.8
        rot = scale * np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        prim = make_primitive(linear=rot, contraction_rate=scale**2 + 1e-12)
        _, ratios, _ = sampled_decrease(prim, prim.basin_level, 500, 17)
        assert abs(ratios.max() - scale**2) <= 1e-12

    def test_shipped_walker_primitives_pass_their_declared_rates(self, walker_library):
        # nothing proves the shipped rates yet, so the shipped data is
        # checked on samples
        for prim in walker_library:
            _, ratios, _ = sampled_decrease(prim, prim.basin_level, 4000, 99)
            assert ratios.max() <= prim.contraction_rate, f"primitive {prim.id} ratio {ratios.max()}"


class TestCertifyBasin:
    """Decrease at the declared rate and forward invariance, sampled on a
    candidate sublevel set."""

    def test_linear_map_certified_at_any_level(self):
        prim = make_primitive(basin_level=5.0)
        for level in (0.3, 1.0, 5.0):
            _, ratios, images = sampled_decrease(prim, level, 500, 3)
            assert abs(ratios.max() - 0.25) <= 1e-12
            assert images.max() <= level

    def test_expanding_quadratic_part_is_falsified(self):
        quadratic = np.stack([2.0 * EYE2, np.zeros((2, 2))])
        prim = make_primitive(quadratic=quadratic, basin_level=1.0)
        _, ratios, images = sampled_decrease(prim, 1.0, 2000, 7)
        assert ratios.max() > prim.contraction_rate and images.max() > 1.0
        # hand check at the boundary: f((1, 0)) = (0.5 + 2, 0) leaves the set
        image = prim.map.apply_batch(np.array([[1.0, 0.0]]))[0]
        assert prim.lyapunov.value(image) == 6.25

    def test_witness_actually_violates(self):
        quadratic = np.stack([2.0 * EYE2, np.zeros((2, 2))])
        prim = make_primitive(quadratic=quadratic, basin_level=1.0)
        points, ratios, images = sampled_decrease(prim, 1.0, 2000, 7)
        x = points[np.argmax(np.maximum(ratios / prim.contraction_rate, images))]
        value = prim.lyapunov.value(x)
        image_value = prim.lyapunov.value(prim.map.apply_batch(x[None])[0])
        exceeded_rate = image_value > prim.contraction_rate * value + 1e-12
        escaped_set = image_value > 1.0 + 1e-12
        assert exceeded_rate or escaped_set

    def test_nested_levels_stay_certified(self):
        prim = make_primitive(basin_level=4.0)
        for level in (4.0, 2.0, 1.0, 0.25):
            _, ratios, images = sampled_decrease(prim, level, 800, 21)
            assert ratios.max() <= prim.contraction_rate * (1.0 + 1e-12) and images.max() <= level

    def test_shipped_walker_basin_levels_certified(self, walker_library):
        # nothing proves the shipped basin levels yet, so the shipped data
        # is checked on samples
        for prim in walker_library:
            _, ratios, images = sampled_decrease(prim, prim.basin_level, 4000, 99)
            assert ratios.max() <= prim.contraction_rate, f"primitive {prim.id}"
            assert images.max() <= prim.basin_level, f"primitive {prim.id}"


class TestPrimitiveValidation:
    def test_center_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Primitive(
                id=0,
                map=PrimitiveMap(linear=0.5 * EYE2, fixed_point=np.zeros(2), disturbance_gain=EYE2),
                lyapunov=QuadraticLyapunov(weight=EYE2, center=np.array([0.1, 0.0])),
                basin_level=1.0,
                contraction_rate=0.5,
            )

    def test_rate_outside_unit_interval_rejected(self):
        for rate in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                make_primitive(contraction_rate=rate)

    @pytest.mark.parametrize("field", ["pid", "basin_level", "contraction_rate"])
    def test_booleans_are_rejected(self, field):
        # as the document loader rejects a JSON true or false; True built
        # member 1 or a basin level of 1.0
        name = "id" if field == "pid" else field
        for value in (True, np.True_):
            with pytest.raises(ValueError, match=f"{name} must be a number, not a boolean"):
                make_primitive(**{field: value})

    def test_library_requires_distinct_ids(self):
        with pytest.raises(ValueError):
            PrimitiveLibrary((make_primitive(0), make_primitive(0, center=(1.0, 0.0))))

    def test_library_rate_is_worst_member_rate(self, walker_library):
        assert walker_library.contraction_rate == max(
            p.contraction_rate for p in walker_library
        )

    def test_library_levels_are_the_read_only_basin_levels(self, walker_library):
        assert walker_library.levels.tolist() == [p.basin_level for p in walker_library]
        assert walker_library.min_basin_level == min(p.basin_level for p in walker_library)
        with pytest.raises(ValueError, match="read-only"):
            walker_library.levels[0] = 1.0

    def test_fixed_points_contained_is_reported_not_enforced(self):
        far = PrimitiveLibrary(
            (
                make_primitive(0, basin_level=0.5),
                make_primitive(1, center=(10.0, 0.0), basin_level=0.5),
            )
        )
        violations = far.fixed_point_violations()
        assert ((0, 1, 100.0) in violations) and ((1, 0, 100.0) in violations)

    def test_shipped_library_fixed_points_contained(self, walker_library):
        assert not walker_library.fixed_point_violations()
