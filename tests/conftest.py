"""Shared builders for the test suite.

Most tests construct small two-dimensional primitives by hand.  The helpers
here keep that construction in one place: identity-weighted quadratic
Lyapunov functions around a configurable center, linear contraction maps,
and libraries assembled from them.
"""

import numpy as np
import pytest

from switchcert import (
    Primitive,
    PrimitiveLibrary,
    PrimitiveMap,
    QuadraticLyapunov,
    shipped_certificate,
    shipped_walker_library,
)
from switchcert.primitives import _ellipsoid_points
from switchcert.walker import shipped_stride_primitives

EYE2 = np.eye(2)


def make_primitive(
    pid=0,
    center=(0.0, 0.0),
    linear=None,
    weight=None,
    gain=None,
    quadratic=None,
    basin_level=2.0,
    contraction_rate=0.25,
):
    """A small 2-D primitive; defaults give x -> 0.5 x with V = |x|^2."""
    center = np.asarray(center, dtype=float)
    linear = 0.5 * EYE2 if linear is None else np.asarray(linear, dtype=float)
    weight = EYE2 if weight is None else np.asarray(weight, dtype=float)
    gain = EYE2 if gain is None else np.asarray(gain, dtype=float)
    return Primitive(
        id=pid,
        map=PrimitiveMap(
            linear=linear,
            fixed_point=center,
            disturbance_gain=gain,
            quadratic=quadratic,
        ),
        lyapunov=QuadraticLyapunov(weight=weight, center=center),
        basin_level=basin_level,
        contraction_rate=contraction_rate,
    )


def sublevel_samples(lyapunov, level, count, rng):
    """``count`` points uniform in {V <= level}: ``count`` Gaussian
    directions, then ``count`` uniform radii, from ``rng``."""
    directions = rng.standard_normal((count, lyapunov.state_dim))
    return _ellipsoid_points(lyapunov, level, directions, rng.random(count))


def make_pair_library():
    """Two identity-weighted primitives with centers at 0 and (1, 0)."""
    return PrimitiveLibrary((make_primitive(0), make_primitive(1, center=(1.0, 0.0))))


@pytest.fixture(scope="session")
def walker_library():
    return shipped_walker_library()


@pytest.fixture(scope="session")
def walker_certificate():
    return shipped_certificate()


@pytest.fixture(scope="session")
def stride_primitives():
    return shipped_stride_primitives()
