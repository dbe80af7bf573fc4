import numpy as np
import pytest

from resonance_sizer import (
    ValidationError,
    distance_matrix,
    random_configuration,
    validate_configuration,
)
from resonance_sizer.errors import (
    CoincidentCenters,
    NonpositiveScale,
    SamplingExhausted,
    TooFewCenters,
)
from resonance_sizer.geometry import scale_configuration, strength_values
from tests.conftest import apply_rigid_motion


def test_two_distinct_points_valid():
    cfg = validate_configuration([(0, 0, 0), (1, 0, 0)])
    assert cfg.n == 2


def test_single_point_rejected():
    with pytest.raises(TooFewCenters):
        validate_configuration([(0, 0, 0)])


def test_coincident_points_rejected():
    with pytest.raises(CoincidentCenters) as exc:
        validate_configuration([(0, 0, 0), (0, 0, 0)])
    assert exc.value.pair == (0, 1)
    assert exc.value.distance == 0.0


def test_near_coincident_points_rejected():
    with pytest.raises(CoincidentCenters):
        validate_configuration([(0, 0, 0), (1e-13, 0, 0)])


def test_bad_shape_rejected():
    with pytest.raises(ValidationError):
        validate_configuration([(0, 0), (1, 0)])


def test_centers_read_only():
    cfg = validate_configuration([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError):
        cfg.centers[0, 0] = 5.0


def test_distance_matrix_simple(unit_pair):
    np.testing.assert_allclose(distance_matrix(unit_pair), [[0, 1], [1, 0]])


def test_distance_matrix_345():
    cfg = validate_configuration([(0, 0, 0), (3, 4, 0)])
    assert distance_matrix(cfg)[0, 1] == 5.0


def test_distance_matrix_equilateral(equilateral):
    d = distance_matrix(equilateral)
    off = d[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 1.0, rtol=1e-15)


def test_distance_matrix_symmetric_zero_diag():
    rng = np.random.default_rng(3)
    cfg = validate_configuration(rng.uniform(size=(6, 3)))
    d = distance_matrix(cfg)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_distance_matrix_triangle_inequality():
    rng = np.random.default_rng(13)
    cfg = random_configuration(7, rng)
    d = distance_matrix(cfg)
    for i in range(7):
        for j in range(7):
            for k in range(7):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_distance_matrix_rigid_invariance():
    rng = np.random.default_rng(11)
    cfg = random_configuration(5, rng)
    moved = apply_rigid_motion(cfg, rng)
    np.testing.assert_allclose(
        distance_matrix(moved), distance_matrix(cfg), atol=1e-12
    )


def test_scale_identity(unit_pair):
    np.testing.assert_array_equal(
        scale_configuration(unit_pair, 1.0).centers, unit_pair.centers
    )


def test_scale_doubles_coordinates(unit_pair):
    scaled = scale_configuration(unit_pair, 2.0)
    np.testing.assert_allclose(scaled.centers, [(0, 0, 0), (2, 0, 0)])


def test_scale_distances_linear():
    cfg = validate_configuration([(0, 0, 0), (3, 4, 0)])
    assert distance_matrix(scale_configuration(cfg, 0.5))[0, 1] == 2.5


def test_scale_rejects_nonpositive(unit_pair):
    for c in (0.0, -1.0):
        with pytest.raises(NonpositiveScale):
            scale_configuration(unit_pair, c)


def test_random_configuration_deterministic():
    a = random_configuration(4, seed=123)
    b = random_configuration(4, seed=123)
    np.testing.assert_array_equal(a.centers, b.centers)


def test_random_configuration_valid_and_gapped():
    cfg = random_configuration(5, seed=7, box_side=1.0, min_gap=0.05)
    d = distance_matrix(cfg)
    off = d[~np.eye(5, dtype=bool)]
    assert off.min() >= 0.05
    assert np.all(cfg.centers >= 0) and np.all(cfg.centers <= 1)
    validate_configuration(cfg.centers)


def test_random_configuration_exhausts_on_impossible_gap():
    with pytest.raises(SamplingExhausted):
        random_configuration(5, seed=0, box_side=1.0, min_gap=2.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"box_side": float("inf")},
        {"box_side": float("nan")},
        {"min_gap": float("nan")},
        {"min_gap": float("inf")},
        {"min_gap": -0.1},
    ],
)
def test_random_configuration_rejects_non_finite_scales(kwargs):
    # rejected up front, not after the sampling budget is spent
    with pytest.raises(ValidationError) as excinfo:
        random_configuration(5, seed=0, **kwargs)
    assert excinfo.type is not SamplingExhausted


def test_random_configuration_needs_two():
    with pytest.raises(TooFewCenters):
        random_configuration(1, seed=0)


def test_strengths_must_be_finite():
    with pytest.raises(ValidationError):
        strength_values([1.0, complex(np.inf, 0)])
    with pytest.raises(ValidationError):
        strength_values([np.nan])
    st = strength_values([1, 1j])
    assert len(st) == 2
