from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from resonance_sizer import (
    Configuration,
    ValidationError,
    expand,
    is_generic,
    random_configuration,
    size_v,
    validate_configuration,
)
from resonance_sizer.errors import (
    CoincidentCenters,
    NonpositiveScale,
    SamplingExhausted,
    TooFewCenters,
)
from resonance_sizer.geometry import strength_values
from tests.conftest import apply_rigid_motion, scale_configuration


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
    np.testing.assert_allclose(unit_pair.distances, [[0, 1], [1, 0]])


def test_distance_matrix_345():
    cfg = validate_configuration([(0, 0, 0), (3, 4, 0)])
    assert cfg.distances[0, 1] == 5.0


def test_distance_matrix_equilateral(equilateral):
    d = equilateral.distances
    off = d[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 1.0, rtol=1e-15)


def test_distance_matrix_symmetric_zero_diag():
    rng = np.random.default_rng(3)
    cfg = validate_configuration(rng.uniform(size=(6, 3)))
    d = cfg.distances
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_distance_matrix_triangle_inequality():
    rng = np.random.default_rng(13)
    cfg = random_configuration(7, rng)
    d = cfg.distances
    for i in range(7):
        for j in range(7):
            for k in range(7):
                assert d[i, k] <= d[i, j] + d[j, k] + 1e-12


def test_distance_matrix_rigid_invariance():
    rng = np.random.default_rng(11)
    cfg = random_configuration(5, rng)
    moved = apply_rigid_motion(cfg, rng)
    np.testing.assert_allclose(
        moved.distances, cfg.distances, atol=1e-12
    )


def test_scale_distances_linear():
    cfg = validate_configuration([(0, 0, 0), (3, 4, 0)])
    assert scale_configuration(cfg, 0.5).distances[0, 1] == 2.5


def test_random_configuration_deterministic():
    a = random_configuration(4, seed=123)
    b = random_configuration(4, seed=123)
    np.testing.assert_array_equal(a.centers, b.centers)


def test_random_configuration_valid_and_gapped():
    cfg = random_configuration(5, seed=7, box_side=1.0, min_gap=0.05)
    d = cfg.distances
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
        {"box_side": 0.0},
        {"box_side": -1.0},
    ],
)
def test_random_configuration_rejects_non_finite_scales(kwargs):
    # rejected up front, not after the sampling budget is spent
    with pytest.raises(ValidationError) as excinfo:
        random_configuration(5, seed=0, **kwargs)
    assert excinfo.type is not SamplingExhausted
    if kwargs.get("box_side", 1.0) <= 0:
        assert excinfo.type is NonpositiveScale


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


def test_distances_read_only_and_left_out_of_repr():
    cfg = validate_configuration([(0, 0, 0), (3, 4, 0)])
    with pytest.raises(ValueError):
        cfg.distances[0, 1] = 1.0
    with pytest.raises(FrozenInstanceError):
        cfg.distances = np.zeros((2, 2))
    assert "distances" not in repr(cfg)
    with pytest.raises(TypeError):  # not a constructor argument
        Configuration([(0, 0, 0), (1, 0, 0)], np.zeros((2, 2)))


def test_configuration_computes_distances_once(distance_spy):
    cfg = validate_configuration([(0, 0, 0), (3, 4, 0), (0, 0, 1)])
    assert validate_configuration(cfg) is cfg
    size_v(cfg)
    is_generic(cfg)
    expand(np.zeros(3), cfg)
    assert len(distance_spy) == 1


def test_random_configuration_computes_distances_once_per_draw(distance_spy):
    random_configuration(6, seed=0)
    random_configuration(6, seed=1, min_gap=0.3)  # rejects some draws
    draws = {c.tobytes() for c in distance_spy}
    assert len(distance_spy) == len(draws) > 2


BAD_INPUTS = {
    "complex center": lambda: Configuration([[1 + 1j, 0, 0], [0, 0, 0]]),
    "string centers": lambda: Configuration([["x", "y", "z"], [0, 0, 0]]),
    "huge integer center": lambda: Configuration([[10**400, 0, 0], [0, 0, 0]]),
    "ragged centers": lambda: Configuration([[0, 0, 0], [1, 0]]),
    "object centers": lambda: validate_configuration([[0, 0, None], [1, 0, 0]]),
    "string strengths": lambda: expand(["a", "b"], validate_configuration([(0, 0, 0), (1, 0, 0)])),
    "ragged strengths": lambda: strength_values([[1, 2], [3]]),
    "float n": lambda: random_configuration(3.0, 0),
    "string n": lambda: random_configuration("3", 0),
    "bool n": lambda: random_configuration(True, 0),
    "negative seed": lambda: random_configuration(3, -1),
    "float seed": lambda: random_configuration(3, 1.5),
    "bool seed": lambda: random_configuration(3, True),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_geometry_input_raises_validation_error(case):
    with pytest.raises(ValidationError):
        BAD_INPUTS[case]()
