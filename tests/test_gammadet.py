import math
import warnings

import numpy as np
import pytest

from resonance_sizer import (
    ValidationError,
    determinant_direct,
    expand,
    gamma_matrix,
    random_configuration,
    validate_configuration,
)
from resonance_sizer.errors import EvaluationOverflow


def test_gamma_pair_at_zero(unit_pair):
    g = gamma_matrix([0, 0], unit_pair, 0.0)
    expected = np.array([[0, -1 / (4 * np.pi)], [-1 / (4 * np.pi), 0]])
    np.testing.assert_allclose(g, expected, atol=1e-16)


def test_gamma_diagonal(unit_pair):
    g = gamma_matrix([1, 1], unit_pair, 4j * np.pi)
    np.testing.assert_allclose(np.diag(g), [2.0, 2.0], rtol=1e-15)


def test_gamma_symmetric():
    rng = np.random.default_rng(2)
    cfg = random_configuration(5, rng)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    z = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
    g = gamma_matrix(a, cfg, z)
    np.testing.assert_array_equal(g, g.T)


def test_determinant_pair_closed_form():
    d = 0.8
    cfg = validate_configuration([(0, 0, 0), (d, 0, 0)])
    a1, a2 = 0.3 + 0.2j, -0.1 + 0.5j
    rng = np.random.default_rng(4)
    for _ in range(10):
        z = complex(rng.uniform(-8, 8), rng.uniform(-4, 4))
        closed = (1j * z - 4 * np.pi * a1) * (1j * z - 4 * np.pi * a2) - np.exp(
            2j * z * d
        ) / d**2
        got = determinant_direct([a1, a2], cfg, z)
        assert abs(got - closed) <= 1e-10 * max(1.0, abs(closed))


def test_determinant_matches_expansion_at_origin():
    rng = np.random.default_rng(6)
    cfg = random_configuration(4, rng)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    epoly, _ = expand(a, cfg)
    direct = determinant_direct(a, cfg, 0.0)
    assert abs(epoly.evaluate(0.0) - direct) <= 1e-10 * max(1.0, abs(direct))


def test_determinant_relabeling_invariance():
    rng = np.random.default_rng(8)
    cfg = random_configuration(5, rng)
    a = rng.normal(size=5) + 1j * rng.normal(size=5)
    perm = rng.permutation(5)
    relabeled = validate_configuration(cfg.centers[perm])
    for _ in range(5):
        z = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
        d1 = determinant_direct(a, cfg, z)
        d2 = determinant_direct(a[perm], relabeled, z)
        assert abs(d1 - d2) <= 1e-10 * max(1.0, abs(d1))


def test_determinant_vanishes_at_found_resonance(unit_pair):
    # z^2 + e^{2iz} = 0 near 1.34 - 0.32j (polished root)
    from resonance_sizer import Rectangle, find_resonances

    epoly, _ = expand([0, 0], unit_pair)
    found = find_resonances(
        epoly.value_and_derivative,
        Rectangle(1.0, 2.0, -1.0, -0.1),
        freq_scale=2.0,
    )
    assert len(found) == 1
    z = found[0].location
    assert abs(determinant_direct([0, 0], unit_pair, z)) <= 1e-8


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0, -math.inf), complex(math.nan, 1)])
@pytest.mark.parametrize("fn", [gamma_matrix, determinant_direct])
def test_non_finite_z_rejected(unit_pair, fn, z):
    with pytest.raises(ValidationError, match="must be finite"):
        fn([0, 0], unit_pair, z)


@pytest.mark.parametrize("fn", [gamma_matrix, determinant_direct])
def test_overflow_raises_without_warning(unit_pair, fn):
    # e^{|Im z| d} = e^800 is past the largest double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflow, match=r"800 \* 1 = 800\.0.*709\.78"):
            fn([0, 0], unit_pair, -800j)


def test_overflowing_determinant_raises(unit_pair):
    # every entry is finite, their product is not
    with pytest.raises(EvaluationOverflow, match="the determinant"):
        determinant_direct([1e200, 1e200], unit_pair, 0.0)
