import numpy as np
import pytest

from resonance_sizer import (
    TooFewPoints,
    classify,
    expand,
    fit_slope,
    genericity_scan,
    is_generic,
    random_configuration,
    scale_configuration,
    validate_configuration,
)
from tests.conftest import DISPHENOID_B_NU, DISPHENOID_V, apply_rigid_motion

STRENGTH_CASES = {
    "zero": np.zeros(4),
    "real": np.array([0.5, -1.0, 0.25, 2.0]),
    "complex": np.array([0.5 + 1j, -0.3j, 1 - 2j, 0.1]),
}


def test_fit_slope_exact_line():
    radii = [10.0, 20.0, 30.0]
    counts = [(2 / np.pi) * r for r in radii]
    slope, intercept = fit_slope(radii, counts)
    assert slope == pytest.approx(2 / np.pi, rel=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-10)


def test_fit_slope_constant():
    slope, _ = fit_slope([1, 2, 3, 4], [7, 7, 7, 7])
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_needs_points():
    with pytest.raises(TooFewPoints):
        fit_slope([1, 2, 3], [1, 2, 3], skip=1)


def test_pair_is_weyl_for_any_strengths():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = rng.uniform(0.3, 2.5)
        cfg = validate_configuration([(0, 0, 0), (0, 0, d)])
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        report = classify(a, cfg)
        assert report.classification == "Weyl"
        assert report.b_nu == pytest.approx(2 * d, rel=1e-12)
        assert report.v == pytest.approx(2 * d, rel=1e-12)


def test_collinear_weyl_but_not_generic(collinear):
    report = classify([0, 0, 0], collinear)
    assert report.classification == "Weyl"
    assert not is_generic(collinear).is_generic


@pytest.mark.parametrize("strengths", STRENGTH_CASES.values(), ids=STRENGTH_CASES)
def test_disphenoid_is_nonweyl(disphenoid, strengths):
    report = classify(strengths, disphenoid)
    assert report.classification == "NonWeyl"
    assert report.b_nu == pytest.approx(DISPHENOID_B_NU, rel=1e-12)
    assert report.v == pytest.approx(DISPHENOID_V, rel=1e-12)
    _, cancels = expand(strengths, disphenoid)
    assert cancels.cancelled_frequencies == pytest.approx((DISPHENOID_V,), rel=1e-12)
    assert not is_generic(disphenoid).is_generic


def test_generic_config_is_weyl():
    cfg = random_configuration(4, seed=77)
    assert is_generic(cfg).is_generic
    report = classify(np.zeros(4), cfg)
    assert report.classification == "Weyl"
    assert report.relative_discrepancies["b_nu_vs_v"] <= 1e-9


def test_b_nu_never_exceeds_v():
    rng = np.random.default_rng(25)
    for n in (2, 3, 4, 5):
        cfg = random_configuration(n, rng)
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        report = classify(a, cfg)
        assert report.b_nu <= report.v + 1e-9 * max(1.0, report.v)


def test_classification_invariances():
    rng = np.random.default_rng(27)
    cfg = random_configuration(4, rng)
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = classify(a, cfg)

    moved = apply_rigid_motion(cfg, rng)
    rep = classify(a, moved)
    assert rep.classification == base.classification
    assert rep.b_nu == pytest.approx(base.b_nu, rel=1e-9)
    assert rep.v == pytest.approx(base.v, rel=1e-9)

    c = 2.5
    rep = classify(a, scale_configuration(cfg, c))
    assert rep.classification == base.classification
    assert rep.b_nu == pytest.approx(c * base.b_nu, rel=1e-9)
    assert rep.v == pytest.approx(c * base.v, rel=1e-9)


def test_classify_with_counting_grid(unit_pair):
    radii = [10.0, 15.0, 20.0, 25.0, 30.0]
    report = classify([0, 0], unit_pair, radii=radii)
    assert report.radii == tuple(radii)
    assert len(report.counts) == 5
    assert report.fitted_slope is not None
    assert report.w_est == pytest.approx(np.pi * report.fitted_slope)
    # transient radii below 20/b_nu = 10 are skipped automatically: none here
    assert "slope_vs_b_nu" in report.relative_discrepancies


def test_scan_deterministic_and_generic():
    s1 = genericity_scan(3, 40, seed=5)
    s2 = genericity_scan(3, 40, seed=5)
    assert s1 == s2
    assert s1.fraction_generic == 1.0
    assert s1.fraction_weyl == 1.0
    assert s1.min_gap_quantiles["min"] > 0
    assert s1.near_cancellation_count == 0


def test_scan_empty():
    s = genericity_scan(3, 0, seed=1)
    assert s.fraction_generic is None
    assert s.fraction_weyl is None
    assert s.min_gap_quantiles == {}
    assert s.near_cancellation_trials == ()


def test_scan_different_seeds_differ():
    s1 = genericity_scan(3, 10, seed=1)
    s2 = genericity_scan(3, 10, seed=2)
    assert s1.min_gap_quantiles != s2.min_gap_quantiles
