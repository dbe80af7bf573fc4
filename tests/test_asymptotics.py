import math

import numpy as np
import pytest

from resonance_sizer import (
    ScanSummary,
    ValidationError,
    classify,
    counting_function,
    expand,
    genericity_scan,
    is_generic,
    random_configuration,
    validate_configuration,
)
from resonance_sizer import _sweep, asymptotics, distance_matrix, sizing, zeros
from resonance_sizer.asymptotics import _trial_readings, fit_slope
from resonance_sizer.errors import TooFewPoints
from resonance_sizer.expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, _expand_stack
from resonance_sizer.expoly import _mask_polynomials
from tests.asymptotics_reference import genericity_scan_reference
from tests.conftest import DISPHENOID_B_NU, DISPHENOID_V, apply_rigid_motion, scale_configuration

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


def test_fit_slope_rejects_negative_skip():
    radii = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    with pytest.raises(ValidationError, match="skip must be >= 0"):
        fit_slope(radii, [2.0, 4.0, 6.0, 8.0, 10.0, 11.0], skip=-3)


def test_classify_rejects_negative_skip():
    cfg = validate_configuration([(0, 0, 0), (0, 0, 1.0)])
    radii = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    with pytest.raises(ValidationError, match="skip must be >= 0"):
        classify([0.0, 0.0], cfg, radii=radii, skip=-3)


@pytest.mark.parametrize("skip", [1.5, 2.0, True])
def test_fit_slope_rejects_non_integer_skip(skip):
    radii = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    with pytest.raises(ValidationError, match="skip must be an integer"):
        fit_slope(radii, [2.0, 4.0, 6.0, 8.0, 10.0, 11.0], skip=skip)


def test_classify_rejects_non_integer_skip():
    cfg = validate_configuration([(0, 0, 0), (0, 0, 1.0)])
    radii = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    with pytest.raises(ValidationError, match="skip must be an integer"):
        classify([0.0, 0.0], cfg, radii=radii, skip=1.5)


@pytest.mark.parametrize(
    "skip, error", [(1.5, ValidationError), (-1, ValidationError), (4, TooFewPoints), (None, TooFewPoints)]
)
def test_classify_rejects_skip_before_any_count(monkeypatch, skip, error):
    # six radii: skip=4 leaves two to fit, and so does the default skip,
    # which drops the four radii below 20 / b_nu = 10
    def no_counts(*args, **kwargs):
        raise AssertionError("counted zeros before checking skip")

    monkeypatch.setattr(asymptotics, "_disk_counts", no_counts)
    cfg = validate_configuration([(0, 0, 0), (0, 0, 1.0)])
    radii = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    with pytest.raises(error):
        classify([0.0, 0.0], cfg, radii=radii, skip=skip)


def test_classify_rejects_explicit_skip_before_the_expansion(monkeypatch):
    def no_expand(*args, **kwargs):
        raise AssertionError("expanded before checking skip")

    monkeypatch.setattr(asymptotics, "expand", no_expand)
    cfg = random_configuration(5, 0)
    with pytest.raises(ValidationError, match="skip must be an integer"):
        classify(np.zeros(5), cfg, radii=np.linspace(20, 130, 12), skip=1.5)


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


def test_classify_with_counts_expands_once(monkeypatch):
    cfg = random_configuration(4, seed=3)
    a = np.array([0.5, -1.0, 0.25 + 0.5j, 2.0])
    radii = [2.0, 4.0, 6.0]
    expands, disks = [], []
    count_zeros_disk = zeros.count_zeros_disk

    def expand_spy(*args, **kwargs):
        expands.append(args)
        return expand(*args, **kwargs)

    def disk_spy(*args, **kwargs):
        disks.append(count_zeros_disk(*args, **kwargs))
        return disks[-1]

    monkeypatch.setattr(asymptotics, "expand", expand_spy)
    monkeypatch.setattr(zeros, "expand", expand_spy)
    monkeypatch.setattr(zeros, "count_zeros_disk", disk_spy)
    report = classify(a, cfg, radii=radii, skip=0)
    assert len(expands) == 1
    monkeypatch.undo()
    counts = counting_function(a, cfg, radii)
    # ZeroCount equality covers count, residual, points and contour_radius
    assert disks == counts
    assert report.radii == tuple(radii)
    assert report.counts == tuple(zc.count for zc in counts)
    assert report.winding_residuals == tuple(zc.winding_residual for zc in counts)


@pytest.mark.parametrize("radii", [[2.0, 2.0, 3.0], [3.0, 2.0]])
def test_classify_requires_increasing_radii(unit_pair, radii):
    with pytest.raises(ValidationError):
        classify([0, 0], unit_pair, radii=radii)


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


@pytest.mark.parametrize("n", [1, 11])
@pytest.mark.parametrize("trials", [0, 1])
def test_scan_rejects_n_outside_expansion_range(n, trials):
    with pytest.raises(ValidationError, match=f"got {n}$"):
        genericity_scan(n, trials, seed=0)


@pytest.mark.parametrize("n", [2, 10])
def test_scan_accepts_n_at_the_bounds(n):
    assert genericity_scan(n, 0, seed=0).n == n


def test_scan_different_seeds_differ():
    s1 = genericity_scan(3, 10, seed=1)
    s2 = genericity_scan(3, 10, seed=2)
    assert s1.min_gap_quantiles != s2.min_gap_quantiles


# genericity_scan(5, 25, seed) for seeds 0-4 while it still took V from
# size_v once per trial; taking V from the expansion must not move them.
SCANS_WITH_SIZE_V = (
    ScanSummary(
        n=5,
        trials=25,
        seed=0,
        fraction_generic=1.0,
        fraction_weyl=1.0,
        min_gap_quantiles={
            "min": 0.00011311301274874452,
            "p25": 0.0003618019960607288,
            "median": 0.0006341760016521647,
            "p75": 0.0009581460096979022,
            "max": 0.002817149126725038,
        },
        near_cancellation_count=0,
        near_cancellation_trials=(),
    ),
    ScanSummary(
        n=5,
        trials=25,
        seed=1,
        fraction_generic=1.0,
        fraction_weyl=1.0,
        min_gap_quantiles={
            "min": 1.986462061087657e-05,
            "p25": 0.00047039256966607823,
            "median": 0.0006432016144506392,
            "p75": 0.0009431155443015982,
            "max": 0.001982284816418378,
        },
        near_cancellation_count=0,
        near_cancellation_trials=(),
    ),
    ScanSummary(
        n=5,
        trials=25,
        seed=2,
        fraction_generic=1.0,
        fraction_weyl=1.0,
        min_gap_quantiles={
            "min": 1.7390762124147585e-05,
            "p25": 0.0003348372654610188,
            "median": 0.0008149189419248692,
            "p75": 0.0016296710453564955,
            "max": 0.002715024759975204,
        },
        near_cancellation_count=0,
        near_cancellation_trials=(),
    ),
    ScanSummary(
        n=5,
        trials=25,
        seed=3,
        fraction_generic=1.0,
        fraction_weyl=1.0,
        min_gap_quantiles={
            "min": 1.1059282167380502e-05,
            "p25": 0.0003307334705562326,
            "median": 0.0007566100920977092,
            "p75": 0.0011415605576803323,
            "max": 0.003502066169632556,
        },
        near_cancellation_count=0,
        near_cancellation_trials=(),
    ),
    ScanSummary(
        n=5,
        trials=25,
        seed=4,
        fraction_generic=1.0,
        fraction_weyl=1.0,
        min_gap_quantiles={
            "min": 1.0662383987281032e-05,
            "p25": 0.00011739600043769727,
            "median": 0.00042824181625134017,
            "p75": 0.0016818351945038224,
            "max": 0.004275502162684575,
        },
        near_cancellation_count=0,
        near_cancellation_trials=(),
    ),
)


@pytest.mark.parametrize("seed", range(5))
def test_scan_takes_v_from_its_expansion(seed, monkeypatch):
    calls = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sizing, "_assignment", spy(sizing._assignment))
    monkeypatch.setattr(sizing, "size_v", spy(sizing.size_v))
    monkeypatch.setattr(asymptotics, "size_v", spy(asymptotics.size_v))
    assert genericity_scan(5, 25, seed) == SCANS_WITH_SIZE_V[seed]
    assert calls == []
    sizing.size_v(random_configuration(5, seed))
    assert calls == ["size_v", "_assignment"]  # the spies are live


def test_scan_spawns_no_streams_up_front(monkeypatch):
    # trial t draws from SeedSequence(seed, spawn_key=(t,)), the stream
    # SeedSequence(seed).spawn(trials)[t] would be, so memory before the
    # first trial does not grow with the number of trials
    class NoSpawn(np.random.SeedSequence):
        def spawn(self, n_children):
            raise AssertionError(f"spawned {n_children} streams")

    monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
    assert genericity_scan(5, 25, 3) == SCANS_WITH_SIZE_V[3]


@pytest.mark.parametrize(
    "n, trials, seed, name",
    [
        (3, True, 0, "trials"),
        (3, 1, False, "seed"),
        (True, 1, 0, "n"),
        (3.0, 1, 0, "n"),
        (3, 2.5, 0, "trials"),
        (3, 1, 1.5, "seed"),
        ("3", 1, 0, "n"),
        (3, None, 0, "trials"),
    ],
)
def test_scan_rejects_non_integer_inputs(n, trials, seed, name, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("drew a trial")

    monkeypatch.setattr(asymptotics, "random_configuration", no_trial)
    with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
        genericity_scan(n, trials, seed)


def test_scan_accepts_numpy_integers():
    got = genericity_scan(np.int64(3), np.int32(4), np.uint8(5))
    assert got == genericity_scan(3, 4, 5)
    assert [type(x) for x in (got.n, got.trials, got.seed)] == [int, int, int]


# A batch holds 42 trials at N = 5 and 7 at N = 6, so 43 and 100 trials at
# N = 5 and 15 at N = 6 cross batch boundaries; from N = 7 on a batch is one
# trial.
ORACLE_SCANS = [(2, 30), (3, 30), (4, 30), (5, 43), (5, 100), (6, 15), (7, 3), (8, 2)]


@pytest.mark.parametrize("seed", [0, 7, 20261020])
@pytest.mark.parametrize("n, trials", ORACLE_SCANS)
def test_scan_equals_per_trial_oracle(n, trials, seed):
    assert genericity_scan(n, trials, seed) == genericity_scan_reference(n, trials, seed)


@pytest.mark.parametrize(
    "n, trials, batches", [(5, 100, [42, 42, 16]), (6, 15, [7, 7, 1]), (7, 2, [1, 1]), (8, 2, [1, 1])]
)
def test_scan_batches_hold_at_most_a_block_of_terms(n, trials, batches, monkeypatch):
    sizes = []
    term_arrays = _sweep.term_arrays

    def spy(ds):
        sizes.append(len(ds))
        return term_arrays(ds)

    monkeypatch.setattr(_sweep, "term_arrays", spy)
    genericity_scan(n, trials, 0)
    assert sizes == batches
    # past 7! terms per trial (N >= 8) a batch is a single trial
    assert max(sizes) * math.factorial(n) <= _sweep._BLOCK or max(sizes) == 1


@pytest.mark.parametrize("strengths", [np.zeros(4), STRENGTH_CASES["complex"]], ids=["zero", "complex"])
def test_trial_readings_match_expand(disphenoid, strengths):
    # ties and cancelled tops: the disphenoid's top cancels, a rigid motion
    # of it moves its bits, and collinear points and the regular
    # tetrahedron tie at the top
    rng = np.random.default_rng(4)
    configs = [
        disphenoid,
        apply_rigid_motion(disphenoid, rng),
        random_configuration(4, rng),
        validate_configuration([(k, 0, 0) for k in range(4)]),
        validate_configuration([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]),
    ]
    stack = _expand_stack(
        np.stack([distance_matrix(c) for c in configs]),
        _mask_polynomials(-4 * np.pi * strengths.astype(complex)),
        DEFAULT_FREQ_TOL,
        DEFAULT_CANCEL_TOL,
    )
    want = ([], [], [])
    for config in configs:
        epoly, report = expand(strengths, config)
        want[0].append(report.groups[-1].frequency)
        want[1].append(epoly.effective_size)
        want[2].append(len(report.near_cancellations()))
    assert _trial_readings(stack, DEFAULT_CANCEL_TOL) == want
    assert want[2][0] > 0 and want[1][0] < want[0][0]  # the disphenoid's top cancels
