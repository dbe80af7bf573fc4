"""The walk down from V: `classify` without the N! expansion where the class
certificate fails.

`expand` is the oracle.  `sizing.walk_top`'s b_nu must be the same double
as the expansion's effective size (compared by bits), and `classify` must
give the verdict the expansion gives.
"""

import itertools
import math

import numpy as np
import pytest

from resonance_sizer import (
    classify,
    counting_function,
    expand,
    is_generic,
    random_configuration,
    size_v,
    validate_configuration,
)
from resonance_sizer import asymptotics, sizing, zeros
from resonance_sizer.asymptotics import _verdict
from resonance_sizer.errors import TooFewPoints, TooLarge, ValidationError
from resonance_sizer.expoly import _mask_polynomials
from resonance_sizer.permutations import _has_even_cycle
from resonance_sizer.sizing import certify_top_class, walk_top
from tests.conftest import DISPHENOID_CENTERS, SHAPES, random_rotation

TETRAHEDRON = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))
BAD_TOLERANCES = (math.nan, math.inf, -math.inf, -1.0)


def _strengths(rng, n, real=False):
    if real:
        return rng.normal(size=n)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _moved(rng, pts):
    """A seeded rotation, translation and scale (0.5 to 2) of a point set."""
    scale = rng.uniform(0.5, 2.0)
    moved = scale * np.asarray(pts, float) @ random_rotation(rng).T + rng.uniform(-10, 10, 3)
    return validate_configuration(moved)


def _assert_walk_matches_expand(a, cfg, **tols):
    """The walk's b_nu has the bits of the expansion's effective size."""
    b_nu = walk_top(a, cfg, **tols)
    expected = expand(a, cfg, **tols)[0].effective_size
    assert b_nu.hex() == expected.hex()
    return expected


def _assert_classify_matches_expand(a, cfg):
    """classify's b_nu and verdict are the expansion's; class_margin is None
    exactly where the certificate fails and the walk decides."""
    expected = _assert_walk_matches_expand(a, cfg)
    report = classify(a, cfg)
    assert report.b_nu.hex() == expected.hex()
    assert report.classification == _verdict(expected, size_v(cfg).v, asymptotics.DEFAULT_CLASS_TOL)
    assert (report.class_margin is None) == (certify_top_class(cfg).b_nu is None)
    return report


@pytest.mark.parametrize("shape", SHAPES)
def test_walk_matches_expand_on_moved_shapes(shape):
    rng = np.random.default_rng(900)
    walked = 0
    for _ in range(10):
        cfg = _moved(rng, SHAPES[shape])
        report = _assert_classify_matches_expand(_strengths(rng, 8), cfg)
        walked += report.class_margin is None
    if shape in ("collinear", "double-disphenoid"):
        assert walked == 10


@pytest.mark.parametrize("jitter", [1e-6, 1.5e-8, 4e-9, 1e-9])
@pytest.mark.parametrize("shape", SHAPES)
def test_walk_matches_expand_on_jittered_ties(shape, jitter):
    # V is about 14 to 41 here, so freq_tol * V is 1.4e-8 to 4.1e-8: the
    # smaller jitters leave gaps on either side of the clustering threshold
    rng = np.random.default_rng(901)
    for _ in range(2):
        pts = SHAPES[shape] + rng.uniform(-jitter, jitter, size=(8, 3))
        _assert_classify_matches_expand(_strengths(rng, 8), validate_configuration(pts))


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n", range(3, 10))
def test_walk_matches_expand_random(n, real):
    rng = np.random.default_rng(910 + n)
    for _ in range(1 if n == 9 else 3):
        cfg = random_configuration(n, rng)
        _assert_walk_matches_expand(_strengths(rng, n, real), cfg)


@pytest.mark.parametrize("real", [False, True])
def test_walk_matches_expand_on_tied_small_shapes(real):
    # moved collinear points (N = 3..9), regular tetrahedra and tetragonal
    # disphenoids: maximizers tie, and many of them have an even cycle
    rng = np.random.default_rng(920)
    cases = [[(float(k), 0.0, 0.0) for k in range(n)] for n in range(3, 10)]
    cases += [TETRAHEDRON, DISPHENOID_CENTERS] * 4
    even = 0
    for pts in cases:
        cfg = _moved(rng, pts)
        even += _has_even_cycle(size_v(cfg).argmax)
        _assert_classify_matches_expand(_strengths(rng, cfg.n, real), cfg)
    assert even >= 3


def test_regular_tetrahedron_walks():
    cfg = validate_configuration(TETRAHEDRON)
    report = _assert_classify_matches_expand(np.zeros(4), cfg)
    assert report.classification == "Weyl"
    assert report.class_margin is None


@pytest.mark.parametrize(
    "freq_tol, cancel_tol", [(0.0, 0.0), (1e-6, 1e-6), (0.05, 1e-10), (1e-9, 0.6), (0.3, 0.3)]
)
@pytest.mark.parametrize("case", ["disphenoid", "collinear-6", "double-disphenoid", "random-6"])
def test_walk_matches_expand_under_other_tolerances(case, freq_tol, cancel_tol):
    rng = np.random.default_rng(930)
    cfg = {
        "disphenoid": lambda: validate_configuration(DISPHENOID_CENTERS),
        "collinear-6": lambda: validate_configuration([(float(k), 0, 0) for k in range(6)]),
        "double-disphenoid": lambda: validate_configuration(SHAPES["double-disphenoid"]),
        "random-6": lambda: random_configuration(6, rng),
    }[case]()
    a = _strengths(rng, cfg.n)
    _assert_walk_matches_expand(a, cfg, freq_tol=freq_tol, cancel_tol=cancel_tol)


@pytest.mark.parametrize("n", range(1, 11))
def test_mask_polynomials_on_demand_match_table(n):
    rng = np.random.default_rng(940 + n)
    minus_4pi_a = -4 * np.pi * _strengths(rng, n)
    table = _mask_polynomials(minus_4pi_a)
    assert table.shape == (1 << n, n + 1)
    every = rng.permutation(1 << n).tolist()
    some = sorted(rng.choice(1 << n, size=min(5, 1 << n), replace=False).tolist())
    for masks in (every, some, [(1 << n) - 1], [0]):
        rows = _mask_polynomials(minus_4pi_a, masks)
        assert rows.tobytes() == table[masks].tobytes()


def _lex_deficits(cfg):
    """Every permutation in lexicographic order with its reduced-cost sum,
    added row by row as the walk adds it."""
    d = cfg.distances
    _, _, u, w = sizing._assignment(d)
    reduced = u[:, None] + w - d
    perms = np.array(list(itertools.permutations(range(cfg.n))))
    costs = np.cumsum(reduced[np.arange(cfg.n), perms], axis=1)[:, -1]
    return reduced, perms, costs


@pytest.mark.parametrize("n", range(3, 8))
def test_near_top_lists_every_permutation_within_limit(n):
    rng = np.random.default_rng(950 + n)
    for cfg in (random_configuration(n, rng), _moved(rng, [(float(k), 0, 0) for k in range(n)])):
        reduced, perms, costs = _lex_deficits(cfg)
        assert costs.min() > -1e-12
        levels = np.unique(np.round(costs, 9))
        # limits between consecutive distinct deficits, clear of rounding
        for limit in (levels[:-1] + levels[1:])[:: max(1, len(levels) // 6)] / 2:
            rows, beyond = sizing._near_top(reduced, limit)
            assert rows.dtype == np.uint8
            np.testing.assert_array_equal(rows, perms[costs <= limit])
            assert limit < beyond <= costs[costs > limit].min() + 1e-12


def test_walk_raises_past_the_cap():
    cfg = validate_configuration([(float(k), 0.0, 0.0) for k in range(14)])
    match = r"needs 4,233,600 rows at level 11 of 14 .* cap of 3,628,800 rows per level"
    with pytest.raises(TooLarge, match=match):
        walk_top(np.zeros(14), cfg)


def test_walk_rejects_more_than_63_centers():
    cfg = random_configuration(64, 0)
    with pytest.raises(TooLarge, match=r"capped at N <= 63"):
        walk_top(np.zeros(64), cfg)


@pytest.mark.parametrize("value", BAD_TOLERANCES)
@pytest.mark.parametrize("name", ["freq_tol", "cancel_tol"])
@pytest.mark.parametrize("fn", [expand, certify_top_class, walk_top, classify])
def test_tolerances_must_be_finite_and_nonnegative(fn, name, value):
    cfg = random_configuration(5, 0)
    args = (cfg,) if fn is certify_top_class else (np.zeros(5), cfg)
    with pytest.raises(ValidationError, match=f"{name} must be finite and >= 0"):
        fn(*args, **{name: value})


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_classify_rejects_bad_class_tol(value):
    with pytest.raises(ValidationError, match="class_tol must be finite and >= 0"):
        classify(np.zeros(5), random_configuration(5, 0), class_tol=value)


@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_is_generic_rejects_bad_gap_tol(value):
    with pytest.raises(ValidationError, match="gap_tol must be finite and >= 0"):
        is_generic(random_configuration(5, 0), gap_tol=value)


def test_zero_tolerances_are_accepted():
    cfg = validate_configuration(DISPHENOID_CENTERS)
    report = classify(np.zeros(4), cfg, class_tol=0.0, freq_tol=0.0, cancel_tol=0.0)
    assert report.b_nu == expand(np.zeros(4), cfg, freq_tol=0.0, cancel_tol=0.0)[0].effective_size


@pytest.fixture
def no_expand(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("expanded before checking the radii")

    monkeypatch.setattr(asymptotics, "expand", refuse)
    monkeypatch.setattr(zeros, "expand", refuse)


BAD_RADII = [
    ([5.0, 10.0, 3.0], "strictly increasing"),
    ([5.0, 5.0, 10.0], "strictly increasing"),
    ([5.0, math.nan, 10.0], "finite and > 0"),
    ([5.0, 10.0, math.inf], "finite and > 0"),
    ([0.0, 5.0, 10.0], "finite and > 0"),
    ([-1.0, 5.0, 10.0], "finite and > 0"),
    (["a", "b", "c"], "real numbers"),
    ([1j, 2j, 3j], "real numbers"),
]


@pytest.mark.parametrize("radii, message", BAD_RADII)
def test_classify_checks_radii_before_expanding(no_expand, radii, message):
    with pytest.raises(ValidationError, match=message):
        classify(np.zeros(8), random_configuration(8, 0), radii=radii)


@pytest.mark.parametrize("radii", [[], [5.0], [5.0, 10.0]])
def test_classify_needs_three_radii_before_expanding(no_expand, radii):
    with pytest.raises(TooFewPoints, match="at least 3 radii"):
        classify(np.zeros(8), random_configuration(8, 0), radii=radii)


@pytest.mark.parametrize("radii, message", BAD_RADII)
def test_counting_function_checks_radii_before_expanding(no_expand, radii, message):
    with pytest.raises(ValidationError, match=message):
        counting_function(np.zeros(8), random_configuration(8, 0), radii)
