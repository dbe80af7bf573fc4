"""The class certificate: `classify` without the N! expansion.

Where `sizing.certify_top_class` certifies, its b_nu must be the same double
as `expand`'s effective size; where it does not, `classify` walks down from
V (`tests/test_walk.py`).
"""

import itertools
import math
import time

import numpy as np
import pytest

from resonance_sizer import (
    classify,
    distance_matrix,
    expand,
    random_configuration,
    size_v,
    validate_configuration,
)
from resonance_sizer import asymptotics
from resonance_sizer.asymptotics import _verdict
from resonance_sizer.errors import TooLarge
from resonance_sizer.sizing import certify_top_class, class_margin
from tests.conftest import SHAPES, brute_size
from tests.permutation_reference import Permutation, edge_equivalent


# Of the classify benchmark's SHAPES, collinear points and the double
# disphenoid tie at the top, so the certificate must fall back on them.
# b_nu of the double disphenoid, measured with `expand` (its V is 40.8657).
DOUBLE_DISPHENOID_B_NU = 40.529987637148494
JITTERS = (0.0, 1e-13, 1e-11, 1e-9, 1e-7, 1e-5, 1e-3)


def _strengths(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _assert_matches_expand(a, cfg):
    """Certified b_nu and verdict equal the expansion's, to the bit."""
    cert = certify_top_class(cfg)
    epoly, _ = expand(a, cfg)
    report = classify(a, cfg)
    assert cert.b_nu == epoly.effective_size
    assert report.b_nu == epoly.effective_size
    assert report.v == size_v(cfg).v
    assert report.class_margin == cert.margin
    assert report.classification == _verdict(epoly.effective_size, report.v, 1e-8)


def _brute_margin(cfg):
    """Least V deficit over permutations not edge-equivalent to the argmax."""
    d = distance_matrix(cfg)
    argmax = size_v(cfg).argmax
    sigma = Permutation(argmax)
    v = float(d[np.arange(cfg.n), list(argmax)].sum())
    deficits = [
        v - float(d[np.arange(cfg.n), list(p)].sum())
        for p in itertools.permutations(range(cfg.n))
        if not edge_equivalent(Permutation(p), sigma)
    ]
    return min(deficits, default=math.inf)


@pytest.mark.parametrize("n", range(2, 8))
def test_class_margin_matches_brute_force(n):
    rng = np.random.default_rng(400 + n)
    for _ in range(4):
        cfg = random_configuration(n, rng)
        margin = class_margin(distance_matrix(cfg), np.array(size_v(cfg).argmax))
        assert margin == pytest.approx(_brute_margin(cfg), abs=1e-12 * size_v(cfg).v)


def test_class_margin_zero_on_even_cycle():
    # a 4-cycle on a square ties with the two transposition products
    d = np.ones((4, 4)) - np.eye(4)
    assert class_margin(d, np.array([1, 2, 3, 0])) == 0.0


@pytest.mark.parametrize("n", range(2, 10))
def test_certificate_matches_expand_random(n):
    rng = np.random.default_rng(500 + n)
    for _ in range(2 if n == 9 else 6):
        cfg = random_configuration(n, rng)
        assert certify_top_class(cfg).b_nu is not None
        _assert_matches_expand(_strengths(rng, n), cfg)


@pytest.mark.parametrize("jitter", JITTERS)
@pytest.mark.parametrize("shape", SHAPES)
def test_certificate_matches_expand_on_shapes(shape, jitter):
    rng = np.random.default_rng(600)
    pts = SHAPES[shape] + rng.uniform(-jitter, jitter, size=(8, 3))
    cfg = validate_configuration(pts)
    cert = certify_top_class(cfg)
    if shape in ("cube", "octagon"):
        assert cert.b_nu is not None
    elif jitter == 0.0:
        assert cert.b_nu is None
    a = _strengths(rng, 8)
    if cert.b_nu is not None:
        _assert_matches_expand(a, cfg)
    else:
        epoly, _ = expand(a, cfg)
        report = classify(a, cfg)
        assert report.class_margin is None
        assert report.b_nu == epoly.effective_size


def test_equilateral_certifies_two_member_class(equilateral):
    cert = certify_top_class(equilateral)
    # the maximizers are the two 3-cycles, one edge-equivalence class
    assert brute_size(equilateral)[1] == {(1, 2, 0), (2, 0, 1)}
    assert cert.b_nu is not None
    assert cert.margin == pytest.approx(1.0, rel=1e-12)
    _assert_matches_expand(np.array([0.3, -1j, 2.0]), equilateral)


def test_regular_tetrahedron_falls_back_and_is_weyl():
    cfg = validate_configuration([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])
    cert = certify_top_class(cfg)
    assert cert.b_nu is None
    assert cert.margin == 0.0
    report = classify(np.zeros(4), cfg)
    assert report.classification == "Weyl"
    assert report.class_margin is None
    assert report.b_nu == expand(np.zeros(4), cfg)[0].effective_size


def test_certificate_needs_room_in_tolerances():
    cfg = random_configuration(5, 1)
    assert certify_top_class(cfg).b_nu is not None
    assert certify_top_class(cfg, cancel_tol=0.5).b_nu is None
    assert certify_top_class(cfg, freq_tol=1e-16).b_nu is None
    assert certify_top_class(cfg, freq_tol=1.0).b_nu is None  # margin < V


@pytest.fixture
def expand_calls(monkeypatch):
    calls = []

    def expand_spy(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "expand", expand_spy)
    return calls


def test_classify_skips_expand_when_certified(expand_calls):
    rng = np.random.default_rng(700)
    for _ in range(4):
        report = classify(_strengths(rng, 8), random_configuration(8, rng))
        assert report.classification == "Weyl"
        assert report.class_margin > 0
    assert expand_calls == []


def test_classify_walks_collinear_without_expand(expand_calls):
    report = classify(np.zeros(8), validate_configuration(SHAPES["collinear"]))
    assert expand_calls == []
    assert report.classification == "Weyl"
    assert report.b_nu == 32.0
    assert report.class_margin is None


def test_classify_walks_double_disphenoid_without_expand(expand_calls):
    a = _strengths(np.random.default_rng(701), 8)
    report = classify(a, validate_configuration(SHAPES["double-disphenoid"]))
    assert expand_calls == []
    assert report.classification == "NonWeyl"
    assert report.b_nu == pytest.approx(DOUBLE_DISPHENOID_B_NU, rel=1e-12)
    assert report.class_margin is None


def test_classify_large_n_certified_fast():
    cfg = random_configuration(50, 0)
    start = time.perf_counter()
    report = classify(np.zeros(50), cfg)
    elapsed = time.perf_counter() - start
    assert report.classification == "Weyl"
    assert report.b_nu == report.v
    assert elapsed < 0.1


def test_classify_uncertified_large_n_raises():
    # 14 equally spaced points tie (7!)^2 permutations at the top; the walk's
    # level 11 holds 7! * 7 * 6 * 5 * 4 of their partial images
    cfg = validate_configuration([(float(k), 0.0, 0.0) for k in range(14)])
    with pytest.raises(
        TooLarge, match=r"not certified.* needs 4,233,600 rows .* cap of 3,628,800 rows per level"
    ):
        classify(np.zeros(14), cfg)
