import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonance_sizer import (
    distance_matrix,
    enumerate_classes,
    is_generic,
    random_configuration,
    size_v,
    validate_configuration,
)
from resonance_sizer.errors import SizeMismatch, ValidationError
from resonance_sizer.geometry import scale_configuration
from resonance_sizer.sizing import _assignment, _closest_pair, representative_values
from tests.conftest import DISPHENOID_CENTERS, SHAPES, apply_rigid_motion, brute_size
from tests.permutation_reference import (
    Permutation,
    class_mates,
    edge_equivalent,
    v_sigma,
)
from tests.sizing_reference import closest_pair_reference, is_generic_reference

# Configurations whose class values tie exactly (min_gap 0).
EXACT_TIES = {**SHAPES, "disphenoid": np.array(DISPHENOID_CENTERS)}


def brute_max(config):
    d = distance_matrix(config)
    n = config.n
    return max(
        sum(d[j, p[j]] for j in range(n)) for p in itertools.permutations(range(n))
    )


def test_v_sigma_identity_is_zero(unit_pair):
    assert v_sigma(unit_pair, Permutation.identity(2)) == 0.0


def test_v_sigma_swap_doubles_distance():
    cfg = validate_configuration([(0, 0, 0), (0, 0.7, 0)])
    assert v_sigma(cfg, Permutation((1, 0))) == pytest.approx(1.4, rel=1e-15)


def test_v_sigma_equilateral_cycle(equilateral):
    assert v_sigma(equilateral, Permutation((1, 2, 0))) == pytest.approx(3.0, rel=1e-12)


def test_v_sigma_size_mismatch(unit_pair):
    with pytest.raises(SizeMismatch):
        v_sigma(unit_pair, Permutation((1, 2, 0)))


def test_size_v_pair(unit_pair):
    report = size_v(unit_pair)
    assert report.v == pytest.approx(2.0, rel=1e-15)
    assert report.argmax == (1, 0)
    assert brute_size(unit_pair)[1] == {(1, 0)}


def test_size_v_equilateral(equilateral):
    report = size_v(equilateral)
    assert report.v == pytest.approx(3.0, rel=1e-12)
    # both 3-cycles tie; transpositions reach only 2
    achievers = brute_size(equilateral)[1]
    assert achievers == {(1, 2, 0), (2, 0, 1)}
    assert report.argmax in achievers


def test_size_v_collinear(collinear):
    report = size_v(collinear)
    assert report.v == pytest.approx(4.0, rel=1e-15)
    # the end-swapping transposition and both 3-cycles all attain 4
    achievers = brute_size(collinear)[1]
    assert achievers == {(2, 1, 0), (1, 2, 0), (2, 0, 1)}
    assert report.argmax in achievers


def test_size_v_assignment_matches_brute_small():
    rng = np.random.default_rng(17)
    for n in range(2, 7):
        for _ in range(10):
            cfg = random_configuration(n, rng)
            brute_v, _ = brute_size(cfg)
            assign = size_v(cfg)
            assert assign.v == pytest.approx(brute_v, abs=1e-12 * max(1.0, brute_v))
            assert brute_v == pytest.approx(brute_max(cfg), rel=1e-15)


def _check_assignment(d):
    """The image is a permutation whose V the duals certify optimal: they
    are feasible (u[i] + w[j] >= d[i, j]), tight on its bonds and sum to V."""
    v, image, u, w = _assignment(d)
    n = len(d)
    tol = 1e-12 * max(1.0, v)
    assert sorted(image.tolist()) == list(range(n))
    assert v == float(d[np.arange(n), image].sum())
    slack = u[:, None] + w[None, :] - d
    assert slack.min() >= -tol
    assert np.abs(slack[np.arange(n), image]).max() <= tol
    assert abs(u.sum() + w.sum() - v) <= tol
    return v, tuple(image.tolist())


def _check_against_brute(cfg, v, argmax):
    brute_v, achievers = brute_size(cfg)
    assert v == pytest.approx(brute_v, rel=1e-12)
    assert argmax in achievers


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 100), seed=st.integers(0, 2**32 - 1))
def test_assignment_duals_certify_random(n, seed):
    cfg = random_configuration(n, seed)
    v, argmax = _check_assignment(distance_matrix(cfg))
    if n <= 8:
        _check_against_brute(cfg, v, argmax)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES) + ["disphenoid"]),
    seed=st.integers(0, 2**32 - 1),
    moved=st.booleans(),
)
def test_assignment_duals_certify_structured(shape, seed, moved):
    # canonical placement keeps the exact ties; a rigid motion rounds them
    rng = np.random.default_rng(seed)
    centers = np.array(DISPHENOID_CENTERS) if shape == "disphenoid" else SHAPES[shape]
    cfg = validate_configuration(centers[rng.permutation(len(centers))])
    if moved:
        cfg = apply_rigid_motion(cfg, rng)
    _check_against_brute(cfg, *_check_assignment(distance_matrix(cfg)))


# Maximizers picked on shapes with tied tops (576 maximizers on the
# collinear points, 16 on the double disphenoid, 4 on the disphenoid), as
# the earlier scipy `linear_sum_assignment` picked them; `_assignment`
# keeps its column order and tie rule, so CLI outputs do not move.
TIE_PICKS = {
    "collinear": (7, 6, 5, 4, 1, 0, 2, 3),
    "double-disphenoid": (6, 7, 5, 4, 3, 2, 1, 0),
    "disphenoid": (2, 3, 0, 1),
}


@pytest.mark.parametrize("shape, argmax", TIE_PICKS.items())
def test_size_v_tie_picks(shape, argmax):
    centers = np.array(DISPHENOID_CENTERS) if shape == "disphenoid" else SHAPES[shape]
    assert size_v(validate_configuration(centers)).argmax == argmax


def test_assignment_n100_under_a_tenth_of_a_second():
    d = distance_matrix(random_configuration(100, seed=100))
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _assignment(d)
        times.append(time.perf_counter() - t0)
    assert min(times) < 0.1


@pytest.mark.parametrize("n", range(2, 9))
def test_size_v_argmax_is_image_tuple(n):
    cfg = random_configuration(n, seed=n)
    argmax = size_v(cfg).argmax
    assert type(argmax) is tuple and all(type(j) is int for j in argmax)
    assert sorted(argmax) == list(range(n))
    assert v_sigma(cfg, Permutation(argmax)) == size_v(cfg).v


@pytest.mark.parametrize("n", range(3, 8))
def test_witness_pair_rows_of_class_images(n):
    cfg = random_configuration(n, seed=10 + n)
    report = is_generic(cfg)
    rows = [tuple(row) for row in enumerate_classes(n).images.tolist()]
    a, b = report.witness_pair
    assert a in rows and b in rows and a != b
    assert all(type(j) is int for j in a + b)
    gap = v_sigma(cfg, Permutation(b)) - v_sigma(cfg, Permutation(a))
    assert gap == pytest.approx(report.min_gap, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [8, 9])
def test_representative_values_blockwise_bytes(n, seed):
    # each representative is summed alone, so block-wise sums are the same
    # doubles as one sum over all of them (N = 9 spans several blocks)
    cfg = random_configuration(n, seed=seed)
    reps, values = representative_values(cfg)
    d = distance_matrix(cfg)
    assert values.tobytes() == d[np.arange(n), reps.images].sum(axis=1).tobytes()


@pytest.mark.parametrize("name", sorted(EXACT_TIES))
def test_is_generic_equals_oracle_on_exact_ties(name):
    cfg = validate_configuration(EXACT_TIES[name])
    report = is_generic(cfg)
    assert report == is_generic_reference(cfg)
    assert report.min_gap == 0.0 and not report.is_generic


@pytest.mark.parametrize("n", range(2, 10))
def test_is_generic_equals_oracle_random(n):
    for seed in range(6):
        cfg = random_configuration(n, seed=seed)
        assert is_generic(cfg) == is_generic_reference(cfg)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6),
    picks=st.lists(st.integers(0, 5), min_size=2, max_size=40),
)
def test_closest_pair_is_the_stable_orders(pool, picks):
    # a few distinct values drawn many times: mostly exact ties
    values = np.array([pool[k % len(pool)] for k in picks])
    assert _closest_pair(values) == closest_pair_reference(values)


@pytest.mark.parametrize("gap_tol", [float("nan"), float("inf"), -1.0])
def test_is_generic_rejects_bad_gap_tol(gap_tol):
    with pytest.raises(ValidationError, match="gap_tol"):
        is_generic(random_configuration(4, seed=0), gap_tol=gap_tol)


def test_v_sigma_inverse_and_class_mates():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        cfg = random_configuration(n, rng)
        sigma = Permutation(tuple(int(x) for x in rng.permutation(n)))
        v = v_sigma(cfg, sigma)
        v_max = size_v(cfg).v
        assert v_sigma(cfg, sigma.inverse()) == pytest.approx(v, abs=1e-12 * max(1, v_max))
        for mate in class_mates(sigma):
            assert v_sigma(cfg, mate) == pytest.approx(v, abs=1e-12 * max(1, v_max))


def test_v_scaling_covariance():
    rng = np.random.default_rng(29)
    cfg = random_configuration(5, rng)
    sigma = Permutation(tuple(int(x) for x in rng.permutation(5)))
    for c in (0.25, 3.0):
        scaled = scale_configuration(cfg, c)
        assert v_sigma(scaled, sigma) == pytest.approx(c * v_sigma(cfg, sigma), rel=1e-12)
        r0, r1 = size_v(cfg), size_v(scaled)
        assert r1.v == pytest.approx(c * r0.v, rel=1e-12)
        assert edge_equivalent(Permutation(r0.argmax), Permutation(r1.argmax))


def test_is_generic_collinear_false(collinear):
    report = is_generic(collinear)
    assert not report.is_generic
    assert report.min_gap == pytest.approx(0.0, abs=1e-12)
    a, b = map(Permutation, report.witness_pair)
    assert v_sigma(collinear, a) == pytest.approx(v_sigma(collinear, b), abs=1e-12)


def test_is_generic_equilateral_false(equilateral):
    assert not is_generic(equilateral).is_generic


def test_is_generic_random_true():
    cfg = random_configuration(3, seed=101)
    report = is_generic(cfg)
    assert report.is_generic
    assert report.min_gap > report.gap_tol


def test_is_generic_gap_tol_scales_with_v():
    rng = np.random.default_rng(41)
    for n in range(3, 7):
        for _ in range(5):
            cfg = random_configuration(n, rng)
            report = is_generic(cfg)
            want = 1e-9 * max(1.0, size_v(cfg).v)
            assert report.gap_tol == pytest.approx(want, rel=1e-12)


def test_is_generic_invariant_under_rigid_motion_and_relabeling():
    rng = np.random.default_rng(31)
    cfg = random_configuration(4, rng)
    base = is_generic(cfg)
    moved = apply_rigid_motion(cfg, rng)
    assert is_generic(moved).is_generic == base.is_generic
    perm = rng.permutation(4)
    relabeled = validate_configuration(cfg.centers[perm])
    report = is_generic(relabeled)
    assert report.is_generic == base.is_generic
    assert report.min_gap == pytest.approx(base.min_gap, rel=1e-9, abs=1e-12)


def test_separating_configuration_exists_for_nonequivalent_pairs():
    # contrapositive of "equal V for all Y implies edge-equivalent"
    rng = np.random.default_rng(37)
    sigma = Permutation((1, 2, 0, 3))
    tau = Permutation((1, 0, 3, 2))
    assert not edge_equivalent(sigma, tau)
    found = False
    for _ in range(20):
        cfg = random_configuration(4, rng)
        if abs(v_sigma(cfg, sigma) - v_sigma(cfg, tau)) > 1e-6:
            found = True
            break
    assert found
