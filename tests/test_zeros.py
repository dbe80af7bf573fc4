import warnings

import numpy as np
import pytest

from resonance_sizer import (
    ContourThroughZero,
    NumericalError,
    Rectangle,
    ValidationError,
    count_zeros_disk,
    counting_function,
    determinant_direct,
    expand,
    find_resonances,
    gamma_matrix,
    random_configuration,
    size_v,
    validate_configuration,
)
from resonance_sizer._contours import _MAX_POINTS, Circle
from resonance_sizer.errors import EvaluationOverflow, QuadratureDivergence
from resonance_sizer.zeros import count_zeros_rect, newton_polish
from tests.conftest import (
    EDGE_ZEROS,
    MIRROR_PAIR_CENTERS,
    MIRROR_PAIR_COUNT,
    MIRROR_PAIR_RADIUS,
    MIRROR_PAIR_STRENGTHS,
)
from tests.expoly_reference import zero_frequency_polynomial


def quad(z):
    return -(z**2), -2 * z


def test_double_zero_at_origin_disk():
    zc = count_zeros_disk(quad, 1.0)
    assert zc.count == 2
    assert zc.winding_residual <= 1e-3
    assert zc.radius == 1.0


def test_disk_counts_strength_polynomial_roots():
    a = np.array([1j, 2j])  # roots of the zero-frequency part at 4*pi and 8*pi
    epoly = zero_frequency_polynomial(a)
    fdf = epoly.value_and_derivative
    assert count_zeros_disk(fdf, 30.0).count == 2
    assert count_zeros_disk(fdf, 15.0).count == 1
    assert count_zeros_disk(fdf, 5.0).count == 0


def test_disk_nudges_zero_on_contour():
    fdf = lambda z: (z - 1.0, np.ones_like(np.asarray(z, dtype=complex)))
    zc = count_zeros_disk(fdf, 1.0)
    assert zc.count == 1
    assert zc.contour_radius > 1.0


def test_rect_count_basic():
    assert count_zeros_rect(quad, Rectangle(-1, 1, -1, 1.3)) == 2
    assert count_zeros_rect(quad, Rectangle(2, 3, 2, 3)) == 0


def test_find_resonances_double_zero():
    found = find_resonances(quad, Rectangle(-1, 1, -1, 1))
    assert len(found) == 1
    (res,) = found
    assert res.multiplicity == 2
    assert abs(res.location) <= 1e-6


def test_find_resonances_distinct_polynomial_roots():
    a = np.array([1j, 2j, 1.5j])
    epoly = zero_frequency_polynomial(a)
    found = find_resonances(epoly.value_and_derivative, Rectangle(0, 30, -2, 2))
    assert [r.multiplicity for r in found] == [1, 1, 1]
    expected = sorted((-4j * np.pi * aj for aj in a), key=lambda z: z.real)
    for res, want in zip(found, expected):
        assert abs(res.location - want) <= 1e-9
        assert res.residual <= 1e-10
        assert not res.is_cluster


def test_find_resonances_empty_region():
    assert find_resonances(quad, Rectangle(5, 6, 5, 6)) == []


def test_find_resonances_multiplicity_sums_to_region_count(unit_pair):
    epoly, _ = expand([0, 0], unit_pair)
    fdf = epoly.value_and_derivative
    region = Rectangle(0, 12, -4, 0)
    found = find_resonances(fdf, region, freq_scale=2.0)
    total = sum(r.multiplicity for r in found)
    assert total == count_zeros_rect(fdf, region, freq_scale=2.0)


def test_pair_resonances_residuals(unit_pair):
    epoly, _ = expand([0, 0], unit_pair)
    found = find_resonances(
        epoly.value_and_derivative, Rectangle(0, 20, -5, 0), freq_scale=2.0
    )
    assert found, "expected resonances in the strip"
    for res in found:
        z = res.location
        assert abs(z**2 + np.exp(2j * z)) <= 1e-8
        assert res.multiplicity == 1


def test_conjugate_symmetry_for_real_strengths(unit_pair):
    # real strengths give D(-conj z) = conj D(z), so zeros pair up
    epoly, _ = expand([0.2, -0.4], unit_pair)
    found = find_resonances(
        epoly.value_and_derivative, Rectangle(-12, 12, -4, 1), freq_scale=2.0
    )
    locs = [r.location for r in found]
    assert locs
    for z in locs:
        assert min(abs(-z.conjugate() - w) for w in locs) <= 1e-8


def test_counting_function_monotone(unit_pair):
    counts = counting_function([0, 0], unit_pair, [1.0, 5.0, 10.0, 20.0])
    values = [zc.count for zc in counts]
    assert values == sorted(values)
    assert all(zc.winding_residual <= 1e-3 for zc in counts)


def test_counting_function_zero_below_first_resonance(unit_pair):
    # smallest zero of z^2 + e^{2iz} has modulus ~0.57
    counts = counting_function([0, 0], unit_pair, [0.2, 0.4])
    assert [zc.count for zc in counts] == [0, 0]


def test_counting_function_requires_increasing_radii(unit_pair):
    with pytest.raises(ValidationError):
        counting_function([0, 0], unit_pair, [5.0, 5.0])


def test_counting_slope_increment(unit_pair):
    # counts at R and R + pi differ by about 2 when the effective size is 2
    counts = counting_function([0, 0], unit_pair, [40.0, 40.0 + np.pi])
    delta = counts[1].count - counts[0].count
    assert delta in (1, 2, 3)


def test_newton_polish_simple_root():
    z, ok = newton_polish(lambda z: (z**2 - 2, 2 * z), 1.0 + 0.1j)
    assert ok
    assert abs(z - np.sqrt(2)) <= 1e-10


def test_rectangle_validation():
    with pytest.raises(ValidationError):
        Rectangle(1, 1, 0, 2)
    with pytest.raises(ValidationError):
        count_zeros_disk(quad, -1.0)


NAN, INF = float("nan"), float("inf")
# Quadrature inputs every entry point rejects: a node count needs a finite
# freq_scale >= 0.
BAD_QUADRATURE = [
    {"freq_scale": NAN},
    {"freq_scale": INF},
    {"freq_scale": -1.0},
]


def kwargs_id(kwargs) -> str:
    return ",".join(f"{k}={v}" for k, v in kwargs.items())


@pytest.mark.parametrize(
    "kwargs",
    [{"radius": INF}, {"radius": NAN}, {"radius": 0.0}, {"center": complex("nan")}]
    + BAD_QUADRATURE,
    ids=kwargs_id,
)
def test_count_zeros_disk_rejects(kwargs):
    with pytest.raises(ValidationError):
        count_zeros_disk(quad, **{"radius": 1.0, **kwargs})


@pytest.mark.parametrize(
    "bounds, kwargs",
    [((0, INF, -5, 0), {}), ((NAN, 1, -1, 1), {}), ((0, 1, -INF, 0), {})]
    + [((-1, 1, -1, 1), kw) for kw in BAD_QUADRATURE],
    ids=lambda x: kwargs_id(x) if isinstance(x, dict) else ",".join(map(str, x)),
)
def test_count_zeros_rect_rejects(bounds, kwargs):
    with pytest.raises(ValidationError):
        count_zeros_rect(quad, Rectangle(*bounds), **kwargs)


@pytest.mark.parametrize("kwargs", BAD_QUADRATURE, ids=kwargs_id)
def test_find_resonances_rejects(kwargs):
    with pytest.raises(ValidationError):
        find_resonances(quad, Rectangle(-1, 1, -1, 1), **kwargs)


@pytest.mark.parametrize(
    "shape, inside, outside",
    [
        (Circle(0.3 + 0.2j, 2.0), 0.8 + 0.2j, 3.0 - 2.0j),
        # long edges get 320 panels and short ones 64, so each corner joins
        # panels of different widths
        (Rectangle(0, 40, -0.05, 0.05), 20.0, -5.0),
    ],
    ids=["circle", "thin-rectangle"],
)
def test_node_weights_integrate(shape, inside, outside):
    """The weights w = dz / (2 pi i) of all nodes so far, with each earlier
    level's halved per level, give sum w = 0, sum w / (z - a) = 1 for a
    inside and 0 for a outside.  Trapezoid error: a pole at distance d from
    an edge of node spacing h adds about e^{-2 pi d / h} per edge, and the
    corners add O(h^2) (Euler-Maclaurin)."""
    z_all = w_all = np.empty(0, dtype=complex)
    for _, (_, z, w, h) in zip(range(4), shape.node_levels(1.0)):
        z_all, w_all = np.concatenate([z_all, z]), np.concatenate([w_all / 2, w])
        assert abs(w_all.sum()) <= 1e-14 * shape.size()
        for a, expected in ((inside, 1.0), (outside, 0.0)):
            d = abs(shape.signed_distance(a))
            tol = 3 * np.exp(-2 * np.pi * d / h) + 1e-4 * h**2 + 1e-14
            assert abs(np.sum(w_all / (z_all - a)) - expected) <= tol


class Spy:
    """fdf wrapper that records every point it is asked for."""

    def __init__(self, fdf):
        self.fdf = fdf
        self.calls = []

    def __call__(self, z):
        self.calls.append(np.array(z, dtype=complex).ravel())
        return self.fdf(z)

    @property
    def points(self) -> np.ndarray:
        return np.concatenate(self.calls)


def test_disk_evaluates_each_node_once(unit_pair):
    epoly, _ = expand([0, 0], unit_pair)
    spy = Spy(epoly.value_and_derivative)
    zc = count_zeros_disk(spy, 40.0, freq_scale=2.0)
    assert zc.contour_radius == 40.0
    # n points for a stop at n, not n0 + 2 n0 + ..., each of them a node
    # 40 e^{2 pi i k / n} once
    assert len(spy.points) == zc.quadrature_points == 1280
    n = zc.quadrature_points
    z = spy.points
    k = np.rint(np.angle(z) / (2 * np.pi) * n).astype(int) % n
    np.testing.assert_array_equal(np.sort(k), np.arange(n))
    # the angle taken in [-pi, pi], where its rounding is smallest
    exact = 40.0 * np.exp(2j * np.pi * np.where(2 * k > n, k - n, k) / n)
    np.testing.assert_allclose(z, exact, rtol=0, atol=4 * np.finfo(float).eps * 40.0)
    # each call lays out conjugate pairs, upper node first, then the real
    # nodes 40 and -40 of its level
    for call in spy.calls:
        pairs = np.flatnonzero(call.imag != 0)
        np.testing.assert_array_equal(pairs, np.arange(len(pairs)))
        assert (call[: len(pairs) : 2].imag > 0).all()
        np.testing.assert_array_equal(call[1 : len(pairs) : 2], call[: len(pairs) : 2].conj())


@pytest.mark.parametrize(
    "center, radius, freq_scale",
    # n = 256, 257 (odd: its second level holds k = n / 2), 1001
    [(0.0, 1.0, 1.0), (0.7 - 2.5j, 1.0, 32.1), (-3e3 + 1e-3j, 12.5, 10.0)],
)
def test_circle_levels_lay_out_conjugate_pairs(center, radius, freq_scale):
    """Each level: nodes k and n - k next to each other, sharing Re z bit
    for bit, the weight of the second the conjugate of the first's; the
    nodes center + r and center - r last; every k of the level once."""
    circle = Circle(center, radius)
    n = max(256, int(np.ceil(8 * radius * freq_scale)))
    for level, (t, z, w, _) in zip(range(3), circle.node_levels(freq_scale)):
        size = n << level
        k = np.rint(t * size).astype(int)
        want = np.arange(size) if level == 0 else np.arange(1, size, 2)
        np.testing.assert_array_equal(np.sort(k), want)
        ends = (k == 0) | (2 * k == size)
        paired = len(k) - ends.sum()
        assert not ends[:paired].any()
        np.testing.assert_array_equal(k[1:paired:2], size - k[:paired:2])
        np.testing.assert_array_equal(z.real[1:paired:2], z.real[:paired:2])
        np.testing.assert_array_equal(w[1:paired:2], w[:paired:2].conj())
        ends_z = center + np.where(k[paired:] == 0, radius, -radius)
        np.testing.assert_array_equal(z[paired:], ends_z)
        assert abs(z - center - w * size).max() <= 4 * np.finfo(float).eps * (radius + abs(center))


def never_called(z):
    raise AssertionError("evaluated a node past the budget")


@pytest.mark.parametrize("radius, nodes", [(6e5, 9_600_000), (5e5, 8_000_000)])
def test_disk_past_node_budget_raises_before_evaluating(radius, nodes):
    # b = 1: the first level needs 8 R nodes, and a count two levels
    with pytest.raises(QuadratureDivergence) as info:
        count_zeros_disk(never_called, radius, freq_scale=1.0)
    assert f"needs {nodes} nodes for its first two levels" in str(info.value)
    assert f"budget of {_MAX_POINTS} nodes" in str(info.value)


def test_rectangle_past_node_budget_raises_before_evaluating():
    region = Rectangle(0.0, 1e9, -1.0, 0.0)
    for search in (count_zeros_rect, find_resonances):
        with pytest.raises(QuadratureDivergence, match=f"budget of {_MAX_POINTS} nodes"):
            search(never_called, region)


def test_disk_zero_on_contour_located_and_attributed():
    contours = []  # (radius, points) per contour call; Newton passes scalars
    evaluations = 0

    def fdf(z):
        nonlocal evaluations
        z = np.asarray(z, dtype=complex)
        evaluations += z.size
        if z.ndim:
            contours.append((round(abs(z.flat[0]), 9), z.size))
        return z - 1.0, np.ones_like(z)

    zc = count_zeros_disk(fdf, 1.0)
    assert zc.count == 1  # the zero on the circle belongs to the closed disk
    assert zc.contour_radius > 1.0
    per_radius = {}
    for r, size in contours:
        per_radius[r] = per_radius.get(r, 0) + size
    # the circle through the zero trips the guard on its first level
    assert per_radius[1.0] == 256
    assert zc.quadrature_points == sum(per_radius.values())
    assert evaluations <= 10_000  # the 1e-6 nudges it replaces took 8.4M


def test_double_zero_on_contour_counts_twice():
    # both moved circles straddle one located zero of multiplicity 2, so
    # a small disk around it supplies the multiplicity
    zc = count_zeros_disk(lambda z: ((z - 1.0) ** 2, 2 * (z - 1.0)), 1.0)
    assert zc.count == 2
    assert zc.contour_radius > 1.0
    assert count_zeros_rect(lambda z: ((z - 1.0) ** 2, 2 * (z - 1.0)), Rectangle(1, 2, -1, 1)) == 2


def test_overflow_on_contour_names_the_circle():
    def fdf(z):
        with np.errstate(all="ignore"):
            e = np.exp(1000 * np.asarray(z, dtype=complex))
            return e, 1000 * e

    # f overflows on part of the circle: an overflow, not a zero on it
    with pytest.raises(EvaluationOverflow, match=r"nodes on \|z - 0.0\| = 1.0: ") as caught:
        count_zeros_disk(fdf, 1.0)
    assert not isinstance(caught.value, ContourThroughZero)


def test_vanishing_sample_without_zero_is_contour_through_zero():
    def fdf(z):
        z = np.asarray(z, dtype=complex)
        # f drops to 1e-20 on the node z = 1 only; f' = 0 leaves Newton nothing
        return np.where(z == 1.0, 1e-20, 1.0), np.zeros_like(z)

    with pytest.raises(ContourThroughZero, match=r"vanished on \|z - 0.0\| = 1.0 and Newton"):
        count_zeros_disk(fdf, 1.0)


def test_overflow_past_headroom_is_reported_as_overflow():
    # b_nu = 4.94, so b_nu * R = 790 at R = 160: past log(DBL_MAX) = 709.78
    cfg = random_configuration(6, np.random.default_rng(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationOverflow) as caught:
            counting_function(np.zeros(6), cfg, [160.0])
    message = str(caught.value)
    assert isinstance(caught.value, NumericalError)
    assert not isinstance(caught.value, ContourThroughZero)
    assert "|z - 0.0| = 160.0" in message
    assert "4.93931 * 160 = 790.3" in message and "log(DBL_MAX) = 709.78" in message


def test_disk_mirror_pair_hugging_circle():
    cfg = validate_configuration(MIRROR_PAIR_CENTERS)
    epoly, _ = expand(np.array(MIRROR_PAIR_STRENGTHS), cfg)
    spy = Spy(epoly.value_and_derivative)
    zc = count_zeros_disk(spy, MIRROR_PAIR_RADIUS, freq_scale=epoly.effective_size)
    assert zc.count == MIRROR_PAIR_COUNT
    assert zc.contour_radius > MIRROR_PAIR_RADIUS
    assert len(spy.points) <= 200_000  # the 1e-6 nudges it replaces took 9.8M


@pytest.mark.parametrize("centers, strengths, edge_imag", EDGE_ZEROS, ids=["apart", "cancelling"])
def test_two_zeros_on_region_edge(centers, strengths, edge_imag):
    cfg = validate_configuration(centers)
    a = np.array(strengths)
    epoly, _ = expand(a, cfg)
    found = find_resonances(
        epoly.value_and_derivative, Rectangle(0, 6, -3, 0), freq_scale=epoly.effective_size
    )
    axis = sorted(r.location.imag for r in found if abs(r.location.real) <= 1e-9)
    assert axis == pytest.approx(sorted(edge_imag), abs=1e-9)
    for res in found:
        z = res.location
        assert Rectangle(0, 6, -3, 0).contains(z, pad=1e-9)
        bound = (4 * np.pi) ** cfg.n * np.prod(np.linalg.norm(gamma_matrix(a, cfg, z), axis=1))
        assert abs(determinant_direct(a, cfg, z)) <= 1e-8 * bound


def test_rect_evaluates_each_edge_node_once():
    rect = Rectangle(-1, 1, -1, 1.3)
    spy = Spy(quad)
    assert count_zeros_rect(spy, rect) == 2
    points = spy.points
    assert len(np.unique(points)) == len(points)
    # one call per level (every level here is below _contours._CHUNK nodes),
    # each doubling every edge's node count exactly
    c = rect.corners
    edges = list(zip(c, c[1:] + c[:1]))
    first = [max(64, int(np.ceil(8 * abs(b - a)))) for a, b in edges]
    final = [n << (len(spy.calls) - 1) for n in first]
    assert len(spy.calls[0]) == sum(first)
    assert len(points) == sum(final)
    grid = np.concatenate([a + (b - a) * (np.arange(n) / n) for (a, b), n in zip(edges, final)])
    np.testing.assert_array_equal(np.sort_complex(points), np.sort_complex(grid))


# (seed, N, V * R) -> count, contour radius and points of the disk count,
# as computed before the quadrature became nested.
DISK_GOLDEN = [
    (0, 3, 150.0, 49, 58.07091277972781, 2400),
    (1, 4, 60.0, 22, 16.907561764691472, 960),
    (1, 4, 150.0, 50, 42.268904411728684, 2400),
    (2, 5, 60.0, 21, 16.73456282745663, 962),
    (2, 5, 150.0, 51, 41.83640706864158, 9600),
    (5, 5, 150.0, 51, 29.803837507160726, 2400),
]


@pytest.mark.parametrize("seed, n, vr, count, contour_radius, points", DISK_GOLDEN)
def test_disk_counts_unchanged(seed, n, vr, count, contour_radius, points):
    rng = np.random.default_rng(seed)
    cfg = random_configuration(n, rng)
    epoly, _ = expand(rng.normal(size=n), cfg)
    zc = count_zeros_disk(
        epoly.value_and_derivative, vr / size_v(cfg).v, freq_scale=epoly.effective_size
    )
    assert (zc.count, zc.contour_radius, zc.quadrature_points) == (count, contour_radius, points)


def test_counting_function_unchanged(unit_pair):
    counts = counting_function([0, 0], unit_pair, [1.0, 5.0, 10.0, 20.0, 40.0])
    assert [(zc.count, zc.contour_radius) for zc in counts] == [
        (1, 1.0), (5, 5.0), (7, 10.0), (13, 20.0), (27, 40.0)
    ]


# seed -> zeros found on [0, 6] x [-3, 0] for the N = 4 configuration drawn
# from default_rng([seed, 4]) (complex strengths for even seeds, real for
# odd ones), as computed before zeros hugging a contour were located.  Seeds
# with a zero within 0.05 of the region's boundary are left out.
PLAIN_GOLDEN = [
    (0, [2.379387528643915-2.92093436933197j, 5.352499878304488-2.3673834865768173j]),
    (1, [1.7570622185879436-1.4100790387972375j, 3.7460189743444983-2.3822083081621317j]),
    (2, []),
    (3, [1.795860795975307-2.284008207284038j]),
    (4, [2.875644558497751-2.8279760902492863j]),
    (5, [
        1.3426287948447009-0.901191554722405j,
        2.2798566040065196-0.8239455488349583j,
        3.1955063568108564-2.1422960950270555j,
        5.099834600201695-2.2060536400769353j,
        5.806384566965477-1.9123296667849818j,
    ]),
    (6, [0.28094118131142337-2.3745549916679685j, 3.627850335412403-2.171884338668691j]),
    (7, [3.3563665948632-0.8275668027163195j]),
    (11, [1.4463914957396116-1.5357179455684316j, 4.269445378823284-2.4960814217510294j]),
    (12, [2.2713298003377256-2.571157047976941j, 5.092608016471468-2.1210828953053777j]),
    (15, [0.34896201584053266-2.1949442451681693j, 4.953589153176085-2.4701990967864207j]),
    (16, [3.1080326624237347-1.4843651682384027j, 5.732718631348124-2.661488778481816j]),
    (18, [0.644307411111929-0.7461001509639328j, 4.657400835658942-2.793887286670657j]),
    (19, [
        1.4593952112435251-0.33136577429265923j,
        2.334851051047849-0.9634094995239606j,
        5.916066450013314-1.0533017530242492j,
    ]),
    (20, []),
    (21, [2.3116402465731287-1.6617908025184254j, 4.459625828985531-2.044200053540997j]),
    (24, [1.3838830177957346-1.6226082140855826j, 5.657819961045022-1.1349233017617029j]),
    (26, [2.182766496900817-2.0097404109924093j, 5.170201075474355-2.0863093779416957j]),
    (27, [0.9530398487167245-1.328959815504778j, 5.029063342599312-2.3300158774849646j]),
    (28, [1.8776143092564619-1.2119381234198057j, 5.120539276404285-1.7062992292162853j]),
]


@pytest.mark.parametrize("seed, zeros", PLAIN_GOLDEN)
def test_find_resonances_unchanged(seed, zeros):
    rng = np.random.default_rng([seed, 4])
    cfg = random_configuration(4, rng)
    a = rng.normal(size=4)
    if seed % 2 == 0:
        a = a + 1j * rng.normal(size=4)
    epoly, _ = expand(a, cfg)
    found = find_resonances(
        epoly.value_and_derivative, Rectangle(0, 6, -3, 0), freq_scale=epoly.effective_size
    )
    assert [(r.multiplicity, r.is_cluster) for r in found] == [(1, False)] * len(zeros)
    np.testing.assert_allclose([r.location for r in found], zeros, rtol=0, atol=1e-10)
