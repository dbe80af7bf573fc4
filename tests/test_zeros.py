import numpy as np
import pytest

from resonance_sizer import (
    Rectangle,
    ValidationError,
    count_zeros_disk,
    count_zeros_rect,
    counting_function,
    expand,
    find_resonances,
    newton_polish,
    random_configuration,
    size_v,
    zero_frequency_polynomial,
)


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
    assert total == count_zeros_rect(fdf, region.expanded(1 + 1e-6), freq_scale=2.0)


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
    assert zc.contour_radius == 40.0 and zc.quadrature_points > 640
    # n points for a stop at n, not n0 + 2 n0 + ...
    assert len(spy.points) == zc.quadrature_points
    n = zc.quadrature_points
    expected = 40.0 * np.exp(1j * (2 * np.pi * np.arange(n) / n))
    np.testing.assert_array_equal(np.sort_complex(spy.points), np.sort_complex(expected))


def test_disk_nudge_evaluates_each_radius_once():
    calls = []  # (radius, points) per call; a nudged contour needs ~4M points

    def fdf(z):
        calls.append((round(abs(z.flat[0]), 9), z.size))
        return z - 1.0, np.ones_like(z)

    zc = count_zeros_disk(fdf, 1.0)
    assert zc.contour_radius > 1.0
    per_radius = {}
    for r, size in calls:
        per_radius[r] = per_radius.get(r, 0) + size
    # the circle through the zero trips the guard on its first level
    assert per_radius[1.0] == 256
    assert per_radius[round(zc.contour_radius, 9)] == zc.quadrature_points
    # each circle evaluates exactly the nodes of the last level it reached
    for total in per_radius.values():
        assert total % 256 == 0 and (total // 256).bit_count() == 1


def test_rect_evaluates_each_edge_node_once():
    rect = Rectangle(-1, 1, -1, 1.3)
    spy = Spy(quad)
    assert count_zeros_rect(spy, rect) == 2
    points = spy.points
    assert len(np.unique(points)) == len(points)
    # one call per level, each doubling every edge's node count exactly
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
