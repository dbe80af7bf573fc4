"""Zero counting and localization by the argument principle.

Every routine takes one callable fdf(z) -> (f(z), f'(z)) that accepts a
complex scalar or ndarray, such as ExpoPolynomial.value_and_derivative.
Counts are winding numbers (1/2 pi i) * contour integral of f'/f, evaluated
by trapezoid quadrature with nested point doubling (each level evaluates
only the nodes the previous level lacks) until the raw value sits within
1e-3 of an integer (_contours._RESIDUAL_TOL) and the rounded count
stabilizes.

Counts are of the closed region: a zero on the boundary of a disk or a
rectangle belongs to it.  A zero on or very near the contour "hugs" it and
keeps the trapezoid sum from converging (or, for two such zeros, lets
their half-windings add up to an integer).  From the second level on, a
level that does not settle, or settles with a node whose Newton step
|f/f'| is at most three quarters of a node spacing, runs Newton from the
nodes whose Newton step is a local minimum along the contour and that
short; a zero located within a quarter of the current node spacing of the
contour stops the doubling (so does a sample of f that vanishes).  The
count is then taken on two contours moved outward and inward by delta: the
hugged contour's initial node spacing h, grown by h/2 until every located
zero is at least h/2 from both.  The zeros between the two moved contours
are located by Newton from the nodes of all three (their multiplicities
come from small disks when the counts ask for it), and each is added by
whether it lies in the closed region.  A disk count then reports the
outer moved radius as its contour_radius.

Localization quadrisects a rectangle, recursing on subcounts.  A root
region hugged by zeros is padded outward by delta, searched whole, and the
zeros found outside the closed region are dropped.  A split line that
children hug is moved off the located zeros.  Singleton boxes are polished
by Newton iteration (at most _NEWTON_MAX_ITER steps) and unresolved
multi-zero boxes at depth _MAX_DEPTH are reported as clusters with their
total multiplicity.

Inputs the quadrature cannot use raise ValidationError: a circle or a
rectangle that is not finite (or a radius <= 0), and a freq_scale that is
not finite or is < 0.  A contour whose first two levels need more than
_contours._MAX_POINTS nodes (2^22) raises QuadratureDivergence before any
evaluation, naming the nodes needed and the budget.

fdf sees a circle's nodes in conjugate pairs about its center, each pair
sharing Re z bit for bit, and a rectangle's vertical edges as runs of
equal Re z; ExpoPolynomial.value_and_derivative takes one phase row
e^{i b Re z} per run.  Any fdf works: the order of the nodes only changes
the rounding of the sum.

The contour shapes (Circle, and Rectangle, which this module re-exports),
the one refinement loop that serves both, the search for hugging zeros
and the moved contours live in _contours; this module holds the public
API, its input checks and the quadrisection.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _contours
from ._contours import Rectangle
from .errors import QuadratureDivergence, ValidationError
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, expand
from .geometry import Configuration

# Quadrisection depth: a box still holding several zeros after this many
# splits (sides about 2^-14 of the region's) is reported as a cluster.
_MAX_DEPTH = 14
# Newton polishing limits.
_NEWTON_MAX_ITER = 50
_NEWTON_STEP_TOL = 1e-12


@dataclass(frozen=True)
class ZeroCount:
    """Argument-principle count of zeros in one closed disk.

    quadrature_points counts every node evaluated for it (all contours);
    contour_radius is the radius the count rests on: radius itself, or the
    outer moved circle when zeros hug |z - center| = radius.
    """

    radius: float
    count: int
    winding_residual: float
    quadrature_points: int
    contour_radius: float


@dataclass(frozen=True)
class Resonance:
    """A localized zero (or unresolved cluster) with multiplicity."""

    location: complex
    multiplicity: int
    residual: float
    is_cluster: bool = False


def _check_quadrature(freq_scale: float) -> None:
    """Reject what the quadrature cannot use: a node count must come from a
    finite freq_scale >= 0."""
    if not (0 <= freq_scale < math.inf):
        raise ValidationError(f"freq_scale must be finite and >= 0, got {freq_scale}")


def count_zeros_disk(
    fdf,
    radius: float,
    center: complex = 0.0,
    freq_scale: float = 1.0,
) -> ZeroCount:
    """Count zeros (with multiplicity) of f in the closed disk |z - center| <= radius.

    fdf(z) must return the pair (f(z), f'(z)) for a complex ndarray z.  The
    initial grid resolves oscillation at scale freq_scale * radius and is
    doubled (evaluating only the new nodes) until the rounded winding
    number repeats and the residual drops below 1e-3.  Zeros that
    hug the circle are located and attributed by where they lie (see the
    module docstring); contour_radius is then the outer moved radius.
    """
    _check_quadrature(freq_scale)
    count, residual, points, contour = _contours.closed_count(
        fdf, _contours.Circle(center, radius), freq_scale
    )
    return ZeroCount(radius, count, residual, points, contour.radius)


def count_zeros_rect(fdf, rect: Rectangle, freq_scale: float = 1.0) -> int:
    """Count zeros of f in the closed rectangle; fdf(z) returns (f(z), f'(z)).

    Zeros that hug the boundary are located and attributed by where they
    lie (see the module docstring).
    """
    _check_quadrature(freq_scale)
    return _contours.closed_count(fdf, rect, freq_scale)[0]


def newton_polish(fdf, z0: complex):
    """Newton iteration on f from z0, with fdf(z) = (f(z), f'(z));
    returns (z, converged)."""
    z = complex(z0)
    for _ in range(_NEWTON_MAX_ITER):
        fz, dfz = fdf(z)
        if fz == 0:
            return z, True
        dfz = complex(dfz)
        if dfz == 0 or not np.isfinite(dfz):
            return z, False
        step = complex(fz) / dfz
        z -= step
        if not np.isfinite(z):
            return z, False
        if abs(step) <= _NEWTON_STEP_TOL * (1 + abs(z)):
            return z, True
    return z, False


def _newton_in_box(fdf, box: Rectangle):
    diag = box.size()
    for z0 in (box.center,) + box.corners:
        z, ok = newton_polish(fdf, z0)
        if ok and box.contains(z, pad=1e-9 * diag):
            return z
    return None


def _newton_common_point(fdf, box: Rectangle):
    """Common Newton limit from the box corners and center, if any."""
    diag = box.size()
    points = []
    for z0 in (box.center,) + box.corners:
        z, ok = newton_polish(fdf, z0)
        if not ok:
            return None
        points.append(z)
    ref = points[0]
    if all(abs(p - ref) <= 1e-8 * (1 + abs(ref)) for p in points) and box.contains(
        ref, pad=diag
    ):
        return ref
    return None


def _split_line(lo: float, hi: float, coords, h: float, skip: int) -> float | None:
    """A split coordinate at least h / 2 from every one of coords: the
    skip-th such point of the grid (lo + hi) / 2 + j h / 2, j = 0, 1, -1, 2,
    -2, ..., within the middle half of [lo, hi] (None past it)."""
    mid = (lo + hi) / 2
    for j in itertools.count():
        offset = (j + 1) // 2 * (1 if j % 2 else -1) * h / 2
        if abs(offset) > (hi - lo) / 4:
            return None
        x = mid + offset
        if all(abs(x - c) >= h / 2 for c in coords):
            if skip == 0:
                return x
            skip -= 1


def _split_box(fdf, box: Rectangle, count: int, freq_scale: float):
    """Quadrisect box into four children whose counts add up to count.

    The split lines start at the midlines and move off every zero located
    near them (_split_line, with h the children's initial node spacing).
    A child's node spacing is at most its parent's, so zeros hug a child
    only near a split line; a hug that locates no zero there, a child that
    does not settle, or counts that do not add up move the lines one grid
    step further.
    """
    # a child's spacing before the split lines move: a quarter of box
    h = Rectangle(0.0, box.width / 2, 0.0, box.height / 2).spacing(freq_scale)
    zeros, skip = [], 0
    for _ in range(_contours.MAX_MOVES):
        xm = _split_line(box.re_min, box.re_max, [w.real for w in zeros], h, skip)
        ym = _split_line(box.im_min, box.im_max, [w.imag for w in zeros], h, skip)
        if xm is None or ym is None:
            break
        children = (
            Rectangle(box.re_min, xm, box.im_min, ym),
            Rectangle(xm, box.re_max, box.im_min, ym),
            Rectangle(box.re_min, xm, ym, box.im_max),
            Rectangle(xm, box.re_max, ym, box.im_max),
        )
        try:
            counts = [_contours.winding(fdf, c, freq_scale)[0] for c in children]
        except _contours.Hugged as hug:
            zeros = _contours.merge(zeros, hug.zeros)
            near = any(min(abs(w.real - xm), abs(w.imag - ym)) < h / 2 for w in hug.zeros)
            skip += not near
            continue
        except QuadratureDivergence:
            skip += 1
            continue
        if sum(counts) == count:
            return list(zip(children, counts))
        skip += 1
    raise QuadratureDivergence(
        f"could not split {box} consistently (count {count}); "
        f"zeros located near its split lines: {_contours.fmt(zeros)}",
        where=box,
    )


def find_resonances(fdf, region: Rectangle, freq_scale: float = 1.0) -> list[Resonance]:
    """Locate the zeros of f in the closed rectangle region; fdf(z) returns
    (f(z), f'(z)).

    Recursive quadrisection by argument-principle counts: single-zero boxes
    are polished by Newton iteration; boxes still holding several zeros at
    depth _MAX_DEPTH are reported with is_cluster=True (at the box center) unless
    Newton converges to one common point from the box corners, in which
    case that point carries the whole multiplicity.  When zeros hug the
    boundary, the search runs on the region padded clear of them and keeps
    what lies in the closed region.  Total multiplicity always equals the
    closed-region count.
    """
    _check_quadrature(freq_scale)
    try:
        count = _contours.winding(fdf, region, freq_scale)[0]
        root = region
    except _contours.Hugged as hug:
        if not hug.zeros:
            raise _contours.no_zero_located(region) from None
        _, (root,), (count,), *_ = _contours.moved_counts(
            fdf, region, hug, (1,), freq_scale
        )

    out: list[Resonance] = []
    stack = [(root, count, 0)]
    while stack:
        box, c, depth = stack.pop()
        if c == 0:
            continue
        if c == 1:
            z = _newton_in_box(fdf, box)
            if z is not None:
                out.append(Resonance(z, 1, abs(complex(fdf(z)[0])), False))
                continue
        if depth >= _MAX_DEPTH:
            z = _newton_common_point(fdf, box)
            if z is not None:
                out.append(Resonance(z, c, abs(complex(fdf(z)[0])), False))
            else:
                zc = box.center
                out.append(Resonance(zc, c, abs(complex(fdf(zc)[0])), True))
            continue
        for child, cc in _split_box(fdf, box, c, freq_scale):
            stack.append((child, cc, depth + 1))
    if root is not region:
        pad = _contours.ON_BOUNDARY * region.size()
        out = [r for r in out if region.signed_distance(r.location) <= pad]
    out.sort(key=lambda r: (r.location.real, r.location.imag))
    return out


def counting_function(
    strengths,
    config: Configuration,
    radii,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
) -> list[ZeroCount]:
    """Zero counts of the expanded determinant in disks |z| < R.

    Radii must be strictly increasing; counts are nondecreasing since the
    disks are nested.  Radii are checked before the expansion
    (`_check_radii`).
    """
    radii = _check_radii(radii)
    epoly, _ = expand(strengths, config, freq_tol=freq_tol, cancel_tol=cancel_tol)
    return _disk_counts(epoly, radii)


def _check_radii(radii) -> list[float]:
    """The radii as floats; ValidationError unless each is finite and > 0
    and they strictly increase."""
    try:
        radii = [float(r) for r in radii]
    except (TypeError, ValueError):
        raise ValidationError(f"radii must be real numbers, got {radii!r}") from None
    if not all(0 < r < math.inf for r in radii):
        raise ValidationError(f"radii must be finite and > 0, got {radii}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly increasing")
    return radii


def _disk_counts(epoly, radii) -> list[ZeroCount]:
    """counting_function's disk counts on an expansion the caller already
    made, so that classify sweeps S_N once; the caller has checked the
    radii (`_check_radii`)."""
    scale = max(epoly.effective_size, 1e-3)
    return [count_zeros_disk(epoly.value_and_derivative, r, freq_scale=scale) for r in radii]
