"""Zero counting and localization by the argument principle.

Every routine takes one callable fdf(z) -> (f(z), f'(z)) that accepts a
complex scalar or ndarray, such as ExpoPolynomial.value_and_derivative.
Counts are winding numbers (1/2 pi i) * contour integral of f'/f, evaluated
by trapezoid quadrature with nested point doubling (each level evaluates
only the nodes the previous level lacks) until the raw value sits within
a fixed residual of an integer and the rounded count stabilizes.  A zero on
(or hugging) the contour shows up either as a vanishing |f| sample or as a
residual stalled near a half-integer; both trigger a contour nudge.
Localization quadrisects a rectangle, recursing on subcounts; singleton
boxes are polished by Newton iteration and unresolved multi-zero boxes at
maximum depth are reported as clusters with their total multiplicity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughZero, QuadratureDivergence, ValidationError
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, expand
from .geometry import Configuration

# Raw winding integrals must land this close to an integer.
DEFAULT_RESIDUAL_TOL = 1e-3
# Contour samples with |f| below this fraction of the median trigger a nudge.
_CONTOUR_GUARD = 1e-12
_MAX_NUDGES = 5
# Hard budget of quadrature points per disk contour.
_MAX_POINTS = 1 << 22
# Disk contour nodes evaluated per call, so only |f| is held for a level.
_CHUNK = 1 << 11
# Doubling budget per rectangle contour (failures are retried with moved
# edges, so a tight budget keeps bad splits cheap).
_RECT_DOUBLINGS = 12
# Consecutive stable-but-nonintegral refinements before declaring the
# contour to run through a zero.
_STALL_LIMIT = 3
# Newton polishing limits.
_NEWTON_MAX_ITER = 50
_NEWTON_STEP_TOL = 1e-12


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValidationError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.re_max - self.re_min

    @property
    def height(self) -> float:
        return self.im_max - self.im_min

    @property
    def center(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )

    def expanded(self, factor: float) -> "Rectangle":
        c = self.center
        w = self.width * factor / 2
        h = self.height * factor / 2
        return Rectangle(c.real - w, c.real + w, c.imag - h, c.imag + h)


@dataclass(frozen=True)
class ZeroCount:
    """Argument-principle count of zeros inside one contour."""

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


def _is_stalled(history: list[complex]) -> bool:
    if len(history) < _STALL_LIMIT + 1:
        return False
    recent = history[-(_STALL_LIMIT + 1):]
    residuals = [abs(r - round(r.real)) for r in recent]
    steps = [abs(a - b) for a, b in zip(recent, recent[1:])]
    return all(0.15 <= r <= 0.85 for r in residuals) and all(s <= 0.02 for s in steps)


def _settle(levels, residual_tol: float, where) -> tuple[int, float, int]:
    """Refine a contour until its winding number settles.

    levels yields (points, raw winding number) per refinement, raw None
    once a sample of f vanished.  Returns (count, residual, points) as soon
    as the rounded count repeats with a residual <= residual_tol.  Raises
    ContourThroughZero for a vanishing sample or a residual stalled
    off-integer, and QuadratureDivergence when the levels run out.
    """
    history: list[complex] = []
    for points, raw in levels:
        if raw is None:
            raise ContourThroughZero(f"zero on the boundary of {where}", where=where)
        history.append(raw)
        if len(history) >= 2:
            count = int(round(raw.real))
            residual = abs(raw - count)
            if count == int(round(history[-2].real)) and residual <= residual_tol:
                return count, residual, points
        if _is_stalled(history):
            raise ContourThroughZero(f"winding stalled off-integer on {where}", where=where)
    raise QuadratureDivergence(f"winding number did not stabilize on {where}", where=where)


def _contour_values(fdf, z: np.ndarray):
    """f and f' on the nodes z, as complex arrays."""
    fv, dfv = fdf(z)
    return np.asarray(fv, dtype=complex), np.asarray(dfv, dtype=complex)


def _guard_trips(absf: np.ndarray) -> bool:
    """True when some contour sample of f is negligible against the median."""
    return bool(absf.min() < _CONTOUR_GUARD * np.median(absf))


def _disk_levels(fdf, center: complex, r: float, n: int):
    """Yield (n, raw winding number) for n, 2n, 4n, ... <= _MAX_POINTS nodes
    on |z - center| = r.

    The nodes 2 pi k / n of one level are bit-identical to the even nodes
    2 pi (2k) / (2n) of the next, so each level evaluates only its odd
    nodes, _CHUNK at a time, and adds them to a running integrand sum; only
    |f| is kept for every node, for the median guard.  Yields None for the
    raw value when a sample of f vanishes against the median or the sum is
    not finite, and then stops.
    """
    total = 0.0 + 0.0j
    absf = np.empty(0)
    start, step = 0, 1
    while n <= _MAX_POINTS:
        parts = [absf]
        for lo in range(start, n, step * _CHUNK):
            k = np.arange(lo, min(n, lo + step * _CHUNK), step)
            unit = np.exp(1j * (2 * np.pi * k / n))
            fv, dfv = _contour_values(fdf, center + r * unit)
            parts.append(np.abs(fv))
            with np.errstate(all="ignore"):
                total += complex(np.sum(dfv / fv * unit)) * r
        absf = np.concatenate(parts)
        if _guard_trips(absf):
            yield n, None
            return
        raw = total / n
        if not np.isfinite(raw):
            yield n, None
            return
        yield n, raw
        start, step, n = 1, 2, 2 * n


def count_zeros_disk(
    fdf,
    radius: float,
    center: complex = 0.0,
    freq_scale: float = 1.0,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> ZeroCount:
    """Count zeros (with multiplicity) of f in the disk |z - center| < radius.

    fdf(z) must return the pair (f(z), f'(z)) for a complex ndarray z.  The
    initial grid resolves oscillation at scale freq_scale * radius and is
    doubled (evaluating only the new nodes) until the rounded winding
    number repeats and the residual drops below residual_tol.  A contour
    running through a zero is nudged upward by parts in 1e-6 before giving
    up, so zeros within the nudge scale of the boundary are attributed by
    the nudged contour.
    """
    if not (radius > 0):
        raise ValidationError(f"radius must be positive, got {radius}")
    saw_zero_signal = False
    for k in range(_MAX_NUDGES + 1):
        r = radius * (1 + 1e-6 * k)
        n0 = max(256, int(math.ceil(8 * r * freq_scale)))
        levels = _disk_levels(fdf, center, r, n0)
        try:
            count, residual, n = _settle(levels, residual_tol, r)
        except ContourThroughZero:
            saw_zero_signal = True
            continue
        except QuadratureDivergence:
            # budget exhaustion also falls through to the next nudge: a zero
            # just inside the contour slows trapezoid convergence the same
            # way a zero on it does
            continue
        return ZeroCount(radius, count, residual, n, r)
    if saw_zero_signal:
        raise ContourThroughZero(
            f"contour |z - {center}| = {radius} passes through a zero "
            f"(after {_MAX_NUDGES} nudges)",
            where=radius,
        )
    raise QuadratureDivergence(
        f"winding number did not stabilize on |z - {center}| = {radius} "
        f"within {_MAX_POINTS} points per contour",
        where=radius,
    )


def _rect_levels(fdf, rect: Rectangle, per_unit: float, min_points: int):
    """Yield (nodes, raw winding number) on the boundary of rect, level by level.

    Edge e starts with n_e = max(min_points, ceil(per_unit * length)) panels
    and every level doubles each n_e exactly.  Edge nodes are
    a + (b - a) * k / n_e for k < n_e (the end corner is the next edge's
    first node), so each node is evaluated once and later levels evaluate
    only the odd k of the doubled grid, all four edges in one call.  The
    trapezoid sum per edge is h_e * (sum over its nodes - g(a) / 2 +
    g(b) / 2).  Yields None for the raw value when a sample of f vanishes
    against the median or the sum is not finite, and then stops.
    """
    corners = rect.corners
    sides = [b - a for a, b in zip(corners, corners[1:] + corners[:1])]
    counts = [max(min_points, int(math.ceil(per_unit * abs(s)))) for s in sides]
    sums = [0j] * 4
    corner_g = None
    absf = np.empty(0)
    start, step = 0, 1
    while True:
        ks = [np.arange(start, n, step) for n in counts]
        z = np.concatenate([a + s * (k / n) for a, s, k, n in zip(corners, sides, ks, counts)])
        fv, dfv = _contour_values(fdf, z)
        absf = np.concatenate([absf, np.abs(fv)])
        if _guard_trips(absf):
            yield len(absf), None
            return
        with np.errstate(all="ignore"):
            edges = np.split(dfv / fv, np.cumsum([len(k) for k in ks[:-1]]))
        if corner_g is None:
            corner_g = [complex(g[0]) for g in edges]
        sums = [total + complex(g.sum()) for total, g in zip(sums, edges)]
        ends = corner_g[1:] + corner_g[:1]
        raw = sum(
            side / n * (total + (g_b - g_a) / 2)
            for side, n, total, g_a, g_b in zip(sides, counts, sums, corner_g, ends)
        ) / (2j * np.pi)
        if not np.isfinite(raw):
            yield len(absf), None
            return
        yield len(absf), raw
        start, step = 1, 2
        counts = [2 * n for n in counts]


def count_zeros_rect(
    fdf,
    rect: Rectangle,
    freq_scale: float = 1.0,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> int:
    """Count zeros of f inside a rectangle; fdf(z) returns (f(z), f'(z)).

    Raises ContourThroughZero when a zero sits on (or hugs) the boundary;
    callers own the geometry and retry with moved edges.
    """
    levels = _rect_levels(fdf, rect, 8 * freq_scale, 64)
    return _settle(itertools.islice(levels, _RECT_DOUBLINGS), residual_tol, rect)[0]


def newton_polish(fdf, z0: complex, max_iter: int = _NEWTON_MAX_ITER):
    """Newton iteration on f from z0, with fdf(z) = (f(z), f'(z));
    returns (z, converged)."""
    z = complex(z0)
    for _ in range(max_iter):
        fz, dfz = fdf(z)
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
    diag = math.hypot(box.width, box.height)
    for z0 in (box.center,) + box.corners:
        z, ok = newton_polish(fdf, z0)
        if ok and box.contains(z, pad=1e-9 * diag):
            return z
    return None


def _newton_common_point(fdf, box: Rectangle):
    """Common Newton limit from the box corners and center, if any."""
    diag = math.hypot(box.width, box.height)
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


# Deterministic split-line shift sequence (fractions of the box size) used
# when a zero lands on a proposed subdivision line.
_SPLIT_SHIFTS = (0.0, 1e-3, -1e-3, 3.7e-3, -3.7e-3, 7.1e-3)


def _split_box(fdf, box: Rectangle, count: int, freq_scale: float, residual_tol: float):
    for shift in _SPLIT_SHIFTS:
        xm = (box.re_min + box.re_max) / 2 + shift * box.width
        ym = (box.im_min + box.im_max) / 2 + shift * box.height
        children = (
            Rectangle(box.re_min, xm, box.im_min, ym),
            Rectangle(xm, box.re_max, box.im_min, ym),
            Rectangle(box.re_min, xm, ym, box.im_max),
            Rectangle(xm, box.re_max, ym, box.im_max),
        )
        try:
            counts = [
                count_zeros_rect(fdf, child, freq_scale, residual_tol)
                for child in children
            ]
        except (ContourThroughZero, QuadratureDivergence):
            continue
        if sum(counts) == count:
            return list(zip(children, counts))
    raise QuadratureDivergence(
        f"could not split {box} consistently (count {count})", where=box
    )


def find_resonances(
    fdf,
    region: Rectangle,
    max_depth: int = 14,
    freq_scale: float = 1.0,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[Resonance]:
    """Locate the zeros of f in a rectangle; fdf(z) returns (f(z), f'(z)).

    Recursive quadrisection by argument-principle counts: single-zero boxes
    are polished by Newton iteration; boxes still holding several zeros at
    max_depth are reported with is_cluster=True (at the box center) unless
    Newton converges to one common point from the box corners, in which
    case that point carries the whole multiplicity.  Total multiplicity
    always equals the region count.
    """
    root = count = None
    for k in range(_MAX_NUDGES + 1):
        candidate = region if k == 0 else region.expanded(1 + 1e-6 * k)
        try:
            count = count_zeros_rect(fdf, candidate, freq_scale, residual_tol)
            root = candidate
            break
        except (ContourThroughZero, QuadratureDivergence):
            continue
    if root is None:
        raise ContourThroughZero(
            f"zeros on the boundary of {region} persist after nudging", where=region
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
        if depth >= max_depth:
            z = _newton_common_point(fdf, box)
            if z is not None:
                out.append(Resonance(z, c, abs(complex(fdf(z)[0])), False))
            else:
                zc = box.center
                out.append(Resonance(zc, c, abs(complex(fdf(zc)[0])), True))
            continue
        for child, cc in _split_box(fdf, box, c, freq_scale, residual_tol):
            stack.append((child, cc, depth + 1))
    out.sort(key=lambda r: (r.location.real, r.location.imag))
    return out


def counting_function(
    strengths,
    config: Configuration,
    radii,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> list[ZeroCount]:
    """Zero counts of the expanded determinant in disks |z| < R.

    Radii must be strictly increasing; counts are nondecreasing since the
    disks are nested.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValidationError("radii must be strictly increasing")
    epoly, _ = expand(strengths, config, freq_tol=freq_tol, cancel_tol=cancel_tol)
    scale = max(epoly.effective_size, 1e-3)
    return [
        count_zeros_disk(epoly.value_and_derivative, r, freq_scale=scale, residual_tol=residual_tol)
        for r in radii
    ]
