"""Winding-number quadrature on one contour, and the zeros that hug it.

A contour is a Circle or a Rectangle.  Each shape lays out its trapezoid
nodes level by level (node_levels): the nodes a level adds, their weights
dz / (2 pi i), the level's node spacing, and as many levels as the shape's
budget allows.  One refinement loop (winding) sums f'/f against those
weights for both shapes, level by level, until the count settles within
_RESIDUAL_TOL of an integer, or raises Hugged with the zeros it located;
the zeros module docstring describes the method.  moved_counts() counts on
contours moved clear of them, and closed_count() attributes them to the
closed region.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughZero, EvaluationOverflow, QuadratureDivergence, ValidationError

# Raw winding numbers must land this close to an integer: any value below
# 0.5 pins the count to one integer, and this one also asks that the
# trapezoid sum has converged.
_RESIDUAL_TOL = 1e-3
# Contour samples with |f| below this fraction of the median stop the count.
_CONTOUR_GUARD = 1e-12
# Node budget of a circle: its last level has at most this many nodes.
_MAX_POINTS = 1 << 22
# Contour nodes per fdf call.  This bounds only the per-call temporaries
# (the evaluation kernel's blocks, f, f' and f'/f); Nodes keeps t, z and the
# Newton step of every node, and |f| is kept for the median guard.
_CHUNK = 1 << 11
# Level budget of a rectangle.
_RECT_LEVELS = 12
# A located zero closer to a contour than this fraction of the current node
# spacing hugs it: doubling until the spacing resolves it would cost about
# log2(spacing / distance) more levels, while a zero a quarter spacing away
# settles within three.
_HUG = 0.25
# Newton starts per search for zeros near a contour.
_LOCATE_STARTS = 8
# Moved contours (or split lines) tried per hugged contour before giving up.
MAX_MOVES = 4
# A located zero this close to a boundary, relative to the contour's size,
# lies on it: Newton stops at relative steps of 1e-12, so a zero on the
# boundary may land that far to either side.
ON_BOUNDARY = 1e-9
# e^{b |Im z|} overflows a double past this exponent.
_LOG_DBL_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class Circle:
    """The circle |z - center| = radius, bounding a closed disk."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and 0 < self.radius < math.inf):
            raise ValidationError(f"a circle needs a finite center and radius > 0: {self!r}")

    def size(self) -> float:
        return self.radius

    def padded(self, delta: float) -> "Circle | None":
        r = self.radius + delta
        return Circle(self.center, r) if r > 0 else None

    def signed_distance(self, z: complex) -> float:
        return abs(z - self.center) - self.radius

    def node_levels(self, freq_scale: float):
        """Yield (t, z, w, spacing) per level: the nodes the level adds, with
        parameter t = k / n, position z = center + r e^{2 pi i t} and weight
        dz / (2 pi i) = r e^{2 pi i t} / n, and the level's node spacing.

        n starts at 8 r freq_scale (at least 256) and doubles while
        n <= _MAX_POINTS.  The nodes 2 pi k / n of one level are
        bit-identical to the even nodes 2 pi (2k) / (2n) of the next, so
        each later level adds only its odd k.
        """
        r = self.radius
        n = max(256, math.ceil(8 * r * freq_scale))
        start, step = 0, 1
        while n <= _MAX_POINTS:
            k = np.arange(start, n, step)
            unit = np.exp(1j * (2 * np.pi * k / n))
            yield k / n, self.center + r * unit, r * unit / n, 2 * np.pi * r / n
            start, step, n = 1, 2, 2 * n

    def __str__(self) -> str:
        return f"|z - {self.center}| = {self.radius!r}"


def _edge_panels(length: float, freq_scale: float) -> int:
    """Initial trapezoid panels on a rectangle edge of this length."""
    return max(64, math.ceil(8 * freq_scale * length))


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned closed rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        bounds = (self.re_min, self.re_max, self.im_min, self.im_max)
        if not all(math.isfinite(x) for x in bounds):
            raise ValidationError(f"rectangle bounds must be finite: {self}")
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

    def size(self) -> float:
        """The diagonal."""
        return math.hypot(self.width, self.height)

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.re_min - pad <= z.real <= self.re_max + pad
            and self.im_min - pad <= z.imag <= self.im_max + pad
        )

    def padded(self, delta: float) -> "Rectangle | None":
        """Every edge moved outward by delta (inward for delta < 0); None
        when nothing is left."""
        if 2 * delta <= -min(self.width, self.height):
            return None
        return Rectangle(
            self.re_min - delta, self.re_max + delta, self.im_min - delta, self.im_max + delta
        )

    def signed_distance(self, z: complex) -> float:
        """Distance from z to the boundary, negative inside."""
        dx = max(self.re_min - z.real, z.real - self.re_max)
        dy = max(self.im_min - z.imag, z.imag - self.im_max)
        if dx <= 0 and dy <= 0:
            return max(dx, dy)
        return math.hypot(max(dx, 0.0), max(dy, 0.0))

    def spacing(self, freq_scale: float) -> float:
        """Node spacing of the first level: the widest panel of any edge."""
        return max(side / _edge_panels(side, freq_scale) for side in (self.width, self.height))

    def node_levels(self, freq_scale: float):
        """Yield (t, z, w, spacing) per level, for _RECT_LEVELS levels: the
        nodes the level adds, with parameter t, position z and weight
        dz / (2 pi i), and the level's node spacing.

        Edge e runs from corner e to corner e + 1 in n_e = _edge_panels
        panels of width h_e (complex), and every level doubles each n_e
        exactly.  Its nodes are corner_e + edge_e * k / n_e for k < n_e,
        with t = e + k / n_e, so each later level adds only the odd k.  A
        node inside edge e weighs h_e / (2 pi i).  Corner e ends edge e - 1
        and starts edge e, so it weighs (h_e + h_{e-1}) / 2 / (2 pi i).
        """
        corners = self.corners
        sides = [b - a for a, b in zip(corners, corners[1:] + corners[:1])]
        counts = [_edge_panels(abs(s), freq_scale) for s in sides]
        spacing = self.spacing(freq_scale)
        start, step = 0, 1
        for _ in range(_RECT_LEVELS):
            ks = [np.arange(start, n, step) for n in counts]
            t = np.concatenate([e + k / n for e, (k, n) in enumerate(zip(ks, counts))])
            z = np.concatenate([a + s * (k / n) for a, s, k, n in zip(corners, sides, ks, counts)])
            h = [s / n for s, n in zip(sides, counts)]
            w = np.repeat(h, [len(k) for k in ks])
            if start == 0:
                first = np.cumsum([0] + counts[:-1])
                w[first] = [(h[e] + h[e - 1]) / 2 for e in range(4)]
            yield t, z, w / (2j * np.pi), spacing
            start, step, spacing = 1, 2, spacing / 2
            counts = [2 * n for n in counts]


class Nodes:
    """Every node evaluated on one contour: its parameter t (increasing
    along the contour), position and Newton step |f/f'|; the largest node
    spacing of each level; and the zeros located from these nodes."""

    def __init__(self):
        self.t, self.z, self.step = [], [], []
        self.spacing: list[float] = []
        self.known: list[complex] = []

    def add(self, t: np.ndarray, z: np.ndarray, g: np.ndarray) -> None:
        """Record nodes with g = f'/f at each (errors ignored by the caller)."""
        step = 1.0 / np.abs(g)
        step[np.isnan(step)] = 0.0  # f = f' = 0: a multiple zero on a node
        self.t.append(t)
        self.z.append(z)
        self.step.append(step)

    @property
    def points(self) -> int:
        return sum(len(t) for t in self.t)


class Hugged(Exception):
    """Zeros located within a quarter node spacing of a contour (none when
    a sample of f vanished and Newton found no zero there)."""

    def __init__(self, zeros: list[complex], nodes: Nodes):
        super().__init__(zeros)
        self.zeros = zeros
        self.nodes = nodes


def fmt(zeros) -> str:
    return "[" + ", ".join(f"{complex(z):.10g}" for z in zeros) + "]"


def merge(zeros: list[complex], more) -> list[complex]:
    """zeros plus those of more that are not already in it."""
    out = list(zeros)
    for z in more:
        if not any(abs(z - w) <= 1e-8 * (1 + abs(w)) for w in out):
            out.append(z)
    return out


def locate(fdf, nodes: Nodes, contour, reach: float) -> list[complex]:
    """Zeros of f within reach of the contour, located by Newton.

    Starts are the nodes whose Newton step is a local minimum along the
    contour and at most reach plus half a node spacing (the nearest node to
    a zero within reach), smallest step first; a node is skipped when a zero
    located earlier lies within twice its step, since Newton from it would
    return that zero.  At most _LOCATE_STARTS starts per call.
    """
    from .zeros import newton_polish  # zeros imports this module

    t, z, step = (np.concatenate(a) for a in (nodes.t, nodes.z, nodes.step))
    order = np.argsort(t, kind="stable")
    s = step[order]
    limit = reach + nodes.spacing[-1] / 2
    local_min = (s <= np.roll(s, 1)) & (s <= np.roll(s, -1)) & (s <= limit)
    starts = order[local_min]
    starts = starts[np.argsort(step[starts], kind="stable")]
    tried = 0
    for i in starts:
        if any(abs(z[i] - w) <= 2 * step[i] for w in nodes.known):
            continue
        if tried == _LOCATE_STARTS:
            break
        tried += 1
        w, ok = newton_polish(fdf, complex(z[i]))
        if ok:
            nodes.known = merge(nodes.known, [w])
    return [w for w in nodes.known if abs(contour.signed_distance(w)) <= reach]


def _contour_values(fdf, z: np.ndarray, contour, freq_scale: float):
    """f and f' on the nodes z of contour, as complex arrays.

    Raises EvaluationOverflow when some value is not finite: on finite
    nodes that is an overflow, never a zero of f.
    """
    with np.errstate(all="ignore"):
        fv, dfv = fdf(z)
    fv, dfv = np.asarray(fv, dtype=complex), np.asarray(dfv, dtype=complex)
    bad = ~(np.isfinite(fv) & np.isfinite(dfv))
    if bad.any():
        im = float(np.abs(z[bad].imag).max())
        raise EvaluationOverflow(
            f"f or f' overflowed at {int(bad.sum())} of {len(z)} nodes on {contour}: "
            f"b*|Im z| reaches {freq_scale:.6g} * {im:.6g} = {freq_scale * im:.1f} there, "
            f"against a double-precision headroom of log(DBL_MAX) = {_LOG_DBL_MAX:.2f}",
            where=contour,
        )
    return fv, dfv


def _guard_trips(absf: np.ndarray) -> bool:
    """True when some contour sample of f is negligible against the median."""
    return bool(absf.min() < _CONTOUR_GUARD * np.median(absf))


def winding(fdf, contour, freq_scale: float):
    """(count, residual, nodes) for the zeros inside contour, refining it
    level by level of contour.node_levels(freq_scale).

    Every level doubles the nodes of the one before, so every earlier
    weight halves: the running sum of f'/f times the weights halves, and
    the level's new nodes are added to it, evaluated _CHUNK at a time.
    Every node goes into nodes, and |f| is kept for every node, for the
    median guard.  Returns as soon as the rounded count repeats with a
    residual <= _RESIDUAL_TOL.  Raises Hugged when a sample of f vanishes
    against the median or the sum is not finite, and for zeros located
    within _HUG node spacings of the contour after a level that did not
    settle or that settled with a node whose Newton step is that short;
    QuadratureDivergence when the levels run out.
    """
    nodes = Nodes()
    total, previous = 0j, None
    absf = np.empty(0)
    for t, z, w, spacing in contour.node_levels(freq_scale):
        parts, added = [absf], 0j
        for lo in range(0, len(z), _CHUNK):
            chunk = slice(lo, lo + _CHUNK)
            fv, dfv = _contour_values(fdf, z[chunk], contour, freq_scale)
            parts.append(np.abs(fv))
            with np.errstate(all="ignore"):
                g = dfv / fv
                added += complex(np.sum(g * w[chunk]))
                nodes.add(t[chunk], z[chunk], g)
        nodes.spacing.append(spacing)
        absf = np.concatenate(parts)
        total = total / 2 + added
        reach = _HUG * spacing
        if _guard_trips(absf) or not cmath.isfinite(total):
            raise Hugged(locate(fdf, nodes, contour, reach), nodes)
        count = int(round(total.real))
        if previous is not None:
            residual = abs(total - count)
            settled = count == previous and residual <= _RESIDUAL_TOL
            # A zero that close keeps a true sum far from an integer, so a
            # settled sum next to one is half-windings that cancel.
            near = min(float(s.min()) for s in nodes.step) <= reach + spacing / 2
            if not settled or near:
                hugging = locate(fdf, nodes, contour, reach)
                if hugging:
                    raise Hugged(hugging, nodes)
            if settled:
                return count, residual, nodes
        previous = count
    raise QuadratureDivergence(f"winding number did not stabilize on {contour}", where=contour)


def no_zero_located(contour) -> ContourThroughZero:
    return ContourThroughZero(
        f"a sample of f vanished on {contour} and Newton located no zero near it",
        where=contour,
    )


def moved_counts(fdf, contour, hug: Hugged, signs, freq_scale: float):
    """Counts on the hugged contour moved by s * delta, for s in signs.

    delta starts at the contour's initial node spacing h and grows by h / 2
    until every zero located so far is at least h / 2 from each moved
    contour, so each settles in about two levels.  A moved contour that
    zeros hug adds them and moves further.  Returns (delta, moved contours,
    counts, residual, zeros, points, nodes): a contour moved inward until
    nothing is left is None with count 0, zeros holds every zero located on
    the way, points the nodes evaluated by all contours, and nodes those of
    each moved contour.
    """
    h = hug.nodes.spacing[0]
    zeros, points = merge(hug.zeros, hug.nodes.known), hug.nodes.points
    delta, tried = h, []
    for _ in range(MAX_MOVES):
        while True:
            moved = [contour.padded(s * delta) for s in signs]
            if all(
                c is None or abs(c.signed_distance(w)) >= h / 2 for c in moved for w in zeros
            ):
                break
            delta += h / 2
        tried.append(delta)
        counts, residual, windings = [], 0.0, []
        try:
            for c in moved:
                n, res, nodes = winding(fdf, c, freq_scale) if c else (0, 0.0, None)
                points += nodes.points if nodes else 0
                counts.append(n)
                residual = max(residual, res)
                windings.append(nodes)
        except Hugged as more:
            points += more.nodes.points
            zeros = merge(zeros, more.zeros + more.nodes.known)
            delta += h / 2
            continue
        return delta, moved, counts, residual, zeros, points, windings
    raise ContourThroughZero(
        f"zeros {fmt(zeros)} hug {contour}; contours moved by "
        f"{', '.join(f'{d:.3g}' for d in tried)} from it were hugged in turn",
        where=contour,
    )


def multiplicities(fdf, band, h: float, freq_scale: float):
    """Zero counts of small disks around each located zero of band, radius
    at most h / 4 and 0.4 of the distance to the nearest other one.
    Returns (counts, points)."""
    counts, points = [], 0
    for i, w in enumerate(band):
        rho = min([h / 4] + [0.4 * abs(w - v) for j, v in enumerate(band) if j != i])
        try:
            n, _, nodes = winding(fdf, Circle(w, rho), freq_scale)
        except Hugged:
            raise ContourThroughZero(
                f"zeros crowd the located zero {w:.10g}: the disk of radius {rho:.3g} "
                "around it is hugged too",
                where=w,
            ) from None
        counts.append(n)
        points += nodes.points
    return counts, points


def closed_count(fdf, contour, freq_scale: float):
    """Zeros in the closed region bounded by contour, with multiplicity.
    Returns (count, residual, points, the contour the count rests on)."""
    try:
        n, residual, nodes = winding(fdf, contour, freq_scale)
        return n, residual, nodes.points, contour
    except Hugged as caught:
        hug = caught
    if not hug.zeros:
        raise no_zero_located(contour)
    delta, (inner, outer), (n_in, n_out), residual, zeros, points, windings = moved_counts(
        fdf, contour, hug, (-1, 1), freq_scale
    )
    # Every zero between the moved contours lies within delta of one of the
    # three, whose nodes locate it.
    for nodes, c in zip([hug.nodes, *windings], [contour, inner, outer]):
        if nodes is not None:
            zeros = merge(zeros, locate(fdf, nodes, c, delta))
    band = [
        w
        for w in zeros
        if outer.signed_distance(w) < 0 and (inner is None or inner.signed_distance(w) > 0)
    ]
    mult = [1] * len(band)
    if n_out - n_in != len(band):
        mult, more = multiplicities(fdf, band, hug.nodes.spacing[0], freq_scale)
        points += more
    if n_out - n_in != sum(mult):
        raise ContourThroughZero(
            f"zeros hug {contour}: {n_out - n_in} lie within {delta:.3g} of it, "
            f"but Newton located {fmt(band)} with multiplicities {mult}",
            where=contour,
        )
    pad = ON_BOUNDARY * contour.size()
    n = n_in + sum(m for w, m in zip(band, mult) if contour.signed_distance(w) <= pad)
    return n, residual, points, outer
