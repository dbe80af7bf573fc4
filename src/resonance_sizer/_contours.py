"""Winding-number quadrature on one contour, and the zeros that hug it.

The contour is a Circle or a zeros.Rectangle; the zeros module docstring
describes the method.  winding() takes one winding number or raises Hugged
with the zeros it located; moved_counts() counts on contours moved clear of
them, and closed_count() attributes them to the closed region.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughZero, QuadratureDivergence

# Contour samples with |f| below this fraction of the median stop the count.
_CONTOUR_GUARD = 1e-12
# Hard budget of quadrature points per disk contour.
_MAX_POINTS = 1 << 22
# Disk contour nodes evaluated per call, so only |f| is held for a level.
_CHUNK = 1 << 11
# Doubling budget per rectangle contour.
_RECT_DOUBLINGS = 12
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


@dataclass(frozen=True)
class Circle:
    """The circle |z - center| = radius, bounding a closed disk."""

    center: complex
    radius: float

    def padded(self, delta: float) -> "Circle | None":
        r = self.radius + delta
        return Circle(self.center, r) if r > 0 else None

    def signed_distance(self, z: complex) -> float:
        return abs(z - self.center) - self.radius

    def __str__(self) -> str:
        return f"|z - {self.center}| = {self.radius!r}"


def size(contour) -> float:
    """Radius of a Circle, diagonal of a rectangle."""
    if isinstance(contour, Circle):
        return contour.radius
    return math.hypot(contour.width, contour.height)


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
    a sample of f vanished or overflowed and Newton found no zero there)."""

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


def settle(fdf, levels, nodes: Nodes, contour, residual_tol: float):
    """Refine a contour until its winding number settles.

    levels yields (points, raw winding number) per refinement, raw None
    once a sample of f vanished or the sum overflowed, and records its
    nodes in nodes.  Returns (count, residual) as soon as the rounded count
    repeats with a residual <= residual_tol.  Raises Hugged for a raw None,
    and for zeros located within _HUG node spacings of the contour after a
    level that did not settle or that settled with a node whose Newton step
    is that short; QuadratureDivergence when the levels run out.
    """
    previous = None
    for _, raw in levels:
        reach = _HUG * nodes.spacing[-1]
        if raw is None:
            raise Hugged(locate(fdf, nodes, contour, reach), nodes)
        if previous is not None:
            count = int(round(raw.real))
            residual = abs(raw - count)
            settled = count == int(round(previous.real)) and residual <= residual_tol
            # A zero that close keeps a true sum far from an integer, so a
            # settled sum next to one is half-windings that cancel.
            near = min(float(s.min()) for s in nodes.step) <= reach + nodes.spacing[-1] / 2
            if not settled or near:
                hugging = locate(fdf, nodes, contour, reach)
                if hugging:
                    raise Hugged(hugging, nodes)
            if settled:
                return count, residual
        previous = raw
    raise QuadratureDivergence(f"winding number did not stabilize on {contour}", where=contour)


def _contour_values(fdf, z: np.ndarray):
    """f and f' on the nodes z, as complex arrays."""
    fv, dfv = fdf(z)
    return np.asarray(fv, dtype=complex), np.asarray(dfv, dtype=complex)


def _guard_trips(absf: np.ndarray) -> bool:
    """True when some contour sample of f is negligible against the median."""
    return bool(absf.min() < _CONTOUR_GUARD * np.median(absf))


def disk_levels(fdf, center: complex, r: float, n: int, nodes: Nodes):
    """Yield (n, raw winding number) for n, 2n, 4n, ... <= _MAX_POINTS nodes
    on |z - center| = r.

    The nodes 2 pi k / n of one level are bit-identical to the even nodes
    2 pi (2k) / (2n) of the next, so each level evaluates only its odd
    nodes, _CHUNK at a time, and adds them to a running integrand sum; |f|
    is kept for every node, for the median guard, and every node goes into
    nodes.  Yields None for the raw value when a sample of f vanishes
    against the median or the sum is not finite, and then stops.
    """
    total = 0.0 + 0.0j
    absf = np.empty(0)
    start, step = 0, 1
    while n <= _MAX_POINTS:
        parts = [absf]
        for lo in range(start, n, step * _CHUNK):
            k = np.arange(lo, min(n, lo + step * _CHUNK), step)
            unit = np.exp(1j * (2 * np.pi * k / n))
            z = center + r * unit
            fv, dfv = _contour_values(fdf, z)
            parts.append(np.abs(fv))
            with np.errstate(all="ignore"):
                g = dfv / fv
                total += complex(np.sum(g * unit)) * r
                nodes.add(k / n, z, g)
        nodes.spacing.append(2 * np.pi * r / n)
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


def edge_panels(length: float, freq_scale: float) -> int:
    """Initial trapezoid panels on a rectangle edge of this length."""
    return max(64, int(math.ceil(8 * freq_scale * length)))


def rect_levels(fdf, rect, freq_scale: float, nodes: Nodes):
    """Yield (nodes, raw winding number) on the boundary of rect, level by level.

    Edge e starts with n_e = edge_panels(length) panels and every level
    doubles each n_e exactly.  Edge nodes are a + (b - a) * k / n_e for
    k < n_e (the end corner is the next edge's first node), so each node is
    evaluated once and later levels evaluate only the odd k of the doubled
    grid, all four edges in one call; every node goes into nodes, with
    parameter e + k / n_e.  The trapezoid sum per edge is
    h_e * (sum over its nodes - g(a) / 2 + g(b) / 2).  Yields None for the
    raw value when a sample of f vanishes against the median or the sum is
    not finite, and then stops.
    """
    corners = rect.corners
    sides = [b - a for a, b in zip(corners, corners[1:] + corners[:1])]
    counts = [edge_panels(abs(s), freq_scale) for s in sides]
    sums = [0j] * 4
    corner_g = None
    absf = np.empty(0)
    start, step = 0, 1
    while True:
        ks = [np.arange(start, n, step) for n in counts]
        z = np.concatenate([a + s * (k / n) for a, s, k, n in zip(corners, sides, ks, counts)])
        fv, dfv = _contour_values(fdf, z)
        with np.errstate(all="ignore"):
            g = dfv / fv
            t = np.concatenate([e + k / n for e, (k, n) in enumerate(zip(ks, counts))])
            nodes.add(t, z, g)
        nodes.spacing.append(max(abs(s) / n for s, n in zip(sides, counts)))
        absf = np.concatenate([absf, np.abs(fv)])
        if _guard_trips(absf):
            yield len(absf), None
            return
        edges = np.split(g, np.cumsum([len(k) for k in ks[:-1]]))
        if corner_g is None:
            corner_g = [complex(e[0]) for e in edges]
        sums = [total + complex(e.sum()) for total, e in zip(sums, edges)]
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


def winding(fdf, contour, freq_scale: float, residual_tol: float):
    """(count, residual, nodes) for the zeros inside contour, a Circle or a
    zeros.Rectangle; raises Hugged when zeros hug it (see settle)."""
    nodes = Nodes()
    if isinstance(contour, Circle):
        n0 = max(256, int(math.ceil(8 * contour.radius * freq_scale)))
        levels = disk_levels(fdf, contour.center, contour.radius, n0, nodes)
    else:
        levels = rect_levels(fdf, contour, freq_scale, nodes)
        levels = itertools.islice(levels, _RECT_DOUBLINGS)
    count, residual = settle(fdf, levels, nodes, contour, residual_tol)
    return count, residual, nodes


def no_zero_located(contour) -> ContourThroughZero:
    return ContourThroughZero(
        f"a sample of f vanished or overflowed on {contour} and Newton located no zero near it",
        where=contour,
    )


def moved_counts(fdf, contour, hug: Hugged, signs, freq_scale: float, residual_tol: float):
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
                n, res, nodes = winding(fdf, c, freq_scale, residual_tol) if c else (0, 0.0, None)
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


def multiplicities(fdf, band, h: float, freq_scale: float, residual_tol: float):
    """Zero counts of small disks around each located zero of band, radius
    at most h / 4 and 0.4 of the distance to the nearest other one.
    Returns (counts, points)."""
    counts, points = [], 0
    for i, w in enumerate(band):
        rho = min([h / 4] + [0.4 * abs(w - v) for j, v in enumerate(band) if j != i])
        try:
            n, _, nodes = winding(fdf, Circle(w, rho), freq_scale, residual_tol)
        except Hugged:
            raise ContourThroughZero(
                f"zeros crowd the located zero {w:.10g}: the disk of radius {rho:.3g} "
                "around it is hugged too",
                where=w,
            ) from None
        counts.append(n)
        points += nodes.points
    return counts, points


def closed_count(fdf, contour, freq_scale: float, residual_tol: float):
    """Zeros in the closed region bounded by contour (a Circle or a
    zeros.Rectangle), with multiplicity.  Returns (count, residual, points,
    the contour the count rests on)."""
    try:
        n, residual, nodes = winding(fdf, contour, freq_scale, residual_tol)
        return n, residual, nodes.points, contour
    except Hugged as caught:
        hug = caught
    if not hug.zeros:
        raise no_zero_located(contour)
    delta, (inner, outer), (n_in, n_out), residual, zeros, points, windings = moved_counts(
        fdf, contour, hug, (-1, 1), freq_scale, residual_tol
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
        mult, more = multiplicities(fdf, band, hug.nodes.spacing[0], freq_scale, residual_tol)
        points += more
    if n_out - n_in != sum(mult):
        raise ContourThroughZero(
            f"zeros hug {contour}: {n_out - n_in} lie within {delta:.3g} of it, "
            f"but Newton located {fmt(band)} with multiplicities {mult}",
            where=contour,
        )
    pad = ON_BOUNDARY * size(contour)
    n = n_in + sum(m for w, m in zip(band, mult) if contour.signed_distance(w) <= pad)
    return n, residual, points, outer
