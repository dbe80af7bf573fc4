"""Configuration size: maximal total bond length over permutations.

V_sigma(Y) is the total length of the bonds j -> sigma(j); the size V(Y) is
its maximum over the symmetric group, which is a max-weight linear
assignment on the distance matrix.  A configuration is generic when the
class representatives of non-equivalent permutations attain pairwise
distinct V values; generic configurations always have Weyl-type counting
asymptotics.

The top frequency of the determinant expansion can often be had without
the expansion.  Given the maximizer sigma, every permutation pi = sigma o tau
falls short of V by the total weight of tau's cycles in the exchange graph
w[j, j'] = d[j, sigma(j)] - d[j, sigma(j')], which has no negative cycle
because sigma is optimal.  Shortest paths D in that graph (Floyd-Warshall)
give the least deficit of a permutation with the bond j -> sigma(j') as
w[j, j'] + D[j', j].  A permutation outside sigma's edge-equivalence class
has a bond outside sigma and its inverse, unless sigma has an even cycle of
length >= 4 (the cycle then splits into two transposition products, which
tie with it); the least deficit over those bonds is the class margin.  When
the margin clears the expansion's frequency clustering, the top cluster of
`expand` is exactly sigma's class: sigma with any subset of its cycles of
length >= 3 inverted, all of one sign, bond weight and fixed-point set, so
the cluster cannot cancel (`certify_top_class`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL
from .geometry import Configuration, distance_matrix, validate_configuration
from .permutations import ClassRepresentatives, enumerate_classes

# Relative tolerance for genericity gaps: two class representatives whose V
# values differ by at most gap_tol * max(1, V) count as tied.  It protects
# the verdict from rounding, since V values are floating sums of N distances
# (rounding error about N * 1e-16 * V), so exact comparison is not
# meaningful.  From N = 8 on the default is at or above the typical smallest
# gap between class values of random configurations (3e-10 to 4e-9 measured
# at N = 8, 4e-11 to 2e-10 at N = 9), so there it mostly reports the
# tolerance; pass a smaller gap_tol (such as 1e-12) for N >= 8.
DEFAULT_GAP_TOL = 1e-9
# The class margin must also clear this many N * eps * max(1, V): it covers
# the rounding of the margin's shortest paths (sums of up to N exchange
# weights) and of the expansion's V values (sums of N distances).
_MARGIN_SLACK = 64
# Most cycles of length >= 3 `certify_top_class` lists a class for (2^12
# members); at N <= 10 a maximizer has at most 3.
_MAX_LONG_CYCLES = 12


@dataclass(frozen=True)
class SizeReport:
    """Result of a size computation; `argmax` holds the 0-based images of
    a maximizing permutation."""

    v: float
    argmax: tuple[int, ...]


@dataclass(frozen=True)
class GenericityReport:
    """Pairwise separation of V over edge-equivalence class representatives.

    `witness_pair` holds the 0-based images of the two representatives
    whose V values are closest, each a row of `enumerate_classes(N).images`.
    """

    is_generic: bool
    min_gap: float
    witness_pair: tuple[tuple[int, ...], tuple[int, ...]]
    gap_tol: float


@dataclass(frozen=True)
class ClassCertificate:
    """The top frequency of `expand` read off V's maximizing class.

    `margin` is the class margin of `size_v`'s maximizer (0 when it has an
    even cycle of length >= 4) and `threshold` the margin it had to exceed
    (infinite when freq_tol, cancel_tol or the class size rule the
    certificate out).  `b_nu` is the effective size `expand` would report,
    or None when the certificate fails and only the expansion can tell.
    """

    v: float
    margin: float
    threshold: float
    b_nu: float | None


def _assignment(d: np.ndarray) -> tuple[float, np.ndarray]:
    """V and the images of a maximizing permutation of distance matrix d."""
    rows, cols = linear_sum_assignment(d, maximize=True)
    image = cols[np.argsort(rows)]
    return float(d[np.arange(len(d)), image].sum()), image


def size_v(config: Configuration) -> SizeReport:
    """Maximize V_sigma over all permutations.

    Solves the max-weight assignment problem on the distance matrix in
    O(N^3), so no permutation sweep is needed and N is not capped.
    """
    config = validate_configuration(config)
    v, image = _assignment(distance_matrix(config))
    return SizeReport(v, tuple(image.tolist()))


def _cycles(image: np.ndarray) -> list[list[int]]:
    """Cycles of a permutation, each listed along the permutation."""
    seen = np.zeros(len(image), dtype=bool)
    cycles = []
    for start in range(len(image)):
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = int(image[j])
        if cycle:
            cycles.append(cycle)
    return cycles


def class_margin(d: np.ndarray, image: np.ndarray) -> float:
    """Least V deficit of a permutation outside the edge-equivalence class
    of the maximizer `image` of distance matrix d (module docstring).

    0 when `image` has an even cycle of length >= 4.  O(N^3) in numpy.
    """
    n = len(d)
    if any(len(c) >= 4 and len(c) % 2 == 0 for c in _cycles(image)):
        return 0.0
    ar = np.arange(n)
    w = d[ar, image][:, None] - d[:, image]
    paths = w.copy()
    for k in range(n):
        np.minimum(paths, paths[:, k, None] + paths[None, k, :], out=paths)
    deficits = w + paths.T
    # bonds j -> sigma(j') in sigma (j' = j) or its inverse (j' = sigma^-2(j))
    inverse = np.argsort(image)
    outside = np.ones((n, n), dtype=bool)
    outside[ar, ar] = False
    outside[ar, inverse[inverse]] = False
    return float(deficits[outside].min(initial=np.inf))


def _class_members(image: np.ndarray, long_cycles: list[list[int]]) -> np.ndarray:
    """The permutations edge-equivalent to `image`, one per row: every
    subset of its cycles of length >= 3 (`long_cycles`) inverted."""
    members = np.tile(image, (1 << len(long_cycles), 1))
    rows = np.arange(len(members))
    for bit, cycle in enumerate(long_cycles):
        inverted = rows[(rows >> bit) & 1 == 1]
        members[np.ix_(inverted, cycle)] = np.roll(cycle, 1)
    return members


def certify_top_class(
    config: Configuration,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
) -> ClassCertificate:
    """Find `expand(a, config, freq_tol, cancel_tol)`'s effective size from
    V's maximizing class, for any strengths a, without the N! sweep.

    Certified when the class margin exceeds freq_tol * max(1, V) plus the
    rounding slack 64 * N * eps * max(1, V), freq_tol exceeds that slack
    (so the class's own rounding spread stays inside one cluster),
    cancel_tol < 1/2 (a sum of same-sign weights is at least its largest
    term, so the class cluster then never counts as cancelled) and the
    maximizer has at most 12 cycles of length >= 3.  b_nu is then the mean
    of the members' V values taken as `expand` takes it: each value summed
    over the distance-matrix row picks, the values sorted, and one
    `np.add.reduceat` with a leading zero, divided by the class size; so it
    is the same double as `expand`'s.  O(N^3), and N is not capped.
    """
    config = validate_configuration(config)
    d = distance_matrix(config)
    n = config.n
    v, image = _assignment(d)
    slack = _MARGIN_SLACK * n * np.finfo(float).eps
    long_cycles = [c for c in _cycles(image) if len(c) >= 3]
    threshold = np.inf
    if freq_tol > slack and cancel_tol < 0.5 and len(long_cycles) <= _MAX_LONG_CYCLES:
        threshold = float((freq_tol + slack) * max(1.0, v))
    margin = class_margin(d, image)
    if not margin > threshold:
        return ClassCertificate(v, margin, threshold, None)
    members = _class_members(image, long_cycles)
    values = np.sort(d[np.arange(n), members].sum(axis=1))
    b_nu = np.add.reduceat(np.insert(values, 0, 0.0), [0])[0] / len(values)
    return ClassCertificate(v, margin, threshold, float(b_nu))


def representative_values(config: Configuration) -> tuple[ClassRepresentatives, np.ndarray]:
    """V of every edge-equivalence class representative."""
    config = validate_configuration(config)
    reps = enumerate_classes(config.n)
    d = distance_matrix(config)
    values = d[np.arange(config.n), reps.images].sum(axis=1)
    return reps, values


def is_generic(config: Configuration, gap_tol: float = DEFAULT_GAP_TOL) -> GenericityReport:
    """Decide whether all class representatives have pairwise distinct V.

    The gap tolerance is relative (default 1e-9, scaled by max(1, V(Y)),
    where V(Y) is the largest representative value); it is reported back
    since genericity of a borderline configuration depends on this choice.
    """
    reps, values = representative_values(config)
    tol = gap_tol * max(1.0, float(values.max()))
    order = np.argsort(values, kind="stable")
    gaps = np.diff(values[order])
    i = int(np.argmin(gaps))
    witness = (
        tuple(reps.images[order[i]].tolist()),
        tuple(reps.images[order[i + 1]].tolist()),
    )
    min_gap = float(gaps[i])
    return GenericityReport(min_gap > tol, min_gap, witness, tol)
