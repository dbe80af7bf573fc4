"""Configuration size: maximal total bond length over permutations.

V_sigma(Y) is the total length of the bonds j -> sigma(j); the size V(Y) is
its maximum over the symmetric group, which is a max-weight linear
assignment on the distance matrix.  `_assignment` solves it by shortest
augmenting paths with potentials (the Jonker-Volgenant form of the
Hungarian method) in plain Python and returns the assignment duals with
it, so numpy is the only dependency.  A configuration is generic when the
representatives of the edge-equivalence classes (`permutations` holds the
class rule) have pairwise distinct V; generic configurations always have
Weyl-type counting asymptotics.  `is_generic` tests it with one gather of
the class values per block of representatives and one unstable sort,
from which the closest pair of the values' stable order is read off
exactly (`_closest_pair`).

The top frequency of the determinant expansion can often be had without
the expansion.  Given the maximizer sigma, every permutation pi = sigma o tau
falls short of V by the total weight of tau's cycles in the exchange graph
w[j, j'] = d[j, sigma(j)] - d[j, sigma(j')], which has no negative cycle
because sigma is optimal.  Shortest paths D in that graph (Floyd-Warshall)
give the least deficit of a permutation with the bond j -> sigma(j') as
w[j, j'] + D[j', j].  A permutation outside sigma's edge-equivalence class
has a bond outside sigma and its inverse, unless sigma has an even cycle of
length >= 4 (`permutations._has_even_cycle`); the least deficit over those
bonds is the class margin.  When the margin clears the expansion's
frequency clustering, the top cluster of `expand` is exactly sigma's class
(`permutations._class_members`), all of one sign, bond weight and
fixed-point set, so the cluster cannot cancel (`certify_top_class`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL
from .geometry import Configuration, distance_matrix, validate_configuration
from .permutations import ClassRepresentatives, _class_members, _cycles, _has_even_cycle
from .permutations import enumerate_classes

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
# Representatives per `representative_values` block.  Its index and gather
# temporaries stay under 330 KB at N <= 10, so blocks reuse memory instead
# of faulting in fresh pages: 32,768 took twice as long at N = 8.
_VALUE_BLOCK = 1 << 12
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


def _assignment(d: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """V, the images of a maximizing permutation, and the assignment duals
    (u, w) of distance matrix d.

    The duals satisfy u[i] + w[j] >= d[i, j] for every i, j, with equality
    on each bond i -> image[i], so sum(u) + sum(w) = V up to rounding.
    Shortest augmenting paths with potentials (Jonker and Volgenant,
    Computing 38 (1987) 325) on the costs -d, without initialization
    heuristics, as in Crouse (IEEE Trans. Aerosp. Electron. Syst. 52
    (2016) 1679): row `cur` joins the assignment along a Dijkstra path of
    reduced costs, and the potentials are updated from the path lengths.
    The column scan order and the tie rule (a tie for the shortest path
    goes to a free column) are those of scipy's `linear_sum_assignment`, so
    ties pick the same maximizer.  Plain lists, which beat numpy rows up to
    N of about 50.  O(N^3).
    """
    cost = d.tolist()
    n = len(cost)
    u = [0.0] * n  # potentials of the costs -d: u[i] + w[j] <= -d[i][j]
    w = [0.0] * n
    col4row = [-1] * n
    row4col = [-1] * n
    path = [-1] * n
    for cur in range(n):
        short = [math.inf] * n  # reduced cost of the shortest path from cur to each column
        rows, cols = [], []  # rows reached and columns scanned
        remaining = list(range(n - 1, -1, -1))
        min_val = 0.0
        i, sink = cur, -1
        while sink == -1:
            rows.append(i)
            row, ui = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val - row[j] - ui - w[j]
                s = short[j]
                if r < s:
                    path[j] = i
                    short[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest, index = s, it
            min_val = lowest
            j = remaining[index]
            cols.append(j)
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:  # rows[0] is cur
            u[i] += min_val - short[col4row[i]]
        for j in cols:
            w[j] -= min_val - short[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    image = np.array(col4row)
    value = float(d[np.arange(n), image].sum())
    return value, image, -np.array(u), -np.array(w)


def size_v(config: Configuration) -> SizeReport:
    """Maximize V_sigma over all permutations.

    Solves the max-weight assignment problem on the distance matrix by
    shortest augmenting paths with potentials (Jonker-Volgenant) in O(N^3),
    so no permutation sweep is needed and N is not capped; about 0.06 ms at
    N = 8 and 4 ms at N = 50.
    """
    config = validate_configuration(config)
    v, image, _, _ = _assignment(distance_matrix(config))
    return SizeReport(v, tuple(image.tolist()))


def class_margin(d: np.ndarray, image: np.ndarray) -> float:
    """Least V deficit of a permutation outside the edge-equivalence class
    of the maximizer `image` of distance matrix d (module docstring).

    0 when `image` has an even cycle of length >= 4.  O(N^3) in numpy.
    """
    n = len(d)
    if _has_even_cycle(image):
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
    d = distance_matrix(config)
    n = len(d)
    v, image, _, _ = _assignment(d)
    slack = _MARGIN_SLACK * n * np.finfo(float).eps
    n_long = sum(len(c) >= 3 for c in _cycles(image))
    threshold = np.inf
    if freq_tol > slack and cancel_tol < 0.5 and n_long <= _MAX_LONG_CYCLES:
        threshold = float((freq_tol + slack) * max(1.0, v))
    margin = class_margin(d, image)
    if not margin > threshold:
        return ClassCertificate(v, margin, threshold, None)
    members = _class_members(image)
    values = np.sort(d[np.arange(n), members].sum(axis=1))
    b_nu = np.add.reduceat(np.insert(values, 0, 0.0), [0])[0] / len(values)
    return ClassCertificate(v, margin, threshold, float(b_nu))


def representative_values(config: Configuration) -> tuple[ClassRepresentatives, np.ndarray]:
    """V of every edge-equivalence class representative, summed one block
    of representatives at a time (each row still summed alone).

    Each block gathers its bond lengths in one `take` from the flattened
    distance matrix, at flat index N * j + sigma(j)."""
    d = distance_matrix(config)
    n = len(d)
    reps = enumerate_classes(n)
    row_starts = np.arange(0, n * n, n)
    values = np.empty(reps.n_classes)
    for start in range(0, reps.n_classes, _VALUE_BLOCK):
        rows = slice(start, start + _VALUE_BLOCK)
        d.take(reps.images[rows] + row_starts).sum(axis=1, out=values[rows])
    return reps, values


def _closest_pair(values: np.ndarray) -> tuple[int, int, float]:
    """Indices (first, second) and gap of the closest pair of values, as the
    stable sort of the values gives it: the first smallest gap of the
    sorted values, between its positions i and i + 1.  One unstable sort;
    needs at least two values, none NaN.

    The stable order is recovered without a stable argsort.  Position i
    holds the first index of value s[i]: an earlier one would make an
    earlier zero gap.  Position i + 1 holds the second index of that value
    when the gap is 0; otherwise the only index of value s[i + 1], since a
    second one would make a zero gap after i."""
    ordered = np.sort(values)
    gaps = ordered[1:] - ordered[:-1]
    i = int(gaps.argmin())
    lo, hi = ordered[i], ordered[i + 1]
    first = int((values == lo).argmax())
    if lo == hi:
        second = first + 1 + int((values[first + 1 :] == lo).argmax())
    else:
        second = int((values == hi).argmax())
    return first, second, float(gaps[i])


def is_generic(config: Configuration, gap_tol: float = DEFAULT_GAP_TOL) -> GenericityReport:
    """Decide whether all class representatives have pairwise distinct V.

    The gap tolerance is relative (default 1e-9, scaled by max(1, V(Y)),
    where V(Y) is the largest representative value); it is reported back
    since genericity of a borderline configuration depends on this choice.
    gap_tol must be finite and >= 0.  The witness pair is the closest pair
    of class values in their stable order (`_closest_pair`): one sort of
    the values, after one gather per block of representatives.
    """
    if not 0 <= gap_tol < math.inf:
        raise ValidationError(f"gap_tol must be finite and >= 0, got {gap_tol}")
    reps, values = representative_values(config)
    tol = gap_tol * max(1.0, float(values.max()))
    first, second, min_gap = _closest_pair(values)
    witness = (tuple(reps.images[first].tolist()), tuple(reps.images[second].tolist()))
    return GenericityReport(min_gap > tol, min_gap, witness, tol)
