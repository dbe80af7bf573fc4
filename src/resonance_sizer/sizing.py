"""Configuration size: maximal total bond length over permutations.

V_sigma(Y) is the total length of the bonds j -> sigma(j); the size V(Y) is
its maximum over the symmetric group, which is a max-weight linear
assignment on the distance matrix.  `_assignment` solves it by shortest
augmenting paths with potentials (the Jonker-Volgenant form of the
Hungarian method) in plain Python and returns the assignment duals with
it, so numpy is the only dependency.  A configuration is generic when the
representatives of the edge-equivalence classes (`permutations` holds the
class rule) have pairwise distinct V; generic configurations always have
Weyl-type counting asymptotics.  Only the representatives are needed, not
the class sizes: `is_generic` indexes the `enumerate_classes` array with one
gather of the class values per block of rows and does one unstable sort,
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

Where the certificate fails (ties, even cycles, cancelled tops), the
assignment duals still bound the walk down from V: every reduced cost
u[j] + w[k] - d[j, k] is >= 0, and a permutation's reduced costs add up to
its deficit.  A branch and bound lists the permutations within a depth of
V, and `expand`'s own clustering and reduction run on them from the top
(`walk_top`), deepening while every closed cluster cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sweep
from .errors import TooLarge
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, _check_tolerances, _cluster_starts
from .expoly import _mask_polynomials, _reduce_clusters
from .geometry import Configuration, strength_values, validate_configuration
from .permutations import MAX_ENUM_N, _class_members, _cycles
from .permutations import _has_even_cycle, enumerate_classes

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
# Rows one level of `walk_top` may hold: 10!, as many as the S_N sweep
# holds.  Level i holds partial permutations of length i, at most
# N! / (N - i)! of them, so at N <= 10 no level reaches the cap.
_WALK_CAP = math.factorial(MAX_ENUM_N)
# Rows `walk_top` extends or sums at once: each temporary of a block holds
# at most 4,096 x 63 doubles (2 MB).
_WALK_BLOCK = 1 << 12
# Factor by which `walk_top` deepens while every closed cluster cancels.
_WALK_GROWTH = 2.0
# The fixed-point masks of `_sweep._block_terms` are int64 bitmasks.
_WALK_MAX_N = 63


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
    whose V values are closest, each a row of `enumerate_classes(N)`.
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
    return float(_sweep._block_values(d, image[None])[0]), image, -np.array(u), -np.array(w)


def size_v(config: Configuration) -> SizeReport:
    """Maximize V_sigma over all permutations.

    Solves the max-weight assignment problem on the distance matrix by
    shortest augmenting paths with potentials (Jonker-Volgenant) in O(N^3),
    so no permutation sweep is needed and N is not capped; about 0.06 ms at
    N = 8 and 4 ms at N = 50.
    """
    v, image, _, _ = _assignment(validate_configuration(config).distances)
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
    freq_tol and cancel_tol must be finite and >= 0.
    """
    _check_tolerances(freq_tol=freq_tol, cancel_tol=cancel_tol)
    d = validate_configuration(config).distances
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
    values = np.sort(_sweep._block_values(d, members))
    b_nu = np.add.reduceat(np.insert(values, 0, 0.0), [0])[0] / len(values)
    return ClassCertificate(v, margin, threshold, float(b_nu))


def walk_top(
    strengths,
    config: Configuration,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
) -> float:
    """`expand(strengths, config, freq_tol, cancel_tol)`'s effective size from
    the permutations near the top of V, without the N! sweep.

    With (u, w) the assignment duals, every reduced cost
    u[j] + w[k] - d[j, k] is >= 0, and the reduced costs of a permutation's
    bonds add up to its deficit V - V_sigma.  `_near_top` lists every
    permutation of deficit <= depth, in lexicographic order, the tie order
    of `expand`'s stable sort.  Their V values, summed by `_sweep`'s block
    code, are sorted stably and clustered by `expand`'s gap rule.  A cluster is
    closed, that is `expand` has the same one, when its lowest V less
    freq_tol * max(1, max V) lies above V - depth; the rounding slack
    64 * N * eps * max(1, V) widens both the listing and this test.  Closed
    clusters are reduced from the top, a block of rows at a time, by
    `expand`'s own `_reduce_clusters`, with mask polynomials built only for
    the masks present; the first that does not cancel gives b_nu, the same
    double as `expand`'s.  While every closed cluster cancels, depth
    doubles, or grows to the least cost the listing pruned if that is more.
    The identity's cluster never cancels, so at N <= 10, where no level of
    the listing reaches its cap, every input is decided.  Above N = 10 a
    level past the cap raises TooLarge, and so does N > 63.  freq_tol and
    cancel_tol must be finite and >= 0.
    """
    _check_tolerances(freq_tol=freq_tol, cancel_tol=cancel_tol)
    config = validate_configuration(config)
    minus_4pi_a = -4 * np.pi * strength_values(strengths, config.n)
    d = config.distances
    n = len(d)
    if n > _WALK_MAX_N:
        raise TooLarge(
            f"the walk down from V is capped at N <= {_WALK_MAX_N} (int64 fixed-point "
            f"masks), got N = {n}"
        )
    v, _, u, w = _assignment(d)
    reduced = u[:, None] + w - d
    slack = _MARGIN_SLACK * n * np.finfo(float).eps * max(1.0, v)
    depth = _WALK_GROWTH * (freq_tol * max(1.0, v) + slack)
    while True:
        rows, beyond = _near_top(reduced, depth + slack)
        # a listing that pruned nothing holds every permutation: all closed
        closed_above = v - depth + slack if beyond < math.inf else -math.inf
        b_nu = _top_survivor(d, rows, closed_above, minus_4pi_a, freq_tol, cancel_tol)
        if b_nu is not None:
            return b_nu
        del rows  # before the deeper listing is built
        # no permutation lies between the listing and its least pruned bound
        depth = max(depth * _WALK_GROWTH, beyond)


def _top_survivor(d, rows, closed_above, minus_4pi_a, freq_tol, cancel_tol) -> float | None:
    """Frequency of the highest cluster of the listed permutations `rows`
    that is closed (its lowest V less freq_tol * max(1, max V) is above
    `closed_above`) and does not cancel; None when every closed cluster
    cancels.

    The V values are sorted stably and clustered as `expand` does; closed
    clusters are reduced from the top, whole, about a block of rows at a
    time."""
    values = np.empty(len(rows))
    for lo, block in zip(range(0, len(rows), _WALK_BLOCK), _blocks(rows)):
        values[lo : lo + len(block)] = _sweep._block_values(d, block)
    order = np.argsort(values, kind="stable")
    values = values[order]
    starts = _cluster_starts(values[None], freq_tol)
    lows = values[starts] - freq_tol * max(1.0, float(values[-1]))
    ends = np.append(starts[1:], len(values))
    del values  # each chunk sums its own again, to the same doubles
    first = int(np.searchsorted(lows, closed_above, side="right"))
    top = len(starts) - 1
    while top >= first:
        low = min(top, max(first, int(np.searchsorted(starts, ends[top] - _WALK_BLOCK))))
        values, weights, masks = _terms(d, rows[order[starts[low] : ends[top]]])
        present, codes = np.unique(masks, return_inverse=True)
        freqs, _, _, _, cancelled = _reduce_clusters(
            [values, weights, codes],
            starts[low : top + 1] - starts[low],
            _mask_polynomials(minus_4pi_a, present.tolist()),
            cancel_tol,
        )
        alive = np.flatnonzero(~cancelled)
        if len(alive):
            return float(freqs[alive[-1]])
        top = low - 1
    return None


def _terms(d: np.ndarray, perms: np.ndarray) -> list[np.ndarray]:
    """`_sweep._block_terms` of permutation rows, a block at a time."""
    parts = [_sweep._block_terms(d, _parities(block), block) for block in _blocks(perms)]
    return [np.concatenate(column) for column in zip(*parts)]


def _blocks(rows: np.ndarray):
    """Consecutive slices of `_WALK_BLOCK` rows."""
    return (rows[lo : lo + _WALK_BLOCK] for lo in range(0, len(rows), _WALK_BLOCK))


def _parities(perms: np.ndarray) -> np.ndarray:
    """Inversion-count parity (0 even, 1 odd) of each permutation row."""
    inversions = np.zeros(len(perms), dtype=np.int64)
    for j in range(perms.shape[1] - 1):
        inversions += (perms[:, j + 1 :] < perms[:, j, None]).sum(axis=1)
    return inversions & 1


def _near_top(reduced: np.ndarray, limit: float) -> tuple[np.ndarray, float]:
    """Every permutation whose reduced costs add up to at most `limit`, as
    rows of images in lexicographic order, in the smallest unsigned dtype
    that holds N - 1, and the least bound pruned (inf when none was): every
    permutation not listed costs at least that much.

    Branch and bound, one row at a time: level i holds the partial images
    of rows 0 .. i - 1 that may complete within the limit.  The bound of a
    partial image is its running cost plus, for each column still free,
    the least reduced cost any row still to come has there; no reduced
    cost is negative (up to rounding), so a row past the limit has no
    completion within it.  Each level is counted block by block, as
    block-local picks of (parent, column), before it is allocated; a level
    of more than `_WALK_CAP` rows raises TooLarge.
    """
    n = len(reduced)
    # floors[i, k]: least reduced cost in column k over rows i .. N - 1
    floors = np.zeros((n + 1, n))
    floors[:n] = np.minimum.accumulate(reduced[::-1], axis=0)[::-1]
    rows = np.zeros((1, 0), dtype=np.min_scalar_type(n - 1))
    costs = np.zeros(1)
    beyond = np.inf
    for i in range(n):
        floor = floors[i + 1]
        picks, total = [], 0
        for lo, parents in zip(range(0, len(rows), _WALK_BLOCK), _blocks(rows)):
            cand = costs[lo : lo + _WALK_BLOCK, None] + reduced[i]
            cand[np.arange(len(parents))[:, None], parents] = np.inf  # images taken
            rest = floor.sum() - floor[parents].sum(axis=1)
            bound = cand + (rest[:, None] - floor)
            inside = bound <= limit
            beyond = min(beyond, np.min(bound, where=~inside, initial=np.inf))
            flat = np.flatnonzero(inside)
            total += len(flat)
            if total <= _WALK_CAP:
                picks.append((lo, flat.astype(np.int32)))
        if total > _WALK_CAP:
            raise TooLarge(
                f"the walk down from V needs {total:,} rows at level {i + 1} of {n} "
                f"(depth {limit:.3e}), past its cap of {_WALK_CAP:,} rows per level"
            )
        last = i + 1 == n
        if last:
            del costs  # the permutations need no running costs
        grown = np.empty((total, i + 1), dtype=rows.dtype)
        grown_costs = None if last else np.empty(total)
        at = 0
        for lo, flat in picks:
            parent, column = np.divmod(flat, n)
            parent += lo
            grown[at : at + len(flat), :i] = rows[parent]
            grown[at : at + len(flat), i] = column
            if not last:
                grown_costs[at : at + len(flat)] = costs[parent] + reduced[i, column]
            at += len(flat)
        rows, costs = grown, grown_costs
    return rows, float(beyond)


def representative_values(config: Configuration) -> tuple[np.ndarray, np.ndarray]:
    """The class representatives (`enumerate_classes`) and the V of each,
    summed one block of representatives at a time (each row still summed
    alone).

    Each block gathers its bond lengths in one `take` from the flattened
    distance matrix, at flat index N * j + sigma(j)."""
    d = validate_configuration(config).distances
    n = len(d)
    reps = enumerate_classes(n)
    row_starts = np.arange(0, n * n, n)
    values = np.empty(len(reps))
    for start in range(0, len(reps), _VALUE_BLOCK):
        rows = slice(start, start + _VALUE_BLOCK)
        d.take(reps[rows] + row_starts).sum(axis=1, out=values[rows])
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
    _check_tolerances(gap_tol=gap_tol)
    reps, values = representative_values(config)
    tol = gap_tol * max(1.0, float(values.max()))
    first, second, min_gap = _closest_pair(values)
    witness = (tuple(reps[first].tolist()), tuple(reps[second].tolist()))
    return GenericityReport(min_gap > tol, min_gap, witness, tol)
