"""Configuration size: maximal total bond length over permutations.

V_sigma(Y) is the total length of the bonds j -> sigma(j); the size V(Y) is
its maximum over the symmetric group, which is a max-weight linear
assignment on the distance matrix.  A configuration is generic when the
class representatives of non-equivalent permutations attain pairwise
distinct V values; generic configurations always have Weyl-type counting
asymptotics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Configuration, distance_matrix, validate_configuration
from .permutations import ClassRepresentatives, enumerate_classes

# Relative tolerance for genericity gaps; V values are floating sums of
# distances, so exact comparison is not meaningful.
DEFAULT_GAP_TOL = 1e-9


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


def size_v(config: Configuration) -> SizeReport:
    """Maximize V_sigma over all permutations.

    Solves the max-weight assignment problem on the distance matrix in
    O(N^3), so no permutation sweep is needed and N is not capped.
    """
    config = validate_configuration(config)
    d = distance_matrix(config)
    rows, cols = linear_sum_assignment(d, maximize=True)
    image = cols[np.argsort(rows)]
    return SizeReport(float(d[np.arange(config.n), image].sum()), tuple(image.tolist()))


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
