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

from .errors import SizeMismatch
from .geometry import Configuration, distance_matrix, validate_configuration
from .permutations import ClassRepresentatives, Permutation, enumerate_classes

# Relative tolerance for genericity gaps; V values are floating sums of
# distances, so exact comparison is not meaningful.
DEFAULT_GAP_TOL = 1e-9


@dataclass(frozen=True)
class SizeReport:
    """Result of a size computation."""

    v: float
    argmax: Permutation


@dataclass(frozen=True)
class GenericityReport:
    """Pairwise separation of V over edge-equivalence class representatives."""

    is_generic: bool
    min_gap: float
    witness_pair: tuple[Permutation, Permutation]
    gap_tol: float


def _v_of_image(d: np.ndarray, image) -> float:
    return float(d[np.arange(d.shape[0]), np.asarray(image)].sum())


def v_sigma(config: Configuration, sigma: Permutation) -> float:
    """Total bond length sum_j |y_j - y_sigma(j)| (fixed points contribute 0)."""
    config = validate_configuration(config)
    if sigma.n != config.n:
        raise SizeMismatch(f"permutation on {sigma.n} items vs {config.n} centers")
    return _v_of_image(distance_matrix(config), sigma.image)


def size_v(config: Configuration) -> SizeReport:
    """Maximize V_sigma over all permutations.

    Solves the max-weight assignment problem on the distance matrix in
    O(N^3), so no permutation sweep is needed and N is not capped.
    """
    config = validate_configuration(config)
    d = distance_matrix(config)
    rows, cols = linear_sum_assignment(d, maximize=True)
    image = tuple(int(c) for c in cols[np.argsort(rows)])
    return SizeReport(_v_of_image(d, image), Permutation(image))


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
        Permutation(reps.images[order[i]].tolist()),
        Permutation(reps.images[order[i + 1]].tolist()),
    )
    min_gap = float(gaps[i])
    return GenericityReport(min_gap > tol, min_gap, witness, tol)
