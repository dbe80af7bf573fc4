"""Center configurations, strength tuples, and distance geometry.

A configuration is an ordered tuple of N >= 2 distinct points in R^3 (the
interaction centers); a strength tuple is the matching list of N finite
complex coupling parameters.  Everything downstream works off the pairwise
Euclidean distances, which `Configuration` computes once, from the one
conversion of raw point triples, and keeps as its read-only `distances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CoincidentCenters,
    NonpositiveScale,
    SamplingExhausted,
    SizeMismatch,
    TooFewCenters,
    ValidationError,
)

# Two centers closer than this (in configuration length units) count as
# coincident; exact-zero testing is not robust for floating input.
COINCIDENCE_TOL = 1e-12

# Rejection-sampling retry budget for random_configuration.
_MAX_SAMPLING_TRIES = 1000


@dataclass(frozen=True)
class Configuration:
    """Ordered tuple of N >= 2 pairwise-distinct centers in R^3, and the
    symmetric (N, N) matrix of their distances, zero diagonal."""

    centers: np.ndarray
    distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            pts = np.array(self.centers, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # complex, text, ragged, too large
            raise ValidationError(f"centers must be an array of real numbers: {exc}") from None
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValidationError(
                f"centers must be an (N, 3) array of point triples, got shape {pts.shape}"
            )
        if pts.shape[0] < 2:
            raise TooFewCenters(f"need at least 2 centers, got {pts.shape[0]}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("center coordinates must be finite")
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        n = pts.shape[0]
        off = np.where(np.eye(n, dtype=bool), np.inf, d)
        j, k = np.unravel_index(np.argmin(off), off.shape)
        if off[j, k] <= COINCIDENCE_TOL:
            raise CoincidentCenters((int(j), int(k)), float(off[j, k]))
        pts.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "centers", pts)
        object.__setattr__(self, "distances", d)

    @property
    def n(self) -> int:
        return self.centers.shape[0]


def validate_configuration(raw) -> Configuration:
    """Build a Configuration from raw point triples, or raise.

    Raises TooFewCenters for N < 2 and CoincidentCenters (carrying the
    offending index pair and their distance) for duplicate points.
    """
    if isinstance(raw, Configuration):
        return raw
    return Configuration(raw)


def _check_integer(name: str, value) -> None:
    """Reject a value that is not an int or numpy integer (bools too)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def strength_values(a, n: int | None = None) -> np.ndarray:
    """Coerce strengths to a read-only, finite, nonempty complex vector of
    length n."""
    try:
        vals = np.array(a, dtype=complex).reshape(-1)
    except (TypeError, ValueError, OverflowError) as exc:  # text, ragged
        raise ValidationError(f"strengths must be an array of numbers: {exc}") from None
    if vals.size == 0:
        raise ValidationError("strength tuple must be nonempty")
    if not np.all(np.isfinite(vals)):
        raise ValidationError("strength parameters must be finite (infinity disallowed)")
    vals.setflags(write=False)
    if n is not None and vals.shape[0] != n:
        raise SizeMismatch(f"expected {n} strength parameters, got {vals.shape[0]}")
    return vals


def random_configuration(
    n: int,
    seed,
    box_side: float = 1.0,
    min_gap: float | None = None,
) -> Configuration:
    """Sample N centers uniformly in the cube [0, box_side]^3.

    The whole draw is rejected and repeated until the minimum pairwise
    distance reaches min_gap (default 1e-3 * box_side).  box_side must be
    finite and > 0, min_gap finite and >= 0.  Deterministic for a given
    integer seed >= 0; also accepts a numpy Generator.  A draw with
    coincident centers is redrawn too.
    """
    _check_integer("n", n)
    if not isinstance(seed, np.random.Generator):
        _check_integer("seed", seed)
        if seed < 0:
            raise ValidationError(f"seed must be >= 0, got {seed}")
    if n < 2:
        raise TooFewCenters(f"need at least 2 centers, got {n}")
    if not (box_side > 0):
        raise NonpositiveScale(f"box_side must be positive, got {box_side}")
    if not box_side < math.inf:
        raise ValidationError(f"box_side must be finite, got {box_side}")
    if min_gap is None:
        min_gap = 1e-3 * box_side
    if not 0 <= min_gap < math.inf:
        raise ValidationError(f"min_gap must be finite and nonnegative, got {min_gap}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_SAMPLING_TRIES):
        try:
            config = Configuration(rng.uniform(0.0, box_side, size=(n, 3)))
        except CoincidentCenters:
            continue
        if config.distances[~np.eye(n, dtype=bool)].min() >= min_gap:
            return config
    raise SamplingExhausted(
        f"could not draw {n} points with min_gap={min_gap} "
        f"in a box of side {box_side} after {_MAX_SAMPLING_TRIES} tries"
    )
