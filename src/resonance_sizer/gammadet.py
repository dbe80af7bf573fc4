"""Interaction matrix and direct evaluation of the characteristic determinant.

The N x N matrix has diagonal a_j - i z / (4 pi) and off-diagonal entries
-e^{i z d_jk} / (4 pi d_jk) built from the free resolvent kernel; resonances
are the zeros of its determinant.  D(z) = (-4 pi)^N det(.) is evaluated by
dense LU factorization with partial pivoting and serves as the independent
numeric oracle for the expansion in expoly.
"""

from __future__ import annotations

import numpy as np

from ._contours import _LOG_DBL_MAX
from .errors import EvaluationOverflow, ValidationError
from .geometry import Configuration, strength_values, validate_configuration


def gamma_matrix(strengths, config: Configuration, z: complex) -> np.ndarray:
    """Assemble the complex-symmetric interaction matrix at a finite
    spectral point z."""
    config = validate_configuration(config)
    a = strength_values(strengths, config.n)
    if not np.isfinite(z):
        raise ValidationError(f"spectral point z must be finite, got {z!r}")
    off = np.eye(config.n, dtype=bool)
    safe_d = np.where(off, 1.0, config.distances)
    with np.errstate(all="ignore"):
        g = -np.exp(1j * z * safe_d) / (4 * np.pi * safe_d)
    g[off] = a - 1j * z / (4 * np.pi)
    return _finite(g, "an entry of the interaction matrix", config, z)


def determinant_direct(strengths, config: Configuration, z: complex) -> complex:
    """(-4 pi)^N times the determinant of the interaction matrix.

    Useful for |Im z| * max pairwise distance up to about 700 (natural-log
    units); beyond that the matrix entries overflow double precision.
    """
    config = validate_configuration(config)
    g = gamma_matrix(strengths, config, z)
    with np.errstate(all="ignore"):
        det = complex((-4 * np.pi) ** config.n * np.linalg.det(g))
    return _finite(det, "the determinant", config, z)


def _finite(values, what: str, config: Configuration, z: complex):
    """values, or EvaluationOverflow if one is not finite, naming |Im z| * max d
    (the entries e^{i z d} grow like e^{|Im z| d}) against log(DBL_MAX)."""
    if np.isfinite(values).all():
        return values
    im, reach = abs(z.imag), float(config.distances.max())
    raise EvaluationOverflow(
        f"{what} overflowed double precision at z = {z}: |Im z| * max d = "
        f"{im:.6g} * {reach:.6g} = {im * reach:.1f}, against log(DBL_MAX) = {_LOG_DBL_MAX:.2f}"
    )
