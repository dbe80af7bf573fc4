"""Interaction matrix and direct evaluation of the characteristic determinant.

The N x N matrix has diagonal a_j - i z / (4 pi) and off-diagonal entries
-e^{i z d_jk} / (4 pi d_jk) built from the free resolvent kernel; resonances
are the zeros of its determinant.  D(z) = (-4 pi)^N det(.) is evaluated by
dense LU factorization with partial pivoting and serves as the independent
numeric oracle for the expansion in expoly.
"""

from __future__ import annotations

import numpy as np

from .geometry import Configuration, distance_matrix, strength_values, validate_configuration


def gamma_matrix(strengths, config: Configuration, z: complex) -> np.ndarray:
    """Assemble the complex-symmetric interaction matrix at spectral point z."""
    config = validate_configuration(config)
    a = strength_values(strengths, config.n)
    d = distance_matrix(config)
    n = config.n
    off = np.eye(n, dtype=bool)
    safe_d = np.where(off, 1.0, d)
    g = -np.exp(1j * z * safe_d) / (4 * np.pi * safe_d)
    g[off] = a - 1j * z / (4 * np.pi)
    return g


def determinant_direct(strengths, config: Configuration, z: complex) -> complex:
    """(-4 pi)^N times the determinant of the interaction matrix.

    Useful for |Im z| * max pairwise distance up to about 700 (natural-log
    units); beyond that the matrix entries overflow double precision.
    """
    config = validate_configuration(config)
    g = gamma_matrix(strengths, config, z)
    return complex((-4 * np.pi) ** config.n * np.linalg.det(g))
