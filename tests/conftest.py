import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from resonance_sizer import distance_matrix, validate_configuration

# Tetragonal disphenoid: three fixed-point-free permutation classes tie at
# the top frequency V = 4 * side and their weights cancel for every choice
# of strengths, so b_nu < V.  Golden values from the expansion.
DISPHENOID_CENTERS = ((0.3, 0, 0), (-0.3, 0, 0), (0, 0.3, 1), (0, -0.3, 1))
DISPHENOID_B_NU = 3.372556098240043
DISPHENOID_V = 4.345112196480086


@lru_cache(maxsize=None)
def _all_permutations(n):
    return np.array(list(itertools.permutations(range(n))))


def brute_size(config):
    """Brute-force size oracle over all N! permutations.

    Returns V(Y) and the set of permutation images within
    1e-9 * max(1, V) of it (the ties).
    """
    d = distance_matrix(config)
    perms = _all_permutations(config.n)
    v = d[np.arange(config.n), perms].sum(axis=1)
    best = float(v.max())
    close = perms[v >= best - 1e-9 * max(1.0, best)]
    return best, {tuple(int(x) for x in p) for p in close}


def random_rotation(rng):
    """Haar-ish proper rotation of R^3 via QR with sign fix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, [0, 1]] = q[:, [1, 0]]
    return q


def apply_rigid_motion(config, rng):
    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    return validate_configuration(config.centers @ rot.T + shift)


@pytest.fixture
def unit_pair():
    """Two centers at distance 1."""
    return validate_configuration([(0, 0, 0), (1, 0, 0)])


@pytest.fixture
def collinear():
    """Equally spaced collinear triple 0, 1, 2."""
    return validate_configuration([(0, 0, 0), (1, 0, 0), (2, 0, 0)])


@pytest.fixture
def equilateral():
    """Unit-side equilateral triangle in the plane."""
    return validate_configuration(
        [(0, 0, 0), (1, 0, 0), (0.5, math.sqrt(3) / 2, 0)]
    )


@pytest.fixture
def disphenoid():
    """The NonWeyl tetragonal disphenoid of DISPHENOID_CENTERS."""
    return validate_configuration(DISPHENOID_CENTERS)
