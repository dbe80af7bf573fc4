import itertools
import math
from functools import lru_cache

import numpy as np
import pytest

from resonance_sizer import Configuration, validate_configuration

# Tetragonal disphenoid: three fixed-point-free permutation classes tie at
# the top frequency V = 4 * side and their weights cancel for every choice
# of strengths, so b_nu < V.  Golden values from the expansion.
DISPHENOID_CENTERS = ((0.3, 0, 0), (-0.3, 0, 0), (0, 0.3, 1), (0, -0.3, 1))
DISPHENOID_B_NU = 3.372556098240043
DISPHENOID_V = 4.345112196480086


# Real strengths put zeros on the imaginary axis.  Each entry is (centers,
# strengths, the imaginary parts of the zeros on the Re = 0 edge of the
# search region [0, 6] x [-3, 0]).  In the second, the two edge zeros sit
# near the midpoints between the region's edge nodes, so their
# half-windings add up to an integer to within 1e-3.
EDGE_ZEROS = [
    (
        (
            (0.7115272406024246, 0.6046250250438067, 0.622143856473352),
            (0.7420829921865608, 0.8503881699472724, 0.039636165815690294),
            (0.8937338903613812, 0.12459698209528935, 0.18449352588211665),
            (0.8584328426338852, 0.9774357736635099, 0.714068708524191),
        ),
        (1.0582651563147776, 0.21782646578328974, 0.31696694728857283, -1.2291180433986215),
        (-2.462140703931107, -0.8394487830787712),
    ),
    (
        (
            (0.6681803589904921, 0.9795887204485281, 0.04058616002771698),
            (0.1939563446897764, 0.9741240889113205, 0.47333112700883473),
            (0.09513668982979173, 0.33202910631584504, 0.7771209351940669),
            (0.9231675561426278, 0.09896443074977623, 0.771814311273685),
        ),
        (-0.26482371130284277, -0.7566965976807078, -0.3304317073588221, -0.12578402644413691),
        (-1.6676725385110698, -1.171604539298289),
    ),
]

# Real strengths whose determinant has a mirror pair of zeros z, -conj(z)
# about 6e-4 node spacings inside the circle |z| = MIRROR_PAIR_RADIUS; the
# closed disk holds MIRROR_PAIR_COUNT zeros.
MIRROR_PAIR_CENTERS = (
    (0.691227366448778, 0.9698949420187952, 0.8542716060631037),
    (0.32079293540847, 0.17295755331514173, 0.4676722475637567),
    (0.22022426742988466, 0.808898181949266, 0.837434208162334),
    (0.736581661444193, 0.007887367834404357, 0.8853508451942842),
    (0.04367636224973315, 0.46893073237440597, 0.15605415409225354),
)
MIRROR_PAIR_STRENGTHS = (
    -1.3026944678388348, -0.04681677240270975, 0.5055627401964431, 1.5535908651660093,
    -0.9489088090180343,
)
MIRROR_PAIR_RADIUS = 123.9825075442799
MIRROR_PAIR_COUNT = 195


def _double_disphenoid():
    one = np.array([[0.3, 0, 0], [-0.3, 0, 0], [0, 0.3, 1], [0, -0.3, 1]])
    return np.vstack([one, one + [5.0, 0.0, 0.0]])


# The four structured N = 8 shapes of the classify benchmark at canonical
# placement.  Cube and octagon have one antipodal maximizer; collinear
# points and the double disphenoid tie at the top.
SHAPES = {
    "cube": np.array(list(itertools.product((0.0, 1.0), repeat=3))),
    "octagon": np.array(
        [[math.cos(k * math.pi / 4), math.sin(k * math.pi / 4), 0.0] for k in range(8)]
    ),
    "collinear": np.array([[float(k), 0.0, 0.0] for k in range(8)]),
    "double-disphenoid": _double_disphenoid(),
}


@lru_cache(maxsize=None)
def _all_permutations(n):
    return np.array(list(itertools.permutations(range(n))))


def brute_size(config):
    """Brute-force size oracle over all N! permutations.

    Returns V(Y) and the set of permutation images within
    1e-9 * max(1, V) of it (the ties).
    """
    d = config.distances
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


def scale_configuration(config, c):
    """Every center multiplied by c > 0: distances scale by c."""
    return Configuration(config.centers * c)


def apply_rigid_motion(config, rng):
    rot = random_rotation(rng)
    shift = rng.normal(size=3)
    return validate_configuration(config.centers @ rot.T + shift)


@pytest.fixture
def distance_spy(monkeypatch):
    """The point sets whose pairwise distances are computed while the test
    runs: every (N, N, 3) difference array passed to np.linalg.norm."""
    norm, calls = np.linalg.norm, []

    def spy(x, *args, **kwargs):
        if x.ndim == 3 and x.shape[0] == x.shape[1] and x.shape[2] == 3:
            calls.append(x[0].copy())  # y_0 - y_j: the centers up to a shift
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    return calls


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
