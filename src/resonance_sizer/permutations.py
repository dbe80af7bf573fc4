"""Edge-equivalence classes of the symmetric group, on image arrays.

A permutation sigma of {0..N-1} is held as its image array: row entry j is
sigma(j).  Each permutation carries an undirected multigraph on the N
vertex labels: vertex j is joined to sigma(j) for every j, a fixed point
contributing a loop and a 2-cycle a double edge.  Two permutations are
edge-equivalent when these multigraphs coincide with multiplicities, which
happens exactly when one is obtained from the other by inverting some of
its cycles.  Here every permutation of S_N is coded by its sorted edge
list in one vectorized sweep, and the classes are enumerated with a
deterministic choice of representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _sweep
from .errors import TooLarge, ValidationError

# Hard cap for full S_N enumeration (10! = 3,628,800 permutations).
MAX_ENUM_N = 10


@dataclass(frozen=True, eq=False)
class ClassRepresentatives:
    """One representative per edge-equivalence class of S_N.

    `images` is a read-only (classes, N) int8 array, row k holding the
    0-based images of the k-th representative; `class_sizes[k]` is the
    size of its class.
    """

    images: np.ndarray
    class_sizes: tuple[int, ...]

    @property
    def n_classes(self) -> int:
        return len(self.images)


def _check_enum_n(n: int) -> None:
    if n < 2:
        raise ValidationError(f"need N >= 2, got {n}")
    if n > MAX_ENUM_N:
        raise TooLarge(f"full S_N enumeration capped at N <= {MAX_ENUM_N}, got {n}")


def _multigraph_codes(perms: np.ndarray) -> np.ndarray:
    """Per-row sorted pair codes lo*N+hi; equal rows <=> edge-equivalent."""
    n = perms.shape[1]
    ar = np.arange(n)
    lo = np.minimum(perms, ar)
    hi = np.maximum(perms, ar)
    return np.sort(lo * n + hi, axis=1)


@lru_cache(maxsize=None)
def enumerate_classes(n: int) -> ClassRepresentatives:
    """Partition S_N into edge-equivalence classes.

    The representative of each class is its lexicographically smallest
    member; representatives are returned in lexicographic order together
    with the class sizes (which sum to N!).
    """
    _check_enum_n(n)
    code_blocks = []
    perm_blocks = []
    for _, block in _sweep.perm_blocks(n):
        perms = block.astype(np.int8)
        perm_blocks.append(perms)
        code_blocks.append(_multigraph_codes(perms).astype(np.int8))
    codes = np.concatenate(code_blocks)
    perms = np.concatenate(perm_blocks)
    # first occurrence in lexicographic enumeration = lexicographically
    # smallest class member
    _, first, counts = np.unique(codes, axis=0, return_index=True, return_counts=True)
    order = np.lexsort(perms[first].T[::-1])
    images = perms[first[order]]
    images.setflags(write=False)
    sizes = tuple(counts[order].tolist())
    assert sum(sizes) == math.factorial(n)
    return ClassRepresentatives(images, sizes)
