"""Edge-equivalence classes of the symmetric group, on image arrays.

A permutation sigma of {0..N-1} is held as its image array: entry j is
sigma(j).  Joining j to sigma(j) for every j gives an undirected multigraph
(a fixed point gives a loop, a 2-cycle a double edge).  Two permutations
are edge-equivalent when their multigraphs coincide with multiplicities,
that is when one is the other with some cycles inverted, so the class of
sigma has 2^k members for k cycles of length >= 3.  This module alone
holds that rule.  Inverting such a cycle changes sigma first at the
cycle's smallest element m, so the lexicographically smallest member of a
class has sigma(m) < sigma^-1(m) on each of them: the canonical orientation.
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


def _cycles(image) -> list[list[int]]:
    """Cycles of `image`, fixed points included: each starts at its smallest
    element and follows the permutation, in increasing order of that start."""
    succ = [int(k) for k in image]
    out, seen = [], [False] * len(succ)
    for start in range(len(succ)):
        j, cycle = start, []
        while not seen[j]:
            seen[j] = True
            cycle.append(j)
            j = succ[j]
        if cycle:
            out.append(cycle)
    return out


def _has_even_cycle(image) -> bool:
    """True when `image` has a cycle of even length >= 4: its bonds also form
    two products of transpositions, which lie outside its class."""
    return any(len(c) >= 4 and len(c) % 2 == 0 for c in _cycles(image))


def _class_members(image) -> np.ndarray:
    """The edge-equivalence class of `image`, one member per row: every
    subset of its cycles of length >= 3 inverted (2^k rows for k such
    cycles, `image` itself first)."""
    members = [[int(k) for k in image]]
    for cycle in (c for c in _cycles(image) if len(c) >= 3):
        back = dict(zip(cycle, cycle[-1:] + cycle[:-1]))  # the cycle inverted
        members += [[back.get(j, k) for j, k in enumerate(row)] for row in members]
    return np.array(members)


@lru_cache(maxsize=None)
def enumerate_classes(n: int) -> ClassRepresentatives:
    """Partition S_N into edge-equivalence classes, each represented by its
    member in canonical orientation, its lexicographically smallest.  The
    sweep over S_N is lexicographic, so its canonical rows come in order."""
    if n < 2:
        raise ValidationError(f"need N >= 2, got {n}")
    if n > MAX_ENUM_N:
        raise TooLarge(f"full S_N enumeration capped at N <= {MAX_ENUM_N}, got {n}")
    image_blocks, size_blocks = [], []
    for _, block in _sweep.perm_blocks(n):
        flat = np.arange(block.size)
        # sigma on the flattened block: entry r*n + j holds r*n + sigma_r(j)
        succ = (block + flat[::n, None]).ravel()
        # smallest element of each cycle, along N - 1 steps of the cycle
        low, step = np.minimum(flat, succ), succ
        for _ in range(n - 2):
            step = succ[step]
            np.minimum(low, step, out=low)
        pred = np.empty_like(succ)
        pred[succ] = flat
        # at a cycle's smallest element m, sigma(m) - sigma^-1(m) is 0 on
        # cycles of length <= 2, < 0 in canonical orientation, > 0 otherwise
        ahead = np.where(low == flat, succ - pred, 0).reshape(block.shape)
        keep = (ahead <= 0).all(axis=1)
        image_blocks.append(block[keep].astype(np.int8))
        # int8 holds 2^3, the largest class at N <= 10
        size_blocks.append(np.left_shift(1, (ahead[keep] < 0).sum(axis=1, dtype=np.int8)))
    images = np.concatenate(image_blocks)
    images.setflags(write=False)
    sizes = tuple(np.concatenate(size_blocks).tolist())
    assert sum(sizes) == math.factorial(n)
    return ClassRepresentatives(images, sizes)
