"""Permutation combinatorics: cycles, signs, multigraphs, edge-equivalence.

Each permutation sigma of {1..N} carries an undirected multigraph on the N
vertex labels: vertex j is joined to sigma(j) for every j, a fixed point
contributing a loop and a 2-cycle a double edge.  Two permutations are
edge-equivalent when these multigraphs coincide with multiplicities, which
happens exactly when one is obtained from the other by inverting some of
its cycles.  The equivalence classes of the full symmetric group are
enumerated here with a deterministic choice of representatives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _sweep
from .errors import SizeMismatch, TooLarge, ValidationError

# Hard cap for full S_N enumeration (10! = 3,628,800 permutations).
MAX_ENUM_N = 10


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..N}; images stored 0-based in a tuple."""

    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(int(x) for x in self.image)
        n = len(img)
        if n == 0 or sorted(img) != list(range(n)):
            raise ValidationError(f"not a permutation of 0..{n - 1}: {img}")
        object.__setattr__(self, "image", img)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from 0-based cycles; omitted indices are fixed points."""
        img = list(range(n))
        for cyc in cycles:
            cyc = tuple(cyc)
            for i, j in zip(cyc, cyc[1:] + cyc[:1]):
                img[i] = j
        return cls(tuple(img))

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, j: int) -> int:
        return self.image[j]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for j, k in enumerate(self.image):
            inv[k] = j
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        cycles = cycle_decompose(self)
        return "".join("[" + " ".join(str(j + 1) for j in c) + "]" for c in cycles)


@dataclass(frozen=True, eq=False)
class ClassRepresentatives:
    """One representative per edge-equivalence class of S_N.

    `images` is a read-only (classes, N) int8 array, row k holding the
    0-based images of the k-th representative; the Permutation objects are
    built on first read of `representatives`.
    """

    images: np.ndarray
    class_sizes: tuple[int, ...]

    @cached_property
    def representatives(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation, self.images.tolist()))

    @property
    def n_classes(self) -> int:
        return len(self.images)


def cycle_decompose(sigma: Permutation) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles covering {0..N-1}, singletons included.

    Canonical form: each cycle starts at its smallest element, and cycles
    are sorted by that element.
    """
    seen = [False] * sigma.n
    cycles = []
    for start in range(sigma.n):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = sigma.image[start]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = sigma.image[j]
        cycles.append(tuple(cyc))
    # starts are visited in increasing order, so cycles are already sorted
    # by smallest element and each begins at it
    return tuple(cycles)


def permutation_sign(sigma: Permutation) -> int:
    """Sign of the permutation, computed as (-1)**(N - #cycles)."""
    return -1 if (sigma.n - len(cycle_decompose(sigma))) % 2 else 1


def edge_multigraph(sigma: Permutation) -> tuple[tuple[int, int], ...]:
    """Strip directions off the bonds j -> sigma(j).

    Every index j contributes one normalized pair (min, max) of {j, sigma(j)},
    loops included, so the sorted tuple has N pairs and the multiplicity of
    an edge is its repetition count.
    """
    return tuple(sorted((min(j, k), max(j, k)) for j, k in enumerate(sigma.image)))


def edge_equivalent(sigma: Permutation, tau: Permutation) -> bool:
    """True iff the two undirected multigraphs agree with multiplicities."""
    if sigma.n != tau.n:
        raise SizeMismatch(f"permutation sizes differ: {sigma.n} vs {tau.n}")
    return edge_multigraph(sigma) == edge_multigraph(tau)


def class_mates(sigma: Permutation) -> list[Permutation]:
    """All permutations obtained by inverting subsets of sigma's cycles.

    This is exactly the edge-equivalence class of sigma; its size is
    2**(number of cycles of length >= 3) since shorter cycles are
    self-inverse.
    """
    cycles = cycle_decompose(sigma)
    invertible = [c for c in cycles if len(c) >= 3]
    rigid = [c for c in cycles if len(c) < 3]
    mates = set()
    for flips in itertools.product((False, True), repeat=len(invertible)):
        img = list(range(sigma.n))
        chosen = list(rigid) + [
            c[::-1] if flip else c for c, flip in zip(invertible, flips)
        ]
        for cyc in chosen:
            for i, j in zip(cyc, cyc[1:] + cyc[:1]):
                img[i] = j
        mates.add(tuple(img))
    return [Permutation(img) for img in sorted(mates)]


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
