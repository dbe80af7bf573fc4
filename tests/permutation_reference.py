"""Definition-level permutation object model, kept as a test oracle.

The package holds permutations only as 0-based image arrays
(`enumerate_classes(n)`, the `_sweep` blocks, `SizeReport.argmax`
and `GenericityReport.witness_pair`).  This module keeps the literal
reading of the definitions: a `Permutation` object, its cycles and sign,
its undirected bond multigraph, edge-equivalence by multigraph equality,
the class of a permutation built by inverting subsets of its cycles, and
the bond length V_sigma.  `enumerate_classes` and the sweep's parity are
checked against it, and `expoly_reference.leibniz_terms` is built on it.
`classes_by_codes` enumerates the classes a second way, by multigraph
codes over all of S_N.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from resonance_sizer import Configuration, ValidationError, validate_configuration
from resonance_sizer.errors import SizeMismatch


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


def v_sigma(config: Configuration, sigma: Permutation) -> float:
    """Total bond length sum_j |y_j - y_sigma(j)| (fixed points contribute 0)."""
    config = validate_configuration(config)
    if sigma.n != config.n:
        raise SizeMismatch(f"permutation on {sigma.n} items vs {config.n} centers")
    d = config.distances
    return float(d[np.arange(d.shape[0]), np.asarray(sigma.image)].sum())


def multigraph_codes(perms: np.ndarray) -> np.ndarray:
    """Per-row sorted pair codes lo*N+hi; equal rows <=> edge-equivalent."""
    n = perms.shape[1]
    ar = np.arange(n)
    lo = np.minimum(perms, ar)
    hi = np.maximum(perms, ar)
    return np.sort(lo * n + hi, axis=1)


def classes_by_codes(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Edge-equivalence classes of S_N from the multigraph codes of all N!
    permutations: the read-only int8 images of each class's first member in
    lexicographic order (its smallest), sorted, and the class sizes."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    codes = multigraph_codes(perms.astype(np.int64)).astype(np.int8)
    # first occurrence in lexicographic enumeration = lexicographically
    # smallest class member
    _, first, counts = np.unique(codes, axis=0, return_index=True, return_counts=True)
    order = np.lexsort(perms[first].T[::-1])
    images = perms[first[order]]
    images.setflags(write=False)
    return images, tuple(counts[order].tolist())
