"""Vectorized block sweeps over the full symmetric group.

The determinant expansion and the class enumeration each need one pass over
all N! permutations in lexicographic order.  Permutations are materialized
in blocks and reduced with numpy.  Each block comes with the inversion-count
parity of its rows: the cached parity of the tail table, flipped by the
block prefix's own inversions (relabelling the tail in increasing order
keeps its inversions).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterator

import numpy as np

# Upper bound on the rows of one block.  7! rows keep the cached S_7 table
# at 280 KB; a cached S_8 table (2.6 MB) would stay resident for the life
# of the process and raise the peak RSS of an N = 8 expansion.
_BLOCK = math.factorial(7)


@lru_cache(maxsize=None)
def _lex_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """S_m in lexicographic order, as a read-only (m!, m) array, and the
    read-only inversion-count parity (0 even, 1 odd) of each row.

    Rows starting with f are f followed by S_{m-1}'s rows mapped onto the
    other symbols in increasing order, which is lexicographic again; the
    leading f adds f inversions to those of the mapped row.
    """
    table = np.zeros((1, 0), dtype=np.int64)
    parity = np.zeros(1, dtype=np.int8)
    for size in range(1, m + 1):
        others = np.array([[j for j in range(size) if j != f] for f in range(size)])
        grown = np.empty((size, len(table), size), dtype=np.int64)
        grown[:, :, 0] = np.arange(size)[:, None]
        grown[:, :, 1:] = others[:, table]
        table = grown.reshape(-1, size)
        parity = ((np.arange(size, dtype=np.int8)[:, None] + parity) & 1).reshape(-1)
    table.setflags(write=False)
    parity.setflags(write=False)
    return table, parity


def perm_blocks(n: int, block_size: int = _BLOCK) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (parity, block) over S_n in lexicographic order.

    With m the largest tail length such that m! <= block_size, each block
    is one fixed prefix of n - m symbols followed by the cached S_m table
    mapped onto the remaining symbols.  For m = n the single block is the
    cached read-only table itself.  `parity` holds the inversion-count
    parity (0 even, 1 odd) of each row.
    """
    tail = n
    while math.factorial(tail) > block_size:
        tail -= 1
    table, table_parity = _lex_table(tail)
    if tail == n:
        yield table_parity, table
        return
    k = n - tail
    for prefix in itertools.permutations(range(n), k):
        rest = np.array(sorted(set(range(n)).difference(prefix)))
        block = np.empty((len(table), n), dtype=np.int64)
        block[:, :k] = prefix
        np.take(rest, table, out=block[:, k:], mode="clip")
        # inversions of the prefix with everything after it
        inversions = sum(p - sum(q < p for q in prefix[:i]) for i, p in enumerate(prefix))
        yield table_parity ^ np.int8(inversions & 1), block


def _block_terms(
    d: np.ndarray, parity: np.ndarray, perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies, signed bond-length weights, and fixed-point masks of the
    permutation rows `perms` (any integer dtype) with inversion parities
    `parity`: per row the total bond length V, the weight
    sign * prod(1/length) over moved indices, and the bitmask of fixed
    points (int64, so N <= 63).  `d` is one (N, N) distance matrix or a
    (T, N, N) stack; V and the weights then get one leading axis per matrix,
    and each row's sum and product are the same doubles either way.  The
    masks do not depend on `d`: one per row."""
    ar = np.arange(d.shape[-1])
    bond = d[..., ar, perms]
    fixed = perms == ar
    k1 = 1.0 / np.where(fixed, 1.0, bond).prod(axis=-1)
    return bond.sum(axis=-1), np.where(parity, -k1, k1), (fixed * (1 << ar)).sum(axis=1)


def _block_values(d: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """V of each permutation row, summed as `_block_terms` sums it."""
    return d[np.arange(d.shape[0]), perms].sum(axis=1)


def term_arrays(ds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_block_terms` of every permutation for each of the T distance
    matrices of the (T, N, N) stack `ds`, as flat trial-major arrays of
    T * N! terms: matrix t's terms, in lexicographic order, fill
    [t * N!, (t + 1) * N!).

    Arrays cover all of S_N (N <= 10 keeps this desk-scale).  Each block
    is written into place, so no more than one block's temporaries are
    held besides the three arrays.
    """
    n = ds.shape[-1]
    v = np.empty((len(ds), math.factorial(n)))
    w = np.empty_like(v)
    masks = np.empty(v.shape, dtype=np.int64)
    lo = 0
    for parity, perms in perm_blocks(n):
        rows = slice(lo, lo + len(perms))
        v[:, rows], w[:, rows], masks[:, rows] = _block_terms(ds, parity, perms)
        lo += len(perms)
    return v.reshape(-1), w.reshape(-1), masks.reshape(-1)
