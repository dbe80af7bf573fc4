"""Vectorized block sweeps over the full symmetric group.

The determinant expansion and the class enumeration each need one pass over
all N! permutations in lexicographic order.  Permutations are materialized
in blocks and reduced with numpy; the permutation sign is recovered from the
lexicographic rank through its factorial-base digits (whose sum is the
inversion count).
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
def _lex_table(m: int) -> np.ndarray:
    """S_m in lexicographic order, as a read-only (m!, m) array.

    Rows starting with f are f followed by S_{m-1}'s rows mapped onto the
    other symbols in increasing order, which is lexicographic again.
    """
    table = np.zeros((1, 0), dtype=np.int64)
    for size in range(1, m + 1):
        others = np.array([[j for j in range(size) if j != f] for f in range(size)])
        grown = np.empty((size, len(table), size), dtype=np.int64)
        grown[:, :, 0] = np.arange(size)[:, None]
        grown[:, :, 1:] = others[:, table]
        table = grown.reshape(-1, size)
    table.setflags(write=False)
    return table


def perm_blocks(n: int, block_size: int = _BLOCK) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (start_rank, block) over S_n in lexicographic order.

    With m the largest tail length such that m! <= block_size, each block
    is one fixed prefix of n - m symbols followed by the cached S_m table
    mapped onto the remaining symbols.  For m = n the single block is the
    cached read-only table itself.
    """
    tail = n
    while math.factorial(tail) > block_size:
        tail -= 1
    table = _lex_table(tail)
    if tail == n:
        yield 0, table
        return
    k = n - tail
    start = 0
    for prefix in itertools.permutations(range(n), k):
        rest = np.array(sorted(set(range(n)).difference(prefix)))
        block = np.empty((len(table), n), dtype=np.int64)
        block[:, :k] = prefix
        np.take(rest, table, out=block[:, k:], mode="clip")
        yield start, block
        start += len(block)


def rank_parity(ranks: np.ndarray, n: int) -> np.ndarray:
    """Inversion-count parity of lexicographic ranks (0 even, 1 odd)."""
    ranks = np.asarray(ranks, dtype=np.int64)
    total = np.zeros_like(ranks)
    f = math.factorial(n - 1)
    for i in range(n - 1):
        total += (ranks // f) % (n - i)
        f //= n - 1 - i
    return total & 1


def term_arrays(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frequencies, signed bond-length weights, and fixed-point masks.

    For every permutation in lexicographic order: the total bond length V,
    the weight sign * prod(1/length) over moved indices, and the bitmask of
    fixed points.  Arrays cover all of S_N (N <= 10 keeps this desk-scale).
    """
    n = d.shape[0]
    ar = np.arange(n)
    bits = 1 << ar
    v_parts, w_parts, m_parts = [], [], []
    for start, perms in perm_blocks(n):
        bond = d[ar, perms]
        fixed = perms == ar
        v_parts.append(bond.sum(axis=1))
        k1 = 1.0 / np.where(fixed, 1.0, bond).prod(axis=1)
        parity = rank_parity(np.arange(start, start + len(perms)), n)
        w_parts.append(np.where(parity, -k1, k1))
        m_parts.append((fixed * bits).sum(axis=1))
    return (
        np.concatenate(v_parts),
        np.concatenate(w_parts),
        np.concatenate(m_parts),
    )
