"""Stable-argsort genericity test, kept as a test oracle.

`is_generic_reference` is the genericity test as `resonance_sizer.sizing`
ran it before its sort became unstable: the class values gathered by 2-D
fancy indexing, one stable argsort of them, and the witness pair read off
the stable order at the first smallest gap.  `sizing.is_generic` must give
an equal `GenericityReport` bit for bit.

Run as a script on a JSON run configuration (`{"centers": ...}`), it
compares the two reports and exits 1 when they differ:

    python -m tests.sizing_reference CONFIG.json
"""

from __future__ import annotations

import json
import sys

import numpy as np

from resonance_sizer import enumerate_classes, is_generic, validate_configuration
from resonance_sizer.sizing import DEFAULT_GAP_TOL, GenericityReport

# Representatives per block, as the fancy-index gather took them.
_BLOCK = 1 << 15


def representative_values_reference(config) -> tuple[np.ndarray, np.ndarray]:
    """Class representatives and their V values, block by block."""
    d = config.distances
    reps = enumerate_classes(len(d))
    values = np.empty(len(reps))
    for start in range(0, len(reps), _BLOCK):
        rows = slice(start, start + _BLOCK)
        d[np.arange(len(d)), reps[rows]].sum(axis=1, out=values[rows])
    return reps, values


def closest_pair_reference(values: np.ndarray) -> tuple[int, int, float]:
    """Indices and gap of the pair at the first smallest gap of the stable
    order of the values."""
    order = np.argsort(values, kind="stable")
    gaps = np.diff(values[order])
    i = int(np.argmin(gaps))
    return int(order[i]), int(order[i + 1]), float(gaps[i])


def is_generic_reference(config, gap_tol: float = DEFAULT_GAP_TOL) -> GenericityReport:
    """The closest pair of class values in the stable order of the values."""
    reps, values = representative_values_reference(config)
    tol = gap_tol * max(1.0, float(values.max()))
    first, second, min_gap = closest_pair_reference(values)
    witness = tuple(tuple(row) for row in reps[[first, second]].tolist())
    return GenericityReport(min_gap > tol, min_gap, witness, tol)


def main(argv: list[str]) -> int:
    (path,) = argv
    with open(path) as fh:
        config = validate_configuration(json.load(fh)["centers"])
    got, want = is_generic(config), is_generic_reference(config)
    same = got == want
    print(f"N = {config.n} is_generic equals the stable-argsort oracle: {same}")
    if not same:
        print(f"  is_generic: {got}\n  oracle:     {want}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
