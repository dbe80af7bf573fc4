"""Per-trial genericity scan, kept as a test oracle.

`genericity_scan_reference` is the scan as `resonance_sizer.asymptotics`
ran it before it expanded its trials in batches: one `is_generic` and one
full `expand` per trial, with V read off the expansion's top group
(cancelled or not), b_nu its effective size and the near cancellations from
`CancellationReport.near_cancellations`.  `genericity_scan` must give an
equal `ScanSummary`, float for float.

Run as a script, it compares the two summaries and exits 1 when they
differ:

    python -m tests.asymptotics_reference N TRIALS SEED
"""

from __future__ import annotations

import sys

import numpy as np

from resonance_sizer import expand, genericity_scan, is_generic, random_configuration
from resonance_sizer.asymptotics import DEFAULT_CLASS_TOL, WEYL, ScanSummary, _quantiles, _verdict


def genericity_scan_reference(n: int, trials: int, seed: int) -> ScanSummary:
    """The scan with one `expand` per trial."""
    a = np.zeros(n, dtype=complex)
    generic_flags = []
    weyl_flags = []
    min_gaps = []
    near_trials = []
    near_count = 0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        config = random_configuration(n, rng)
        report = is_generic(config)
        generic_flags.append(report.is_generic)
        min_gaps.append(report.min_gap)
        epoly, cancels = expand(a, config)
        v = cancels.groups[-1].frequency
        weyl_flags.append(_verdict(epoly.effective_size, v, DEFAULT_CLASS_TOL) == WEYL)
        near = cancels.near_cancellations()
        if near:
            near_count += len(near)
            near_trials.append(t)
    return ScanSummary(
        n=n,
        trials=trials,
        seed=seed,
        fraction_generic=float(np.mean(generic_flags)) if trials else None,
        fraction_weyl=float(np.mean(weyl_flags)) if trials else None,
        min_gap_quantiles=_quantiles(np.asarray(min_gaps)),
        near_cancellation_count=near_count,
        near_cancellation_trials=tuple(near_trials),
    )


def main(argv: list[str]) -> int:
    n, trials, seed = map(int, argv)
    got, want = genericity_scan(n, trials, seed), genericity_scan_reference(n, trials, seed)
    same = got == want
    print(f"N = {n}, {trials} trials, seed {seed}: genericity_scan equals the per-trial oracle: {same}")
    if not same:
        print(f"  genericity_scan: {got}\n  oracle:          {want}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
