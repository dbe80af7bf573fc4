"""Weyl classification and counting-function growth.

The zero counting function grows like (b_nu / pi) * R + O(1), with b_nu the
effective size from the canonical exponential-polynomial form.  The
classification compares b_nu with the configuration size V(Y): equality
(within tolerance) is Weyl-type, a strict deficit means the top frequency
cancelled.  An optional least-squares fit of empirical counts against R
cross-checks the slope; it is advisory only, because the O(1) term makes
finite-radius slopes noisy while b_nu and V are exact combinatorial data.

`classify` takes b_nu from the class certificate (`sizing.certify_top_class`)
when V's maximizers form one edge-equivalence class clear of every other
permutation.  Otherwise it walks down from V (`sizing.walk_top`): it lists
the permutations within a growing depth of V and reduces their frequency
clusters from the top, as `expand` does, until one survives; at N <= 10
that decides every input without the N! sweep.  It expands the determinant
only when counts are asked for.  `genericity_scan` expands every trial: it
reports near-cancelled frequency groups, which only the full expansion
has.  It expands its trials in batches, each one sweep, one sort and one
cluster reduction (`expoly._expand_stack`, of which `expand` is the batch
of one), and reads V, b_nu and the near cancellations of each trial off
the batch's groups, with no `ExpoPolynomial` built.  V is the frequency of
a trial's top group (cancelled or not), whose cluster spread is far inside
class_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _sweep
from .errors import TooFewCenters, TooFewPoints, TooLarge, ValidationError
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, _check_tolerances, _expand_stack
from .expoly import _mask_polynomials, _near_cancelled, expand
from .geometry import Configuration, distance_matrix, random_configuration, strength_values
from .geometry import validate_configuration
from .permutations import MAX_ENUM_N
from .sizing import certify_top_class, is_generic, walk_top
# Not called here; bench/selftest.py checks that its tracer rebinds this name.
from .sizing import size_v  # noqa: F401
from .zeros import _check_radii, _disk_counts

DEFAULT_CLASS_TOL = 1e-8

WEYL = "Weyl"
NON_WEYL = "NonWeyl"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CountingReport:
    """Exact effective size vs configuration size, plus optional empirics.

    `class_margin` is the class certificate's margin when the certificate
    decided b_nu, and None when the walk down from V or the determinant
    expansion did.
    """

    b_nu: float
    v: float
    classification: str
    relative_discrepancies: dict
    radii: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None
    winding_residuals: tuple[float, ...] | None = None
    fitted_slope: float | None = None
    fitted_intercept: float | None = None
    w_est: float | None = None
    class_margin: float | None = None


@dataclass(frozen=True)
class ScanSummary:
    """Aggregate of a randomized genericity scan."""

    n: int
    trials: int
    seed: int
    fraction_generic: float | None
    fraction_weyl: float | None
    min_gap_quantiles: dict
    near_cancellation_count: int
    near_cancellation_trials: tuple[int, ...]


def _check_integer(name: str, value) -> None:
    """Reject a value that is not an int or numpy integer (bools too)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_skip(skip, n_points: int) -> None:
    """Reject a skip that is not an integer >= 0 or that leaves fewer than
    3 of n_points to fit."""
    _check_integer("skip", skip)
    if skip < 0:
        raise ValidationError(f"skip must be >= 0, got {skip}")
    if n_points - skip < 3:
        raise TooFewPoints(
            f"need at least 3 points after skip={skip}, got {max(n_points - skip, 0)}"
        )


def fit_slope(radii, counts, skip: int = 0) -> tuple[float, float]:
    """Ordinary least squares of counts against radii, dropping the first
    `skip` transient points (skip an integer >= 0)."""
    r = np.asarray(radii, dtype=float)
    c = np.asarray(counts, dtype=float)
    _check_skip(skip, len(r))
    slope, intercept = np.polyfit(r[skip:], c[skip:], 1)
    return float(slope), float(intercept)


def _verdict(b_nu: float, v: float, class_tol: float) -> str:
    """Weyl iff |b_nu - V| <= class_tol * max(1, V); NonWeyl iff b_nu falls
    short of V by more than that."""
    tol = class_tol * max(1.0, v)
    if abs(b_nu - v) <= tol:
        return WEYL
    if b_nu < v - tol:
        return NON_WEYL
    return INCONCLUSIVE


def classify(
    strengths,
    config: Configuration,
    radii=None,
    class_tol: float = DEFAULT_CLASS_TOL,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
    skip: int | None = None,
) -> CountingReport:
    """Classify the counting asymptotics of a configuration.

    Weyl iff |b_nu - V| <= class_tol * max(1, V); NonWeyl iff b_nu falls
    short of V by more than that.  When radii are given, the empirical
    counting function is computed and fitted (skipping radii below
    20 / b_nu by default) and pi * slope is reported as a consistency
    estimate of the effective size.  class_tol, freq_tol and cancel_tol
    must be finite and >= 0; radii, at least 3 of them, finite, > 0 and
    strictly increasing.  Every input is checked before any expansion.

    Without radii, b_nu comes from the class certificate where it holds
    (then N is not capped, and `class_margin` reports its margin);
    otherwise from the walk down from V (`sizing.walk_top`, `class_margin`
    None), which decides every input at N <= 10 and raises `TooLarge`
    above when a level of its listing passes the cap.  With radii it comes
    from the expansion, which the counts need (N <= 10).
    """
    _check_tolerances(class_tol=class_tol, freq_tol=freq_tol, cancel_tol=cancel_tol)
    config = validate_configuration(config)
    a = strength_values(strengths, config.n)
    if radii is not None:
        radii = _check_radii(radii)
        if len(radii) < 3:
            raise TooFewPoints(f"need at least 3 radii to fit, got {len(radii)}")
        if skip is not None:  # before the expansion and the counts
            _check_skip(skip, len(radii))
    top = certify_top_class(config, freq_tol=freq_tol, cancel_tol=cancel_tol)
    v, margin = top.v, None
    if radii is not None:
        epoly, _ = expand(a, config, freq_tol=freq_tol, cancel_tol=cancel_tol)
        b_nu = epoly.effective_size
    elif top.b_nu is not None:
        b_nu, margin = top.b_nu, top.margin
    else:
        try:
            b_nu = walk_top(a, config, freq_tol=freq_tol, cancel_tol=cancel_tol)
        except TooLarge as err:
            raise TooLarge(
                f"top frequency not certified (class margin {top.margin:.3e}, "
                f"needs > {top.threshold:.3e}), and {err}"
            ) from None
    classification = _verdict(b_nu, v, class_tol)
    discrepancies = {"b_nu_vs_v": abs(b_nu - v) / max(1.0, v)}

    radii_out = counts = residuals = None
    slope = intercept = w_est = None
    if radii is not None:
        if skip is None:
            skip = sum(1 for r in radii if r < 20.0 / b_nu)
            _check_skip(skip, len(radii))
        zero_counts = _disk_counts(epoly, radii)
        radii_out = tuple(zc.radius for zc in zero_counts)
        counts = tuple(zc.count for zc in zero_counts)
        residuals = tuple(zc.winding_residual for zc in zero_counts)
        slope, intercept = fit_slope(radii_out, counts, skip=skip)
        w_est = np.pi * slope
        discrepancies["slope_vs_b_nu"] = abs(w_est - b_nu) / b_nu
    return CountingReport(
        b_nu=b_nu,
        v=v,
        classification=classification,
        relative_discrepancies=discrepancies,
        radii=radii_out,
        counts=counts,
        winding_residuals=residuals,
        fitted_slope=slope,
        fitted_intercept=intercept,
        w_est=w_est,
        class_margin=margin,
    )


def _quantiles(values: np.ndarray) -> dict:
    if len(values) == 0:
        return {}
    qs = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    return {
        "min": float(qs[0]),
        "p25": float(qs[1]),
        "median": float(qs[2]),
        "p75": float(qs[3]),
        "max": float(qs[4]),
    }


def _trial_readings(stack: tuple, cancel_tol: float) -> tuple[list, list, list]:
    """V, b_nu and the near-cancellation count of each matrix of an
    `expoly._expand_stack` result, as lists.

    V is the frequency of the matrix's top group, cancelled or not: the
    size V(Y) up to the spread of its cluster (freq_tol * max(1, V) per
    link), far inside class_tol.  b_nu is the frequency of its last group
    that did not cancel (the zero-frequency group never does), `expand`'s
    effective size; the count is that of `near_cancellations`."""
    bounds, freqs, _, pre_scale, post_scale, cancelled = stack
    alive = np.flatnonzero(~cancelled)
    b_nu = freqs[alive[np.searchsorted(alive, bounds[1:]) - 1]]
    near = np.add.reduceat(
        _near_cancelled(pre_scale, post_scale, cancel_tol), bounds[:-1], dtype=np.intp
    )
    return freqs[bounds[1:] - 1].tolist(), b_nu.tolist(), near.tolist()


def genericity_scan(n: int, trials: int, seed: int) -> ScanSummary:
    """Randomized scan of configurations for genericity and Weyl-ness.

    Draws `trials` configurations of n centers uniformly in the unit cube
    (random_configuration's default minimum gap), each from its own RNG
    stream: trial t uses SeedSequence(seed, spawn_key=(t,)), the stream
    SeedSequence(seed).spawn would give it.  Every trial has zero strengths
    and the default tolerances of is_generic, expand and classify.  Records
    the fraction that is generic, the fraction classified Weyl, the
    distribution of the genericity gap, and any trial whose expansion had a
    near-cancelled frequency group (CancellationReport.near_cancellations).
    n, `trials` and `seed` must be integers (not bools), `trials` and `seed`
    nonnegative, and 2 <= n <= MAX_ENUM_N (the expansion's cap), whatever
    the number of trials.

    Trials are expanded in batches, as many as `_sweep._BLOCK` (7!) terms
    hold and at least one: 42 trials at N = 5, one from N = 7 on.  So
    memory does not grow with `trials`, and each batch takes one sweep,
    one sort and one cluster reduction (`expoly._expand_stack`), which give
    every trial the same doubles as its own `expand`.
    """
    for name, value in (("n", n), ("trials", trials), ("seed", seed)):
        _check_integer(name, value)
    n, trials, seed = int(n), int(trials), int(seed)
    if trials < 0 or seed < 0:
        raise ValidationError(f"trials and seed must be >= 0, got trials={trials}, seed={seed}")
    if n < 2:
        raise TooFewCenters(f"need at least 2 centers, got {n}")
    if n > MAX_ENUM_N:
        raise TooLarge(f"determinant expansion capped at N <= {MAX_ENUM_N}, got {n}")
    table = _mask_polynomials(-4 * np.pi * np.zeros(n, dtype=complex))
    batch = max(1, _sweep._BLOCK // math.factorial(n))
    generic_flags = []
    weyl_flags = []
    min_gaps = []
    near_trials = []
    near_count = 0
    for first in range(0, trials, batch):
        ds = []
        for t in range(first, min(first + batch, trials)):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
            config = random_configuration(n, rng)
            report = is_generic(config)
            generic_flags.append(report.is_generic)
            min_gaps.append(report.min_gap)
            ds.append(distance_matrix(config))
        stack = _expand_stack(np.stack(ds), table, DEFAULT_FREQ_TOL, DEFAULT_CANCEL_TOL)
        v, b_nu, near = _trial_readings(stack, DEFAULT_CANCEL_TOL)
        for t, top, b, k in zip(range(first, trials), v, b_nu, near):
            weyl_flags.append(_verdict(b, top, DEFAULT_CLASS_TOL) == WEYL)
            if k:
                near_count += k
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
