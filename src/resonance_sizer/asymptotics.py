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
permutation, and expands the determinant otherwise, or when counts are asked
for.  `genericity_scan` always expands: it reports near-cancelled frequency
groups, which only the full expansion has.  It takes V from the same
expansion, as the frequency of its top group (cancelled or not), whose
cluster spread is far inside class_tol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooFewCenters, TooFewPoints, TooLarge, ValidationError
from .expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, expand
from .geometry import Configuration, random_configuration, strength_values, validate_configuration
from .permutations import MAX_ENUM_N
from .sizing import certify_top_class, is_generic
# Not called here; bench/selftest.py checks that its tracer rebinds this name.
from .sizing import size_v  # noqa: F401
from .zeros import _disk_counts

DEFAULT_CLASS_TOL = 1e-8

WEYL = "Weyl"
NON_WEYL = "NonWeyl"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CountingReport:
    """Exact effective size vs configuration size, plus optional empirics.

    `class_margin` is the class certificate's margin when the certificate
    decided b_nu, and None when the determinant expansion did.
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


def fit_slope(radii, counts, skip: int = 0) -> tuple[float, float]:
    """Ordinary least squares of counts against radii, dropping the first
    `skip` transient points (skip an integer >= 0)."""
    if isinstance(skip, bool) or not isinstance(skip, (int, np.integer)):
        raise ValidationError(f"skip must be an integer, got {skip!r}")
    if skip < 0:
        raise ValidationError(f"skip must be >= 0, got {skip}")
    r = np.asarray(radii, dtype=float)[skip:]
    c = np.asarray(counts, dtype=float)[skip:]
    if len(r) < 3:
        raise TooFewPoints(f"need at least 3 points after skip={skip}, got {len(r)}")
    slope, intercept = np.polyfit(r, c, 1)
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
    estimate of the effective size.

    Without radii, b_nu comes from the class certificate where it holds
    (then N is not capped); otherwise from the expansion, which is capped
    at N <= 10 (`TooLarge`).
    """
    config = validate_configuration(config)
    a = strength_values(strengths, config.n)
    top = certify_top_class(config, freq_tol=freq_tol, cancel_tol=cancel_tol)
    v = top.v
    if radii is None and top.b_nu is not None:
        b_nu, margin = top.b_nu, top.margin
    else:
        if radii is None and config.n > MAX_ENUM_N:
            raise TooLarge(
                f"top frequency not certified (class margin {top.margin:.3e}, "
                f"needs > {top.threshold:.3e}), and the determinant expansion is "
                f"capped at N <= {MAX_ENUM_N}, got N = {config.n}"
            )
        epoly, _ = expand(a, config, freq_tol=freq_tol, cancel_tol=cancel_tol)
        b_nu, margin = epoly.effective_size, None
    classification = _verdict(b_nu, v, class_tol)
    discrepancies = {"b_nu_vs_v": abs(b_nu - v) / max(1.0, v)}

    radii_out = counts = residuals = None
    slope = intercept = w_est = None
    if radii is not None:
        zero_counts = _disk_counts(epoly, radii)
        radii_out = tuple(zc.radius for zc in zero_counts)
        counts = tuple(zc.count for zc in zero_counts)
        residuals = tuple(zc.winding_residual for zc in zero_counts)
        if skip is None:
            skip = sum(1 for r in radii_out if r < 20.0 / b_nu)
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
    `trials` and `seed` must be nonnegative, and 2 <= n <= MAX_ENUM_N (the
    expansion's cap), whatever the number of trials.
    """
    if trials < 0 or seed < 0:
        raise ValidationError(f"trials and seed must be >= 0, got trials={trials}, seed={seed}")
    if n < 2:
        raise TooFewCenters(f"need at least 2 centers, got {n}")
    if n > MAX_ENUM_N:
        raise TooLarge(f"determinant expansion capped at N <= {MAX_ENUM_N}, got {n}")
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
        v = cancels._top_frequency()
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
