"""Loop-based reference implementations of the determinant expansion.

`expand_reference` is the per-group loop that `resonance_sizer.expoly.expand`
replaced with a single vectorized pass; it keeps the original arithmetic
(sequential weight sums, one polynomial product per fixed-point mask, one
group at a time), so the vectorized code can be compared with it bit for
bit.  `leibniz_terms` materializes one term object per permutation and is
the slowest, most literal reading of the Leibniz expansion.
`evaluate_reference` sums P_b(z) e^{i b z} one term at a time, and
`derivative_reference` builds (P' + i b P) term by term, as `evaluate` and
`derivative` did before the fused value-and-derivative kernel.
`value_and_derivative_reference` is that fused kernel as it was before
points with equal real parts shared one phase row: one complex exp per
point and frequency.  `zero_frequency_polynomial` builds the zero-frequency
part prod_j (i z - 4 pi a_j) alone, whose zeros are known in closed form.

Run as `python -m tests.expoly_reference CONFIG.json`, it compares the
installed kernel with that oracle on the first two levels of a circle
around the configuration's zeros (see `main`).
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from resonance_sizer import (
    Configuration,
    ExpoPolynomial,
    expand,
    validate_configuration,
)
from resonance_sizer import _sweep
from resonance_sizer._contours import Circle
from resonance_sizer.errors import TooLarge
from resonance_sizer.expoly import _KERNEL_BLOCK, DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL
from resonance_sizer.geometry import strength_values
from resonance_sizer.permutations import MAX_ENUM_N
from tests.permutation_reference import Permutation, permutation_sign


def _check_n(n: int) -> None:
    if n > MAX_ENUM_N:
        raise TooLarge(f"determinant expansion capped at N <= {MAX_ENUM_N}, got {n}")


@dataclass(frozen=True)
class LeibnizTerm:
    """One determinant-expansion term for a single permutation."""

    sigma: Permutation
    frequency: float
    sign: int
    k1: float
    fixed_points: tuple[int, ...]

    def polynomial(self, strengths) -> np.ndarray:
        """Coefficients (ascending) of sign * k1 * prod(i z - 4 pi a_j)."""
        a = strength_values(strengths, self.sigma.n)
        coeffs = np.array([self.sign * self.k1], dtype=complex)
        for j in self.fixed_points:
            coeffs = npoly.polymul(coeffs, np.array([-4 * np.pi * a[j], 1j]))
        return coeffs


def leibniz_terms(strengths, config: Configuration) -> list[LeibnizTerm]:
    """One expansion term per permutation, in lexicographic order."""
    config = validate_configuration(config)
    _check_n(config.n)
    strength_values(strengths, config.n)  # validate pairing
    d = config.distances
    n = config.n
    terms = []
    for image in itertools.permutations(range(n)):
        sigma = Permutation(image)
        moved = [j for j in range(n) if image[j] != j]
        k1 = 1.0
        for j in moved:
            k1 /= d[j, image[j]]
        terms.append(
            LeibnizTerm(
                sigma=sigma,
                frequency=float(d[np.arange(n), np.asarray(image)].sum()),
                sign=permutation_sign(sigma),
                k1=k1,
                fixed_points=tuple(j for j in range(n) if image[j] == j),
            )
        )
    return terms


def zero_frequency_polynomial(strengths) -> ExpoPolynomial:
    """The zero-frequency part prod_j (i z - 4 pi a_j) as a one-term form,
    one polynomial product per factor; its zeros sit at -4 pi i a_j."""
    coeffs = np.array([1.0], dtype=complex)
    for aj in strength_values(strengths):
        coeffs = npoly.polymul(coeffs, np.array([-4 * np.pi * aj, 1j]))
    return ExpoPolynomial([0.0], [coeffs])


def _mask_polynomial(mask: int, minus_4pi_a: np.ndarray) -> np.ndarray:
    """prod over set bits j of (i z - 4 pi a_j), ascending coefficients."""
    coeffs = np.array([1.0], dtype=complex)
    j = 0
    m = mask
    while m:
        if m & 1:
            coeffs = npoly.polymul(coeffs, np.array([minus_4pi_a[j], 1j]))
        m >>= 1
        j += 1
    return coeffs


def expand_reference(
    strengths,
    config: Configuration,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
):
    """Frequency grouping one cluster at a time.

    Returns (terms, groups, cancelled_frequencies): terms are the surviving
    (frequency, coefficients) pairs with trailing zeros trimmed, groups the
    (frequency, pre_scale, post_scale, cancelled) tuples of every cluster in
    increasing frequency.
    """
    config = validate_configuration(config)
    _check_n(config.n)
    a = strength_values(strengths, config.n)
    d = config.distances
    n = config.n

    v_all, w_all, mask_all = _sweep.term_arrays(d[None])
    order = np.argsort(v_all, kind="stable")
    v_sorted = v_all[order]
    tol_abs = freq_tol * max(1.0, float(v_sorted[-1]))
    splits = np.nonzero(np.diff(v_sorted) > tol_abs)[0] + 1
    bounds = np.concatenate([[0], splits, [len(v_sorted)]])

    minus_4pi_a = -4 * np.pi * a
    poly_cache: dict[int, np.ndarray] = {}
    peak_cache: dict[int, float] = {}

    terms = []
    groups = []
    cancelled_freqs = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx = order[lo:hi]
        freq = 0.0 if v_sorted[lo] == 0.0 else float(v_sorted[lo:hi].mean())
        masks = mask_all[idx]
        weights = w_all[idx]
        unique_masks, inverse = np.unique(masks, return_inverse=True)
        weight_sums = np.zeros(len(unique_masks))
        np.add.at(weight_sums, inverse, weights)

        peaks = np.empty(len(unique_masks))
        for i, m in enumerate(unique_masks):
            m = int(m)
            if m not in poly_cache:
                poly_cache[m] = _mask_polynomial(m, minus_4pi_a)
                peak_cache[m] = float(np.abs(poly_cache[m]).max())
            peaks[i] = peak_cache[m]
        pre_scale = float((np.abs(weights) * peaks[inverse]).max())

        summed = np.zeros(n + 1, dtype=complex)
        for m, ws in zip(unique_masks, weight_sums):
            c = poly_cache[int(m)]
            summed[: len(c)] += ws * c
        post_scale = float(np.abs(summed).max())

        cancelled = freq > 0.0 and post_scale <= cancel_tol * pre_scale
        groups.append((freq, pre_scale, post_scale, cancelled))
        if cancelled:
            cancelled_freqs.append(freq)
            continue
        nz = np.nonzero(summed)[0]
        if len(nz):
            terms.append((freq, summed[: nz[-1] + 1]))
    return terms, groups, tuple(cancelled_freqs)


def evaluate_reference(epoly, z):
    """sum_b P_b(z) e^{i b z}, one polyval and one exp per term."""
    zz = np.asarray(z, dtype=complex)
    total = np.zeros_like(zz)
    for b, coeffs in epoly.terms:
        total = total + npoly.polyval(zz, coeffs) * np.exp(1j * b * zz)
    return total


def value_and_derivative_reference(epoly, z):
    """D(z) and D'(z), one complex exp per point and frequency.

    Each block of points computes E = exp(i z (x) b) (about
    expoly._KERNEL_BLOCK elements), contracts it with the [C | C'] table
    and finishes both sums by Horner in z.
    """
    zz = np.asarray(z, dtype=complex)
    flat = zz.reshape(-1)
    out = np.zeros((flat.size, 2), dtype=complex)
    if len(epoly.frequencies):
        ifreqs, table = epoly._fdf_table()
        rows = max(1, _KERNEL_BLOCK // len(ifreqs))
        exps = np.empty((min(rows, flat.size), len(ifreqs)), dtype=complex)
        for lo in range(0, flat.size, rows):
            w = flat[lo : lo + rows, None]
            e = exps[: len(w)]
            np.multiply(w, ifreqs, out=e)
            np.exp(e, out=e)
            sums = (e @ table).reshape(len(w), -1, 2)
            acc = sums[:, -1]
            for p in range(sums.shape[1] - 2, -1, -1):
                acc = acc * w + sums[:, p]
            out[lo : lo + len(w)] = acc
    if zz.ndim == 0:
        return complex(out[0, 0]), complex(out[0, 1])
    return out[:, 0].reshape(zz.shape), out[:, 1].reshape(zz.shape)


def term_scale(epoly, z):
    """sum_jp |C_jp z^p e^{i b_j z}| and the same sum over C', per point:
    the size of the terms that D(z) and D'(z) add up, against which
    rounding is measured."""
    zz = np.asarray(z, dtype=complex).reshape(-1)
    out = np.zeros((zz.size, 2))
    if len(epoly.frequencies):
        _, table = epoly._fdf_table()
        rows = max(1, _KERNEL_BLOCK // len(epoly.frequencies))
        for lo in range(0, zz.size, rows):
            w = zz[lo : lo + rows, None]
            sums = (np.exp(-w.imag * epoly.frequencies) @ np.abs(table)).reshape(len(w), -1, 2)
            powers = np.abs(w)[..., None] ** np.arange(sums.shape[1])[:, None]
            out[lo : lo + len(w)] = (sums * powers).sum(axis=1)
    return out[:, 0], out[:, 1]


def derivative_reference(epoly):
    """The termwise derivative (P' + i b P) e^{i b z}, one term at a time."""
    out = []
    for b, coeffs in epoly.terms:
        dc = 1j * b * coeffs.astype(complex)
        if len(coeffs) > 1:
            dc[:-1] += np.arange(1, len(coeffs)) * coeffs[1:]
        out.append((b, dc))
    return ExpoPolynomial([b for b, _ in out], [dc for _, dc in out])


def canonical_terms_reference(frequencies, rows):
    """The canonical (frequency, coefficients) pairs, one input pair at a time.

    Pairs are taken in stable frequency order; rows of equal frequency are
    summed left to right, then trailing zeros are trimmed and zero
    polynomials dropped.
    """
    merged: dict[float, np.ndarray] = {}
    for b, row in sorted(zip(frequencies, rows), key=lambda pair: pair[0]):
        row = np.atleast_1d(np.asarray(row, dtype=complex))
        if b in merged:
            prev = merged[b]
            total = np.zeros(max(len(prev), len(row)), dtype=complex)
            total[: len(prev)] += prev
            total[: len(row)] += row
            row = total
        merged[b] = row
    out = []
    for b, row in merged.items():
        nonzero = np.flatnonzero(row)
        if len(nonzero):
            out.append((float(b), row[: nonzero[-1] + 1]))
    return out


# The kernel's D and D' may differ from the oracle's by this fraction of the
# size of the terms they sum (term_scale): both round the same sums, with
# phase and magnitude rows that differ from one complex exp by an ulp or two.
KERNEL_REL_TOL = 1e-13
# b_nu * radius of the circle that main evaluates: 800 nodes per level.
_MAIN_BR = 100.0


def kernel_gap(epoly, z) -> float:
    """The largest gap between the kernel and the oracle at the points z,
    for D and D', relative to term_scale."""
    got = epoly.value_and_derivative(z)
    want = value_and_derivative_reference(epoly, z)
    scale = term_scale(epoly, z)
    return max(float(np.max(np.abs(g - w) / s, initial=0.0)) for g, w, s in zip(got, want, scale))


def main(argv: list[str]) -> int:
    """Compare the kernel with the oracle on the first two levels of the
    circle |z| = 100 / b_nu, whose nodes come in conjugate pairs, for the
    configuration and strengths in the JSON file argv[0]."""
    (path,) = argv
    with open(path) as fh:
        raw = json.load(fh)
    epoly, _ = expand(raw["strengths"], validate_configuration(raw["centers"]))
    b = epoly.effective_size
    levels = Circle(0.0, _MAIN_BR / b).node_levels(b)
    nodes = [z for _, (_, z, _, _) in zip(range(2), levels)]
    gap = max(kernel_gap(epoly, z) for z in nodes)
    ok = gap <= KERNEL_REL_TOL
    print(
        f"N = {len(raw['centers'])}, {len(epoly.frequencies)} frequencies, "
        f"{sum(map(len, nodes))} nodes on two levels: "
        f"kernel against the one-exp oracle, largest gap {gap:.2e} of the term size "
        f"(tolerance {KERNEL_REL_TOL:g}): {'ok' if ok else 'FAILED'}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
