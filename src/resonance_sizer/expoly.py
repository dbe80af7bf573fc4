"""Exponential-polynomial form of the characteristic determinant.

Expanding det of the interaction matrix over permutations writes D(z) as a
finite sum of terms sign * K1 * prod_{fixed j}(i z - 4 pi a_j) * e^{i V z},
one per permutation, where V is the permutation's total bond length and K1
the product of reciprocal bond lengths.  Grouping terms by frequency and
summing the polynomial parts yields the canonical form

    D(z) = sum_j P_{b_j}(z) e^{i b_j z},   0 = b_0 < b_1 < ... < b_nu,

after pruning frequency groups whose polynomials cancel.  The top surviving
frequency b_nu is the effective size governing the resonance counting
asymptotics; cancellation diagnostics record how close each group came to
vanishing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _sweep
from .errors import NumericalError, TooLarge, ValidationError
from .geometry import Configuration, strength_values, validate_configuration
from .permutations import MAX_ENUM_N

# Relative gap threshold for clustering nearly-equal term frequencies.
DEFAULT_FREQ_TOL = 1e-9
# A frequency group counts as cancelled when its summed coefficients drop
# below this fraction of the largest pre-sum coefficient magnitude.
DEFAULT_CANCEL_TOL = 1e-10
# Groups whose summed coefficients come within this factor of cancel_tol
# are reported as near cancellations: a cancel_tol that much larger would
# prune them.
_NEAR_FACTOR = 10.0
# Elements of exp(i z b) held at once by value_and_derivative (128 KB).
_KERNEL_BLOCK = 1 << 13


@dataclass(frozen=True)
class CancellationGroup:
    """Survival diagnostics for one frequency cluster."""

    frequency: float
    pre_scale: float
    post_scale: float
    cancelled: bool


class _GroupColumns(Sequence):
    """CancellationGroup records held as columns, built only when read.

    An expansion at N = 8 has about 18k groups and one at N = 10 over a
    million; most callers only need the top frequency, so the records are
    not materialized up front.
    """

    __slots__ = ("_columns",)

    def __init__(self, frequency, pre_scale, post_scale, cancelled):
        self._columns = (frequency, pre_scale, post_scale, cancelled)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return CancellationGroup(*(col[i].item() for col in self._columns))

    def __iter__(self):
        return map(CancellationGroup, *(col.tolist() for col in self._columns))

    def __repr__(self) -> str:
        return f"<{len(self)} cancellation groups>"


@dataclass(frozen=True)
class CancellationReport:
    """Which term frequencies survived the summation, and how narrowly."""

    groups: _GroupColumns
    cancelled_frequencies: tuple[float, ...]
    freq_tol: float
    cancel_tol: float

    def near_cancellations(self) -> tuple[CancellationGroup, ...]:
        """Groups whose residual is within _NEAR_FACTOR * cancel_tol of
        vanishing (`_near_cancelled`)."""
        _, pre_scale, post_scale, _ = self.groups._columns
        near = np.flatnonzero(_near_cancelled(pre_scale, post_scale, self.cancel_tol))
        return tuple(map(self.groups.__getitem__, near.tolist()))


class ExpoPolynomial:
    """Canonical exponential polynomial sum_j P_{b_j}(z) e^{i b_j z}.

    Held as two read-only arrays: the strictly increasing nonnegative
    frequencies and the zero-padded coefficient matrix (row j holds P_{b_j}
    in ascending powers, every row nonzero, trimmed to the widest row).
    Construction from a frequency sequence and matching coefficient rows
    (a matrix, or a list of sequences of any lengths) sorts stably, merges
    exactly-equal frequencies, drops zero rows and trims trailing zero
    columns.  Frequencies must be finite and >= 0, coefficients finite
    (ValidationError otherwise).  With no arguments it is the zero form,
    with no terms.
    """

    __slots__ = ("_freqs", "_coeffs", "_terms", "_table")

    def __init__(self, frequencies=(), coefficients=()):
        freqs = np.asarray(frequencies, dtype=float).reshape(-1)
        coeffs = _coefficient_matrix(coefficients, len(freqs))
        if not np.isfinite(freqs).all():
            raise ValidationError("frequencies must be finite")
        if not np.isfinite(coeffs).all():
            raise ValidationError("coefficients must be finite")
        if np.any(freqs[1:] < freqs[:-1]):
            order = np.argsort(freqs, kind="stable")
            freqs, coeffs = freqs[order], coeffs[order]
        if len(freqs) and freqs[0] < 0.0:
            raise ValidationError(f"frequencies must be >= 0, got {freqs[0]}")
        starts = np.flatnonzero(np.concatenate([[True], freqs[1:] != freqs[:-1]]))
        if len(starts) < len(freqs):
            coeffs = np.add.reduceat(coeffs, starts)
            freqs = freqs[starts]
        lengths = _row_lengths(coeffs)
        keep = lengths > 0
        # fancy indexing copies, so the stored arrays are never the caller's
        freqs = freqs[keep]
        coeffs = coeffs[keep, : lengths.max(initial=0)]
        freqs.setflags(write=False)
        coeffs.setflags(write=False)
        self._freqs, self._coeffs = freqs, coeffs
        self._terms = None
        self._table = None

    @property
    def terms(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(frequency, coefficients) pairs, each coefficient row a read-only
        view trimmed of trailing zeros.  Built on first read and cached."""
        if self._terms is None:
            self._terms = tuple(
                (b, c[:k])
                for b, c, k in zip(
                    self._freqs.tolist(), self._coeffs, _row_lengths(self._coeffs).tolist()
                )
            )
        return self._terms

    @property
    def frequencies(self) -> np.ndarray:
        """The frequencies b_0 < ... < b_nu (read-only)."""
        return self._freqs

    @property
    def nu(self) -> int:
        return len(self._freqs) - 1

    @property
    def effective_size(self) -> float:
        """The largest surviving frequency."""
        if not len(self._freqs):
            raise ValidationError("empty exponential polynomial has no top frequency")
        return float(self._freqs[-1])

    def coefficients(self, frequency: float) -> np.ndarray:
        i = int(np.searchsorted(self._freqs, frequency))
        if i == len(self._freqs) or self._freqs[i] != frequency:
            raise KeyError(frequency)
        row = self._coeffs[i]
        return row[: _row_lengths(row[None])[0]]

    def evaluate(self, z):
        """Evaluate at a complex point or array."""
        return self.value_and_derivative(z)[0]

    def value_and_derivative(self, z):
        """D(z) and D'(z) at a complex point or array, sharing every exponential.

        D = sum_p z^p sum_j C_jp e^{i b_j z} and D' is the same sum over
        C', the coefficients of P' + i b P.  Each block of points computes
        E = exp(i z (x) b) (about _KERNEL_BLOCK elements), contracts it with
        the cached [C | C'] table and finishes both sums by Horner in z.  A
        scalar gives a pair of complex numbers; an array gives two arrays of
        its shape.

        Nearly all of the cost is the phase e^{i b x} of e^{i b z} =
        e^{i b x} e^{-b y}, z = x + i y.  So when consecutive points share
        their real part bit for bit (a circle's conjugate pairs, a vertical
        edge), a block takes one phase row per run of equal x and multiplies
        it by the real magnitude row e^{-b y} of each point.  Blocks then
        hold an even number of rows, so that no pair straddles two.  A
        block with no repeated real part computes E with one complex exp,
        as before; so a scalar (Newton), or an array with no repeated real
        part, gives the same bits as before.
        """
        zz = np.asarray(z, dtype=complex)
        flat = zz.reshape(-1)
        out = np.zeros((flat.size, 2), dtype=complex)
        if len(self._freqs):
            ifreqs, table = self._fdf_table()
            rows = max(1, _KERNEL_BLOCK // len(ifreqs))
            x = flat.real
            run = None
            if flat.size > 1 and (x[1:] == x[:-1]).any():
                rows += rows % 2
                # run[i] numbers the run of equal x that holds point i; a
                # run starts wherever x changes and at every block start
                fresh = np.empty(flat.size, dtype=bool)
                np.not_equal(x[1:], x[:-1], out=fresh[1:])
                fresh[::rows] = True
                run = np.cumsum(fresh) - 1
                run_x = x[fresh, None]
                # a block's phase rows, then, once gathered into E, its
                # magnitude rows (real, so m of them fill m / 2 rows)
                spare = np.empty((min(rows, flat.size), len(ifreqs)), dtype=complex)
                neg_freqs = -self._freqs
            exps = np.empty((min(rows, flat.size), len(ifreqs)), dtype=complex)
            for lo in range(0, flat.size, rows):
                w = flat[lo : lo + rows, None]
                e = exps[: len(w)]
                runs = None if run is None else run[lo : lo + len(w)] - run[lo]
                if runs is None or runs[-1] == len(w) - 1:
                    np.multiply(w, ifreqs, out=e)
                    np.exp(e, out=e)
                else:
                    phase = spare[: runs[-1] + 1]
                    np.multiply(run_x[run[lo] : run[lo] + len(phase)], ifreqs, out=phase)
                    np.exp(phase, out=phase)
                    np.take(phase, runs, axis=0, out=e, mode="clip")
                    mag = spare.view(float).reshape(-1, len(ifreqs))[: len(w)]
                    np.multiply(w.imag, neg_freqs, out=mag)
                    np.exp(mag, out=mag)
                    np.multiply(e, mag, out=e)
                # row p of `sums` holds the pair (D, D') coefficients of z^p
                sums = (e @ table).reshape(len(w), -1, 2)
                acc = sums[:, -1]
                for p in range(sums.shape[1] - 2, -1, -1):
                    acc = acc * w + sums[:, p]
                out[lo : lo + len(w)] = acc
        if zz.ndim == 0:
            return complex(out[0, 0]), complex(out[0, 1])
        return out[:, 0].reshape(zz.shape), out[:, 1].reshape(zz.shape)

    def _fdf_table(self) -> tuple[np.ndarray, np.ndarray]:
        """i * frequencies, and the [C | C'] table with the two interleaved:
        column 2p holds the z^p coefficients of P, column 2p + 1 those of
        P' + i b P.  Built on first use and cached."""
        if self._table is None:
            freqs, coeffs = self._freqs, self._coeffs
            deriv = 1j * freqs[:, None] * coeffs
            deriv[:, :-1] += np.arange(1, coeffs.shape[1]) * coeffs[:, 1:]
            table = np.stack([coeffs, deriv], axis=-1).reshape(len(freqs), -1)
            ifreqs = 1j * freqs
            ifreqs.setflags(write=False)
            table.setflags(write=False)
            self._table = (ifreqs, table)
        return self._table

    def derivative(self) -> "ExpoPolynomial":
        """Termwise derivative (P' + i b P) e^{i b z}."""
        if not len(self._freqs):
            return self
        _, table = self._fdf_table()
        return ExpoPolynomial(self._freqs, table[:, 1::2])

    def to_jsonable(self) -> list[dict]:
        pairs = np.stack([self._coeffs.real, self._coeffs.imag], axis=-1).tolist()
        return [
            {"frequency": b, "coefficients": row[:k]}
            for b, row, k in zip(
                self._freqs.tolist(), pairs, _row_lengths(self._coeffs).tolist()
            )
        ]

    def __repr__(self) -> str:
        freqs = ", ".join(f"{b:.6g}" for b in self._freqs.tolist())
        return f"ExpoPolynomial(frequencies=[{freqs}])"


def _coefficient_matrix(rows, n_rows: int) -> np.ndarray:
    """Coefficient rows (a matrix, or sequences of any lengths, scalars
    counting as length 1) as an (n_rows, width) zero-padded complex matrix."""
    try:
        out = np.asarray(rows, dtype=complex)
    except ValueError:  # unequal lengths
        rows = [np.atleast_1d(np.asarray(r, dtype=complex)) for r in rows]
        lengths = np.array([len(r) for r in rows])
        out = np.zeros((len(rows), lengths.max()), dtype=complex)
        out[np.arange(out.shape[1]) < lengths[:, None]] = np.concatenate(rows)
    if out.ndim == 1:  # one scalar per row
        out = out[:, None]
    if out.ndim != 2 or len(out) != n_rows:
        raise ValidationError(
            f"need one coefficient row per frequency: {n_rows} frequencies, "
            f"coefficients of shape {out.shape}"
        )
    return out


def _row_lengths(coeffs: np.ndarray) -> np.ndarray:
    """1 + index of the last nonzero entry of each row; 0 for a zero row."""
    nonzero = coeffs != 0
    width = coeffs.shape[1]
    if width == 0:
        return np.zeros(len(coeffs), dtype=np.intp)
    return np.where(nonzero.any(axis=1), width - np.argmax(nonzero[:, ::-1], axis=1), 0)


def _mask_polynomials(minus_4pi_a: np.ndarray, masks=None) -> np.ndarray:
    """Row k holds prod over set bits j of masks[k] of (i z - 4 pi a_j).

    Ascending coefficients, zero-padded to N + 1 columns; `masks` defaults
    to every mask 0 .. 2^N - 1, so that row m is mask m.  Each polynomial
    is its parent's (the mask without its highest bit) times one linear
    factor, so a row is the same double whichever masks are asked for; only
    the masks given and their ancestors are built.
    """
    n = len(minus_4pi_a)
    factors = [np.array([c, 1j]) for c in minus_4pi_a]
    if masks is None:
        masks = chain = range(1 << n)
    else:
        ancestors = set()
        for mask in masks:
            while mask and mask not in ancestors:
                ancestors.add(mask)
                mask &= ~(1 << (mask.bit_length() - 1))
        chain = sorted(ancestors)
    polys = {0: np.array([1.0], dtype=complex)}
    for mask in chain:
        if mask:
            high = mask.bit_length() - 1
            polys[mask] = np.convolve(polys[mask ^ (1 << high)], factors[high])
    table = np.zeros((len(masks), n + 1), dtype=complex)
    for row, mask in zip(table, masks):
        row[: len(polys[mask])] = polys[mask]
    return table


def _check_tolerances(**tolerances: float) -> None:
    """Raise ValidationError unless every tolerance is finite and >= 0.

    A NaN or infinite freq_tol joins every frequency into one cluster, and a
    negative or NaN tolerance turns its comparisons around, so each gives a
    wrong verdict rather than an error."""
    for name, value in tolerances.items():
        if not 0 <= value < math.inf:
            raise ValidationError(f"{name} must be finite and >= 0, got {value}")


def _cluster_starts(v: np.ndarray, freq_tol: float) -> np.ndarray:
    """Flat start index of each frequency cluster of v, a (rows, terms)
    array of V values sorted along each row: single-linkage runs with gaps
    <= freq_tol * max(1, max V of the row), and each row starts a cluster."""
    fresh = np.empty(v.shape, dtype=bool)
    fresh[:, 0] = True
    np.greater(v[:, 1:] - v[:, :-1], freq_tol * np.maximum(1.0, v[:, -1:]), out=fresh[:, 1:])
    return np.flatnonzero(fresh)


def _near_cancelled(pre_scale: np.ndarray, post_scale: np.ndarray, cancel_tol: float):
    """Which groups come within _NEAR_FACTOR * cancel_tol of vanishing: a
    cancel_tol that much larger would prune them."""
    return post_scale <= _NEAR_FACTOR * cancel_tol * pre_scale


@np.errstate(over="ignore", invalid="ignore")
def _reduce_clusters(terms: list, starts, table, cancel_tol: float):
    """Frequency, coefficient row, pre_scale, post_scale and cancelled flag
    of each cluster (see `expand`).

    `terms` is a list [v, w, masks] of the V values, weights and
    fixed-point mask codes of whole clusters starting at `starts`, in
    stable sorted-V order (ties in lexicographic order of the
    permutations); the codes index the rows of `table`
    (`_mask_polynomials`) and increase with the mask.  The list is emptied,
    so that each array is released as soon as it has been used (at N = 10
    each holds 29 MB).

    A zero ahead of each cluster makes every sum the one np.mean takes (0
    plus the pairwise sum of the cluster), so each frequency is the same
    double as the mean of its cluster.  Weights are summed per (cluster,
    mask) in sorted-V order, then the mask polynomials are added in
    increasing mask order; both sums are sequential, so every value
    depends only on the cluster's own terms, and is the same double
    whichever other clusters are reduced with it.

    Strengths too large for double precision make coefficients inf or NaN
    silently; `expand` raises NumericalError on them.
    """
    v, w, masks = terms
    terms.clear()
    sizes = np.diff(np.append(starts, len(v)))
    padded_starts = starts + np.arange(len(starts))
    freqs = np.add.reduceat(np.insert(v, starts, 0.0), padded_starts) / sizes
    freqs[v[starts] == 0.0] = 0.0
    del v

    peaks = np.abs(table).max(axis=1)
    pre_scale = np.maximum.reduceat(np.abs(w) * peaks[masks], starts)

    width = (len(table) - 1).bit_length()  # bits of the largest code
    group = np.repeat(np.arange(len(starts)), sizes)
    keys, inverse = np.unique((group << width) | masks, return_inverse=True)
    del group, masks
    weight_sums = np.bincount(inverse, weights=w, minlength=len(keys))
    del inverse, w
    key_group, key_mask = keys >> width, keys & ((1 << width) - 1)
    del keys
    coeffs = np.empty((len(starts), table.shape[1]), dtype=complex)
    for p in range(table.shape[1]):
        products = weight_sums * table[key_mask, p]
        coeffs.real[:, p] = np.bincount(key_group, products.real, minlength=len(starts))
        coeffs.imag[:, p] = np.bincount(key_group, products.imag, minlength=len(starts))
    post_scale = np.abs(coeffs).max(axis=1)
    cancelled = (freqs > 0.0) & (post_scale <= cancel_tol * pre_scale)
    return freqs, coeffs, pre_scale, post_scale, cancelled


def expand(
    strengths,
    config: Configuration,
    freq_tol: float = DEFAULT_FREQ_TOL,
    cancel_tol: float = DEFAULT_CANCEL_TOL,
) -> tuple[ExpoPolynomial, CancellationReport]:
    """Group the determinant expansion by frequency into canonical form.

    Frequencies are clustered by single-linkage on the sorted V values with
    absolute gap threshold freq_tol * max(1, V(Y)).  Within each cluster the
    polynomial parts are summed (fixed summation order, so results are
    reproducible); a cluster is pruned as cancelled when its summed
    coefficients all fall below cancel_tol times the largest pre-sum
    coefficient magnitude.  The zero-frequency group always survives: its
    polynomial is prod_j (i z - 4 pi a_j), of degree exactly N.  freq_tol
    and cancel_tol must be finite and >= 0.  Coefficients past double
    precision (strengths too large) raise NumericalError.

    All clusters are reduced in one vectorized pass (`_reduce_clusters`,
    which `sizing.walk_top` runs on the clusters near the top); `expand` is
    the stack of one of `_expand_stack`, which `genericity_scan` runs on
    its batches of trials.
    """
    _check_tolerances(freq_tol=freq_tol, cancel_tol=cancel_tol)
    config = validate_configuration(config)
    if config.n > MAX_ENUM_N:
        raise TooLarge(f"determinant expansion capped at N <= {MAX_ENUM_N}, got {config.n}")
    a = strength_values(strengths, config.n)
    _, freqs, coeffs, pre_scale, post_scale, cancelled = _expand_stack(
        config.distances[None], _mask_polynomials(-4 * np.pi * a), freq_tol, cancel_tol
    )
    report = CancellationReport(
        _GroupColumns(freqs, pre_scale, post_scale, cancelled),
        tuple(freqs[cancelled].tolist()),
        freq_tol,
        cancel_tol,
    )
    # a coefficient that is inf or NaN makes its row's post_scale inf or NaN
    if not post_scale.max() < math.inf:
        raise NumericalError(
            "the expansion's coefficients overflow double precision "
            f"(largest |4 pi a_j| is {np.abs(4 * np.pi * a).max():.3g})"
        )
    # the constructor drops zero polynomials, so this prunes cancelled groups
    coeffs[cancelled] = 0.0
    return ExpoPolynomial(freqs, coeffs), report


def _expand_stack(ds: np.ndarray, table: np.ndarray, freq_tol: float, cancel_tol: float):
    """The frequency clusters of the T distance matrices of the (T, N, N)
    stack `ds`, which share their strengths: `table` is the strengths'
    `_mask_polynomials`.

    Returns `bounds`, then `_reduce_clusters`'s columns (frequency,
    coefficient row, pre_scale, post_scale, cancelled) of every cluster,
    flat and trial-major: matrix t's clusters, in increasing frequency, are
    [bounds[t], bounds[t + 1]).  Each matrix's terms are sorted stably on
    their own row and clustered by their own gap rule (`_cluster_starts`),
    and a cluster's values depend only on its own terms, so matrix t's
    clusters are the same doubles as the stack of `ds[t]` alone gives.
    """
    # Per-term arrays are T * N! long (3.6M at N = 10), so each is released
    # as soon as it has been used; _reduce_clusters takes the last references.
    v, w, masks = _sweep.term_arrays(ds)
    order = np.argsort(v.reshape(len(ds), -1), axis=1, kind="stable")
    width = order.shape[1]
    order += np.arange(0, len(v), width)[:, None]
    order = order.reshape(-1)
    terms = [v[order], w[order], masks[order]]
    del v, w, masks, order
    starts = _cluster_starts(terms[0].reshape(len(ds), -1), freq_tol)
    bounds = np.searchsorted(starts, np.arange(0, len(terms[0]) + 1, width))
    return (bounds, *_reduce_clusters(terms, starts, table, cancel_tol))
