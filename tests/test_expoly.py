import gc
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonance_sizer import (
    ExpoPolynomial,
    NumericalError,
    ValidationError,
    determinant_direct,
    distance_matrix,
    expand,
    random_configuration,
    size_v,
    validate_configuration,
)
from tests.conftest import DISPHENOID_CENTERS
from resonance_sizer._contours import Circle
from resonance_sizer.errors import TooLarge
from resonance_sizer.expoly import _KERNEL_BLOCK, _NEAR_FACTOR, CancellationGroup
from resonance_sizer.expoly import DEFAULT_CANCEL_TOL, DEFAULT_FREQ_TOL, _expand_stack
from resonance_sizer.expoly import _mask_polynomials
from tests.expoly_reference import (
    KERNEL_REL_TOL,
    canonical_terms_reference,
    derivative_reference,
    evaluate_reference,
    expand_reference,
    kernel_gap,
    leibniz_terms,
    value_and_derivative_reference,
    zero_frequency_polynomial,
)
from tests.permutation_reference import edge_multigraph, v_sigma

FOUR_PI = 4 * np.pi


class TestLeibnizTerms:
    def test_identity_term(self):
        cfg = random_configuration(3, seed=2)
        a = np.array([0.1, -0.2 + 0.3j, 0.5j])
        terms = leibniz_terms(a, cfg)
        ident = terms[0]
        assert ident.sigma.image == (0, 1, 2)
        assert ident.frequency == 0.0
        assert ident.k1 == 1.0
        assert ident.sign == 1
        assert ident.fixed_points == (0, 1, 2)
        np.testing.assert_allclose(
            ident.polynomial(a), zero_frequency_polynomial(a).coefficients(0.0), rtol=1e-14
        )

    def test_pair_swap_term(self, unit_pair):
        terms = leibniz_terms([0, 0], unit_pair)
        swap = terms[-1]
        assert swap.sigma.image == (1, 0)
        assert swap.frequency == pytest.approx(2.0)
        assert swap.sign == -1
        assert swap.k1 == pytest.approx(1.0)
        assert swap.fixed_points == ()
        np.testing.assert_allclose(swap.polynomial([0, 0]), [-1.0], rtol=1e-15)

    def test_transposition_with_fixed_point(self):
        cfg = validate_configuration([(0, 0, 0), (0.5, 0, 0), (0, 2, 0)])
        a = np.array([0.3, 0.7, -0.4 + 0.2j])
        d01 = distance_matrix(cfg)[0, 1]
        term = next(t for t in leibniz_terms(a, cfg) if t.sigma.image == (1, 0, 2))
        assert term.frequency == pytest.approx(2 * d01, rel=1e-15)
        assert term.fixed_points == (2,)
        expected = -(1 / d01**2) * np.array([-FOUR_PI * a[2], 1j])
        np.testing.assert_allclose(term.polynomial(a), expected, rtol=1e-14)

    def test_one_term_per_permutation_with_exact_frequency(self):
        cfg = random_configuration(4, seed=5)
        a = np.zeros(4)
        terms = leibniz_terms(a, cfg)
        assert len(terms) == math.factorial(4)
        for term in terms:
            assert term.frequency == v_sigma(cfg, term.sigma)

    def test_class_mates_share_sign_k1_frequency(self):
        cfg = random_configuration(5, seed=8)
        groups = {}
        for term in leibniz_terms(np.zeros(5), cfg):
            key = edge_multigraph(term.sigma)
            groups.setdefault(key, []).append(term)
        for members in groups.values():
            first = members[0]
            for t in members[1:]:
                assert t.sign == first.sign
                assert t.k1 == pytest.approx(first.k1, rel=1e-12)
                assert t.frequency == pytest.approx(first.frequency, abs=1e-12)

    def test_cap(self):
        cfg = random_configuration(11, seed=0)
        with pytest.raises(TooLarge):
            leibniz_terms(np.zeros(11), cfg)


class TestExpand:
    def test_pair_zero_strengths(self, unit_pair):
        epoly, report = expand([0, 0], unit_pair)
        np.testing.assert_allclose(epoly.frequencies, [0.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(epoly.coefficients(0.0), [0, 0, -1], atol=1e-15)
        np.testing.assert_allclose(epoly.coefficients(2.0), [-1], atol=1e-15)
        assert report.cancelled_frequencies == ()

    def test_collinear_top_group_survives(self, collinear):
        epoly, report = expand([0, 0, 0], collinear)
        np.testing.assert_allclose(epoly.frequencies, [0.0, 2.0, 4.0], atol=1e-9)
        top = epoly.coefficients(epoly.effective_size)
        # two 3-cycles contribute +1/2 each, the end swap contributes -(i z)/4
        np.testing.assert_allclose(top, [1.0, -0.25j], atol=1e-14)
        assert epoly.effective_size == pytest.approx(4.0, abs=1e-12)
        assert epoly.effective_size == pytest.approx(size_v(collinear).v, rel=1e-12)
        assert not any(g.cancelled for g in report.groups)

    def test_overflowing_coefficients_raise(self, unit_pair):
        # (i z - 4 pi a)^2 overflows at a = 1e200: a numerical failure, not
        # a ValidationError from the constructor or inf in the output, and
        # no RuntimeWarning on the way (the suite turns one into an error)
        with pytest.raises(NumericalError, match="overflow double precision"):
            expand([1e200, 1e200], unit_pair)

    def test_zero_frequency_group_is_strength_polynomial(self):
        rng = np.random.default_rng(9)
        cfg = random_configuration(4, rng)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        epoly, _ = expand(a, cfg)
        assert epoly.frequencies[0] == 0.0
        p0 = epoly.coefficients(0.0)
        assert len(p0) == 5  # degree exactly N
        np.testing.assert_allclose(p0, zero_frequency_polynomial(a).coefficients(0.0), rtol=1e-12)

    def test_nu_at_least_one_and_frequencies_bounded(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4, 5):
            cfg = random_configuration(n, rng)
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            epoly, _ = expand(a, cfg)
            assert epoly.nu >= 1
            v = size_v(cfg).v
            freqs = epoly.frequencies
            assert freqs[0] == 0.0
            assert np.all(np.diff(freqs) > 0)
            assert freqs[-1] <= v + 1e-9 * max(1.0, v)
            # every surviving frequency is attained by some permutation
            all_v = sorted(v_sigma(cfg, t.sigma) for t in leibniz_terms(a, cfg))
            for b in freqs:
                assert min(abs(b - x) for x in all_v) <= 1e-9 * max(1.0, v)

    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 4, 5):
            cfg = random_configuration(n, rng)
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            epoly, _ = expand(a, cfg)
            for _ in range(20):
                z = complex(rng.uniform(-10, 10), rng.uniform(-5, 5))
                direct = determinant_direct(a, cfg, z)
                err = abs(epoly.evaluate(z) - direct)
                assert err <= 1e-8 * max(1.0, abs(direct))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(14)
        cfg = random_configuration(5, rng)
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        epoly, _ = expand(a, cfg)
        perm = rng.permutation(5)
        epoly2, _ = expand(a[perm], validate_configuration(cfg.centers[perm]))
        np.testing.assert_allclose(epoly2.frequencies, epoly.frequencies, atol=1e-10)
        for (b1, c1), (b2, c2) in zip(epoly.terms, epoly2.terms):
            scale = max(1.0, np.abs(c1).max())
            np.testing.assert_allclose(c2, c1, atol=1e-9 * scale)

    def test_cap(self):
        cfg = random_configuration(11, seed=1)
        with pytest.raises(TooLarge):
            expand(np.zeros(11), cfg)

    def test_groups_sequence(self, collinear):
        _, report = expand([0.1, 0.2j, 0.3], collinear)
        groups = list(report.groups)
        assert len(report.groups) == len(groups) == 3
        assert report.groups[-1] == groups[2]
        assert report.groups[1:] == tuple(groups[1:])
        assert isinstance(groups[0], CancellationGroup)
        assert type(groups[0].frequency) is float and type(groups[0].cancelled) is bool
        with pytest.raises(IndexError):
            report.groups[3]

    @pytest.mark.parametrize("factor", [_NEAR_FACTOR])
    def test_near_cancellations_filter_every_group(self, factor):
        cfg = validate_configuration(_double_disphenoid())
        _, report = expand(np.zeros(8), cfg)
        thr = factor * report.cancel_tol
        expected = tuple(g for g in report.groups if g.post_scale <= thr * g.pre_scale)
        assert expected and report.near_cancellations() == expected

    def test_strength_length_mismatch(self):
        from resonance_sizer.errors import SizeMismatch

        cfg = random_configuration(3, seed=1)
        with pytest.raises(SizeMismatch):
            expand(np.zeros(2), cfg)


def _double_disphenoid():
    one = np.array(DISPHENOID_CENTERS, dtype=float)
    return np.vstack([one, one + [5.0, 0.0, 0.0]])


# Shapes with tied frequencies; the double disphenoid also has cancelled groups.
STRUCTURED = {
    "cube": list(itertools.product((0.0, 1.0), repeat=3)),
    "octagon": [(math.cos(k * math.pi / 4), math.sin(k * math.pi / 4), 0.0) for k in range(8)],
    "collinear": [(float(k), 0.0, 0.0) for k in range(7)],
    "double-disphenoid": _double_disphenoid(),
}


class TestExpandMatchesReference:
    """The vectorized grouping against the per-group loop, bit for bit."""

    @staticmethod
    def check(a, cfg):
        epoly, report = expand(a, cfg)
        ref_terms, ref_groups, ref_cancelled = expand_reference(a, cfg)
        groups = [(g.frequency, g.pre_scale, g.post_scale, g.cancelled) for g in report.groups]
        assert groups == ref_groups
        assert report.cancelled_frequencies == ref_cancelled
        assert len(epoly.terms) == len(ref_terms)
        for (b, c), (ref_b, ref_c) in zip(epoly.terms, ref_terms):
            assert b == ref_b
            assert c.dtype == ref_c.dtype and c.tobytes() == ref_c.tobytes()
        return report

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(2 if n < 8 else 1):
            cfg = random_configuration(n, rng)
            self.check(rng.normal(size=n) + 1j * rng.normal(size=n), cfg)

    @pytest.mark.parametrize("name", STRUCTURED)
    def test_structured(self, name):
        cfg = validate_configuration(STRUCTURED[name])
        rng = np.random.default_rng(7)
        report = self.check(rng.normal(size=cfg.n) + 1j * rng.normal(size=cfg.n), cfg)
        if name == "double-disphenoid":
            assert report.cancelled_frequencies

    def test_zero_strengths(self):
        self.check(np.zeros(8), validate_configuration(_double_disphenoid()))


class TestExpoPolynomial:
    def test_merges_equal_frequencies_and_trims(self):
        epoly = ExpoPolynomial([1.0, 1.0, 0.0], [[1, 2, 0], [-1, 0, 0], [3]])
        assert [b for b, _ in epoly.terms] == [0.0, 1.0]
        np.testing.assert_array_equal(epoly.coefficients(1.0), [0, 2])

    def test_equal_length_and_scalar_inputs(self):
        epoly = ExpoPolynomial([1.0, 0.0, 1.0], [[1, 2], [3, 0], [-1, 0]])
        assert [b for b, _ in epoly.terms] == [0.0, 1.0]
        np.testing.assert_array_equal(epoly.coefficients(0.0), [3])
        np.testing.assert_array_equal(epoly.coefficients(1.0), [0, 2])
        assert not epoly.coefficients(1.0).flags.writeable
        scalar = ExpoPolynomial([2.0, 0.0], [1.5, [1, 1j]])
        np.testing.assert_array_equal(scalar.coefficients(2.0), [1.5])

    def test_drops_zero_polynomials(self):
        epoly = ExpoPolynomial([0.0, 2.0], [[1], [0, 0]])
        assert [b for b, _ in epoly.terms] == [0.0]

    def test_effective_size_of_empty_raises(self):
        with pytest.raises(ValidationError):
            ExpoPolynomial([]).effective_size

    def test_evaluate_constant(self):
        epoly = ExpoPolynomial([0.0], [[1.0]])
        assert epoly.evaluate(1.3 - 2j) == 1.0

    def test_evaluate_pair_at_zero(self, unit_pair):
        epoly, _ = expand([0, 0], unit_pair)
        assert epoly.evaluate(0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_evaluate_array(self):
        epoly = ExpoPolynomial([0.0, 2.0], [[0, 1], [1]])
        z = np.array([0.0, 1.0 + 1j])
        expected = z + np.exp(2j * z)
        np.testing.assert_allclose(epoly.evaluate(z), expected, rtol=1e-14)

    def test_derivative_of_linear_term(self):
        d = ExpoPolynomial([0.0], [[0, 1]]).derivative()
        assert [b for b, _ in d.terms] == [0.0]
        np.testing.assert_array_equal(d.coefficients(0.0), [1])

    def test_derivative_of_pure_exponential(self):
        d = ExpoPolynomial([1.5], [[1.0]]).derivative()
        np.testing.assert_allclose(d.coefficients(1.5), [1.5j])

    def test_derivative_finite_difference(self):
        rng = np.random.default_rng(15)
        cfg = random_configuration(4, rng)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        epoly, _ = expand(a, cfg)
        deriv = epoly.derivative()
        h = 1e-5
        for _ in range(10):
            z = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
            fd = (epoly.evaluate(z + h) - epoly.evaluate(z - h)) / (2 * h)
            exact = deriv.evaluate(z)
            assert abs(fd - exact) <= 1e-6 * (1 + abs(exact))

    def test_array_constructor_normalises(self):
        freqs = np.array([2.0, 0.0, 1.0, 2.0, 3.0])
        coeffs = np.array(
            [[1, 2, 0, 0], [3, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 1j, 0, 0]]
        )
        epoly = ExpoPolynomial(freqs, coeffs)
        # sorted, 2.0 merged, the zero row at 1.0 dropped
        np.testing.assert_array_equal(epoly.frequencies, [0.0, 2.0, 3.0])
        assert epoly.nu == 2 and epoly.effective_size == 3.0
        np.testing.assert_array_equal(epoly.coefficients(2.0), [0, 2])
        np.testing.assert_array_equal(epoly.coefficients(3.0), [0, 1j])
        with pytest.raises(KeyError):
            epoly.coefficients(1.0)
        # trailing zero columns trimmed to the widest row
        assert epoly._fdf_table()[1].shape == (3, 4)
        assert not epoly.frequencies.flags.writeable
        freqs[:] = 7.0
        coeffs[:] = 0.0
        np.testing.assert_array_equal(epoly.frequencies, [0.0, 2.0, 3.0])
        np.testing.assert_array_equal(epoly.coefficients(0.0), [3])

    def test_array_constructor_ragged_and_empty(self):
        epoly = ExpoPolynomial((1.0, 0.0), ([1, 2, 0], 4))
        np.testing.assert_array_equal(epoly.frequencies, [0.0, 1.0])
        assert [c.tolist() for _, c in epoly.terms] == [[4], [1, 2]]
        zero_rows = ExpoPolynomial([1.0, 2.0], [[0], [0, 0]])
        for empty in (ExpoPolynomial(), ExpoPolynomial([], []), zero_rows):
            assert empty.frequencies.shape == (0,) and empty.nu == -1
            assert empty.terms == () and empty.to_jsonable() == []
            assert empty.derivative().terms == ()
        with pytest.raises(ValidationError):
            ExpoPolynomial([0.0, 1.0], [[1, 2]])

    @pytest.mark.parametrize(
        "freqs, coeffs, match",
        [
            ([math.nan, 1.0], [[1.0], [2.0]], "frequencies"),
            ([1.0, math.inf], [[1.0], [2.0]], "frequencies"),
            ([-1.0, 2.0], [[1.0], [2.0]], "frequencies"),
            ([0.0, -0.0, -1e-300], [[1.0], [2.0], [3.0]], "frequencies"),
            ([0.0, 1.0], [[1.0], [math.nan]], "coefficients"),
            ([0.0, 1.0], [[1.0, complex(0, math.inf)], [2.0]], "coefficients"),
            ([0.0], [[complex(math.nan, 0)]], "coefficients"),
        ],
    )
    def test_constructor_rejects_non_finite_or_negative(self, freqs, coeffs, match):
        with pytest.raises(ValidationError, match=match):
            ExpoPolynomial(freqs, coeffs)

    def test_terms_match_pairwise_construction(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            size = int(rng.integers(1, 12))
            freqs = rng.choice([0.0, 0.5, 1.25, 3.0], size=size).tolist()
            rows = [
                (rng.integers(-1, 2, size=int(rng.integers(1, 5))) * (1 + 1j)).tolist()
                for _ in range(size)
            ]
            epoly = ExpoPolynomial(freqs, rows)
            ref = canonical_terms_reference(freqs, rows)
            assert isinstance(epoly.terms, tuple) and epoly.terms is epoly.terms
            assert len(epoly.terms) == len(ref)
            for (b, c), (ref_b, ref_c) in zip(epoly.terms, ref):
                assert type(b) is float and b == ref_b
                assert c.dtype == complex and np.array_equal(c, ref_c)
                assert not c.flags.writeable
            np.testing.assert_array_equal(epoly.frequencies, [b for b, _ in ref])

    def test_expansion_holds_few_python_objects(self):
        rng = np.random.default_rng(17)
        cfg = random_configuration(8, rng)
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        expand(a, cfg)  # fills the sweep's table cache
        gc.collect()
        before = sys.getallocatedblocks()
        held = expand(a, cfg)
        gc.collect()
        assert len(held[0].frequencies) > 10_000
        assert sys.getallocatedblocks() - before < 1000

    def test_json_roundtrip(self, unit_pair):
        epoly, _ = expand([0.5, -0.25j], unit_pair)
        data = epoly.to_jsonable()
        rebuilt = ExpoPolynomial(
            [item["frequency"] for item in data],
            [[complex(re, im) for re, im in item["coefficients"]] for item in data],
        )
        z = 1.1 - 0.3j
        assert rebuilt.evaluate(z) == pytest.approx(epoly.evaluate(z), rel=1e-15)


def _sample_points(rng, size):
    return rng.uniform(-30, 30, size) + 1j * rng.uniform(-8, 3, size)


class TestValueAndDerivative:
    """The fused kernel against separate D and D' evaluations."""

    @staticmethod
    def check(epoly, z):
        f, df = epoly.value_and_derivative(z)
        for got, want in [
            (f, epoly.evaluate(z)),
            (f, evaluate_reference(epoly, z)),
            (df, epoly.derivative().evaluate(z)),
            (df, evaluate_reference(derivative_reference(epoly), z)),
        ]:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random(self, n):
        rng = np.random.default_rng(200 + n)
        cfg = random_configuration(n, rng)
        epoly, _ = expand(rng.normal(size=n) + 1j * rng.normal(size=n), cfg)
        self.check(epoly, _sample_points(rng, 500))

    @pytest.mark.parametrize("strengths", [np.zeros(4), [0.3, -0.2, 0.1, 0.5], [0.2j, 1, -1j, 0.5 + 0.5j]])
    def test_disphenoid(self, disphenoid, strengths):
        epoly, _ = expand(strengths, disphenoid)
        self.check(epoly, _sample_points(np.random.default_rng(3), 500))

    def test_zero_frequency_polynomial(self):
        epoly = zero_frequency_polynomial([1j, 2j, -0.5, 0.3 + 0.1j])
        self.check(epoly, _sample_points(np.random.default_rng(4), 200))

    def test_scalar_gives_complex_pair(self, unit_pair):
        epoly, _ = expand([0.1, 0.2j], unit_pair)
        f, df = epoly.value_and_derivative(1.3 - 0.2j)
        assert type(f) is complex and type(df) is complex
        fa, dfa = epoly.value_and_derivative(np.array([1.3 - 0.2j]))
        assert f == fa[0] and df == dfa[0]

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_keeps_shape(self, unit_pair, shape):
        epoly, _ = expand([0.1, 0.2j], unit_pair)
        rng = np.random.default_rng(5)
        z = _sample_points(rng, int(np.prod(shape))).reshape(shape)
        f, df = epoly.value_and_derivative(z)
        assert np.shape(f) == np.shape(df) == shape
        flat_f, flat_df = epoly.value_and_derivative(z.ravel())
        np.testing.assert_array_equal(np.ravel(f), flat_f)
        np.testing.assert_array_equal(np.ravel(df), flat_df)

    def test_longer_than_one_block(self):
        rng = np.random.default_rng(6)
        cfg = random_configuration(5, rng)
        epoly, _ = expand(rng.normal(size=5), cfg)
        rows = _KERNEL_BLOCK // len(epoly.terms)
        self.check(epoly, _sample_points(rng, 3 * rows + 5))

    def test_empty(self):
        f, df = ExpoPolynomial([]).value_and_derivative(np.array([0.5, 1j]))
        np.testing.assert_array_equal(f, [0, 0])
        np.testing.assert_array_equal(df, [0, 0])


def _random_table(width: int, seed: int) -> ExpoPolynomial:
    rng = np.random.default_rng(seed)
    freqs = np.sort(rng.uniform(0, 4, width))
    return ExpoPolynomial(freqs, rng.normal(size=(width, 3)) + 1j * rng.normal(size=(width, 3)))


# Tables for the kernel's phase sharing, by the rows a block holds: 2730,
# 11 (an odd count the sharing rounds up to 12) and 2 (one pair).
SHARING_TABLES = {
    "3 frequencies": _random_table(3, 0),
    "700 frequencies": _random_table(700, 1),
    "3000 frequencies": _random_table(3000, 2),
}


def shared_block_rows(epoly) -> int:
    """Rows per block when some real part repeats: the one-exp block
    rounded up to an even count."""
    rows = max(1, _KERNEL_BLOCK // len(epoly.frequencies))
    return rows + rows % 2


@st.composite
def runs_of_equal_real_part(draw):
    """Points in runs that share Re z bit for bit: pairs, runs of 3 or
    more, and single points; neighbouring runs may share it too."""
    xs = st.sampled_from([-7.25, -0.5, -0.0, 0.0, 1.0, 3.3])
    ys = st.lists(st.floats(-3, 3), min_size=1, max_size=5)
    runs = draw(st.lists(st.tuples(xs, ys), max_size=10))
    return np.array([complex(x, y) for x, ys in runs for y in ys], dtype=complex)


class TestSharedPhase:
    """The kernel against value_and_derivative_reference, which takes one
    complex exp per point and frequency."""

    @staticmethod
    def assert_same_bits(epoly, z):
        got, want = epoly.value_and_derivative(z), value_and_derivative_reference(epoly, z)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    @settings(max_examples=60, deadline=None)
    @given(table=st.sampled_from(sorted(SHARING_TABLES)), z=runs_of_equal_real_part())
    def test_matches_oracle(self, table, z):
        epoly = SHARING_TABLES[table]
        assert kernel_gap(epoly, z) <= KERNEL_REL_TOL
        if not (z.real[1:] == z.real[:-1]).any():
            self.assert_same_bits(epoly, z)

    @pytest.mark.parametrize("table", sorted(SHARING_TABLES))
    def test_run_across_block_boundary(self, table):
        epoly = SHARING_TABLES[table]
        rows = shared_block_rows(epoly)
        # a run of rows + 3 from the second-to-last row of the first block on
        z = np.concatenate([np.arange(rows - 2) - 1j, 2.5 + 1j * np.linspace(-1, 1, rows + 3)])
        assert kernel_gap(epoly, z) <= KERNEL_REL_TOL

    @pytest.mark.parametrize("table", sorted(SHARING_TABLES))
    def test_scalar_and_empty_are_unchanged(self, table):
        epoly = SHARING_TABLES[table]
        for z in (1.25 - 0.5j, np.array([1.25 - 0.5j]), np.empty(0, dtype=complex)):
            self.assert_same_bits(epoly, z)

    @pytest.mark.parametrize("wide", [False, True], ids=["N=5", "5000 frequencies"])
    def test_paired_level_shares_its_phase_rows(self, monkeypatch, wide):
        """A circle level of n nodes takes at most n/2 + 2 phase rows: one per
        conjugate pair and one per real-offset node.  A one-exp block of the
        5000-wide table holds one row, a shared one holds one pair."""
        if wide:
            epoly = _random_table(5000, 3)
        else:
            rng = np.random.default_rng(7)
            epoly, _ = expand(rng.normal(size=5), random_configuration(5, rng))
        exp, rows = np.exp, []

        def counting_exp(x, *args, **kwargs):
            if np.iscomplexobj(x) and np.ndim(x) == 2:
                rows.append(len(x))
            return exp(x, *args, **kwargs)

        levels = Circle(0.3 - 0.2j, 25.0).node_levels(epoly.effective_size)
        for _, (_, z, _, _) in zip(range(2), levels):
            rows.clear()
            with monkeypatch.context() as m:
                m.setattr(np, "exp", counting_exp)
                epoly.value_and_derivative(z)
            assert 0 < sum(rows) <= len(z) // 2 + 2


def test_zero_frequency_polynomial_roots():
    a = np.array([1j, 2j])
    epoly = zero_frequency_polynomial(a)
    assert [b for b, _ in epoly.terms] == [0.0]
    for root in (-4j * np.pi * a).tolist():
        assert abs(epoly.evaluate(root)) <= 1e-10


def _stack_cases():
    rng = np.random.default_rng(20)
    for n in range(2, 8):
        yield f"random-{n}", [random_configuration(n, rng) for _ in range(3)]
    disphenoid = validate_configuration(DISPHENOID_CENTERS)
    moved = validate_configuration(disphenoid.centers @ np.diag([1.0, -1.0, 1.0]) + 0.1)
    collinear = validate_configuration([(k, 0, 0) for k in range(4)])
    yield "ties-4", [disphenoid, moved, collinear, random_configuration(4, rng)]


@pytest.mark.parametrize("configs", [c for _, c in _stack_cases()], ids=[i for i, _ in _stack_cases()])
def test_expand_stack_rows_equal_expand_bit_for_bit(configs):
    n = configs[0].n
    rng = np.random.default_rng(n)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    bounds, freqs, coeffs, pre, post, cancelled = _expand_stack(
        np.stack([distance_matrix(c) for c in configs]),
        _mask_polynomials(-FOUR_PI * a),
        DEFAULT_FREQ_TOL,
        DEFAULT_CANCEL_TOL,
    )
    assert bounds[0] == 0 and bounds[-1] == len(freqs) and len(bounds) == len(configs) + 1
    for t, config in enumerate(configs):
        epoly, report = expand(a, config)
        rows = slice(bounds[t], bounds[t + 1])
        for got, want in zip((freqs, pre, post, cancelled), report.groups._columns):
            assert got[rows].tobytes() == want.tobytes()
        kept = coeffs[rows][~cancelled[rows]]
        width = epoly._coeffs.shape[1]
        assert kept[:, :width].tobytes() == epoly._coeffs.tobytes()
        assert not kept[:, width:].any()
