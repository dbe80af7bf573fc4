"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a one-line [PASS] summary (run with `pytest -s` to see them inline).
"""

import itertools
import math
import time

import numpy as np

from resonance_sizer import (
    Rectangle,
    classify,
    count_zeros_disk,
    determinant_direct,
    enumerate_classes,
    expand,
    find_resonances,
    is_generic,
    random_configuration,
    size_v,
    validate_configuration,
)
from resonance_sizer.sizing import representative_values
from tests.conftest import apply_rigid_motion, brute_size, scale_configuration
from tests.permutation_reference import (
    Permutation,
    class_mates,
    edge_equivalent,
    permutation_sign,
    v_sigma,
)


def _report(label: str, detail: str) -> None:
    print(f"\n[PASS] {label}: {detail}")


def _random_strengths(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _random_disk_points(rng, count, radius):
    r = radius * np.sqrt(rng.uniform(size=count))
    theta = rng.uniform(0, 2 * np.pi, size=count)
    return r * np.exp(1j * theta)


def test_c01_oracle_agreement_expansion_vs_determinant():
    """Criterion 1: expansion matches the direct determinant to 1e-8."""
    start = time.time()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    n_configs = 0
    for n in (2, 3, 4, 5, 6):
        for _ in range(20):
            cfg = random_configuration(n, rng)
            a = _random_strengths(rng, n)
            epoly, _ = expand(a, cfg)
            for z in _random_disk_points(rng, 20, 10.0):
                direct = determinant_direct(a, cfg, complex(z))
                err = abs(epoly.evaluate(complex(z)) - direct) / max(1.0, abs(direct))
                worst = max(worst, err)
                assert err <= 1e-8
            n_configs += 1
    elapsed = time.time() - start
    assert n_configs == 100
    assert elapsed < 60.0
    _report(
        "criterion 1",
        f"100 configs (N=2..6) x 20 points, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_c02_pair_closed_form():
    """Criterion 2: N=2 canonical form matches the hand determinant."""
    a1, a2 = 0.3 + 0.2j, -0.1 + 0.5j
    worst = 0.0
    for d in (1.0, 0.5, 2.0):
        cfg = validate_configuration([(0, 0, 0), (d, 0, 0)])
        epoly, _ = expand([a1, a2], cfg)
        freqs = epoly.frequencies
        assert len(freqs) == 2
        assert abs(freqs[0]) <= 1e-12
        assert abs(freqs[1] - 2 * d) <= 1e-12
        p0_expected = np.array(
            [16 * np.pi**2 * a1 * a2, -4j * np.pi * (a1 + a2), -1.0]
        )
        ptop_expected = np.array([-1.0 / d**2])
        for got, expected in (
            (epoly.coefficients(freqs[0]), p0_expected),
            (epoly.coefficients(freqs[1]), ptop_expected),
        ):
            assert len(got) == len(expected)
            err = np.max(np.abs(got - expected) / np.maximum(1.0, np.abs(expected)))
            worst = max(worst, float(err))
            assert err <= 1e-12
    _report("criterion 2", f"d in {{1, 0.5, 2}}, max coefficient err {worst:.2e}")


def test_c03_genericity_monte_carlo():
    """Criterion 3: random configurations are generic with b_nu = V."""
    start = time.time()
    worst_gap = np.inf
    worst_dev = 0.0
    for n, base_seed in ((3, 300000), (4, 400000), (5, 500000)):
        generic = 0
        for i in range(1000):
            cfg = random_configuration(n, seed=base_seed + i)
            report = is_generic(cfg)
            generic += report.is_generic
            worst_gap = min(worst_gap, report.min_gap)
            epoly, _ = expand(np.zeros(n), cfg)
            v = size_v(cfg).v
            dev = abs(epoly.effective_size - v) / max(1.0, v)
            worst_dev = max(worst_dev, dev)
            assert dev <= 1e-9
        assert generic == 1000
    elapsed = time.time() - start
    assert elapsed < 600.0
    _report(
        "criterion 3",
        "3000 samples (N=3,4,5) all generic; "
        f"min gap {worst_gap:.2e}, max |b_nu-V|/V {worst_dev:.2e}, {elapsed:.1f}s",
    )


def _first_generic_config(n, seed0):
    for seed in range(seed0, seed0 + 50):
        cfg = random_configuration(n, seed=seed)
        if is_generic(cfg).is_generic:
            return cfg
    raise AssertionError("no generic sample found")


def test_c04_counting_asymptotics():
    """Criterion 4: empirical slope matches b_nu / pi within 3 percent."""
    start = time.time()
    details = []
    cases = [
        (validate_configuration([(0, 0, 0), (1, 0, 0)]), np.zeros(2)),
        (_first_generic_config(3, 20260800), np.zeros(3)),
    ]
    for cfg, a in cases:
        epoly, _ = expand(a, cfg)
        b = epoly.effective_size
        radii = [20.0 * k * (2.0 / b) for k in range(1, 11)]
        report = classify(a, cfg, radii=radii)
        assert all(res <= 1e-3 for res in report.winding_residuals)
        rel = abs(report.w_est - b) / b
        assert rel <= 0.03
        details.append(f"N={cfg.n}: pi*slope={report.w_est:.4f} vs b_nu={b:.4f} ({rel:.1%})")
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report("criterion 4", "; ".join(details) + f", {elapsed:.1f}s")


def test_c05_class_enumeration():
    """Criterion 5: class counts 2, 5, 17 verified against a pairwise oracle."""
    expected = {2: 2, 3: 5, 4: 17}
    for n, want in expected.items():
        classes = enumerate_classes(n)
        assert len(classes) == want
        sizes = [len(class_mates(Permutation(image))) for image in classes.tolist()]
        assert sum(sizes) == math.factorial(n)
        # independent oracle: group S_N by pairwise edge-equivalence
        groups = []
        for image in itertools.permutations(range(n)):
            sigma = Permutation(image)
            for group in groups:
                if edge_equivalent(sigma, group[0]):
                    group.append(sigma)
                    break
            else:
                groups.append([sigma])
        assert len(groups) == want
        assert sorted(len(g) for g in groups) == sorted(sizes)
    _report("criterion 5", "n = 2, 5, 17 for N = 2, 3, 4; partitions sum to N!")


def test_c06_assignment_equals_brute_force():
    """Criterion 6: Hungarian-style assignment equals brute-force maximum."""
    start = time.time()
    rng = np.random.default_rng(606060)
    worst = 0.0
    for n in range(2, 8):
        for _ in range(100):
            cfg = random_configuration(n, rng)
            brute_v, _ = brute_size(cfg)
            assign = size_v(cfg)
            err = abs(assign.v - brute_v) / max(1.0, brute_v)
            worst = max(worst, err)
            assert err <= 1e-12
    elapsed = time.time() - start
    _report(
        "criterion 6",
        f"600 configs (N=2..7), max |assignment-brute|/V {worst:.2e}, {elapsed:.1f}s",
    )


def test_c07_invariance_suite():
    """Criterion 7: class-mate invariants plus rigid-motion/relabel/scale."""
    rng = np.random.default_rng(707070)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        cfg = random_configuration(n, rng)
        sigma = Permutation(tuple(int(x) for x in rng.permutation(n)))
        mates = class_mates(sigma)
        mate = mates[int(rng.integers(len(mates)))]
        assert permutation_sign(mate) == permutation_sign(sigma)
        v_total = size_v(cfg).v
        dv = abs(v_sigma(cfg, sigma) - v_sigma(cfg, mate))
        worst = max(worst, dv / v_total)
        assert dv <= 1e-12 * v_total

    for _ in range(25):
        n = int(rng.integers(3, 7))
        cfg = random_configuration(n, rng)
        a = _random_strengths(rng, n)
        base = classify(a, cfg)

        moved = apply_rigid_motion(cfg, rng)
        rep = classify(a, moved)
        assert rep.classification == base.classification
        assert abs(rep.b_nu - base.b_nu) <= 1e-9 * max(1.0, base.b_nu)
        assert abs(rep.v - base.v) <= 1e-9 * max(1.0, base.v)

        perm = rng.permutation(n)
        rep = classify(a[perm], validate_configuration(cfg.centers[perm]))
        assert rep.classification == base.classification
        assert abs(rep.b_nu - base.b_nu) <= 1e-9 * max(1.0, base.b_nu)

        c = float(rng.uniform(0.3, 3.0))
        rep = classify(a, scale_configuration(cfg, c))
        assert rep.classification == base.classification
        assert abs(rep.b_nu - c * base.b_nu) <= 1e-9 * max(1.0, c * base.b_nu)
        assert abs(rep.v - c * base.v) <= 1e-9 * max(1.0, c * base.v)
    _report(
        "criterion 7",
        f"1000 class-mate triples (max |dV|/V {worst:.2e}) and 25 "
        "rigid-motion/relabel/scale checks",
    )


def test_c08_nonequivalent_pairs_separated():
    """Criterion 8: every non-equivalent representative pair separates."""
    for n, seed in ((3, 808080), (4, 818181)):
        reps = enumerate_classes(n)
        value_rows = []
        for i in range(20):
            cfg = random_configuration(n, seed=seed + i)
            _, values = representative_values(cfg)
            value_rows.append(values)
        values = np.array(value_rows)  # (20, n_classes)
        n_classes = len(reps)
        for j in range(n_classes):
            for m in range(j + 1, n_classes):
                best = np.max(np.abs(values[:, j] - values[:, m]))
                assert best > 1e-6, (n, reps[j].tolist(), reps[m].tolist())
    _report(
        "criterion 8",
        "all non-equivalent representative pairs (N=3,4) separated by >1e-6 "
        "on at least one of 20 random configurations",
    )


def test_c09_pair_resonance_residuals_and_disk_consistency():
    """Criterion 9: polished roots satisfy the transcendental equation."""
    start = time.time()
    cfg = validate_configuration([(0, 0, 0), (1, 0, 0)])
    epoly, _ = expand([0, 0], cfg)
    fdf = epoly.value_and_derivative

    found = find_resonances(fdf, Rectangle(0, 20, -5, 0), freq_scale=2.0)
    assert found
    worst = 0.0
    for res in found:
        z = res.location
        residual = abs(z**2 + np.exp(2j * z))
        worst = max(worst, residual)
        assert residual <= 1e-8
        assert not res.is_cluster

    # enclosing disk: |z| < 21 covers the rectangle (corner modulus ~20.6)
    disk = count_zeros_disk(fdf, 21.0, freq_scale=2.0)
    square = find_resonances(fdf, Rectangle(-21, 21, -21, 21), freq_scale=2.0)
    in_disk = sum(r.multiplicity for r in square if abs(r.location) < 21.0)
    assert in_disk == disk.count
    elapsed = time.time() - start
    _report(
        "criterion 9",
        f"{len(found)} roots in [0,20]x[-5,0], max |z^2+e^(2iz)| {worst:.2e}; "
        f"disk count {disk.count} matches localization, {elapsed:.1f}s",
    )


def test_c10_collinear_weyl_but_not_generic():
    """Criterion 10: genericity is sufficient but not necessary for Weyl."""
    cfg = validate_configuration([(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    report = is_generic(cfg)
    assert not report.is_generic
    classification = classify(np.zeros(3), cfg)
    assert classification.classification == "Weyl"
    epoly, cancels = expand(np.zeros(3), cfg)
    top = epoly.coefficients(epoly.effective_size)
    assert len(top) == 2  # degree exactly 1: constants survive alongside -iz/4
    np.testing.assert_allclose(top, [1.0, -0.25j], atol=1e-12)
    assert not any(g.cancelled for g in cancels.groups)
    _report(
        "criterion 10",
        "collinear 0,1,2 is non-generic yet Weyl; top group 1 - iz/4 survives",
    )
